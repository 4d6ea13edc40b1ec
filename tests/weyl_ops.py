"""Reflection group operations that only the tests use.

Each is read off an element's canonical word or the group's `lmul` and
`length` tables, so the checks that call them still test those tables.
"""

import weakref

# group -> its listed elements by id; listing keeps every id, so ids run
# 0 .. order - 1 once a group is listed
_BY_ID = weakref.WeakKeyDictionary()


def element(group, w):
    """The listed element of id w."""
    by_id = _BY_ID.get(group)
    if by_id is None:
        by_id = _BY_ID[group] = sorted(group.elements(),
                                       key=lambda e: e.index)
    return by_id[w]


def from_word(group, word):
    """The listed element s_(i1) ... s_(ik) for the word (i1, ..., ik)."""
    group.check_word(word)
    return element(group, group._apply(word, 0))


def identity(group):
    return from_word(group, ())


def generator(group, i):
    return from_word(group, (i,))


def inverse(w):
    return from_word(w.group, tuple(reversed(w.word)))


def act_root(w, root):
    """w applied to a root in the group's simple-root coordinates."""
    return w.group.act_word_root(w.word, root)


def left_descent(w):
    """Some i with length(s_i w) < length(w), or None for the identity."""
    return w.word[0] if w.word else None


def has_left_descent(group, w, i):
    return group.length[group.lmul[i][w.index]] < w.length


def act(w, weight):
    """w applied to a weight in the group's coordinates: for the Weyl group
    of a datum, its fundamental-weight coordinates."""
    return w.group.act_word(w.word, weight)


def reflect(datum, root, weight):
    """The reflection in a root of the datum acting on one of its weights."""
    return weight - datum.pairing(weight, root) * datum.root_weight(root)


def act_integral(desc, w, weight):
    """An element of the integral Weyl group of a block descriptor acting
    on a weight of the ambient datum: its word read as reflections in the
    integral simples."""
    for i in reversed(w.word):
        weight = reflect(desc.datum, desc.simples[i], weight)
    return weight


def mult(group, x, y):
    """The listed element x y, read off the `lmul` rows from y's id."""
    return element(group, group._apply(x.word, y.index))


def order(group):
    return len(group.elements())


def bruhat_leq(group, x, y):
    """Bruhat order: x lies in the interval [e, y]."""
    return bool(group._interval(y.index) >> x.index & 1)
