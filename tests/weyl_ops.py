"""Reflection group operations that only the tests use.

Each is read off an element's canonical word or the group's `lmul` and
`length` tables, so the checks that call them still test those tables.
"""


def identity(group):
    return group.from_word(())


def generator(group, i):
    return group.from_word((i,))


def inverse(w):
    return w.group.from_word(tuple(reversed(w.word)))


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
    return group._element(group._apply(x.word, y.index))


def order(group):
    return len(group.elements())


def bruhat_leq(group, x, y):
    """Bruhat order: x lies in the interval [e, y]."""
    return bool(group._interval(y.index) >> x.index & 1)
