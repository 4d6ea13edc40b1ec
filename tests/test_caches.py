"""Module-level caches are keyed by the Cartan matrix, never by id().

A cache keyed by id(datum) returns another datum's entry once that datum
is freed and a new one is allocated at the same address.  These tests build
and drop data of different types in a loop, so such a cache would answer
with a stale entry.
"""

from trunco.characters import PartitionCache, kostant_partition
from trunco.oracle import ChevalleyBasis
from trunco.root_datum import CartanType, RootDatum

TYPES = ("A1", "A2", "B2", "G2", "C2", "A1xA1", "A3", "B3")


def _fresh(type_str):
    return RootDatum(CartanType.parse(type_str).cartan_matrix())


def test_kostant_partition_of_dropped_data():
    for _ in range(10):
        for type_str in TYPES:
            d = _fresh(type_str)
            beta = tuple(range(2, d.rank + 2))
            assert kostant_partition(d, beta) == \
                PartitionCache(d.positive_roots).count(beta), type_str
            del d


def test_chevalley_basis_of_dropped_data():
    # Its own loop: a basis holds its datum, so a cache that kept one basis
    # per object would keep every datum alive and no address could recur.
    for _ in range(3):
        for type_str in TYPES[:6]:
            d = _fresh(type_str)
            assert ChevalleyBasis.get(d).datum.cartan == d.cartan, type_str
            del d
