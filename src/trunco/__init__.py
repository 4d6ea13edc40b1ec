"""Exact composition multiplicities for truncated current Lie algebras.

The package root loads only the engine and the KL layer it answers from.
The brute-force module oracle that checks it is a submodule of its own:
``from trunco import oracle``.
"""

from .root_datum import CartanType, RootDatum, Weight, build_root_datum
from .kl import KLPolynomial, integral_subsystem, kl_polynomial
from .trunc_weights import TruncatedWeight, find_twisting_word, same_block
from .characters import (FormalCharacter, PartitionCache, decompose_in_block,
                         kostant_partition, verma_character)
from .engine import (MultiplicityQuery, MultiplicityTrace, multiplicity,
                     multiplicity_table)

__version__ = "0.1.0"
