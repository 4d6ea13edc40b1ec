"""Exact composition multiplicities for truncated current Lie algebras."""

from .root_datum import (CartanType, RootDatum, Weight, WeylElement,
                         build_root_datum)
from .kl import KLPolynomial, integral_subsystem, kl_polynomial
from .trunc_weights import TruncatedWeight, find_twisting_word, n_dot, same_block
from .characters import (FormalCharacter, PartitionCache, decompose_in_block,
                         kostant_partition, verma_character)
from .engine import (MultiplicityQuery, MultiplicityTrace, multiplicity,
                     multiplicity_table)
from .oracle import (ChevalleyBasis, TruncatedModule, build_verma,
                     invariants_character, oracle_multiplicity, simple_character)

__version__ = "0.1.0"
