"""Integer complexity tables, shortest-expression search, and analyses.

The complexity of n is the least number of 1s in an arithmetic
expression for n over {1, +, *} (OEIS A005245); the rank of n is the
least tree height among its shortest expressions.  The package provides
one block-segmented table builder (``build_sieve`` with optional ranks,
``build_dp``/``resume_dp`` with checkpoints), the exhaustive oracle
that checks it, a binary table format, and the derived sequences,
scans, and verification suites.
"""

from .core import (
    BoundPair,
    ComplexityTable,
    addend_bound,
    complexity_bounds,
    defect,
    integer_logarithm,
    is_power_of_3,
    log_complexity,
    lower_bound,
    max_expressible,
    mersenne_upper_bound,
    second_max_expressible,
    upper_bound,
)
from .dp import build_dp, resume_dp
from .enumerator import CapExceededError, OracleResult, oracle_complexity, oracle_table
from .expr import ExprTree, add, canonicalize, infix, mul, one, postfix_emit, postfix_parse
from .sieve import build_sieve
from .storage import Checkpoint, IcxError, load, load_table, save

__version__ = "0.1.0"

__all__ = [
    "BoundPair",
    "CapExceededError",
    "Checkpoint",
    "ComplexityTable",
    "ExprTree",
    "IcxError",
    "OracleResult",
    "add",
    "addend_bound",
    "build_dp",
    "build_sieve",
    "canonicalize",
    "complexity_bounds",
    "defect",
    "infix",
    "integer_logarithm",
    "is_power_of_3",
    "load",
    "load_table",
    "log_complexity",
    "lower_bound",
    "max_expressible",
    "mersenne_upper_bound",
    "mul",
    "one",
    "oracle_complexity",
    "oracle_table",
    "postfix_emit",
    "postfix_parse",
    "resume_dp",
    "save",
    "second_max_expressible",
    "upper_bound",
]
