"""Integer complexity tables, shortest-expression search, and analyses.

The complexity of n is the least number of 1s in an arithmetic
expression for n over {1, +, *} (OEIS A005245); the rank of n is the
least tree height among its shortest expressions.  The package provides
one block-segmented table builder (``build``, with optional ranks,
checkpoints and resume), the exhaustive oracle that checks it, a binary
table format, and the derived sequences, scans, and verification suites.
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
from .dp import build
from .enumerator import CapExceededError, OracleResult, oracle_complexity, oracle_table
from .expr import ExprTree, add, canonicalize, infix, mul, one, postfix_emit, postfix_parse
from .storage import IcxError, load, save

__version__ = "0.1.0"

__all__ = [
    "BoundPair",
    "CapExceededError",
    "ComplexityTable",
    "ExprTree",
    "IcxError",
    "OracleResult",
    "add",
    "addend_bound",
    "build",
    "canonicalize",
    "complexity_bounds",
    "defect",
    "infix",
    "integer_logarithm",
    "is_power_of_3",
    "load",
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
    "save",
    "second_max_expressible",
    "upper_bound",
]
