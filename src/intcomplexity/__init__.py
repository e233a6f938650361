"""Integer complexity tables, shortest-expression search, and analyses.

The complexity of n is the least number of 1s in an arithmetic
expression for n over {1, +, *} (OEIS A005245); the rank of n is the
least tree height among its shortest expressions.  The package provides
one block-segmented table builder (``build``, with optional ranks,
checkpoints and resume), the exhaustive oracle that checks it, a binary
table format, and the derived sequences, scans, and verification suites.
"""

import importlib

from .core import (
    ComplexityTable,
    addend_bound,
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
from .storage import IcxError, load, save

# names of the oracle and the expression trees, imported on first use
# (PEP 562) so that a build does not load those modules
_LAZY = {
    **dict.fromkeys(("CapExceededError", "OracleResult", "oracle_complexity", "oracle_table"),
                    "enumerator"),
    **dict.fromkeys(("ExprTree", "add", "canonicalize", "infix", "mul", "one", "postfix_emit",
                     "postfix_parse"), "expr"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted([*globals(), *_LAZY])


__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "ComplexityTable",
    "ExprTree",
    "IcxError",
    "OracleResult",
    "add",
    "addend_bound",
    "build",
    "canonicalize",
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
