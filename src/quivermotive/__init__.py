"""Classes of quiver varieties as polynomials in the Lefschetz class L.

The engine expands a partition-indexed generating function into exact
rational functions of L and extracts integer class polynomials; the lab
modules verify every ingredient against brute-force enumeration over small
prime fields.  The package exports what the README documents; the oracle
internals and engine building blocks stay importable from their modules.

Exports whose code the engine does not run load on first access, through
the name-to-module table _LAZY: the finite-field oracles (and numpy with
them), MSeries, the fraction type LRat with L, and the partition helpers.
Importing the package loads the engine, the polynomial kernel (poly) and
the quiver module, and the motive and series commands load nothing else:
neither numpy, dataclasses, fractions nor the lrat, partitions or series
modules.
"""

from .engine import (
    MotiveResult,
    PolynomialityError,
    betti_report,
    motive_class,
    motive_series,
    motive_table,
)
from .poly import format_poly
from .quiver import (
    A2,
    BUILTIN_QUIVERS,
    DOUBLE_ARROW,
    JORDAN,
    SINGLE_VERTEX,
    STAR3,
    TWO_LOOP,
    Quiver,
    QuiverFormatError,
    parse_quiver,
    serialize_quiver,
)

__version__ = "0.1.0"

# export name -> the module it loads from on first access
_LAZY = {
    "EnumerationBudgetError": "fflab",
    "centralizer_order": "fflab",
    "count_moment_fiber": "fflab",
    "count_stable_fiber": "fflab",
    "kappa_oracle": "fflab",
    "L": "lrat",
    "LRat": "lrat",
    "MSeries": "series",
    "Partition": "partitions",
    "pairing": "partitions",
    "partitions_of": "partitions",
    "tuples_with_sizes": "partitions",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)


__all__ = [
    "A2",
    "BUILTIN_QUIVERS",
    "DOUBLE_ARROW",
    "EnumerationBudgetError",
    "JORDAN",
    "L",
    "LRat",
    "MSeries",
    "MotiveResult",
    "Partition",
    "PolynomialityError",
    "Quiver",
    "QuiverFormatError",
    "SINGLE_VERTEX",
    "STAR3",
    "TWO_LOOP",
    "betti_report",
    "centralizer_order",
    "count_moment_fiber",
    "count_stable_fiber",
    "format_poly",
    "kappa_oracle",
    "motive_class",
    "motive_series",
    "motive_table",
    "pairing",
    "parse_quiver",
    "partitions_of",
    "serialize_quiver",
    "tuples_with_sizes",
]
