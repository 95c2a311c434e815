"""Classes of quiver varieties as polynomials in the Lefschetz class L.

The engine expands a partition-indexed generating function into exact
rational functions of L and extracts integer class polynomials; the lab
modules verify every ingredient against brute-force enumeration over small
prime fields.  The package exports what the README documents; the oracle
internals and engine building blocks stay importable from their modules.
The finite-field oracles need numpy; their exports load on first access, so
importing the package and running the engine never imports numpy.  MSeries
loads the same way, and the motive and series commands import neither
numpy, dataclasses, fractions nor MSeries.
"""

from .engine import (
    MotiveResult,
    PolynomialityError,
    betti_report,
    motive_class,
    motive_series,
    motive_table,
)
from .lrat import L, LRat, format_poly
from .partitions import Partition, pairing, partitions_of, tuples_with_sizes
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

_FFLAB_EXPORTS = (
    "EnumerationBudgetError",
    "centralizer_order",
    "count_moment_fiber",
    "count_stable_fiber",
    "kappa_oracle",
)


def __getattr__(name: str):
    if name in _FFLAB_EXPORTS:
        from . import fflab

        return getattr(fflab, name)
    if name == "MSeries":
        from .series import MSeries

        return MSeries
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
