"""Quiver data, dimension bookkeeping, and the quiver spec file format.

A quiver is a finite directed multigraph; loops and repeated arrows are
allowed.  Dimension vectors are plain tuples of nonnegative integers, one
entry per vertex; exponents_upto lists them up to a total degree, in the
graded order of the engine's series.  Spec files are JSON objects with
fields ``vertices`` and ``edges`` plus optional named vectors ``w``, ``v``
and ``max_degree``; unknown fields are rejected.
"""

from __future__ import annotations

import json
from functools import lru_cache
from operator import index
from typing import Iterator, Sequence


class InputError(ValueError):
    """An input the program refuses: the command line exits 2 on it."""


class QuiverFormatError(InputError):
    """Raised for malformed quiver spec files, with a field diagnostic."""


class _Record:
    """Value semantics over the fields named in __slots__: a frozen record.

    Equality and hashing compare the field values of records of one class,
    the repr lists them as field=value, assignment raises, and copies and
    pickles go through the constructor.
    """

    __slots__ = ()

    def _init(self, *values) -> None:
        """Set the fields in __slots__ order, once, from the constructor."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Quiver(_Record):
    """A finite directed multigraph on vertices 0..vertex_count-1."""

    __slots__ = ("vertex_count", "arrows")

    def __init__(self, vertex_count: int, arrows: tuple[tuple[int, int], ...] = ()):
        if vertex_count < 1:
            raise ValueError("a quiver needs at least one vertex")
        arrows = tuple((int(s), int(t)) for s, t in arrows)
        for s, t in arrows:
            if not (0 <= s < vertex_count and 0 <= t < vertex_count):
                raise ValueError(f"arrow ({s}, {t}) out of range for {vertex_count} vertices")
        self._init(vertex_count, arrows)


def check_dim_vector(quiver: Quiver, vec: Sequence[int], name: str = "dimension vector") -> tuple[int, ...]:
    """Validate and normalize a dimension vector for the quiver.

    Entries must be integers: Python ints or any integer scalar with
    __index__, normalized to int.  A bool, float or str entry is refused, never
    truncated or parsed.
    """
    entries = tuple(vec)
    try:
        if bool in map(type, entries):
            raise TypeError
        vec = tuple(map(index, entries))
    except TypeError:
        raise InputError(f"{name} entries must be integers: {entries}") from None
    if len(vec) != quiver.vertex_count:
        raise InputError(
            f"{name} has {len(vec)} entries, quiver has {quiver.vertex_count} vertices"
        )
    if any(x < 0 for x in vec):
        raise InputError(f"{name} entries must be nonnegative: {vec}")
    return vec


def _vectors_with_sum(nvars: int, total: int) -> Iterator[tuple[int, ...]]:
    if nvars == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _vectors_with_sum(nvars - 1, total - first):
            yield (first,) + rest


@lru_cache(maxsize=64)
def exponents_upto(nvars: int, bound: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors with total degree <= bound, graded lexicographic."""
    out = []
    for total in range(bound + 1):
        out.extend(_vectors_with_sum(nvars, total))
    return tuple(out)


def dim_rep_space(quiver: Quiver, v: Sequence[int], w: Sequence[int]) -> int:
    """Dimension of the framed representation space for (v, w)."""
    v = check_dim_vector(quiver, v, "v")
    w = check_dim_vector(quiver, w, "w")
    arrows = sum(v[s] * v[t] for s, t in quiver.arrows)
    framing = sum(a * b for a, b in zip(v, w))
    return arrows + framing


def dim_group(v: Sequence[int]) -> int:
    """Dimension of the product of general linear groups attached to v."""
    return sum(int(x) * int(x) for x in v)


def d_shift(quiver: Quiver, v: Sequence[int], w: Sequence[int]) -> int:
    """dim of the group minus dim of the representation space; may be negative."""
    return dim_group(v) - dim_rep_space(quiver, v, w)


_ALLOWED_FIELDS = {"vertices", "edges", "w", "v", "max_degree"}


def _require_int(value, field: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise QuiverFormatError(f"field '{field}' must be an integer, got {value!r}")
    return value


def _require_int_list(value, field: str) -> list[int]:
    if not isinstance(value, list):
        raise QuiverFormatError(f"field '{field}' must be a list of integers")
    return [_require_int(x, f"{field}[{i}]") for i, x in enumerate(value)]


def parse_quiver(text: str) -> tuple[Quiver, dict]:
    """Parse a quiver spec document.

    Returns the quiver and a dict holding whichever of the optional entries
    'w', 'v' (as tuples) and 'max_degree' were present.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise QuiverFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(data, dict):
        raise QuiverFormatError("top-level value must be an object")
    unknown = sorted(set(data) - _ALLOWED_FIELDS)
    if unknown:
        raise QuiverFormatError(f"unknown field(s): {', '.join(unknown)}")
    if "vertices" not in data:
        raise QuiverFormatError("missing required field 'vertices'")
    if "edges" not in data:
        raise QuiverFormatError("missing required field 'edges'")
    n = _require_int(data["vertices"], "vertices")
    if n < 1:
        raise QuiverFormatError("field 'vertices' must be at least 1")
    edges_raw = data["edges"]
    if not isinstance(edges_raw, list):
        raise QuiverFormatError("field 'edges' must be a list of [source, target] pairs")
    arrows = []
    for i, e in enumerate(edges_raw):
        if not isinstance(e, list) or len(e) != 2:
            raise QuiverFormatError(f"edges[{i}] must be a [source, target] pair")
        s = _require_int(e[0], f"edges[{i}][0]")
        t = _require_int(e[1], f"edges[{i}][1]")
        if not (0 <= s < n and 0 <= t < n):
            raise QuiverFormatError(
                f"edges[{i}] = [{s}, {t}] out of range for {n} vertices"
            )
        arrows.append((s, t))
    quiver = Quiver(n, tuple(arrows))
    named: dict = {}
    for key in ("w", "v"):
        if key in data:
            vec = _require_int_list(data[key], key)
            if len(vec) != n:
                raise QuiverFormatError(
                    f"field '{key}' has {len(vec)} entries, quiver has {n} vertices"
                )
            if any(x < 0 for x in vec):
                raise QuiverFormatError(f"field '{key}' entries must be nonnegative")
            named[key] = tuple(vec)
    if "max_degree" in data:
        md = _require_int(data["max_degree"], "max_degree")
        if md < 0:
            raise QuiverFormatError("field 'max_degree' must be nonnegative")
        named["max_degree"] = md
    return quiver, named


def serialize_quiver(quiver: Quiver, named: dict | None = None) -> str:
    """Write a quiver spec document; parse_quiver round-trips it."""
    doc: dict = {
        "vertices": quiver.vertex_count,
        "edges": [[s, t] for s, t in quiver.arrows],
    }
    for key in ("w", "v"):
        if named and key in named:
            doc[key] = list(named[key])
    if named and "max_degree" in named:
        doc["max_degree"] = named["max_degree"]
    return json.dumps(doc, sort_keys=True)


# Small quivers used throughout the verification suites.
JORDAN = Quiver(1, ((0, 0),))
SINGLE_VERTEX = Quiver(1, ())
A2 = Quiver(2, ((0, 1),))
DOUBLE_ARROW = Quiver(2, ((0, 1), (0, 1)))
STAR3 = Quiver(3, ((0, 1), (0, 2)))
TWO_LOOP = Quiver(1, ((0, 0), (0, 0)))

BUILTIN_QUIVERS = {
    "jordan": JORDAN,
    "vertex": SINGLE_VERTEX,
    "a2": A2,
    "double": DOUBLE_ARROW,
    "star3": STAR3,
    "twoloop": TWO_LOOP,
}
