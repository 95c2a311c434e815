"""Integer partitions, per-vertex partition tuples, and their inner product.

A partition is a weakly decreasing tuple of positive integers; the empty
partition is the unique partition of 0.  The inner product

    pairing(lam, mu) = sum over part sizes i, j of min(i, j) * m_i(lam) * m_j(mu)

(with ``m_k`` the multiplicity of the part ``k``) drives every exponent of L
in the quiver generating function, so it lives here next to the enumeration
helpers.  The size vectors of partition tuples are the exponents that grade
the generating functions; exponents_upto lists them up to a total degree.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate, product
from operator import mul
from typing import Iterable, Iterator


class Partition:
    """A weakly decreasing tuple of positive parts, hashable and immutable."""

    __slots__ = ("parts", "_columns")

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(int(p) for p in parts)
        if any(p <= 0 for p in parts):
            raise ValueError(f"partition parts must be positive: {parts!r}")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"partition parts must be weakly decreasing: {parts!r}")
        self.parts = parts
        # the conjugate parts: column k has one box per part of size >= k
        counts = [0] * (parts[0] if parts else 0)
        for p in parts:
            counts[p - 1] += 1
        self._columns = tuple(accumulate(reversed(counts)))[::-1]

    @classmethod
    def ones(cls, n: int) -> "Partition":
        """The partition (1, 1, ..., 1) of n; n = 0 gives the empty partition."""
        if n < 0:
            raise ValueError("partition size must be nonnegative")
        return cls((1,) * n)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"

    def multiplicity(self, k: int) -> int:
        """Number of parts equal to k (k >= 1)."""
        if k < 1:
            raise ValueError("part sizes start at 1")
        return sum(1 for p in self.parts if p == k)

    def multiplicities(self) -> dict[int, int]:
        """Map part size -> multiplicity for the sizes that occur."""
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def conjugate(self) -> "Partition":
        """The transposed Young diagram."""
        return Partition(self._columns)

    def _prepend(self, first: int) -> "Partition":
        """(first, *self.parts) for first >= every part, without re-validating.

        The new part adds one box to each of the first `first` columns.
        """
        lam = object.__new__(Partition)
        lam.parts = (first,) + self.parts
        cols = self._columns
        lam._columns = tuple(c + 1 for c in cols) + (1,) * (first - len(cols))
        return lam


# A tuple of partitions, one per quiver vertex.
PartitionTuple = tuple[Partition, ...]


def pairing(lam: Partition, mu: Partition) -> int:
    """The min-weighted multiplicity pairing of two partitions.

    Computed as the dot product of the conjugate partitions, to which it is
    equal; the pairing with an empty partition is 0 (empty sum).
    """
    return sum(map(mul, lam._columns, mu._columns))


@lru_cache(maxsize=256)
def _partitions_cached(n: int) -> tuple[Partition, ...]:
    """partitions_of(n) from the cached smaller sizes, one _prepend per partition.

    The partitions of n with largest part `first` are `first` prepended to
    the partitions of n - first with largest part at most `first`, which
    form a suffix of partitions_of(n - first) in reverse-lexicographic order.
    """
    if n == 0:
        return (Partition(),)
    out = []
    for first in range(n, 0, -1):
        rest = _partitions_cached(n - first)
        start = bisect_left(rest, -first, key=_minus_largest_part)
        out.extend(lam._prepend(first) for lam in rest[start:])
    return tuple(out)


def _minus_largest_part(lam: Partition) -> int:
    return -lam.parts[0] if lam.parts else 0


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, exactly once, in reverse-lexicographic order.

    The order is canonical and documented: (n) first, (1,...,1) last, e.g.
    partitions_of(4) is (4), (3,1), (2,2), (2,1,1), (1,1,1,1).
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    return list(_partitions_cached(n))


def tuples_with_sizes(sizes: Iterable[int]) -> Iterator[tuple[Partition, ...]]:
    """All tuples (lam_0, ..., lam_{n-1}) with |lam_i| equal to the i-th size.

    Streams each tuple exactly once; the first coordinate varies slowest and
    each coordinate runs in partitions_of order, so the total order is fixed.
    """
    pools = [_partitions_cached(int(k)) for k in sizes]
    return product(*pools)


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
