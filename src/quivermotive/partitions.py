"""Integer partitions, per-vertex partition tuples, and their inner product.

A partition is a weakly decreasing tuple of positive integers; the empty
partition is the unique partition of 0.  The inner product

    pairing(lam, mu) = sum over part sizes i, j of min(i, j) * m_i(lam) * m_j(mu)

(with ``m_k`` the multiplicity of the part ``k``) drives every exponent of L
in the quiver generating function, so it lives here next to the enumeration
helpers.  The size vectors of partition tuples are the exponents that grade
the generating functions; exponents_upto (quiver module, re-exported here)
lists them up to a total degree.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, product
from operator import mul
from typing import Iterable, Iterator

from .quiver import exponents_upto  # its home is quiver; importable here too


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

    def multiplicities(self) -> dict[int, int]:
        """Map part size -> multiplicity for the sizes that occur."""
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def conjugate(self) -> "Partition":
        """The transposed Young diagram."""
        return Partition(self._columns)


def pairing(lam: Partition, mu: Partition) -> int:
    """The min-weighted multiplicity pairing of two partitions.

    Computed as the dot product of the conjugate partitions, to which it is
    equal; the pairing with an empty partition is 0 (empty sum).
    """
    return sum(map(mul, lam._columns, mu._columns))


def _descending(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    """The weakly decreasing tuples of parts at most cap that sum to n, largest first."""
    if n == 0:
        yield ()
    for first in range(min(n, cap), 0, -1):
        for rest in _descending(n - first, first):
            yield (first, *rest)


@lru_cache(maxsize=256)
def _partitions_cached(n: int) -> tuple[Partition, ...]:
    return tuple(map(Partition, _descending(n, n)))


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
