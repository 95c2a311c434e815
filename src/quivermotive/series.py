"""Truncated multivariate power series over the L-fraction ring.

Truncation is by total degree: a series at bound N stores only exponent
vectors e with sum(e) <= N and multiplication silently drops anything beyond
the bound.  That matches the grading of the partition-indexed generating
functions computed by the engine, where the total degree is the total size
of a partition tuple.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .lrat import LRat, ZERO
from .quiver import exponents_upto  # its home is quiver; importable here too


class MSeries:
    """A truncated power series in T_1..T_n with LRat coefficients."""

    __slots__ = ("nvars", "bound", "coeffs")

    def __init__(self, nvars: int, bound: int, coeffs: Mapping[tuple, LRat] | None = None):
        if nvars < 1:
            raise ValueError("series needs at least one variable")
        if bound < 0:
            raise ValueError("truncation bound must be nonnegative")
        self.nvars = nvars
        self.bound = bound
        stored: dict[tuple[int, ...], LRat] = {}
        for exp, c in (coeffs or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp!r} for {nvars} variables")
            if sum(exp) > bound:
                raise ValueError(f"exponent {exp!r} exceeds truncation bound {bound}")
            if c:
                stored[exp] = c
        self.coeffs = stored

    @classmethod
    def _raw(cls, nvars: int, bound: int, coeffs: dict) -> "MSeries":
        obj = object.__new__(cls)
        obj.nvars = nvars
        obj.bound = bound
        obj.coeffs = coeffs
        return obj

    @classmethod
    def constant(cls, nvars: int, bound: int, value: LRat | int) -> "MSeries":
        if isinstance(value, int):
            value = LRat.from_int(value)
        zero_exp = (0,) * nvars
        return cls._raw(nvars, bound, {zero_exp: value} if value else {})

    def _check_shape(self, other: "MSeries") -> None:
        if self.nvars != other.nvars or self.bound != other.bound:
            raise ValueError(
                f"mismatched series shapes: {self.nvars} vars at bound {self.bound} "
                f"vs {other.nvars} vars at bound {other.bound}"
            )

    def coefficient(self, exp: Iterable[int]) -> LRat:
        """The stored coefficient at the exponent vector, or zero."""
        exp = tuple(int(e) for e in exp)
        if len(exp) != self.nvars or any(e < 0 for e in exp):
            raise ValueError(f"bad exponent vector {exp!r} for {self.nvars} variables")
        if sum(exp) > self.bound:
            raise ValueError(f"exponent {exp!r} outside truncation bound {self.bound}")
        return self.coeffs.get(exp, ZERO)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MSeries):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.bound == other.bound
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "MSeries") -> "MSeries":
        self._check_shape(other)
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            s = out.get(exp)
            s = c if s is None else s + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return MSeries._raw(self.nvars, self.bound, out)

    def __neg__(self) -> "MSeries":
        return MSeries._raw(self.nvars, self.bound, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "MSeries") -> "MSeries":
        return self + (-other)

    def __mul__(self, other: "MSeries") -> "MSeries":
        self._check_shape(other)
        out: dict[tuple[int, ...], LRat] = {}
        bound = self.bound
        for e1, c1 in self.coeffs.items():
            t1 = sum(e1)
            for e2, c2 in other.coeffs.items():
                if t1 + sum(e2) > bound:
                    continue
                exp = tuple(a + b for a, b in zip(e1, e2))
                term = c1 * c2
                s = out.get(exp)
                out[exp] = term if s is None else s + term
        return MSeries._raw(self.nvars, bound, {e: c for e, c in out.items() if c})

    def invert(self) -> "MSeries":
        """Multiplicative inverse up to the truncation bound.

        Degree-by-degree recursion; requires a nonzero constant coefficient.
        """
        zero_exp = (0,) * self.nvars
        c0 = self.coeffs.get(zero_exp)
        if not c0:
            raise ValueError("series not invertible: zero constant term")
        inv0 = c0.inverse()
        neg_inv0 = -inv0
        result: dict[tuple[int, ...], LRat] = {zero_exp: inv0}
        for exp in exponents_upto(self.nvars, self.bound)[1:]:
            acc = None
            for f, sf in self.coeffs.items():
                if f == zero_exp or any(a > b for a, b in zip(f, exp)):
                    continue
                rg = result.get(tuple(b - a for a, b in zip(f, exp)))
                if rg is None:
                    continue
                term = sf * rg
                acc = term if acc is None else acc + term
            if acc is not None and acc:
                result[exp] = neg_inv0 * acc
        return MSeries._raw(self.nvars, self.bound, result)

    def restrict(self, bound: int) -> "MSeries":
        """The same series truncated to a smaller total-degree bound."""
        if bound > self.bound:
            raise ValueError(f"cannot extend bound {self.bound} to {bound}")
        out = {e: c for e, c in self.coeffs.items() if sum(e) <= bound}
        return MSeries._raw(self.nvars, bound, out)

    def __repr__(self) -> str:
        inside = ", ".join(
            f"{exp}: {c}" for exp, c in sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        )
        return f"MSeries({self.nvars} vars, bound {self.bound}, {{{inside}}})"
