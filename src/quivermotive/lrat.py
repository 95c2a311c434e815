"""Exact arithmetic with rational functions of the Lefschetz class L.

Values are fractions of integer-coefficient polynomials in the single
variable L, kept in a canonical reduced form: numerator and denominator share
no polynomial factor, their integer contents are coprime, and the denominator
has a positive leading coefficient.  With that normalization equal values
have identical representations, so equality and hashing are structural.

Numerators and denominators are coefficient tuples of the polynomial kernel
(poly module), whose names this module re-exports; the gcds and the
normalization live here.  The engine computes without gcds, so the motive and
series commands load this module only to word an exit-3 message.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Union

from .poly import Poly, _pdiv_exact, _peval, _pmul, _pshift, _trim, format_poly

if TYPE_CHECKING:
    from fractions import Fraction


def _as_poly(value) -> Poly:
    if isinstance(value, int):
        return (value,) if value else ()
    return _trim(int(c) for c in value)


def _padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pneg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def _pcontent(a: Poly) -> int:
    return math.gcd(*a) if a else 0


def _pprimitive(a: Poly) -> Poly:
    """Primitive part with positive leading coefficient; zero stays zero."""
    if not a:
        return a
    c = _pcontent(a)
    if a[-1] < 0:
        c = -c
    return tuple(x // c for x in a)


def _pseudo_rem(a: Poly, b: Poly) -> Poly:
    """Remainder of a by b over the integers, rescaled by powers of lc(b)."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while True:
        while r and r[-1] == 0:
            r.pop()
        dr = len(r) - 1
        if dr < db:
            return tuple(r)
        lead = r[-1]
        for i in range(len(r)):
            r[i] *= lb
        off = dr - db
        for i in range(db + 1):
            r[off + i] -= lead * b[i]


def _pgcd(a: Poly, b: Poly) -> Poly:
    """Gcd of the primitive parts, primitive with positive leading coefficient."""
    a, b = _pprimitive(a), _pprimitive(b)
    while b:
        a, b = b, _pprimitive(_pseudo_rem(a, b))
    return a


def _reduced(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """The canonical form of num / den, with zero as 0 / 1.

    The polynomial gcd and the common integer content are divided out, and
    the denominator leads positive.
    """
    if not num:
        return (), (1,)
    g = _pgcd(num, den)
    if len(g) > 1:
        num = _pdiv_exact(num, g)
        den = _pdiv_exact(den, g)
    c = math.gcd(_pcontent(num), _pcontent(den))
    if den[-1] < 0:
        c = -c
    return tuple(x // c for x in num), tuple(x // c for x in den)


class LRat:
    """A reduced fraction of integer polynomials in L."""

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        n = _as_poly(num)
        d = _as_poly(den)
        if not d:
            raise ZeroDivisionError("division by zero in the localized ring")
        self.num, self.den = _reduced(n, d)

    @classmethod
    def _raw(cls, num: Poly, den: Poly) -> "LRat":
        # Caller guarantees the pair is already canonical.
        obj = object.__new__(cls)
        obj.num = num
        obj.den = den
        return obj

    @staticmethod
    def from_int(value: int) -> "LRat":
        return LRat._raw(_as_poly(value), (1,))

    @staticmethod
    def l_power(k: int) -> "LRat":
        """L^k for any integer k, negative powers going to the denominator."""
        if k >= 0:
            return LRat._raw(_pshift((1,), k), (1,))
        return LRat._raw((1,), _pshift((1,), -k))

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LRat.from_int(other)
        if not isinstance(other, LRat):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other) -> "LRat":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return LRat._raw(*_reduced(num, _pmul(self.den, other.den)))

    __radd__ = __add__

    def __neg__(self) -> "LRat":
        return LRat._raw(_pneg(self.num), self.den)

    def __sub__(self, other) -> "LRat":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LRat":
        return (-self) + other

    def __mul__(self, other) -> "LRat":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return LRat._raw(*_reduced(_pmul(self.num, other.num), _pmul(self.den, other.den)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LRat":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "LRat":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int) -> "LRat":
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        out = ONE
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "LRat":
        """The multiplicative inverse; zero raises."""
        if not self.num:
            raise ZeroDivisionError("division by zero in the localized ring")
        num, den = self.den, self.num
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        return LRat._raw(num, den)

    def as_polynomial(self) -> Optional[Poly]:
        """Ascending coefficients if the value is a polynomial in L, else None.

        Zero is the empty tuple.
        """
        return self.num if self.den == (1,) else None

    def eval_at(self, q: int) -> Fraction:
        """Exact value at L = q; raises if the denominator vanishes there."""
        # imported here: the engine commands never evaluate, so never load it
        from fractions import Fraction

        d = _peval(self.den, q)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at L = {q}")
        return Fraction(_peval(self.num, q), d)

    def __str__(self) -> str:
        if self.den == (1,):
            return format_poly(self.num)
        return f"({format_poly(self.num)}) / ({format_poly(self.den)})"

    def __repr__(self) -> str:
        return f"LRat('{self}')"


def _coerce(value) -> Union[LRat, object]:
    if isinstance(value, LRat):
        return value
    if isinstance(value, int):
        return LRat.from_int(value)
    return NotImplemented


ZERO = LRat._raw((), (1,))
ONE = LRat._raw((1,), (1,))
L = LRat.l_power(1)


def gl_class(n: int) -> LRat:
    """Class of the invertible n x n matrices: product of (L^n - L^j), j < n.

    The empty product (n = 0) is 1.
    """
    if n < 0:
        raise ValueError("matrix size must be nonnegative")
    out = (1,)
    ln = _pshift((1,), n)
    for j in range(n):
        out = _pmul(out, _padd(ln, _pneg(_pshift((1,), j))))
    return LRat._raw(out, (1,))
