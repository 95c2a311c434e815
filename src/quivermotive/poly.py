"""The polynomial kernel: integer polynomials in L as coefficient tuples.

Coefficient tuples are stored lowest power first; the empty tuple is zero.
These are the operations the engine, the command line and the verify
suites run: products, shifts by powers of L, exact division, evaluation and
printing.  The reduced-fraction type LRat builds its gcds on top of them
(lrat module), and nothing here takes a gcd.

Printing is ascending with explicit ``L^k`` tokens ("1 + 2*L^1 + L^3");
golden output files rely on that byte for byte.
"""

from __future__ import annotations

from typing import Iterable

Poly = tuple  # integer coefficients, ascending powers, no trailing zeros


def _trim(coeffs: Iterable[int]) -> Poly:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out)


def _pshift(a: Poly, k: int) -> Poly:
    """Multiply by L^k, k >= 0."""
    return ((0,) * k + a) if a else ()


def _peval(a: Poly, x: int) -> int:
    out = 0
    for c in reversed(a):
        out = out * x + c
    return out


def _pdiv_exact(a: Poly, b: Poly) -> Poly:
    """Quotient a / b, asserting that the division is exact over the integers."""
    if not a:
        return ()
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = r[db + k]
        if c % lb:
            raise ArithmeticError("inexact polynomial division")
        c //= lb
        q[k] = c
        if c:
            for i in range(db + 1):
                r[i + k] -= c * b[i]
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return _trim(q)


def format_poly(coeffs: Iterable[int]) -> str:
    """Render an ascending coefficient list with explicit L^k tokens."""
    terms = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k == 0:
            terms.append(str(c))
        elif c == 1:
            terms.append(f"L^{k}")
        elif c == -1:
            terms.append(f"-L^{k}")
        else:
            terms.append(f"{c}*L^{k}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out
