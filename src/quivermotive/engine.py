"""The generating-function engine for quiver variety classes.

For a quiver with framing vector w, the class of the variety attached to a
dimension vector v is read off a quotient of two partition-indexed series:
the numerator sums, over tuples of partitions (one per vertex), a term

    L^kappa / [Z]

where kappa collects the partition pairings over the arrows and the framing,
and [Z] is the class of the centralizer of a nilpotent tuple of the given
Jordan types.  The denominator is the same sum with zero framing.  The
T^v coefficient of the quotient, shifted by L to the power -(group dim minus
representation dim), is an integer polynomial in L; anything else signals a
bug and raises.

The series are computed without a single polynomial gcd.  The coefficient
at exponent e is kept as a numerator over a denominator fixed by e alone,

    P_e = product over vertices i of (L - 1)(L^2 - 1)...(L^e_i - 1),

and the numerator is a Laurent polynomial: L^offset times an integer
polynomial.  The centralizer class of a Jordan type lam of size k is L^a
times P_k / c(lam), where c(lam) = P_k / prod_r P_{m_r} (m_r the part
multiplicities) is an exact polynomial cofactor and
a = <lam, lam> - sum_r m_r (m_r + 1) / 2, so a coefficient's numerator is a
plain sum of L^power * prod_i c(lam_i).  Because P_e / (P_f P_{e-f}) is the
product of the Gaussian binomials [e_i choose f_i]_L, the framed series F,
the unframed series U and their quotient Q = F / U satisfy

    N(F)_e = sum over f <= e of [e choose f]_L * N(U)_f * N(Q)_{e-f}.

The unframed constant term N(U)_0 is exactly 1, so the quotient follows by
one recursion from the constant term,

    N(Q)_e = N(F)_e - sum over 0 < f <= e of [e choose f]_L * N(U)_f * N(Q)_{e-f}.

The only division is N(Q)_v / P_v in _class_at, exact whenever the class
is a polynomial; when it is inexact, or leaves a negative power of L, the
reduced fraction is built only to word the PolynomialityError.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from typing import Sequence

from .lrat import LRat, Poly, _padd, _pdiv_exact, _pmul, _pneg, _pshift
from .partitions import Partition, pairing, tuples_with_sizes
from .quiver import InputError, Quiver, check_dim_vector, d_shift
from .series import MSeries, exponents_upto


class PolynomialityError(ArithmeticError):
    """The extracted class failed to reduce to an integer polynomial in L."""


@dataclass(frozen=True)
class MotiveResult:
    """The class of one quiver variety as a polynomial, with its shift d."""

    quiver: Quiver
    v: tuple[int, ...]
    w: tuple[int, ...]
    d_shift: int
    class_polynomial: tuple[int, ...]

    @property
    def coefficient_raw(self) -> LRat:
        """The T^v coefficient of motive_series: L^d_shift times the class."""
        return _fraction((self.d_shift, self.class_polynomial), (1,))


def centralizer_class(lam_tuple: Sequence[Partition]) -> LRat:
    """Class of the centralizer of a tuple of nilpotent Jordan types.

    The product of L^a * P_|lam| / c over the cofactors (a, c) of the
    entries: the cofactors the series divide by.  Always a polynomial in L;
    the empty tuple gives 1.
    """
    power, poly = 0, (1,)
    for lam in lam_tuple:
        a, c = _cofactor(lam)
        power += a
        poly = _pmul(poly, _pdiv_exact(_cyclo_range(0, lam.size), c))
    return LRat._raw(_pshift(poly, power), (1,))


def kappa(quiver: Quiver, w: Sequence[int], lam_tuple: Sequence[Partition]) -> int:
    """Pairing sum over arrows plus framing pairings against (1,...,1)."""
    w = check_dim_vector(quiver, w, "w")
    if len(lam_tuple) != quiver.vertex_count:
        raise ValueError(
            f"partition tuple has {len(lam_tuple)} entries, "
            f"quiver has {quiver.vertex_count} vertices"
        )
    total = sum(pairing(lam_tuple[s], lam_tuple[t]) for s, t in quiver.arrows)
    # <(1,...,1), lam> with wi ones is wi times the number of parts of lam
    total += sum(wi * len(lam) for wi, lam in zip(w, lam_tuple))
    return total


# A Laurent polynomial L^offset * poly with poly[0] != 0; zero is (0, ()).
Laurent = tuple[int, Poly]
# A truncated series as numerators over P_e, keyed by exponent; zeros left out.
Graded = dict[tuple[int, ...], Laurent]

_LAURENT_ONE: Laurent = (0, (1,))


@lru_cache(maxsize=1024)
def _cyclo_range(low: int, high: int) -> Poly:
    """P_high / P_low = (L^(low+1) - 1)...(L^high - 1), for low <= high."""
    out = [1]
    for j in range(low + 1, high + 1):
        # times (L^j - 1): a shift by j and a subtraction
        times = [0] * j + out
        for i, c in enumerate(out):
            times[i] -= c
        out = times
    return tuple(out)


def _denominator(exp: Sequence[int]) -> Poly:
    """P_e: the product of P_{e_i} over the vertices."""
    out: Poly = (1,)
    for k in exp:
        out = _pmul(out, _cyclo_range(0, k))
    return out


@lru_cache(maxsize=1024)
def _gauss_binomial(n: int, k: int) -> Poly:
    """[n choose k]_L = P_n / (P_k P_{n-k}), by the L-Pascal rule."""
    if k == 0 or k == n:
        return (1,)
    return _padd(_gauss_binomial(n - 1, k - 1), _pshift(_gauss_binomial(n - 1, k), k))


@lru_cache(maxsize=4096)
def _cofactor(lam: Partition) -> tuple[int, Poly]:
    """(a, c) with centralizer class L^a * P_|lam| / c.

    a = <lam, lam> - sum_r m_r (m_r + 1) / 2 and c = P_|lam| / prod_r P_{m_r}
    over the part multiplicities m_r.  With M the largest of them,
    P_|lam| / P_M is a cached product, divided exactly by the (L^j - 1)
    factors of the remaining P_{m_r}.
    """
    mults = sorted(lam.multiplicities().values())
    a = pairing(lam, lam) - sum(m * (m + 1) // 2 for m in mults)
    c = _cyclo_range(mults.pop() if mults else 0, lam.size)
    for m in mults:
        for j in range(1, m + 1):
            c = _divide_cyclo(c, j)
    return a, c


def _divide_cyclo(a: Poly, j: int) -> Poly:
    """a / (L^j - 1), raising ArithmeticError unless the division is exact."""
    n = len(a) - j
    q = [-c for c in a[:n]]
    for i in range(j, n):
        q[i] += q[i - j]
    # q matches a below L^n by construction; the top j coefficients of
    # (L^j - 1) * q are those of L^j * q alone
    if n < 1 or list(a[n:]) != ([0] * j + q)[n:]:
        raise ArithmeticError("inexact polynomial division")
    return tuple(q)


def _laurent_sum(terms: list[Laurent]) -> Laurent:
    """The sum of Laurent polynomials, normalized so that poly[0] != 0."""
    if not terms:
        return (0, ())
    base = min(offset for offset, _ in terms)
    acc = [0] * max(offset - base + len(poly) for offset, poly in terms)
    for offset, poly in terms:
        start = offset - base
        for i, c in enumerate(poly):
            acc[start + i] += c
    for low, c in enumerate(acc):
        if c:
            while not acc[-1]:
                acc.pop()
            return base + low, tuple(acc[low:])
    return (0, ())


def _fraction(num: Laurent, den: Poly) -> LRat:
    """L^offset * poly / den as a reduced LRat, by gcd."""
    offset, poly = num
    if offset >= 0:
        return LRat(_pshift(poly, offset), den)
    return LRat(poly, _pshift(den, -offset))


def _nilpotent_numerator(quiver: Quiver, w: tuple[int, ...], exp: tuple[int, ...]) -> Laurent:
    """Numerator over P_exp of the sum of L^kappa / [Z] over tuples of sizes exp."""
    terms = []
    for tup in tuples_with_sizes(exp):
        power = kappa(quiver, w, tup)
        factors = []
        for lam in tup:
            a, c = _cofactor(lam)
            power -= a
            factors.append(c)
        terms.append((power, reduce(_pmul, factors)))
    return _laurent_sum(terms)


def _graded_quotient(framed: Graded, unframed: Graded, nvars: int, bound: int) -> Graded:
    """Numerators of framed / unframed, by the recursion from the constant term.

    N(Q)_e = N(F)_e - sum over 0 < f <= e of [e choose f]_L N(U)_f N(Q)_{e-f};
    exact because N(U)_0 is 1, which is checked.
    """
    constant = unframed.get((0,) * nvars, (0, ()))
    if constant != _LAURENT_ONE:
        raise PolynomialityError(
            f"series division needs the unframed constant term 1, got {_fraction(constant, (1,))}"
        )
    out: Graded = {}
    for exp in exponents_upto(nvars, bound):
        terms = [framed[exp]] if exp in framed else []
        for f in product(*(range(k + 1) for k in exp)):
            x = unframed.get(f)
            y = out.get(tuple(k - j for k, j in zip(exp, f)))
            # out has no entry at exp yet, so y is None at f = 0
            if x is None or y is None:
                continue
            poly = _pneg(_pmul(x[1], y[1]))
            for n, k in zip(exp, f):
                if 0 < k < n:
                    poly = _pmul(poly, _gauss_binomial(n, k))
            terms.append((x[0] + y[0], poly))
        num = _laurent_sum(terms)
        if num[1]:
            out[exp] = num
    return out


@lru_cache(maxsize=16)
def _nilpotent_numerators(
    quiver: Quiver, w: tuple[int, ...], bound: int, threads: int
) -> Graded:
    exps = exponents_upto(quiver.vertex_count, bound)

    def numerator_for(exp: tuple[int, ...]) -> Laurent:
        return _nilpotent_numerator(quiver, w, exp)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            values = list(pool.map(numerator_for, exps))
    else:
        values = [numerator_for(exp) for exp in exps]
    return {exp: num for exp, num in zip(exps, values) if num[1]}


@lru_cache(maxsize=16)
def _quotient_numerators(
    quiver: Quiver, w: tuple[int, ...], bound: int, threads: int
) -> Graded:
    n = quiver.vertex_count
    framed = _nilpotent_numerators(quiver, w, bound, threads)
    unframed = _nilpotent_numerators(quiver, (0,) * n, bound, threads)
    return _graded_quotient(framed, unframed, n, bound)


def nilpotent_series(
    quiver: Quiver, w: Sequence[int], bound: int, threads: int = 1
) -> MSeries:
    """Sum of L^kappa / [Z] over all partition tuples, graded by per-vertex sizes.

    The T-exponent of a tuple is its vector of partition sizes; the constant
    term is always 1.
    """
    w = check_dim_vector(quiver, w, "w")
    if bound < 0:
        raise InputError("truncation bound must be nonnegative")
    numerators = _nilpotent_numerators(quiver, w, bound, threads)
    coeffs = {exp: _fraction(num, _denominator(exp)) for exp, num in numerators.items()}
    return MSeries._raw(quiver.vertex_count, bound, coeffs)


def _class_at(
    quiver: Quiver, v: tuple[int, ...], w: tuple[int, ...], quotient: Graded
) -> MotiveResult:
    """The class at v read off the quotient numerators: N(Q)_v / P_v * L^-d.

    One exact division by P_v.  Its quotient has a nonzero constant term
    (P_v has constant term +-1 and a numerator's poly starts nonzero), so
    the class is a polynomial only if the division is exact and the L
    offset is nonnegative; otherwise PolynomialityError shows the reduced
    fraction.  Negative coefficients are legal but suspicious, and warn.
    """
    d = d_shift(quiver, v, w)
    offset, num = quotient.get(v, (0, ()))
    offset -= d
    den = _denominator(v)
    try:
        poly = _pdiv_exact(num, den)
    except ArithmeticError:
        poly = None
    if poly is None or (offset < 0 and poly):
        raise PolynomialityError(
            f"polynomiality violated for v={v}, w={w}: got {_fraction((offset, num), den)}"
        )
    poly = _pshift(poly, offset)
    if any(c < 0 for c in poly):
        warnings.warn(
            f"negative coefficient in class polynomial for v={v}, w={w}: {poly}",
            RuntimeWarning,
            stacklevel=2,
        )
    return MotiveResult(quiver, v, w, d, poly)


def motive_class(
    quiver: Quiver, v: Sequence[int], w: Sequence[int], threads: int = 1
) -> MotiveResult:
    """The class of the quiver variety for (v, w) as a polynomial in L.

    Truncates the series at total degree sum(v), extracts the T^v
    coefficient and clears the dimension shift.  A non-polynomial result
    raises PolynomialityError (it would mean an engine bug, not a feature of
    the input).
    """
    v = check_dim_vector(quiver, v, "v")
    w = check_dim_vector(quiver, w, "w")
    return _class_at(quiver, v, w, _quotient_numerators(quiver, w, sum(v), threads))


def motive_table(
    quiver: Quiver, w: Sequence[int], bound: int, threads: int = 1
) -> list[MotiveResult]:
    """Classes for every v with total size <= bound, from one shared series.

    Rows come out in graded lexicographic order of v.  Each row agrees with
    a direct motive_class call by truncation independence.
    """
    w = check_dim_vector(quiver, w, "w")
    if bound < 0:
        raise InputError("truncation bound must be nonnegative")
    quotient = _quotient_numerators(quiver, w, bound, threads)
    return [_class_at(quiver, v, w, quotient) for v in exponents_upto(quiver.vertex_count, bound)]


def motive_series(quiver: Quiver, w: Sequence[int], bound: int, threads: int = 1) -> MSeries:
    """The quotient series whose T^v coefficient carries the class of (v, w).

    Equals the framed nilpotent series divided by its zero-framing sibling;
    the constant term is 1 by construction.  Built from the motive_table
    rows, so a coefficient that is no polynomial after the shift raises
    PolynomialityError.
    """
    rows = motive_table(quiver, w, bound, threads)
    coeffs = {row.v: row.coefficient_raw for row in rows if row.class_polynomial}
    return MSeries._raw(quiver.vertex_count, bound, coeffs)


def betti_report(result: MotiveResult) -> list[tuple[int, int]]:
    """Nonzero coefficients of the class polynomial, ascending in the L power."""
    return [(k, c) for k, c in enumerate(result.class_polynomial) if c]
