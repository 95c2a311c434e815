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
polynomial.  The centralizer class of a Jordan type lam of size n with l
parts is L^a times P_n / c(lam), with the exact polynomial cofactor

    c(lam) = P_n / prod_r P_{m_r} = [l; m_1, ..., m_r]_L * P_n / P_l

(m_r the part multiplicities, [l; m]_L their Gaussian multinomial) and
a = <lam, lam> - sum_r m_r (m_r + 1) / 2, so a coefficient's numerator is a
plain sum of L^power * prod_i c(lam_i).  Because P_e / (P_f P_{e-f}) is the
product of the Gaussian binomials [e_i choose f_i]_L, the framed series F,
the unframed series U and their quotient Q = F / U satisfy

    N(F)_e = sum over f <= e of [e choose f]_L * N(U)_f * N(Q)_{e-f}.

The unframed constant term N(U)_0 is exactly 1, so the quotient follows by
one recursion from the constant term,

    N(Q)_e = N(F)_e - sum over 0 < f <= e of [e choose f]_L * N(U)_f * N(Q)_{e-f}.

One pass over partition tuples.  The framing part of kappa is
sum_i w_i * len(lam_i) = w . l, with l the vector of part counts of the
tuple, and the cofactors depend on the tuple only through (a, M, l).  So the
tuples of sizes e are enumerated once and grouped by l: each group's sum of
L^(kappa_0 - a) * M, with kappa_0 the kappa of w = 0, is multiplied once by
the product of P_{e_i} / P_{l_i}, giving a w-free G_{e,l}.  Then

    N(U)_e = sum over l of G_{e,l},    N(F)_e = sum over l of L^(w . l) G_{e,l},

and the groups are cached per quiver and degree bound, so the framed and
the unframed series, and the tables for further framings, share one
enumeration.  kappa and the group shift use the one framing helper, so the
exponents the kappa checks test are the ones the series use.

Packed evaluation.  Every numerator polynomial is held as one Python int,
its value at L = X = 2^bits, so the cofactors, the numerator sums, the
L-shifts, the Gaussian binomials and the quotient recursion are big-int
shifts, adds and multiplies.  Evaluation at X is a ring homomorphism, so the
packed numerators are exactly the values of the true ones; what needs an
argument is reading a polynomial back.  An integer polynomial whose
coefficients all lie in (-X/2, X/2) is the only such polynomial with its
value at X, and its coefficients are the balanced base-X digits of that
value (_unpack).  bits is fixed before anything is packed, from an a-priori
majorant of the L1 norm (sum of absolute coefficients) of every cofactor
and numerator, which depends only on the degree bound:

    |c(lam)|_1 <= multinomial(l; m) * 2^(n - l), since the Gaussian
        multinomial has nonnegative coefficients summing to the ordinary
        multinomial and |L^j - 1|_1 = 2;
    |N(F)_e|_1 <= prod_i (sum over lam of size e_i of that bound), since
        kappa and a only shift by powers of L; the same holds for N(U)_e.
        The sum is 3^(e_i - 1) for e_i > 0: multinomial(l; m) counts the
        orderings of the parts of lam, so the lam with l parts contribute
        the binomial(e_i - 1, l - 1) compositions of e_i into l parts;
    |N(Q)_e|_1 <= |N(F)_e|_1 + sum over 0 < f <= e of
        prod_i binomial(e_i, f_i) * |N(U)_f|_1 * |N(Q)_{e-f}|_1,
        by the recursion and |ab|_1 <= |a|_1 |b|_1.

Write s(0) = 1 and s(k) = 3^(k - 1), so that |N(F)_e|_1 <= prod_i s(e_i),
and let m(n) = s(n) + sum over k = 1..n of binomial(n, k) * s(k) * m(n - k).
Then |N(Q)_e|_1 <= m(|e|) with |e| the total degree, by induction on |e|:
prod_i s(f_i) <= s(|f|), since s(a) s(b) <= s(a + b), and by Vandermonde
the sum of prod_i binomial(e_i, f_i) over the f <= e with |f| = k is
binomial(|e|, k).  At e = (n, 0, ..., 0) both recursions coincide, so m(n)
is the largest multi-variable majorant at total degree n, and it bounds
every cofactor of size n as well, since s(n) <= m(n).  m increases with n.

bits is the bit length of m(bound) plus 2, so every
coefficient of a cofactor or numerator lies in (-X/4, X/4): such a packed
value is zero exactly when its polynomial is, and unpacking it is exact.
Nothing else is unpacked or tested for zero.  No packed value is ever
divided; the cofactors are built as products.  The
bound depends on nothing the run computes, so a corrupted kappa still
unpacks to its exact numerator, and exit 3 stays a proof.

The only division is N(Q)_v / P_v in _class_at, on the unpacked polynomial,
exact whenever the class is a polynomial; when it is inexact, or leaves a
negative power of L, the reduced fraction is built only to word the
PolynomialityError.

The public functions accept a threads argument for compatibility and ignore
it: the sums are Python and big-integer work under the GIL, and worker
threads over the exponents measured no faster than one thread.
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from itertools import product
from math import comb
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .lrat import LRat, Poly, _pdiv_exact, _pmul, _pshift
from .partitions import (
    Partition,
    PartitionTuple,
    exponents_upto,
    pairing,
    partitions_of,
    tuples_with_sizes,
)
from .quiver import InputError, Quiver, _Record, check_dim_vector, d_shift

if TYPE_CHECKING:
    from .series import MSeries


class PolynomialityError(ArithmeticError):
    """The extracted class failed to reduce to an integer polynomial in L."""


class MotiveResult(_Record):
    """The class of one quiver variety as a polynomial, with its shift d."""

    __slots__ = ("quiver", "v", "w", "d_shift", "class_polynomial")

    def __init__(
        self,
        quiver: Quiver,
        v: tuple[int, ...],
        w: tuple[int, ...],
        d_shift: int,
        class_polynomial: tuple[int, ...],
    ):
        self._init(quiver, v, w, d_shift, class_polynomial)

    @property
    def coefficient_raw(self) -> LRat:
        """The T^v coefficient of motive_series: L^d_shift times the class."""
        return _fraction((self.d_shift, self.class_polynomial), (1,))


def centralizer_class(lam_tuple: Sequence[Partition]) -> LRat:
    """Class of the centralizer of a tuple of nilpotent Jordan types.

    The product of L^a * P_|lam| / c over the entries, with (a, c) unpacked
    from the per-partition data the series numerators are built from.
    Always a polynomial in L; the empty tuple gives 1.
    """
    power, poly = 0, (1,)
    for lam in lam_tuple:
        n = lam.size
        bits = _packing_bits(n)
        a, multinomial, length = _partition_data(bits, n)[lam]
        _, c = _unpack((0, multinomial * _cyclo_packed(length, n, bits)), bits)
        power += a
        poly = _pmul(poly, _pdiv_exact(_cyclo_range(n), c))
    return LRat._raw(_pshift(poly, power), (1,))


def kappa(quiver: Quiver, w: Sequence[int], lam_tuple: Sequence[Partition]) -> int:
    """Pairing sum over arrows plus framing pairings against (1,...,1).

    w is taken as given: one nonnegative entry per vertex.
    """
    if len(lam_tuple) != quiver.vertex_count:
        raise ValueError(
            f"partition tuple has {len(lam_tuple)} entries, "
            f"quiver has {quiver.vertex_count} vertices"
        )
    total = sum(pairing(lam_tuple[s], lam_tuple[t]) for s, t in quiver.arrows)
    return total + _framing(w, lam_tuple)


def _framing(w: Sequence[int], lam_tuple: Sequence[Partition]) -> int:
    """The framing part of kappa: the pairings of (1,...,1) with wi ones and lam_i.

    <(1,...,1), lam> is the number of parts of lam, so this is w . l for the
    part counts l, the same for every tuple of one numerator group.
    """
    return sum(map(mul, w, map(len, lam_tuple)))


# A Laurent polynomial L^offset * poly with poly[0] != 0; zero is (0, ()).
Laurent = tuple[int, Poly]
# L^offset times a polynomial packed as its value at L = 2^bits; zero is (0, 0).
Packed = tuple[int, int]
# A truncated series as packed numerators over P_e, keyed by exponent; zeros
# left out.
Graded = dict[tuple[int, ...], Packed]
# Per exponent e, one entry per part-count vector l: a tuple of the group and
# the packed w-free group sum G_{e,l}.
Groups = dict[tuple[int, ...], list[tuple[PartitionTuple, Packed]]]


@lru_cache(maxsize=64)
def _majorants(bound: int) -> tuple[int, ...]:
    """m(0), ..., m(bound): the one-variable L1-norm majorants of the module docstring."""
    # s(k), the summed majorants of |c(lam)|_1 over the partitions of k
    sizes = [1] + [3 ** (k - 1) for k in range(1, bound + 1)]
    out: list[int] = []
    for n in range(bound + 1):
        tail = sum(comb(n, k) * sizes[k] * out[n - k] for k in range(1, n + 1))
        out.append(sizes[n] + tail)
    return tuple(out)


def _packing_bits(bound: int) -> int:
    """bits for every packed numerator of total degree <= bound, at any vertex count.

    The bit length of m(bound) plus 2; m(bound) bounds the numerators of
    every vertex count.
    """
    return _majorants(bound)[-1].bit_length() + 2


def _unpack(packed: Packed, bits: int) -> Laurent:
    """The Laurent polynomial of a packed value, read as balanced base-2^bits digits.

    Exact when every coefficient lies in (-2^(bits-1), 2^(bits-1)); the
    result is normalized so that poly[0] != 0.
    """
    offset, value = packed
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    digits = []
    while value:
        digit = value & mask
        if digit >= half:
            digit -= 1 << bits
        digits.append(digit)
        value = (value - digit) >> bits
    low = 0
    while low < len(digits) and not digits[low]:
        low += 1
    return (offset + low, tuple(digits[low:])) if digits else (0, ())


def _packed_sum(terms: list[Packed], bits: int) -> Packed:
    """The sum of packed Laurent polynomials, at the lowest offset among them."""
    if not terms:
        return (0, 0)
    base = min(offset for offset, _ in terms)
    return base, sum(value << (bits * (offset - base)) for offset, value in terms)


@lru_cache(maxsize=1024)
def _cyclo_range(high: int) -> Poly:
    """P_high = (L - 1)(L^2 - 1)...(L^high - 1) as a polynomial."""
    out = [1]
    for j in range(1, high + 1):
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
        out = _pmul(out, _cyclo_range(k))
    return out


@lru_cache(maxsize=4096)
def _cyclo_packed(low: int, high: int, bits: int) -> int:
    """P_high / P_low = (L^(low+1) - 1)...(L^high - 1), packed; 1 if high <= low."""
    if high <= low:
        return 1
    rest = _cyclo_packed(low, high - 1, bits)
    return (rest << (bits * high)) - rest


@lru_cache(maxsize=256)
def _gauss_row(n: int, bits: int) -> tuple[int, ...]:
    """[n choose k]_L packed, for k = 0..n, by the L-Pascal rule."""
    if n == 0:
        return (1,)
    above = _gauss_row(n - 1, bits)
    inner = (above[k - 1] + (above[k] << (bits * k)) for k in range(1, n))
    return (1, *inner, 1)


@lru_cache(maxsize=1024)
def _multinomial(mults: tuple[int, ...], bits: int) -> int:
    """The Gaussian multinomial [m_1 + ... + m_r; m_1, ..., m_r]_L, packed."""
    out, total = 1, 0
    for m in mults:
        total += m
        out *= _gauss_row(total, bits)[m]
    return out


@lru_cache(maxsize=16)
def _partition_data(bits: int, bound: int) -> dict[Partition, tuple[int, int, int]]:
    """(a, M, l) for every partition lam of size <= bound: the cofactor source.

    c(lam) = M * P_|lam| / P_l with M = [l; m_1, ..., m_r]_L packed at
    2^bits, l = len(lam) the number of parts, and a the centralizer class
    exponent (module docstring).
    """
    out = {}
    for n in range(bound + 1):
        for lam in partitions_of(n):
            mults = tuple(sorted(lam.multiplicities().values()))
            a = pairing(lam, lam) - sum(m * (m + 1) // 2 for m in mults)
            out[lam] = (a, _multinomial(mults, bits), len(lam))
    return out


def _fraction(num: Laurent, den: Poly) -> LRat:
    """L^offset * poly / den as a reduced LRat, by gcd."""
    offset, poly = num
    if offset >= 0:
        return LRat(_pshift(poly, offset), den)
    return LRat(poly, _pshift(den, -offset))


def _numerator_groups_at(
    quiver: Quiver, exp: tuple[int, ...], data: dict, bits: int
) -> list[tuple[PartitionTuple, Packed]]:
    """The w-free groups G_{exp,l} of the tuples of sizes exp, one per part counts l.

    G_{exp,l} is the packed numerator over P_exp of the sum of
    L^kappa(w = 0) / [Z] over the tuples with part counts l: their
    L^(kappa - a) * M, multiplied once by the factors P_{e_i} / P_{l_i}.
    Each group keeps its first tuple, the argument of its framing shift.
    """
    zero = (0,) * len(exp)
    groups: dict[tuple[int, ...], tuple[PartitionTuple, dict[int, int]]] = {}
    for tup in tuples_with_sizes(exp):
        power = kappa(quiver, zero, tup)
        multinomials, lengths = 1, ()
        for lam in tup:
            a, multinomial, length = data[lam]
            power -= a
            multinomials *= multinomial
            lengths += (length,)
        group = groups.get(lengths)
        if group is None:
            group = groups[lengths] = (tup, {})
        terms = group[1]
        terms[power] = terms.get(power, 0) + multinomials
    out = []
    for lengths, (first, terms) in groups.items():
        offset, value = _packed_sum(list(terms.items()), bits)
        for length, k in zip(lengths, exp):
            value *= _cyclo_packed(length, k, bits)
        out.append((first, (offset, value)))
    return out


def _graded_quotient(
    framed: Graded, unframed: Graded, nvars: int, bound: int, bits: int
) -> Graded:
    """Numerators of framed / unframed, by the recursion from the constant term.

    N(Q)_e = N(F)_e - sum over 0 < f <= e of [e choose f]_L N(U)_f N(Q)_{e-f};
    exact because N(U)_0 is 1, which is checked.
    """
    constant = _unpack(unframed.get((0,) * nvars, (0, 0)), bits)
    if constant != (0, (1,)):
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
            value = -x[1] * y[1]
            for n, k in zip(exp, f):
                value *= _gauss_row(n, bits)[k]
            terms.append((x[0] + y[0], value))
        num = _packed_sum(terms, bits)
        if num[1]:
            out[exp] = num
    return out


@lru_cache(maxsize=16)
def _numerator_groups(quiver: Quiver, bound: int) -> Groups:
    """The w-free groups at every exponent of total degree <= bound: one enumeration."""
    bits = _packing_bits(bound)
    data = _partition_data(bits, bound)
    return {
        exp: _numerator_groups_at(quiver, exp, data, bits)
        for exp in exponents_upto(quiver.vertex_count, bound)
    }


def _nilpotent_numerators(quiver: Quiver, w: tuple[int, ...], bound: int) -> Graded:
    """Packed numerators of the nilpotent series framed by w (w = 0: unframed).

    N_e = sum over l of L^(w . l) G_{e,l}, one packed sum per exponent.
    """
    bits = _packing_bits(bound)
    out: Graded = {}
    for exp, groups in _numerator_groups(quiver, bound).items():
        num = _packed_sum(
            [(offset + _framing(w, first), value) for first, (offset, value) in groups], bits
        )
        if num[1]:
            out[exp] = num
    return out


@lru_cache(maxsize=16)
def _quotient_numerators(quiver: Quiver, w: tuple[int, ...], bound: int) -> Graded:
    n = quiver.vertex_count
    framed = _nilpotent_numerators(quiver, w, bound)
    unframed = _nilpotent_numerators(quiver, (0,) * n, bound)
    return _graded_quotient(framed, unframed, n, bound, _packing_bits(bound))


def nilpotent_series(
    quiver: Quiver, w: Sequence[int], bound: int, threads: int = 1
) -> MSeries:
    """Sum of L^kappa / [Z] over all partition tuples, graded by per-vertex sizes.

    The T-exponent of a tuple is its vector of partition sizes; the constant
    term is always 1.
    """
    from .series import MSeries

    w = check_dim_vector(quiver, w, "w")
    if bound < 0:
        raise InputError("truncation bound must be nonnegative")
    numerators = _nilpotent_numerators(quiver, w, bound)
    bits = _packing_bits(bound)
    coeffs = {
        exp: _fraction(_unpack(num, bits), _denominator(exp)) for exp, num in numerators.items()
    }
    return MSeries._raw(quiver.vertex_count, bound, coeffs)


def _class_at(
    quiver: Quiver, v: tuple[int, ...], w: tuple[int, ...], quotient: Graded, bits: int
) -> MotiveResult:
    """The class at v read off the packed quotient numerators: N(Q)_v / P_v * L^-d.

    N(Q)_v is unpacked, then divided exactly by P_v once.  Its quotient has
    a nonzero constant term (P_v has constant term +-1 and an unpacked
    numerator's poly starts nonzero), so the class is a polynomial only if
    the division is exact and the L offset is nonnegative; otherwise
    PolynomialityError shows the reduced fraction.  Negative coefficients
    are legal but suspicious, and warn.
    """
    d = d_shift(quiver, v, w)
    offset, num = _unpack(quotient.get(v, (0, 0)), bits)
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
    bound = sum(v)
    quotient = _quotient_numerators(quiver, w, bound)
    return _class_at(quiver, v, w, quotient, _packing_bits(bound))


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
    n = quiver.vertex_count
    quotient = _quotient_numerators(quiver, w, bound)
    bits = _packing_bits(bound)
    return [_class_at(quiver, v, w, quotient, bits) for v in exponents_upto(n, bound)]


def motive_series(quiver: Quiver, w: Sequence[int], bound: int, threads: int = 1) -> MSeries:
    """The quotient series whose T^v coefficient carries the class of (v, w).

    Equals the framed nilpotent series divided by its zero-framing sibling;
    the constant term is 1 by construction.  Built from the motive_table
    rows, so a coefficient that is no polynomial after the shift raises
    PolynomialityError.
    """
    from .series import MSeries

    rows = motive_table(quiver, w, bound, threads)
    coeffs = {row.v: row.coefficient_raw for row in rows if row.class_polynomial}
    return MSeries._raw(quiver.vertex_count, bound, coeffs)


def betti_report(result: MotiveResult) -> list[tuple[int, int]]:
    """Nonzero coefficients of the class polynomial, ascending in the L power."""
    return [(k, c) for k, c in enumerate(result.class_polynomial) if c]
