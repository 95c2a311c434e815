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

The recursion runs forward from each nonzero N(Q)_g.  The pending entry at
e starts as N(F)_e, and the exponents g come up in graded order; every term
sent to g comes from a lower total degree, so the entry at g is N(Q)_g when
g comes up.  In push form a nonzero N(Q)_g then adds
-[g + f choose f]_L * N(U)_f * N(Q)_g to the entry at g + f, for every
nonzero N(U)_f with 0 < |f| <= bound - |g|, and a zero N(Q)_g sends
nothing.  Most N(Q)_g are zero for a Dynkin quiver, since M(v, w)
is empty unless Lambda_w - alpha_v is a weight of the tensor product of the
fundamental representations (Nakajima, Duke 1998): star3 with w = (1,1,1)
has 34 nonzero N(Q)_g among the 165 exponents of degree <= 8.  The zero
test reads the packed value, and is exact (Packed evaluation, below).  An
exponent with no N(Q)_v is the empty class, and no P_v is built for it.

Pulled quotient.  At one vertex every N(Q)_g is nonzero, and each push
costs two long products.  Let q_g = N(Q)_g(X) / P_g(X).  In both forms the
quotient stage makes this one big-int division when N(Q)_g comes up, for
every nonzero g, the top degree included; it is exact whenever
N(Q)_g / P_g is a polynomial, and q_g is kept next to the numerators, so
the class at g is read off q_g and never divided again (Packed division,
below).  Only the pull reads q_g inside the recursion.  Since

    [e choose f]_L * P_g = P_e / P_f    for g = e - f,

the term of f at e is (P_e / P_f)(X) * N(U)_f * q_g.  So a nonzero N(Q)_g
records the divided product N(U)_f * q_g at e = g + f, one multiply, and
when e comes up it subtracts the sum over its products of (P_e / P_f)(X)
times the product from N(F)_e and the pushed terms, by a nested Horner over
the sorted f (_pulled_sum).  Per vertex, over ascending f_i, the running
sum is multiplied by (P_k' / P_k)(X) from one f_i = k to the next k': a
single factor L^j - 1 is one shift and one subtraction, and a gap of
several factors one multiply by _cyclo_packed.  Every numerator is the
same integer as in push form, so the majorant, the zero test and the
packed-division certificate below hold unchanged.  A g whose P_g(X) leaves
a remainder, which only a non-polynomial engine gives, keeps no q_g and
keeps the push.

The series stage folds the same way.  N(U)_e is the sum over the part
counts l of (P_e / P_l)(X) * H(l, e - l) (Column chains, below), so in pull
form _series_numerators takes it by the same nested Horner over the sorted
l, and N(F)_e with L^(w . l) in the offsets; in push form it multiplies
each H by its (P_e / P_l)(X) once, by the step the fold takes from one l_i
to the next (_times_cyclo), and sums.  The groups hold the bare H in both
forms.

Both forms pay the division per nonzero g, which the classes need anyway.
The pull adds a Horner step per product and saves the long products, so it
runs only where the values are long: at PULL_VALUE_BITS = 2048 or more bits
per vertex (_pulls), the value length _value_bits that _check_cost uses,
divided by the vertex count.  The threshold comes from the quotient stage
timed both ways in process, with w = (1, ..., 1), medians of interleaved
runs on a shared 2-core Xeon host: pull / push time, and the bits per
vertex by vertex count n.  Both forms make the stage's divisions.

    degree               6      8     10     12     14     16     20
    jordan            1.34   1.24   1.02   0.77   0.48   0.31   0.16
    twoloop           1.38   1.17   0.94   0.69   0.54   0.45   0.40
    vertex            1.39   1.48   1.30   1.28   1.09   0.93   0.56
    a2                1.80   1.65   1.47   1.16   0.89   0.64   0.35
    double            1.59   1.48   1.27   0.99   0.70   0.50   0.34
    loop and edge     1.56   1.40   1.14   0.87   0.56   0.42   0.23
    star3             1.84   1.66   1.43   1.19   0.90   0.62   ----
    3-cycle           1.84   1.69   1.41   1.17   0.91   0.62   ----
    D4                1.91   1.71   1.62   1.32   0.94   0.71   ----
    bits, n = 1        418    999   2016   3555   5830   8905  18146
    bits, n = 2        209    499   1008   1777   2915   4452   9073
    bits, n = 3        139    333    672   1185   1943   2968
    bits, n = 4        104    249    504    888   1457   2226

Below 1,400 bits per vertex the pull is slower on every quiver, by 14 % or
more.  From 2,900 on it is faster on every one but the arrowless vertex,
whose quotient takes 0.2 ms or less where the pull is slower.  In between
the ratio runs from 0.71 to 1.30 and the threshold splits that band.  The
series stage alone, timed the same way with its groups cached, gives ratios
2.13, 1.54 and 0.82 on star3 at degrees 8, 12 and 16 (333, 1,185
and 2,968 bits per vertex), 1.27 and 0.64 on a2 at 12 and 16 (1,777 and
4,452), and 1.37, 0.67 and 0.09 on Jordan at 10, 16 and 28 (2,016, 8,905
and 53,724), so it takes its side from the same _pulls.  The benchmark's
series workloads fall on either side in both stages: Jordan at degree 16
pulls, star3 at degree 8 pushes.

Column chains.  A tuple of partitions, one per vertex, is a chain of column
vectors c_1 >= c_2 >= ... > 0 in Z^n, c_k[i] the k-th column of lam_i, and
every factor of its term depends only on consecutive columns.  With
m = c_k - c_(k+1) (the column after the last is 0), kappa_0, the kappa of
w = 0, is the sum over k of arrows(c_k) = sum over arrows s -> t of
c_k[s] c_k[t]; a is the sum over k of |c_k|^2 - sum_i m_i (m_i + 1) / 2; and
M is the product over k and i of [c_k[i] choose c_(k+1)[i]]_L.  The framing
part of kappa is sum_i w_i * len(lam_i) = w . l, with l = c_1 the vector of
part counts, so the tuples of sizes e are summed in groups of equal l: the
sum of L^(kappa_0 - a) * M over a group, times the product of
P_(e_i) / P_(l_i), is a w-free G_(e,l).  By the locality of the factors,

    G_(e,l) = prod_i (P_(e_i) / P_(l_i)) * H(l, e - l),
    H(c, r) = L^(arrows(c) - |c|^2)
              * sum over c' of prod_i f(c_i, c'_i) * H(c', r - c'),
    f(a, b) = L^((a - b)(a - b + 1) / 2) * [a choose b]_L,

where c'_i runs over 1..min(c_i, r_i) when r_i > 0 and is 0 when r_i = 0,
so H(c, 0) has the single term c' = 0, and H(0, 0) = 1.  H is needed only
where |c| + |r| <= bound.  The engine runs the recursion through the
remaining sizes r in graded order; the table K(c') = H(c', r - c') is
complete by then, since its totals c' + (r - c') are r.  The sum over c' is
a product over vertices, so it is contracted one vertex at a time (sum
factorization), and a partial state is dropped as soon as its columns
exceed bound - |r|.  No partition is enumerated.  Then

    N(U)_e = sum over l of G_(e,l),    N(F)_e = sum over l of L^(w . l) G_(e,l).

The groups, which hold the bare H(l, e - l), are cached per quiver and
degree bound, so the framed and the unframed series, and the tables for
further framings, share one recursion; the series stage applies the
factor P_e / P_l, by the Horner fold or by one multiply per group
(Pulled quotient, above), and sums both series in one pass.  kappa sums
the same arrow term over the columns of a tuple and adds the framing
helper the group shift uses, and _centralizer_poly folds the same column
step f over the columns of a partition, so the exponents and classes the
kappa and centralizer checks test are the ones the series use.  Before
any arithmetic, the recursion's size is estimated from the vertex count
and the bound alone, as its C(bound + 2n, 2n) states (c, r) times the bits
of one value, weighted by the value's LONG_VALUE_BITS blocks because a
product of long values costs more than their length, and a run above
MAX_CHAIN_COST is refused as input.

Packed evaluation.  Every numerator polynomial is held as one Python int,
its value at L = X = 2^bits, so the column steps, the chain sums, the
L-shifts, the factors P_(e_i) / P_(l_i), the Gaussian binomials and the
quotient recursion are big-int shifts, adds, multiplies and exact
divisions.  Evaluation at X is a ring homomorphism, so the packed
numerators are exactly the values of the true ones; what needs an argument
is reading a polynomial back.  An integer polynomial whose
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

bits is the bit length of m(bound) plus 2, so every coefficient of a
cofactor or numerator lies in (-X/4, X/4): such a packed value is zero
exactly when its polynomial is, and unpacking it is exact; in particular
the quotient's zero test on a pending N(Q)_g is exact, since the popped
value is N(Q)_g packed.  The only other values unpacked are the fold of one
partition's column steps in _centralizer_poly, L^(sum m(m+1)/2) * M at the
width of its size n, whose L1 norm multinomial(l; m) <= s(n) <= m(n) is
covered too, and the denominators.  P_e is built only packed
(_cyclo_packed, _packed_denominator), and unpacked where a polynomial is
needed: the P_l of _centralizer_poly, the nilpotent_series denominators and
the fallback of _class_at.  That is exact as well.  |P_e|_1 <= 2^|e|, since
each of its |e| factors L^j - 1 has L1 norm 2, and m(n) >= 2^n: m(0) = 1,
m(1) = 2, and m(n) >= n m(n - 1) >= 2 m(n - 1) for n >= 2, from the
term k = 1.  So bits >= |e| + 3 at any bound >= |e| (l <= n at the width of n),
and every coefficient of P_e, at most 2^|e| in absolute value, lies in
(-X/4, X/4).  Nothing else is tested for zero: the chain values H and the
groups are only multiplied and added.  The bound depends on nothing the run
computes, so a corrupted kappa still unpacks to its exact numerator, and
exit 3 stays a proof.

Packed division.  A class is N(Q)_v / P_v, for a nonzero N(Q)_v.  The one
big-int division of the packed value by P_v(X), the product of the packed
P_(v_i), is the quotient stage's, in both forms (Pulled quotient, above),
and _packed_class reads the class off the exact quotient q_v it kept.  Only
the quotient, the class, is unpacked.  Its digits C are accepted under a
certificate: the division left no remainder, and every digit c has
c.bit_length() + |v| <= bits - 1.  That is a proof that C is the class.
|P_v|_1 <= 2^|v|, since each of its |v| factors L^j - 1 has L1 norm 2, so
every coefficient of C * P_v lies in (-X/2, X/2); so does every coefficient
of N(Q)_v, inside (-X/4, X/4) by the majorant; and the two have the same
value at X, so they are the same polynomial.  Any other outcome proves
nothing either way: a nonzero remainder, which keeps no q_v, an uncertified
quotient, or a class with a negative power of L after the shift goes to
_class_at's fallback, which unpacks N(Q)_v and divides it by the unpacked
P_v as a polynomial, exact whenever the class is a polynomial.  When that
division is inexact, or leaves a negative power of L, the reduced fraction
is built only to word the PolynomialityError, so only the fallback ever
raises.

The engine computes with packed ints and the polynomial kernel (poly
module) alone.  LRat, the reduced-fraction type, is imported where a value
leaves the engine as a fraction (centralizer_class, coefficient_raw,
nilpotent_series and that error message), and the partitions module only
when engine.tuples_with_sizes is read, so the motive and series commands
load neither.

The engine runs in one thread: the sums are Python and big-integer work
under the GIL, and worker threads over the exponents measured no faster.
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from itertools import zip_longest
from math import comb
from operator import add, itemgetter, mul
from typing import TYPE_CHECKING, Sequence

from .poly import Poly, _pdiv_exact, _pmul, _pshift
from .quiver import InputError, Quiver, _Record, check_dim_vector, exponents_upto

if TYPE_CHECKING:
    from .lrat import LRat
    from .partitions import Partition
    from .series import MSeries


def __getattr__(name: str):
    # perfbench/trace_child.py wraps engine.tuples_with_sizes to time and
    # count the tuples the engine enumerates; it enumerates none, so both
    # read 0, and the partitions module loads only when it is asked for
    if name == "tuples_with_sizes":
        from .partitions import tuples_with_sizes

        return tuples_with_sizes
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The largest column-chain recursion the engine runs, in the estimate of
# _check_cost (states times the bits of a value, weighted by its
# LONG_VALUE_BITS blocks).  On a shared 2-core Xeon host, in-process and
# with cold caches, star3 at degree 20 (4.2 * 10^9) took 1.7-2.1 s, a2 at
# degree 30 (9.3 * 10^9) 1.2-1.9 s and Jordan at degree 48 (3.7 * 10^9)
# 0.8-1.2 s; Jordan at degree 60 (2.4 * 10^10, refused) took 4.0-5.4 s.
# With the series stage unfolded they took 2.3-3.3, 5.6-6.7, 1.9-2.5 and
# 10.7-12.9 s in the same session.
MAX_CHAIN_COST = 10**10
LONG_VALUE_BITS = 2**15
# The value length, in bits per vertex (_value_bits over the vertex count),
# from which _graded_quotient pulls its numerators instead of pushing them.
PULL_VALUE_BITS = 2048


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

    Always a polynomial in L, the one _centralizer_poly computes; the empty
    tuple gives 1.
    """
    from .lrat import LRat

    return LRat._raw(_centralizer_poly(lam_tuple), (1,))


def _centralizer_poly(lam_tuple: Sequence[Partition]) -> Poly:
    """The centralizer class of a tuple of Jordan types, as a polynomial.

    Per entry, with columns c_1 >= c_2 >= ... > 0 and l = c_1 parts, the
    column steps fold to L^(sum m(m+1)/2) * M, and the class is
    L^(sum c_k^2) * P_l divided by that product: L^a * P_|lam| / c(lam) of the
    module docstring, built from the steps the series numerators multiply.
    """
    power, poly = 0, (1,)
    for lam in lam_tuple:
        columns = lam._columns
        bits = _packing_bits(lam.size)
        offset, value = 0, 1
        for high, low in zip(columns, columns[1:] + (0,)):
            step_offset, step_value = _column_step(high, low, bits)
            offset += step_offset
            value *= step_value
        shift, steps = _unpack((offset, value), bits)
        power += sum(c * c for c in columns) - shift
        cyclo = _unpack((0, _cyclo_packed(0, len(lam), bits)), bits)[1]
        poly = _pmul(poly, _pdiv_exact(cyclo, steps))
    return _pshift(poly, power)


def kappa(quiver: Quiver, w: Sequence[int], lam_tuple: Sequence[Partition]) -> int:
    """Pairing sum over arrows plus framing pairings against (1,...,1).

    w is taken as given: one nonnegative entry per vertex.  The arrow
    pairings are summed column by column of the tuple (module docstring).
    """
    if len(lam_tuple) != quiver.vertex_count:
        raise ValueError(
            f"partition tuple has {len(lam_tuple)} entries, "
            f"quiver has {quiver.vertex_count} vertices"
        )
    columns = zip_longest(*(lam._columns for lam in lam_tuple), fillvalue=0)
    total = sum(_arrow_column(quiver, column) for column in columns)
    return total + _framing(w, tuple(map(len, lam_tuple)))


def _arrow_column(quiver: Quiver, column: Sequence[int]) -> int:
    """The arrow part of kappa at one column vector: sum over arrows s -> t of c_s * c_t.

    <lam, mu> is the dot product of the conjugate partitions, so the arrow
    pairings of a tuple are the sum of this over its columns.
    """
    return sum(column[s] * column[t] for s, t in quiver.arrows)


def _framing(w: Sequence[int], parts: Sequence[int]) -> int:
    """The framing part of kappa: w . l for the part counts l of the tuple.

    <(1,...,1), lam> with wi ones is wi times the number of parts of lam, so
    this is the same for every tuple of one numerator group.
    """
    return sum(map(mul, w, parts))


# A Laurent polynomial L^offset * poly with poly[0] != 0; zero is (0, ()).
Laurent = tuple[int, Poly]
# L^offset times a polynomial packed as its value at L = 2^bits; zero is (0, 0).
Packed = tuple[int, int]
# A truncated series as packed numerators over P_e, keyed by exponent; zeros
# left out.
Graded = dict[tuple[int, ...], Packed]
# Per exponent e, one entry per part-count vector l: l and the packed w-free
# chain sum H(l, e - l), its L offset and value.
Groups = dict[tuple[int, ...], list[tuple[tuple[int, ...], int, int]]]


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


def _column_step(high: int, low: int, bits: int) -> Packed:
    """f(high, low) = L^(m(m+1)/2) * [high choose low]_L with m = high - low, packed.

    The factor one vertex contributes between consecutive columns of its
    partition: the multiplicity part of the centralizer exponent a and one
    Gaussian binomial of the multinomial M (module docstring).
    """
    m = high - low
    return m * (m + 1) // 2, _gauss_row(high, bits)[low]


def _packed_denominator(exp: Sequence[int], bits: int) -> int:
    """P_exp(X): the product of the packed P_(exp_i)."""
    den = 1
    for k in exp:
        den *= _cyclo_packed(0, k, bits)
    return den


def _packed_class(quotient: Packed, exp: tuple[int, ...], bits: int) -> Laurent | None:
    """The class of an exact packed quotient by P_exp, or None where it is not certified.

    quotient is L^offset times a value that the quotient stage divided by
    P_exp(X) without a remainder; no division is made here.  Its digits are
    accepted under the certificate of the module docstring (Packed
    division).
    """
    offset, poly = _unpack(quotient, bits)
    return (offset, poly) if max(map(abs, poly)).bit_length() + sum(exp) < bits else None


def _fraction(num: Laurent, den: Poly) -> LRat:
    """L^offset * poly / den as a reduced LRat, by gcd."""
    from .lrat import LRat

    offset, poly = num
    if offset >= 0:
        return LRat(_pshift(poly, offset), den)
    return LRat(poly, _pshift(den, -offset))


def _merge(table: dict, key: tuple[int, ...], offset: int, value: int, bits: int) -> None:
    """Add L^offset * value into table[key], in place, at the lower L offset of the two."""
    acc = table.get(key)
    if acc is not None:
        if offset >= acc[0]:
            offset, value = acc[0], acc[1] + (value << bits * (offset - acc[0]))
        else:
            value = (acc[1] << bits * (acc[0] - offset)) + value
    table[key] = (offset, value)


def _graded_quotient(
    framed: Graded, unframed: Graded, nvars: int, bound: int, bits: int
) -> tuple[Graded, dict[tuple[int, ...], int]]:
    """Numerators of framed / unframed, from each nonzero N(Q)_g forward, and the q_g.

    N(Q)_e = N(F)_e - sum over 0 < f <= e of [e choose f]_L N(U)_f N(Q)_{e-f},
    exact because N(U)_0 is 1, which is checked.  Each pending entry starts
    as N(F)_e; in graded order, the entry at g is complete once popped.  A
    nonzero N(Q)_g is divided by P_g(X) once, in both forms, and its
    quotient q_g is kept where the division is exact; then it sends a term
    to g + f for every nonzero N(U)_f with 0 < |f| <= bound - |g|.  In push
    form the term is -[g + f choose f]_L N(U)_f N(Q)_g, added to the
    pending entry; when the values are long (_pulls) it is the divided
    product N(U)_f q_g, and e pulls its products by a nested Horner
    (_pulled_sum).  A g whose P_g(X) leaves a remainder keeps the push.
    The q_g come back next to the numerators, for the classes.  A zero
    N(Q)_g costs nothing.  The zero test is exact: the popped value is
    N(Q)_g packed, and the majorant m(|g|) keeps its coefficients inside
    (-X/4, X/4).
    """
    constant = _unpack(unframed.get((0,) * nvars, (0, 0)), bits)
    if constant != (0, (1,)):
        raise PolynomialityError(
            f"series division needs the unframed constant term 1, got {_fraction(constant, (1,))}"
        )
    pull = _pulls(nvars, bound)
    gauss = [_gauss_row(n, bits) for n in range(bound + 1)]
    # the nonzero N(U)_f with f != 0, by total degree, so the push can stop
    # at the room left
    units = sorted((sum(f), f, x) for f, x in unframed.items() if any(f))
    pending = dict(framed)
    # per exponent e, the divided products (f, N(U)_f q_(e-f)) it pulls
    pulled: dict[tuple[int, ...], list[tuple[tuple[int, ...], int, int]]] = {}
    out: Graded = {}
    divided: dict[tuple[int, ...], int] = {}
    for g in exponents_upto(nvars, bound):
        products = pulled.pop(g, None)
        if products:
            offset, value = _pulled_sum(products, g, bits)
            _merge(pending, g, offset, -value, bits)
        num = pending.pop(g, None)
        if num is None or not num[1]:
            continue
        out[g] = num
        room = bound - sum(g)
        offset, value = num
        whole, rest = divmod(value, _packed_denominator(g, bits))
        if not rest:
            divided[g] = whole
        quotient = whole if pull and not rest else None
        for size, f, (unit_offset, unit_value) in units:
            if size > room:
                break
            e = tuple(map(add, g, f))
            if quotient is not None:
                pulled.setdefault(e, []).append((f, offset + unit_offset, unit_value * quotient))
                continue
            term = -unit_value * value
            for top, k in zip(e, f):
                # [top choose k]_L is 1 at k = 0 and at k = top
                if 0 < k < top:
                    term *= gauss[top][k]
            _merge(pending, e, offset + unit_offset, term, bits)
    return out, divided


def _pulled_sum(products: list, exp: tuple[int, ...], bits: int) -> Packed:
    """The sum over products (f, offset, a) of L^offset (P_exp / P_f)(X) a, by nested Horner.

    Sorted by f, the products are folded one vertex at a time from the
    last: among the products that agree before vertex i, over ascending
    f_i = k, the running sum is multiplied by (P_k' / P_k)(X) from one k to
    the next k' and by (P_(exp_i) / P_k)(X) after the last, so every
    product gets its P_(exp_i) / P_(f_i).  A factor L^j - 1 is a shift and
    a subtraction.
    """
    products = sorted(products, key=itemgetter(0))
    for i in reversed(range(len(exp))):
        sums: dict = {}
        lows: dict = {}
        for f, offset, value in products:
            head = f[:i]
            if head in sums:
                base, acc = sums[head]
                sums[head] = base, _times_cyclo(acc, lows[head], f[i], bits)
            lows[head] = f[i]
            _merge(sums, head, offset, value, bits)
        products = [
            (head, offset, _times_cyclo(acc, lows[head], exp[i], bits))
            for head, (offset, acc) in sums.items()
        ]
    return products[0][1:]


def _times_cyclo(value: int, low: int, high: int, bits: int) -> int:
    """value times (P_high / P_low)(X): one shift and subtraction for one factor."""
    if high == low + 1:
        return (value << bits * high) - value
    return value if high == low else value * _cyclo_packed(low, high, bits)


def _value_bits(bound: int) -> int:
    """The bits of one value at total degree bound.

    The packing width times bound (bound + 1) / 2 + 1 digits, the length of
    P_e at |e| = bound.
    """
    return _packing_bits(bound) * (bound * (bound + 1) // 2 + 1)


def _pulls(nvars: int, bound: int) -> bool:
    """Whether the quotient pulls: at PULL_VALUE_BITS or more value bits per vertex."""
    return _value_bits(bound) // nvars >= PULL_VALUE_BITS


def _check_cost(nvars: int, bound: int) -> None:
    """Refuse a recursion larger than MAX_CHAIN_COST, before any arithmetic.

    The estimate is the number of states (c, r) with |c| + |r| <= bound,
    C(bound + 2n, 2n), times the bits of one value: the packing width times
    bound (bound + 1) / 2 + 1 digits, the length of P_e at |e| = bound.
    That length is weighted by its number of LONG_VALUE_BITS blocks,
    rounded up, because a product of two long values costs more than their
    length.  At one vertex there are few states, but their values are long.
    """
    states = comb(bound + 2 * nvars, 2 * nvars)
    value_bits = _value_bits(bound)
    weight = -(-value_bits // LONG_VALUE_BITS)
    cost = states * value_bits * weight
    if cost > MAX_CHAIN_COST:
        raise InputError(
            f"degree bound {bound} on {nvars} vertices is too large: the column-chain "
            f"recursion is estimated at {cost} bits ({states} states of {value_bits} bits, "
            f"weighted {weight} for long products), the limit is {MAX_CHAIN_COST}"
        )


def _contract(table: dict, i: int, room: int, steps: list, bits: int) -> dict:
    """Replace coordinate i of every key, a column c'_i, by each c_i >= c'_i.

    The value is multiplied by the column step f(c_i, c'_i), and values that
    land on one key are merged in place at the lower L offset.  A key is
    kept only while the columns it stands for fit in room: the coordinates
    not yet replaced only grow.
    """
    out: dict = {}
    for key, (offset, value) in table.items():
        low = key[i]
        new = list(key)
        for high in range(low, low + room - sum(key) + 1):
            step_offset, step_value = steps[high][low]
            new[i] = high
            _merge(
                out,
                tuple(new),
                offset + step_offset,
                value if step_value == 1 else value * step_value,
                bits,
            )
    return out


@lru_cache(maxsize=16)
def _numerator_groups(quiver: Quiver, bound: int) -> Groups:
    """The w-free chain sums H(l, e - l) at every exponent e of total degree <= bound.

    One column-chain recursion (module docstring): each remaining size r,
    in graded order, takes the table K(c') = H(c', r - c') of its finished
    chains, contracts it one vertex at a time with the column steps, and
    shifts by the arrow term, giving H(c, r) for every c that fits; that is
    the entry of c at e = c + r, and the table entry at c of the remaining
    size c + r.  The factor P_e / P_c of the group G_{e,c} is left to
    _series_numerators, so the groups do not depend on its form.  No
    partition is enumerated.
    """
    n = quiver.vertex_count
    _check_cost(n, bound)
    bits = _packing_bits(bound)
    steps = [
        [_column_step(high, low, bits) for low in range(high + 1)] for high in range(bound + 1)
    ]
    # H(c, e - c) by the total e and then c, kept until e comes up as a
    # remaining size
    chains: dict[tuple[int, ...], dict[tuple[int, ...], Packed]] = {}
    # the shift arrows(c) - |c|^2 of each column c met
    shifts: dict[tuple[int, ...], int] = {}
    groups: Groups = {}
    for rest in exponents_upto(n, bound):
        table = chains.pop(rest, None) if any(rest) else {rest: (0, 1)}
        if table is None:
            continue
        room = bound - sum(rest)
        for i in range(n):
            table = _contract(table, i, room, steps, bits)
        for column, (offset, value) in table.items():
            shift = shifts.get(column)
            if shift is None:
                shift = _arrow_column(quiver, column) - sum(map(mul, column, column))
                shifts[column] = shift
            offset += shift
            total = tuple(map(add, column, rest))
            if 0 < sum(total) < bound:
                chains.setdefault(total, {})[column] = (offset, value)
            groups.setdefault(total, []).append((column, offset, value))
    return groups


def _series_numerators(quiver: Quiver, w: tuple[int, ...], bound: int) -> tuple[Graded, Graded]:
    """Packed numerators of the nilpotent series framed by w and of the unframed one.

    N(U)_e = sum over l of G_{e,l} = (P_e / P_l) H(l, e - l), and N(F)_e the
    same with each term times L^(w . l).  When the values are long (_pulls),
    both are folded by the nested Horner of _pulled_sum over the products
    (l, offset, H), with the framing in the offsets of F; otherwise each
    G_{e,l} is multiplied out once and both sums read it.
    """
    bits = _packing_bits(bound)
    pull = _pulls(quiver.vertex_count, bound)
    framed: Graded = {}
    unframed: Graded = {}
    for exp, groups in _numerator_groups(quiver, bound).items():
        if pull:
            shifted = [
                (parts, offset + _framing(w, parts), value) for parts, offset, value in groups
            ]
            sums = _pulled_sum(shifted, exp, bits), _pulled_sum(groups, exp, bits)
        else:
            framed_terms, terms = [], []
            for parts, offset, value in groups:
                for low, high in zip(parts, exp):
                    if high > low:
                        value = _times_cyclo(value, low, high, bits)
                framed_terms.append((offset + _framing(w, parts), value))
                terms.append((offset, value))
            sums = _packed_sum(framed_terms, bits), _packed_sum(terms, bits)
        for out, num in zip((framed, unframed), sums):
            if num[1]:
                out[exp] = num
    return framed, unframed


@lru_cache(maxsize=16)
def _quotient_numerators(
    quiver: Quiver, w: tuple[int, ...], bound: int
) -> tuple[Graded, dict[tuple[int, ...], int]]:
    framed, unframed = _series_numerators(quiver, w, bound)
    return _graded_quotient(framed, unframed, quiver.vertex_count, bound, _packing_bits(bound))


def nilpotent_series(
    quiver: Quiver, w: Sequence[int], bound: int, threads: int = 1
) -> MSeries:
    """Sum of L^kappa / [Z] over all partition tuples, graded by per-vertex sizes.

    The T-exponent of a tuple is its vector of partition sizes; the constant
    term is always 1.  threads is ignored; perfbench/trace_child.py passes it.
    """
    from .series import MSeries

    w = check_dim_vector(quiver, w, "w")
    if bound < 0:
        raise InputError("truncation bound must be nonnegative")
    numerators, _ = _series_numerators(quiver, w, bound)
    bits = _packing_bits(bound)
    coeffs = {
        exp: _fraction(_unpack(num, bits), _unpack((0, _packed_denominator(exp, bits)), bits)[1])
        for exp, num in numerators.items()
    }
    return MSeries._raw(quiver.vertex_count, bound, coeffs)


def _class_at(
    quiver: Quiver,
    v: tuple[int, ...],
    w: tuple[int, ...],
    quotient: Graded,
    divided: dict[tuple[int, ...], int],
    bits: int,
) -> MotiveResult:
    """The class at v read off the packed quotient numerators: N(Q)_v / P_v * L^-d.

    An exponent absent from the quotient has N(Q)_v = 0 and is the empty
    class, read without building P_v.  Otherwise the class is the exact
    quotient q_v the quotient stage kept in divided, certified by
    _packed_class, when its L offset clears the shift.  If there is no q_v,
    or it is refused, N(Q)_v and P_v are unpacked, and N(Q)_v is divided
    exactly by P_v once.  Its quotient is
    nonzero with a nonzero constant term (P_v has constant term +-1 and an
    unpacked numerator's poly starts nonzero), so the class is a polynomial
    only if the division is exact and the L offset is nonnegative;
    otherwise PolynomialityError shows the reduced fraction.  Negative
    coefficients are legal but suspicious, and warn.
    """
    # v and w are validated by the caller; d_shift would check them per row
    arrows = sum(v[s] * v[t] for s, t in quiver.arrows)
    d = sum(map(mul, v, v)) - arrows - sum(map(mul, v, w))
    if v not in quotient:
        return MotiveResult(quiver, v, w, d, ())
    whole = divided.get(v)
    certified = None if whole is None else _packed_class((quotient[v][0], whole), v, bits)
    if certified is not None and certified[0] >= d:
        offset, poly = certified[0] - d, certified[1]
    else:
        offset, num = _unpack(quotient[v], bits)
        offset -= d
        den = _unpack((0, _packed_denominator(v, bits)), bits)[1]
        try:
            poly = _pdiv_exact(num, den)
        except ArithmeticError:
            poly = None
        if poly is None or offset < 0:
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


def motive_class(quiver: Quiver, v: Sequence[int], w: Sequence[int]) -> MotiveResult:
    """The class of the quiver variety for (v, w) as a polynomial in L.

    Truncates the series at total degree sum(v), extracts the T^v
    coefficient and clears the dimension shift.  A non-polynomial result
    raises PolynomialityError (it would mean an engine bug, not a feature of
    the input).
    """
    v = check_dim_vector(quiver, v, "v")
    w = check_dim_vector(quiver, w, "w")
    bound = sum(v)
    quotient, divided = _quotient_numerators(quiver, w, bound)
    return _class_at(quiver, v, w, quotient, divided, _packing_bits(bound))


def motive_table(quiver: Quiver, w: Sequence[int], bound: int) -> list[MotiveResult]:
    """Classes for every v with total size <= bound, from one shared series.

    Rows come out in graded lexicographic order of v.  Each row agrees with
    a direct motive_class call by truncation independence.
    """
    w = check_dim_vector(quiver, w, "w")
    if bound < 0:
        raise InputError("truncation bound must be nonnegative")
    n = quiver.vertex_count
    quotient, divided = _quotient_numerators(quiver, w, bound)
    bits = _packing_bits(bound)
    return [_class_at(quiver, v, w, quotient, divided, bits) for v in exponents_upto(n, bound)]


def motive_series(quiver: Quiver, w: Sequence[int], bound: int) -> MSeries:
    """The quotient series whose T^v coefficient carries the class of (v, w).

    Equals the framed nilpotent series divided by its zero-framing sibling;
    the constant term is 1 by construction.  Built from the motive_table
    rows, so a coefficient that is no polynomial after the shift raises
    PolynomialityError.
    """
    from .series import MSeries

    rows = motive_table(quiver, w, bound)
    coeffs = {row.v: row.coefficient_raw for row in rows if row.class_polynomial}
    return MSeries._raw(quiver.vertex_count, bound, coeffs)


def betti_report(result: MotiveResult) -> list[tuple[int, int]]:
    """Nonzero coefficients of the class polynomial, ascending in the L power."""
    return [(k, c) for k, c in enumerate(result.class_polynomial) if c]
