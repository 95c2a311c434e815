import pickle
import random
import sys
import time
from collections import Counter
from itertools import product
from math import comb, factorial
from operator import add
from types import SimpleNamespace

import pytest

from quivermotive import cli, engine, verify
from quivermotive.engine import (
    PolynomialityError,
    betti_report,
    centralizer_class,
    kappa,
    motive_class,
    motive_series,
    motive_table,
    nilpotent_series,
)
from quivermotive.lrat import L, LRat, _peval, gl_class
from quivermotive.partitions import (
    Partition,
    exponents_upto,
    pairing,
    partitions_of,
    tuples_with_sizes,
)
from quivermotive.poly import _pdiv_exact, _pmul
from quivermotive.quiver import (
    A2,
    BUILTIN_QUIVERS,
    DOUBLE_ARROW,
    JORDAN,
    SINGLE_VERTEX,
    STAR3,
    TWO_LOOP,
    InputError,
    Quiver,
    d_shift,
    parse_quiver,
)
from quivermotive.series import MSeries

ONE = LRat.from_int(1)
P = Partition
BITS = 8  # packing width for hand-made numerators with small coefficients


def packed(num, bits=BITS):
    """A Laurent numerator (offset, poly) packed at L = 2^bits."""
    offset, poly = num
    return offset, _peval(poly, 1 << bits)


def jordan_index(bits=BITS):
    """A stand-in for Jordan's engine._Index holding the exponent (1,), key 1, at width bits."""
    return SimpleNamespace(vectors={1: (1,)}, dens={1: (1 << bits) - 1}, bits=bits)


def packed_denominator(exp, bits):
    """P_exp(X), the product of the packed P_(exp_i): the reference for the index's dens."""
    den = 1
    for k in exp:
        den *= engine._cyclo_packed(0, k, bits)
    return den


def decoded(table, nvars, bound):
    """A stage's table keyed by exponent tuples instead of index keys (engine._Index).

    The lists of the groups table are decoded too: (l, offset, H) gets the
    tuple l.
    """
    vectors = engine._index(nvars, bound).vectors

    def entry(value):
        if isinstance(value, list):
            return [(vectors[parts], *rest) for parts, *rest in value]
        return value

    return {vectors[key]: entry(value) for key, value in table.items()}


def cyclo_product(exp):
    """P_e = prod over i of (L - 1)(L^2 - 1)...(L^e_i - 1), one factor L^j - 1 at a time."""
    out = (1,)
    for k in exp:
        for j in range(1, k + 1):
            out = _pmul(out, (-1, *[0] * (j - 1), 1))
    return out


def literal_hua_term(quiver, w, lam_tuple):
    """L^kappa / [Z] for one partition tuple, assembled literally in LRat.

    Numerator: product over arrows of L^<lam_s, lam_t> times the framing
    powers L^<(1^wi), lam_i>; denominator: per vertex, L^<lam, lam> times
    the product of (1 - L^-j) over j = 1..m for each part multiplicity m.
    """
    num = ONE
    for s, t in quiver.arrows:
        num = num * LRat.l_power(pairing(lam_tuple[s], lam_tuple[t]))
    for wi, lam in zip(w, lam_tuple):
        num = num * LRat.l_power(pairing(Partition.ones(wi), lam))
    den = ONE
    for lam in lam_tuple:
        den = den * LRat.l_power(pairing(lam, lam))
        for _, mult in sorted(lam.multiplicities().items()):
            for j in range(1, mult + 1):
                den = den * (ONE - LRat.l_power(-j))
    return num / den


def goettsche_classes(n_max):
    """[Hilb^n(A^2)] for n <= n_max from prod_{k>=1} 1 / (1 - L^(k+1) t^k).

    Plain integer lists, ascending in L; each factor is a division by
    (1 - L^(k+1) t^k), i.e. c_n += L^(k+1) c_(n-k) in increasing n.
    """
    coeffs = [[1]] + [[] for _ in range(n_max)]
    for k in range(1, n_max + 1):
        for n in range(k, n_max + 1):
            shifted = [0] * (k + 1) + coeffs[n - k]
            total = coeffs[n] + [0] * (len(shifted) - len(coeffs[n]))
            for i, c in enumerate(shifted):
                total[i] += c
            coeffs[n] = total
    return coeffs


def torus_fixed_point_classes(r, n_max):
    """[M(r, n)] for the Jordan quiver with w = (r), for n <= n_max, from torus fixed points.

    The fixed points are the r-tuples of partitions Y with |Y| = n, and the
    Bialynicki-Birula cell of Y has dimension rn + sum over a = 1..r of
    a * len(Y_a) (Nakajima and Yoshioka, Instanton counting on blowup I,
    section 3).  Plain integer lists, ascending in L.
    """
    # per copy a: the partitions of k counted by L^(a * parts), as lists
    copies = []
    for a in range(1, r + 1):
        copy = []
        for k in range(n_max + 1):
            poly = [0] * (a * k + 1)
            for lam in partitions_of(k):
                poly[a * len(lam)] += 1
            copy.append(poly)
        copies.append(copy)
    # tuples[n]: the r-tuples of total size n, before the shift by L^(rn)
    tuples = [[1]] + [[0] for _ in range(n_max)]
    for copy in copies:
        convolved = [[0] for _ in range(n_max + 1)]
        for n in range(n_max + 1):
            for k in range(n + 1):
                left, right = tuples[n - k], copy[k]
                out = convolved[n] + [0] * (len(left) + len(right) - 1 - len(convolved[n]))
                for i, x in enumerate(left):
                    for j, y in enumerate(right):
                        out[i + j] += x * y
                convolved[n] = out
        tuples = convolved
    classes = []
    for n, poly in enumerate(tuples):
        poly = [0] * (r * n) + poly
        while len(poly) > 1 and not poly[-1]:
            poly.pop()
        classes.append(poly)
    return classes


def weight_multiplicities(quiver, w):
    """dim of the weight space Lambda_w - alpha_v of the tensor product of V(omega_i)^(w_i), by v.

    Type A only: every fundamental representation is minuscule, so its
    weights are the Weyl orbit of omega_i, each once.  The orbit is found by
    simple reflections s_k(mu) = mu - mu_k alpha_k on the Cartan matrix of
    the underlying graph, tracking mu = omega_i - sum_k depth_k alpha_k.
    By Nakajima (Duke 1998) the Euler characteristic of M(v, w), the class
    at L = 1, is this multiplicity.
    """
    n = quiver.vertex_count
    assert all(s != t for s, t in quiver.arrows)
    cartan = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for s, t in quiver.arrows:
        cartan[s][t] -= 1
        cartan[t][s] -= 1
    mults = Counter({(0,) * n: 1})
    for i, copies in enumerate(w):
        start = tuple(int(j == i) for j in range(n))
        seen, frontier = {start: (0,) * n}, [start]
        while frontier:
            labels = frontier.pop()
            depth = seen[labels]
            for k in range(n):
                if labels[k] > 0:
                    image = tuple(x - labels[k] * c for x, c in zip(labels, cartan[k]))
                    if image not in seen:
                        seen[image] = tuple(d + labels[k] * (j == k) for j, d in enumerate(depth))
                        frontier.append(image)
        for _ in range(copies):
            step = Counter()
            for v, m in mults.items():
                for depth in seen.values():
                    step[tuple(map(sum, zip(v, depth)))] += m
            mults = step
    return mults


def tuple_sum_groups(quiver, bound):
    """The groups G_{e,l}, summed one partition tuple at a time: the reference for the recursion.

    Per tuple of sizes e the term L^(kappa_0 - a) * M, with kappa_0 the
    arrow pairings, a = <lam, lam> - sum of m(m+1)/2 over the part
    multiplicities and M the Gaussian multinomial [l; m]_L from L-Pascal
    rows, summed by the part counts l and multiplied once by
    prod P_{e_i} / P_{l_i}.  Packed as the engine packs, returned unpacked.
    """
    bits = engine._packing_bits(bound)
    out = {}
    for exp in exponents_upto(quiver.vertex_count, bound):
        sums = {}
        for tup in tuples_with_sizes(exp):
            power = sum(pairing(tup[s], tup[t]) for s, t in quiver.arrows)
            value = 1
            for lam in tup:
                mults = list(lam.multiplicities().values())
                power -= pairing(lam, lam) - sum(m * (m + 1) // 2 for m in mults)
                parts = 0
                for m in mults:
                    parts += m
                    value *= engine._gauss_row(parts, bits)[m]
            sums.setdefault(tuple(map(len, tup)), []).append((power, value))
        out[exp] = {}
        for parts, terms in sums.items():
            offset, value = engine._packed_sum(terms, bits)
            for length, k in zip(parts, exp):
                value *= engine._cyclo_packed(length, k, bits)
            out[exp][parts] = engine._unpack((offset, value), bits)
    return out


def pull_quotient(framed, unframed, nvars, bound, bits):
    """The quotient numerators by the full-box pull recursion: the reference for the push form.

    N(Q)_e = N(F)_e - sum over 0 < f <= e of [e choose f]_L N(U)_f N(Q)_{e-f},
    every f in the box f <= e visited at every e, the Gaussian binomials
    from L-Pascal rows.  Packed as the engine packs, returned unpacked.
    """
    out = {}
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
                value *= engine._gauss_row(n, bits)[k]
            terms.append((x[0] + y[0], value))
        num = engine._packed_sum(terms, bits)
        if num[1]:
            out[exp] = num
    return {exp: engine._unpack(num, bits) for exp, num in out.items()}


class TestCentralizerClass:
    def test_single_box(self):
        assert centralizer_class((P((1,)),)) == L - ONE

    def test_two_boxes_column(self):
        assert centralizer_class((P((1, 1)),)) == gl_class(2)

    def test_single_row_of_two(self):
        value = centralizer_class((P((2,)),))
        assert value == L * L - L
        # brute-force count of the centralizer of the nilpotent 2x2 Jordan
        # block inside the invertible matrices over the 2-element field
        assert value.eval_at(2) == 2

    def test_empty_tuple(self):
        assert centralizer_class(()) == ONE
        assert centralizer_class((P(),)) == ONE

    def test_multiplies_over_vertices(self):
        lam, mu = P((2, 1)), P((1, 1))
        product = centralizer_class((lam,)) * centralizer_class((mu,))
        assert centralizer_class((lam, mu)) == product


class TestKappa:
    def test_framing_only(self):
        assert kappa(SINGLE_VERTEX, (1,), (P((1,)),)) == 1

    def test_loop_contribution(self):
        assert kappa(JORDAN, (0,), (P((2,)),)) == 2

    def test_loop_and_framing(self):
        assert kappa(JORDAN, (1,), (P((1, 1)),)) == 6

    def test_tuple_length_checked(self):
        with pytest.raises(ValueError, match="vertices"):
            kappa(A2, (1, 1), (P((1,)),))


class TestHuaTerm:
    # hand values pinning the literal reference term
    def test_empty_tuple_is_one(self):
        assert literal_hua_term(JORDAN, (1,), (P(),)) == ONE
        assert literal_hua_term(A2, (0, 0), (P(), P())) == ONE

    def test_jordan_single_box(self):
        assert literal_hua_term(JORDAN, (1,), (P((1,)),)) == L * L / (L - ONE)

    def test_vertex_with_two_framings(self):
        assert literal_hua_term(SINGLE_VERTEX, (2,), (P((1,)),)) == L * L / (L - ONE)

    def test_matches_direct_assembly(self):
        # the engine's factored term L^kappa / [Z] (centralizer built from the
        # cofactor the series divide by) against the literal product over
        # arrows, framing powers and (1 - L^-j) factors, for every tuple of
        # total size <= 5, on the kappa suite's grid
        for _, quiver, w_list in verify._KAPPA_GRID:
            for w in w_list:
                for exp in exponents_upto(quiver.vertex_count, 5):
                    for tup in tuples_with_sizes(exp):
                        power = kappa(quiver, w, tup)
                        term = LRat.l_power(power) / centralizer_class(tup)
                        literal = literal_hua_term(quiver, w, tup)
                        assert term == literal, (quiver, w, tup)


class TestNilpotentSeries:
    def test_degree_zero(self):
        for quiver, w in ((JORDAN, (1,)), (A2, (1, 0)), (TWO_LOOP, (2,))):
            s = nilpotent_series(quiver, w, 0)
            assert s.coefficient((0,) * quiver.vertex_count) == ONE
            assert len(s.coeffs) == 1

    def test_jordan_unframed_linear_term(self):
        # single loop, lam = (1): L^<lam,lam> over the centralizer class
        s = nilpotent_series(JORDAN, (0,), 1)
        assert s.coefficient((1,)) == L / (L - ONE)

    def test_jordan_framed_linear_term(self):
        s = nilpotent_series(JORDAN, (1,), 1)
        assert s.coefficient((1,)) == L * L / (L - ONE)

    def test_coefficients_sum_hua_terms(self):
        # the engine's cofactor numerators against the literal terms, on the
        # kappa suite's grid at bound 5 and on A2 w=(1,1) at bound 3
        cases = [(q, w, 5) for _, q, w_list in verify._KAPPA_GRID for w in w_list]
        cases.append((A2, (1, 1), 3))
        for quiver, w, bound in cases:
            s = nilpotent_series(quiver, w, bound)
            for exp in exponents_upto(quiver.vertex_count, bound):
                total = LRat()
                for tup in tuples_with_sizes(exp):
                    total = total + literal_hua_term(quiver, w, tup)
                assert s.coefficient(exp) == total, (quiver, w, exp)

    def test_zero_framing_drops_framing_factors(self):
        # with w = 0 the framing pairings vanish, leaving the arrow powers
        for quiver in (JORDAN, A2, TWO_LOOP):
            zero_w = (0,) * quiver.vertex_count
            s = nilpotent_series(quiver, zero_w, 3)
            for exp in exponents_upto(quiver.vertex_count, 3):
                total = LRat()
                for tup in tuples_with_sizes(exp):
                    arrows_only = sum(
                        pairing(tup[a], tup[b]) for a, b in quiver.arrows
                    )
                    total = total + LRat.l_power(arrows_only) / centralizer_class(tup)
                assert s.coefficient(exp) == total


class TestMotiveSeries:
    def test_constant_term_is_one(self):
        for quiver, w in ((JORDAN, (1,)), (A2, (2, 1)), (SINGLE_VERTEX, (0,))):
            s = motive_series(quiver, w, 2)
            assert s.coefficient((0,) * quiver.vertex_count) == ONE

    def test_jordan_linear_coefficient(self):
        s = motive_series(JORDAN, (1,), 1)
        assert s.coefficient((1,)) == L

    def test_vertex_two_framings_linear_coefficient(self):
        s = motive_series(SINGLE_VERTEX, (2,), 1)
        assert s.coefficient((1,)) == L + ONE

    def test_quotient_times_denominator_recovers_numerator(self):
        for quiver, w, bound in (
            (JORDAN, (1,), 4),
            (A2, (1, 1), 3),
            (TWO_LOOP, (2,), 3),
        ):
            zero_w = (0,) * quiver.vertex_count
            quotient = motive_series(quiver, w, bound)
            assert quotient * nilpotent_series(quiver, zero_w, bound) == nilpotent_series(
                quiver, w, bound
            )

    def test_matches_public_lrat_path(self):
        # the graded convolution against MSeries product and inversion in
        # reduced LRat arithmetic, over criterion 6's corpus
        bound = 4
        for quiver in (JORDAN, A2, DOUBLE_ARROW, STAR3, TWO_LOOP):
            n = quiver.vertex_count
            inverse = nilpotent_series(quiver, (0,) * n, bound).invert()
            for w in product((0, 1, 2), repeat=n):
                expected = nilpotent_series(quiver, w, bound) * inverse
                got = motive_series(quiver, w, bound)
                for exp in exponents_upto(n, bound):
                    assert got.coefficient(exp) == expected.coefficient(exp), (quiver, w, exp)


class TestMotiveClass:
    def test_jordan_one_point(self):
        result = motive_class(JORDAN, (1,), (1,))
        assert result.class_polynomial == (0, 0, 1)
        assert result.d_shift == -1
        assert result.coefficient_raw == L

    def test_projective_line_times_shift(self):
        result = motive_class(SINGLE_VERTEX, (1,), (2,))
        assert result.class_polynomial == (0, 1, 1)

    def test_empty_variety_is_zero(self):
        result = motive_class(SINGLE_VERTEX, (2,), (1,))
        assert result.class_polynomial == ()

    def test_zero_vector(self):
        result = motive_class(JORDAN, (0,), (1,))
        assert result.class_polynomial == (1,)
        assert result.d_shift == 0

    def test_result_is_a_value(self):
        result = motive_class(JORDAN, (1,), (1,))
        fresh = engine.MotiveResult(JORDAN, (1,), (1,), -1, (0, 0, 1))
        assert result == fresh and hash(result) == hash(fresh)
        assert result != engine.MotiveResult(JORDAN, (1,), (2,), -1, (0, 0, 1))
        assert repr(result) == (
            "MotiveResult(quiver=Quiver(vertex_count=1, arrows=((0, 0),)), "
            "v=(1,), w=(1,), d_shift=-1, class_polynomial=(0, 0, 1))"
        )
        with pytest.raises(AttributeError, match="cannot assign to field 'd_shift'"):
            result.d_shift = 0
        assert pickle.loads(pickle.dumps(result)) == result

    def test_hilbert_scheme_family(self):
        # cell count: points of length n on the plane decompose into cells
        # indexed by partitions, of dimension n + (number of parts)
        for n in range(1, 7):
            expected = [0] * (2 * n + 1)
            for lam in partitions_of(n):
                expected[n + len(lam)] += 1
            result = motive_class(JORDAN, (n,), (1,))
            assert list(result.class_polynomial) == expected

    def test_shift_consistency(self):
        # raw coefficient equals the polynomial times L^d
        for quiver, v, w in (
            (JORDAN, (2,), (1,)),
            (A2, (1, 1), (1, 0)),
            (SINGLE_VERTEX, (2,), (3,)),
        ):
            r = motive_class(quiver, v, w)
            poly = LRat(list(r.class_polynomial))
            assert poly * LRat.l_power(r.d_shift) == r.coefficient_raw

    def test_truncation_independence(self):
        for quiver, v, w in (
            (JORDAN, (2,), (1,)),
            (JORDAN, (3,), (2,)),
            (A2, (1, 1), (1, 0)),
            (A2, (2, 1), (1, 1)),
            (TWO_LOOP, (2,), (1,)),
        ):
            direct = motive_class(quiver, v, w)
            wide = motive_series(quiver, w, sum(v) + 2)
            assert wide.coefficient(v) == direct.coefficient_raw

    def test_polynomiality_error(self):
        # 1/(L-1) cannot clear to a polynomial; L^-5 (L-1)/(L-1) divides
        # exactly but leaves L^-4 after the shift by L^-d = L
        for num, got in (((0, (1,)), "(L^1) / (-1 + L^1)"), ((-5, (-1, 1)), "(1) / (L^4)")):
            with pytest.raises(PolynomialityError) as exc:
                engine._class_at(JORDAN, (1,), jordan_index(), 1, {1: packed(num)}, {})
            assert str(exc.value) == f"polynomiality violated for v=(1,), w=(1,): got {got}"

    def test_negative_coefficient_warns(self):
        # (L - L^2)/(L-1) = -L forces class -L^2 after the shift for jordan
        # v=(1), w=(1)
        quotient = {1: packed((1, (1, -1)))}
        with pytest.warns(RuntimeWarning, match="negative coefficient"):
            result = engine._class_at(JORDAN, (1,), jordan_index(), 1, quotient, {})
        assert result.class_polynomial == (0, 0, -1)


# star3 with its center moved to vertex 2 and both arrows pointing into it
RELABELLED_STAR3 = parse_quiver('{"vertices": 3, "edges": [[1, 2], [0, 2]]}')[0]
EXTRACTION_CASES = [(q, 10 if q.vertex_count == 1 else 6) for q in BUILTIN_QUIVERS.values()]
# Jordan at 10 pushes, at 16 it pulls and keeps every quotient q_v
EXTRACTION_CASES += [(RELABELLED_STAR3, 6), (JORDAN, 16)]


class TestPackedDivision:
    @pytest.mark.parametrize("quiver,bound", EXTRACTION_CASES)
    def test_matches_the_unpacked_division(self, quiver, bound):
        # every class of a correct engine is certified, and equals the
        # exact division of the unpacked numerator by P_v
        w = tuple(range(1, quiver.vertex_count + 1))
        bits = engine._packing_bits(bound)
        n = quiver.vertex_count
        tables = engine._quotient_numerators(quiver, w, bound)
        quotient, divided = (decoded(table, n, bound) for table in tables)
        assert len(quotient) > 1
        # both forms keep the exact quotient of every nonzero N(Q)_v
        assert set(divided) == set(quotient)
        for v, (offset, value) in quotient.items():
            assert divided[v] * packed_denominator(v, bits) == value, v
            unpacked_offset, poly = engine._unpack((offset, value), bits)
            expected = (unpacked_offset, _pdiv_exact(poly, cyclo_product(v)))
            assert engine._packed_class((offset, divided[v]), v, bits) == expected, v

    @pytest.mark.parametrize("quiver,bound", EXTRACTION_CASES)
    def test_refused_certificate_gives_the_same_rows(self, monkeypatch, quiver, bound):
        # every nonzero class goes through the one certificate, in push and
        # in pull form, and refused it takes the fallback
        w = tuple(range(1, quiver.vertex_count + 1))
        expected = motive_table(quiver, w, bound)
        refused = []

        def refuse(quotient, exp, bits):
            refused.append(exp)

        monkeypatch.setattr(engine, "_packed_class", refuse)
        assert motive_table(quiver, w, bound) == expected
        n = quiver.vertex_count
        quotient = decoded(engine._quotient_numerators(quiver, w, bound)[0], n, bound)
        nonzero = [v for v in exponents_upto(n, bound) if v in quotient]
        assert refused == nonzero

    def test_large_digits_are_refused(self):
        # 100 (L - 1) divides, but its quotient digit 100 needs 7 bits and P_1
        # has L1 norm 2, so at 8 bits the product is not certified; the
        # unpacked division reads the same class
        num = packed((1, (-100, 100)))
        whole, rest = divmod(num[1], packed_denominator((1,), BITS))
        assert not rest
        assert engine._packed_class((num[0], whole), (1,), BITS) is None
        for divided in ({1: whole}, {}):
            row = engine._class_at(JORDAN, (1,), jordan_index(), 1, {1: num}, divided)
            assert row.class_polynomial == (0, 0, 100)

    def test_divisible_value_of_an_indivisible_numerator(self):
        # 63 + 63 L + 63 L^2 + 63 L^3 + 3 L^4 is 255 at L = 1, so its value
        # at X = 256 divides by P_1(X) = 255 although L - 1 does not divide
        # it: the certificate refuses the quotient and the error is raised
        num = packed((0, (63, 63, 63, 63, 3)))
        whole, rest = divmod(num[1], 255)
        assert not rest
        assert engine._packed_class((0, whole), (1,), BITS) is None
        for divided in ({1: whole}, {}):
            with pytest.raises(PolynomialityError, match="polynomiality violated for v=\\(1,\\)"):
                engine._class_at(JORDAN, (1,), jordan_index(), 1, {1: num}, divided)


class TestMotiveTable:
    def test_matches_direct_calls(self):
        rows = motive_table(JORDAN, (1,), 3)
        assert [row.v for row in rows] == [(0,), (1,), (2,), (3,)]
        for row in rows:
            direct = motive_class(JORDAN, row.v, (1,))
            assert row.class_polynomial == direct.class_polynomial

    def test_two_vertex_grading(self):
        rows = motive_table(A2, (1, 1), 2)
        assert [row.v for row in rows] == list(exponents_upto(2, 2))

    def test_group_exception_reaches_caller(self, monkeypatch, fresh_engine_caches):
        original = engine._arrow_column

        def broken(quiver, column):
            if column == (1, 1, 0):
                raise ZeroDivisionError("groups failed at (1, 1, 0)")
            return original(quiver, column)

        monkeypatch.setattr(engine, "_arrow_column", broken)
        with pytest.raises(ZeroDivisionError, match=r"at \(1, 1, 0\)"):
            motive_table(STAR3, (1, 1, 1), 4)
        assert engine._numerator_groups.cache_info().currsize == 0

    def test_jordan_family_matches_goettsche_product(self):
        start = time.perf_counter()
        rows = motive_table(JORDAN, (1,), 20)
        elapsed = time.perf_counter() - start
        assert [list(row.class_polynomial) for row in rows] == goettsche_classes(20)
        assert elapsed < 10


def l1_norm(packed_num, bits):
    return sum(abs(c) for c in engine._unpack(packed_num, bits)[1])


def multi_variable_majorants(nvars, bound):
    """L1-norm majorants of N(F)_e, which bound N(U)_e too, and of N(Q)_e.

    The recursion of the engine docstring over the exponents e of total
    degree <= bound, with products of ordinary binomials; the reference
    the one-variable majorant m(|e|) is checked against.
    """
    # the summed majorants of |c(lam)|_1 over the partitions of n: 3^(n-1)
    sizes = [1] + [3 ** (n - 1) for n in range(1, bound + 1)]
    framed, quotient = {}, {}
    for exp in exponents_upto(nvars, bound):
        value = 1
        for k in exp:
            value *= sizes[k]
        framed[exp] = value
        for f in product(*(range(k + 1) for k in exp)):
            if any(f):
                binomials = 1
                for n, k in zip(exp, f):
                    binomials *= comb(n, k)
                value += binomials * framed[f] * quotient[tuple(n - k for n, k in zip(exp, f))]
        quotient[exp] = value
    return framed, quotient


class TestPacking:
    def test_unpack_round_trip(self):
        # balanced digits up to +-(X/2 - 1), zeros at either end, any offset
        rng = random.Random(8)
        for bits in (3, 8, 27, 65):
            top = (1 << (bits - 1)) - 1
            for _ in range(300):
                poly = [
                    rng.choice((-top, top, 0, rng.randint(-top, top)))
                    for _ in range(rng.randint(0, 12))
                ]
                offset = rng.randint(-6, 6)
                nonzero = [i for i, c in enumerate(poly) if c]
                expected = (
                    (offset + nonzero[0], tuple(poly[nonzero[0] : nonzero[-1] + 1]))
                    if nonzero
                    else (0, ())
                )
                packed_num = (offset, _peval(tuple(poly), 1 << bits))
                assert engine._unpack(packed_num, bits) == expected, (bits, poly)

    def test_packing_bits_pinned(self):
        # the a-priori bound alone fixes the width: Jordan at degrees 16 and
        # 28, star3 at degree 8
        assert engine._packing_bits(16) == 65
        assert engine._packing_bits(8) == 27
        assert engine._packing_bits(28) == 132

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    def test_packed_denominator_unpacks_exactly(self, nvars):
        # P_e is built only packed, in the index, and unpacked where a
        # polynomial is needed: |P_e|_1 <= 2^|e| and bits - 1 > |e| at the
        # smallest width that packs e, the one of bound |e|; the index at
        # bound 12 holds every P_e of lower degree too
        for bound in range(13):
            index = engine._index(nvars, bound)
            bits = index.bits
            assert bits - 1 > bound and engine._majorants(bound)[-1] >= 1 << bound
            for key, exp in index.vectors.items():
                if sum(exp) == bound or bound == 12:
                    assert index.dens[key] == packed_denominator(exp, bits), exp
                    unpacked = engine._unpack((0, index.dens[key]), bits)
                    assert unpacked == (0, cyclo_product(exp)), exp

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    def test_one_variable_majorant_bounds_the_recursion(self, nvars):
        # M_Q(e) <= m(|e|) at every exponent, with equality at (n, 0, ..., 0),
        # so the one-variable majorant fixes the same width as the recursion
        framed_major, quotient_major = multi_variable_majorants(nvars, 10)
        m = engine._majorants(10)
        for exp, major in quotient_major.items():
            assert framed_major[exp] <= major <= m[sum(exp)], exp
        for bound in range(11):
            widest = max(major for exp, major in quotient_major.items() if sum(exp) <= bound)
            assert widest == m[bound], bound

    @pytest.mark.parametrize(
        "quiver,bound",
        [(q, 5) for q in BUILTIN_QUIVERS.values()] + [(JORDAN, 12)],
    )
    def test_majorants_bound_every_numerator(self, quiver, bound, fresh_engine_caches):
        n = quiver.vertex_count
        m = engine._majorants(bound)
        bits = engine._packing_bits(bound)
        # every majorant, and so every coefficient, stays below X/4
        assert 4 * m[bound] < 1 << bits
        w = (1,) * n
        tables = engine._series_numerators(quiver, w, bound)
        framed, unframed = (decoded(table, n, bound) for table in tables)
        quotient = decoded(engine._quotient_numerators(quiver, w, bound)[0], n, bound)
        assert len(framed) > 1 and len(unframed) > 1 and len(quotient) > 1
        for exp in exponents_upto(n, bound):
            for graded in (framed, unframed, quotient):
                assert l1_norm(graded.get(exp, (0, 0)), bits) <= m[sum(exp)], (quiver, exp)
        for size in range(bound + 1):
            for lam in partitions_of(size):
                # c(lam) = M * P_size / P_length, M from the column steps
                columns = lam.conjugate().parts
                multinomial = 1
                for high, low in zip(columns, columns[1:] + (0,)):
                    multinomial *= engine._column_step(high, low, bits)[1]
                length = len(lam)
                c = (0, multinomial * engine._cyclo_packed(length, size, bits))
                ordered = factorial(length)
                for m_r in lam.multiplicities().values():
                    ordered //= factorial(m_r)
                assert l1_norm(c, bits) <= ordered << (size - length) <= m[size], lam


def test_pmul_off_the_engine_hot_path(monkeypatch, fresh_engine_caches):
    # the numerators, cofactors and quotient are packed ints; polynomial
    # products are left for P_v, once per class row
    from quivermotive import poly

    calls = []
    original = poly._pmul

    def counted(a, b):
        calls.append(1)
        return original(a, b)

    for module in (poly, engine):  # the engine imports it by name
        monkeypatch.setattr(module, "_pmul", counted)
    rows = motive_table(JORDAN, (1,), 12)
    assert len(calls) <= len(rows) == 13
    for gone in ("_divide_cyclo", "_laurent_sum", "_cofactor"):
        assert not hasattr(engine, gone), gone


def test_motive_table_enumerates_no_partitions(monkeypatch, fresh_engine_caches):
    # the framed and the unframed numerators come from one w-free
    # column-chain recursion, which enumerates no partition and which a
    # second framing at the same bound reuses
    from quivermotive import partitions

    def forbidden(*args):
        raise AssertionError("partition enumeration on the engine path")

    for module, name in (
        (partitions, "partitions_of"),
        (partitions, "tuples_with_sizes"),
        (partitions, "_partitions_cached"),
        (engine, "tuples_with_sizes"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    rows = motive_table(STAR3, (1, 1, 1), 6)
    assert len(rows) == len(exponents_upto(3, 6))
    motive_table(STAR3, (2, 1, 0), 6)
    assert cli.main(["series", "--quiver", "jordan", "--w", "1", "--max-degree", "8"]) == 0
    # one recursion per quiver and bound: star3 at 6, jordan at 8
    assert engine._numerator_groups.cache_info().misses == 2
    for gone in ("_numerator_groups_at", "_partition_data", "_multinomial"):
        assert not hasattr(engine, gone), gone


def test_recursion_matches_tuple_sum():
    # the chain sums H(l, e - l) of the column-chain recursion, times
    # P_e / P_l, equal the groups summed over partition tuples on every
    # builtin, polynomial for polynomial; Jordan at 10 pushes, at 12 pulls,
    # and the groups are the same bare H either way
    cases = [(q, 10 if q.vertex_count == 1 else 6) for q in BUILTIN_QUIVERS.values()]
    for quiver, bound in [*cases, (JORDAN, 12)]:
        bits = engine._packing_bits(bound)
        groups = {}
        entries_by_exp = engine._numerator_groups(quiver, bound)
        for exp, entries in decoded(entries_by_exp, quiver.vertex_count, bound).items():
            groups[exp] = {}
            for parts, offset, value in entries:
                for length, k in zip(parts, exp):
                    value *= engine._cyclo_packed(length, k, bits)
                groups[exp][parts] = engine._unpack((offset, value), bits)
        assert groups == tuple_sum_groups(quiver, bound), quiver


@pytest.mark.parametrize(
    "quiver,w,bound",
    [(q, (1,) * q.vertex_count, 6) for q in BUILTIN_QUIVERS.values()]
    + [(STAR3, (1, 1, 1), 12), (JORDAN, (1,), 20)],
)
def test_push_quotient_matches_pull_reference(quiver, w, bound):
    # the forward recursion visits only the nonzero N(Q)_g; the full-box
    # reference gives the same numerators, polynomial for polynomial.
    # Jordan at 20 pulls its long numerators, the other cases push
    bits = engine._packing_bits(bound)
    n = quiver.vertex_count
    tables = engine._series_numerators(quiver, w, bound)
    framed, unframed = (decoded(table, n, bound) for table in tables)
    quotient = decoded(engine._quotient_numerators(quiver, w, bound)[0], n, bound)
    expected = pull_quotient(framed, unframed, n, bound, bits)
    assert {exp: engine._unpack(num, bits) for exp, num in quotient.items()} == expected


def random_quivers(count, seed):
    """Seeded quivers on 1 to 3 vertices, with loops and parallel arrows among them."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 3)
        arrows = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3)))
        out.append(Quiver(n, arrows))
    return out


D4 = Quiver(4, ((0, 1), (0, 2), (0, 3)))
CYCLE3 = Quiver(3, ((0, 1), (1, 2), (2, 0)))
RANDOM_QUIVERS = random_quivers(25, seed=29)


def forced_quotient(monkeypatch, quiver, w, bound, pull):
    """_graded_quotient with the pull threshold forced each way, and whether it pulled."""
    monkeypatch.setattr(engine, "PULL_VALUE_BITS", 0 if pull else 1 << 62)
    pulls = []
    original = engine._pulled_sum

    def counted(products, *args):
        pulls.append(args)
        return original(products, *args)

    monkeypatch.setattr(engine, "_pulled_sum", counted)
    n = quiver.vertex_count
    bits = engine._packing_bits(bound)
    framed, unframed = engine._series_numerators(quiver, w, bound)
    out, divided = engine._graded_quotient(framed, unframed, engine._index(n, bound))
    # both forms keep the exact quotient of every nonzero N(Q)_g
    assert set(divided) == set(out)
    unpacked = {exp: engine._unpack(num, bits) for exp, num in decoded(out, n, bound).items()}
    return unpacked, bool(pulls)


def merged(table, key, offset, value, bits):
    """Add L^offset * value into table[key], at the lower L offset of the two."""
    acc = table.get(key)
    if acc is not None:
        base = min(offset, acc[0])
        value = (acc[1] << bits * (acc[0] - base)) + (value << bits * (offset - base))
        offset = base
    table[key] = (offset, value)


def tuple_keyed_stages(quiver, w, bound):
    """The groups, both series, the quotient numerators and the q_g, keyed by exponent tuples.

    The column-chain recursion, the push-form series sums and the push-form
    quotient recursion of the engine docstring, run over exponent tuples
    with one merge per term at the lower L offset: the reference for the
    stages the engine runs on index keys, packed value for packed value.
    """
    n, bits = quiver.vertex_count, engine._packing_bits(bound)
    groups, chains = {}, {}
    for rest in exponents_upto(n, bound):
        table = chains.pop(rest, None) if any(rest) else {rest: (0, 1)}
        if table is None:
            continue
        room = bound - sum(rest)
        for i in range(n):
            contracted = {}
            for key, (offset, value) in table.items():
                for high in range(key[i], key[i] + room - sum(key) + 1):
                    step_offset, step_value = engine._column_step(high, key[i], bits)
                    column = key[:i] + (high,) + key[i + 1 :]
                    merged(contracted, column, offset + step_offset, value * step_value, bits)
            table = contracted
        for column, (offset, value) in table.items():
            offset += engine._arrow_column(quiver, column) - sum(c * c for c in column)
            total = tuple(map(add, column, rest))
            if 0 < sum(total) < bound:
                chains.setdefault(total, {})[column] = (offset, value)
            groups.setdefault(total, []).append((column, offset, value))
    framed, unframed = {}, {}
    for exp, entries in groups.items():
        for parts, offset, value in entries:
            for low, high in zip(parts, exp):
                value *= engine._cyclo_packed(low, high, bits)
            merged(framed, exp, offset + engine._framing(w, parts), value, bits)
            merged(unframed, exp, offset, value, bits)
    framed = {exp: num for exp, num in framed.items() if num[1]}
    unframed = {exp: num for exp, num in unframed.items() if num[1]}
    pending, quotient, divided = dict(framed), {}, {}
    for g in exponents_upto(n, bound):
        num = pending.pop(g, None)
        if num is None or not num[1]:
            continue
        quotient[g] = num
        whole, rest = divmod(num[1], packed_denominator(g, bits))
        if not rest:
            divided[g] = whole
        for f, (unit_offset, unit_value) in unframed.items():
            if any(f) and sum(f) <= bound - sum(g):
                e = tuple(map(add, g, f))
                term = -unit_value * num[1]
                for top, k in zip(e, f):
                    term *= engine._gauss_row(top, bits)[k]
                merged(pending, e, num[0] + unit_offset, term, bits)
    return groups, framed, unframed, quotient, divided


def index_keyed_stages(monkeypatch, quiver, w, bound, pull):
    """The engine's stages with the pull threshold forced, decoded to exponent tuples."""
    monkeypatch.setattr(engine, "PULL_VALUE_BITS", 0 if pull else 1 << 62)
    n = quiver.vertex_count
    groups = engine._numerator_groups(quiver, bound)
    framed, unframed = engine._series_numerators(quiver, w, bound)
    quotient, divided = engine._graded_quotient(framed, unframed, engine._index(n, bound))
    tables = [groups, framed, unframed, quotient, divided]
    return [decoded(table, n, bound) for table in tables]


def sorted_groups(groups):
    return {exp: sorted(entries) for exp, entries in groups.items()}


@pytest.mark.parametrize(
    "quiver",
    [*BUILTIN_QUIVERS.values(), D4, CYCLE3, *RANDOM_QUIVERS],
    ids=[*BUILTIN_QUIVERS, "d4", "3-cycle", *(f"random{k}" for k in range(len(RANDOM_QUIVERS)))],
)
def test_index_keyed_stages_match_the_tuple_keyed_reference(
    monkeypatch, fresh_engine_caches, quiver
):
    # every stage on index keys gives the packed values of the same stage
    # on exponent tuples, in pull form and in push form
    n = quiver.vertex_count
    bound = {1: 12, 2: 8, 3: 6, 4: 5}[n]
    w = tuple(random.Random(str(quiver)).randint(0, 2) for _ in range(n))
    groups, *rest = tuple_keyed_stages(quiver, w, bound)
    for pull in (True, False):
        got_groups, *got_rest = index_keyed_stages(monkeypatch, quiver, w, bound, pull)
        assert sorted_groups(got_groups) == sorted_groups(groups)
        assert got_rest == rest, pull


@pytest.mark.parametrize(
    "quiver,bound,corners",
    [
        (STAR3, 8, [(8, 0, 0), (0, 0, 8), (0, 8, 0)]),
        (D4, 5, [(5, 0, 0, 0), (0, 0, 0, 5), (0, 0, 5, 0)]),
    ],
)
def test_entries_at_the_bound(monkeypatch, fresh_engine_caches, quiver, bound, corners):
    # a key with an entry at the bound is the largest digit of its place;
    # a carry would land it on a neighbour's key, and its stage values and
    # classes would differ from the tuple-keyed ones
    n = quiver.vertex_count
    w = (1,) * n
    index = engine._index(n, bound)
    assert len(index.vectors) == len(exponents_upto(n, bound))
    assert list(index.vectors.values()) == list(exponents_upto(n, bound))
    assert [index.vectors[index.key(e)] for e in corners] == corners
    expected = tuple_keyed_stages(quiver, w, bound)
    for pull in (True, False):
        got = index_keyed_stages(monkeypatch, quiver, w, bound, pull)
        for e in corners:
            assert sorted(got[0][e]) == sorted(expected[0][e]), e
            assert [table.get(e) for table in got[1:]] == [table.get(e) for table in expected[1:]]
            assert expected[1][e][1] and expected[2][e][1]
    rows = {row.v: row for row in motive_table(quiver, w, bound)}
    for e in corners:
        assert motive_class(quiver, e, w) == rows[e]


def test_random_quivers_have_loops_and_parallel_arrows():
    assert any(s == t for q in RANDOM_QUIVERS for s, t in q.arrows)
    assert any(len(set(q.arrows)) < len(q.arrows) for q in RANDOM_QUIVERS)
    assert {q.vertex_count for q in RANDOM_QUIVERS} == {1, 2, 3}


@pytest.mark.parametrize(
    "quiver",
    [*BUILTIN_QUIVERS.values(), D4, CYCLE3, *RANDOM_QUIVERS],
    ids=[*BUILTIN_QUIVERS, "d4", "3-cycle", *(f"random{k}" for k in range(len(RANDOM_QUIVERS)))],
)
def test_pulled_quotient_matches_the_push(monkeypatch, quiver):
    # both forms of the quotient recursion give the same numerators: the
    # pull records N(U)_f q_g and multiplies by P_e / P_f, the push
    # multiplies N(U)_f N(Q)_g by [e choose f]_L
    n = quiver.vertex_count
    bound = {1: 12, 2: 8, 3: 6, 4: 5}[n]
    w = tuple(random.Random(str(quiver)).randint(0, 2) for _ in range(n))
    pulled, did_pull = forced_quotient(monkeypatch, quiver, w, bound, pull=True)
    pushed, did_push = forced_quotient(monkeypatch, quiver, w, bound, pull=False)
    assert did_pull and not did_push
    assert pulled == pushed


@pytest.mark.parametrize(
    "quiver",
    [*BUILTIN_QUIVERS.values(), D4, CYCLE3, *RANDOM_QUIVERS],
    ids=[*BUILTIN_QUIVERS, "d4", "3-cycle", *(f"random{k}" for k in range(len(RANDOM_QUIVERS)))],
)
def test_pulled_series_matches_the_push(monkeypatch, fresh_engine_caches, quiver):
    # the series stage folds the bare chain sums by Horner in pull form and
    # multiplies each group out in push form: both give the same numerators,
    # from one cached groups table that the second form reuses as it is
    n = quiver.vertex_count
    bound = {1: 12, 2: 8, 3: 6, 4: 5}[n]
    w = tuple(random.Random(str(quiver)).randint(0, 2) for _ in range(n))
    bits = engine._packing_bits(bound)
    folds = []
    original = engine._pulled_sum

    def counted(products, *args):
        folds.append(args)
        return original(products, *args)

    monkeypatch.setattr(engine, "_pulled_sum", counted)
    series = {}
    for pull in (True, False):
        folds.clear()
        monkeypatch.setattr(engine, "PULL_VALUE_BITS", 0 if pull else 1 << 62)
        framed, unframed = engine._series_numerators(quiver, w, bound)
        assert bool(folds) == pull
        unpacked = [
            {e: engine._unpack(x, bits) for e, x in decoded(s, n, bound).items()}
            for s in (framed, unframed)
        ]
        series[pull] = unpacked
    assert series[True] == series[False]
    info = engine._numerator_groups.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_corrupted_kappa_exits_3_alike_in_both_forms(capsys, monkeypatch, fresh_engine_caches):
    # one wrong arrow term at the column (2,) spoils the classes from v = (3,)
    # on; at degree 16 the Jordan quotient pulls, and forced to push it
    # gives the same exit code and message
    original = engine._arrow_column

    def corrupted(quiver, column):
        return original(quiver, column) + (1 if tuple(column) == (2,) else 0)

    monkeypatch.setattr(engine, "_arrow_column", corrupted)
    args = ["series", "--quiver", "jordan", "--w", "1", "--max-degree", "16"]
    assert engine._pulls(1, 16)
    outcomes = []
    for threshold in (1 << 62, engine.PULL_VALUE_BITS):
        engine._quotient_numerators.cache_clear()
        monkeypatch.setattr(engine, "PULL_VALUE_BITS", threshold)
        rc = cli.main(args)
        outcomes.append((rc, capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    rc, captured = outcomes[0]
    assert rc == 3 and captured.out == ""
    assert "polynomiality violated for v=(3,)" in captured.err
    # the spoiled N(Q)_g leave a remainder by P_g(X), so the pull run, the
    # last one, pushed them, as a non-polynomial engine must
    bits = engine._packing_bits(16)
    quotient, divided = (decoded(t, 1, 16) for t in engine._quotient_numerators(JORDAN, (1,), 16))
    assert any(value % packed_denominator(g, bits) for g, (_, value) in quotient.items())
    # and kept no quotient for them
    exact = {g for g, (_, x) in quotient.items() if not x % packed_denominator(g, bits)}
    assert set(divided) == exact


def test_benchmark_commands_take_their_side(monkeypatch, fresh_engine_caches):
    # Jordan at degree 16 has 8,905 value bits per vertex and pulls; star3 at
    # degree 8 (333) and the verify ffcount table of Jordan at degree 3 push;
    # each command asks once per stage, the series and the quotient
    decisions = []
    original = engine._pulls

    def recorded(nvars, bound):
        stage = sys._getframe(1).f_code.co_name
        decisions.append((stage, nvars, bound, original(nvars, bound)))
        return decisions[-1][-1]

    monkeypatch.setattr(engine, "_pulls", recorded)
    commands = {
        "jordan-deep": ["series", "--quiver", "jordan", "--w", "1", "--max-degree", "16"],
        "star3-wide": ["series", "--quiver", "star3", "--w", "1,1,1", "--max-degree", "8"],
        "verify-all": ["verify", "all", "--quiver", "jordan", "--w", "1", "--q", "2"],
    }
    sides = {}
    for name, args in commands.items():
        decisions.clear()
        assert cli.main([*args, "--format", "records"]) == 0
        sides[name] = decisions[:]
    stages = ("_series_numerators", "_graded_quotient")
    assert sides == {
        "jordan-deep": [(stage, 1, 16, True) for stage in stages],
        "star3-wide": [(stage, 3, 8, False) for stage in stages],
        "verify-all": [(stage, 1, 3, False) for stage in stages],
    }
    assert engine._value_bits(16) == 8905 and engine._value_bits(8) // 3 == 333


def test_ffcount_reads_every_class_off_one_table(monkeypatch, fresh_engine_caches):
    # one recursion at the largest bound, not one per v; the classes are the
    # motive_class ones by truncation independence (the verify goldens)
    cases = verify.ffcount_suite(JORDAN, "jordan", (1,), qs=(2,), max_total=3)
    assert [case.name for case in cases] == [f"jordan v=({k},) w=(1,) q=2" for k in (1, 2, 3)]
    assert engine._numerator_groups.cache_info().misses == 1
    # a spoiled engine raises at the same first v as the calls one by one
    original = engine._arrow_column
    monkeypatch.setattr(engine, "_arrow_column", lambda q, c: original(q, c) + (tuple(c) == (2,)))
    for clear in (engine._numerator_groups.cache_clear, engine._quotient_numerators.cache_clear):
        clear()
    with pytest.raises(PolynomialityError) as direct:
        for v in [(1,), (2,), (3,)]:
            motive_class(JORDAN, v, (1,))
    with pytest.raises(PolynomialityError) as suite:
        verify.ffcount_suite(JORDAN, "jordan", (1,), qs=(2,), max_total=3)
    assert str(suite.value) == str(direct.value)


@pytest.mark.parametrize("quiver", BUILTIN_QUIVERS.values(), ids=BUILTIN_QUIVERS.keys())
def test_rows_carry_the_validated_dimension_shift(quiver):
    # _class_at computes d without validating v and w again; it must agree
    # with the public d_shift, framing term included
    w = tuple(range(1, quiver.vertex_count + 1))
    for row in motive_table(quiver, w, 4):
        assert row.d_shift == d_shift(quiver, row.v, w), row.v


class GuardedDens(dict):
    """An index's dens table that records each P_v read and refuses those at refused keys."""

    def __init__(self, dens, refused=()):
        super().__init__(dens)
        self.reads, self.refused = [], set(refused)

    def __getitem__(self, key):
        if key in self.refused:
            raise AssertionError(f"P_v read for the empty class at key {key}")
        self.reads.append(key)
        return super().__getitem__(key)


def test_empty_classes_read_no_denominator(monkeypatch, fresh_engine_caches):
    # an exponent with N(Q)_v = 0 is read as the empty class without P_v
    expected = motive_table(STAR3, (1, 1, 1), 8)
    empty = {row.v for row in expected if not row.class_polynomial}
    assert 0 < len(empty) < len(expected) == 165
    # P_v is read off the index, for the quotient stage's division and for
    # the unpacked fallback, and _packed_class certifies the quotient by it
    index = engine._index(3, 8)
    keys = [index.key(v) for v in empty]
    assert [index.vectors[key] for key in keys] == list(empty)
    monkeypatch.setattr(index, "dens", GuardedDens(index.dens, keys))
    packed_class = engine._packed_class

    def guarded_packed_class(quotient, exp, bits):
        if tuple(exp) in empty:
            raise AssertionError(f"P_v built for the empty class at {exp}")
        return packed_class(quotient, exp, bits)

    monkeypatch.setattr(engine, "_packed_class", guarded_packed_class)
    # star3 at degree 8 pushes; forced to pull, it divides the same classes
    for threshold in (engine.PULL_VALUE_BITS, 0):
        monkeypatch.setattr(engine, "PULL_VALUE_BITS", threshold)
        engine._quotient_numerators.cache_clear()
        assert motive_table(STAR3, (1, 1, 1), 8) == expected
    _, divided = engine._quotient_numerators(STAR3, (1, 1, 1), 8)
    assert len(divided) == len(expected) - len(empty)


def test_pulled_classes_are_divided_once(monkeypatch, fresh_engine_caches):
    # Jordan at degree 16 pulls and star3 at degree 8 pushes: in both forms
    # the quotient stage divides each nonzero N(Q)_g by P_g(X), read off
    # the index, once, 17 and 34 of them, and every class is read off that
    # quotient instead of being divided again
    for quiver, w, bound, nonzero in ((JORDAN, (1,), 16, 17), (STAR3, (1, 1, 1), 8, 34)):
        index = engine._index(quiver.vertex_count, bound)
        monkeypatch.setattr(index, "dens", GuardedDens(index.dens))
        rows = motive_table(quiver, w, bound)
        assert engine._pulls(quiver.vertex_count, bound) == (quiver is JORDAN)
        calls = [index.vectors[key] for key in index.dens.reads]
        assert sorted(calls) == sorted(row.v for row in rows if row.class_polynomial)
        assert len(calls) == nonzero


@pytest.mark.parametrize(
    "quiver,w,v",
    [("jordan", "1", "v=(2,)"), ("star3", "1,1,1", "v=(0, 0, 2)")],
)
def test_wrong_gaussian_binomial_exits_3(capsys, fresh_engine_caches, monkeypatch, quiver, w, v):
    # [2 choose 1]_L = 1 + L bumped to 2 + L: the quotient recursion and the
    # column steps read it, and the first class it spoils is not a polynomial.
    # The rows above 2 are built from the bumped one and cached by the
    # original; fresh_engine_caches clears that cache.
    original = engine._gauss_row

    def bumped(n, bits):
        row = original(n, bits)
        return (row[0], row[1] + 1, row[2]) if n == 2 else row

    monkeypatch.setattr(engine, "_gauss_row", bumped)
    rc = cli.main(["series", "--quiver", quiver, "--w", w, "--max-degree", "4"])
    assert rc == 3
    assert f"polynomiality violated for {v}," in capsys.readouterr().err


@pytest.fixture
def gauss_row_cache_after_teardown():
    # listed before monkeypatch and fresh_engine_caches, so this teardown
    # runs after both of theirs
    original = engine._gauss_row
    yield original
    assert original.cache_info().currsize == 0


def test_fresh_caches_clear_a_patched_function(
    gauss_row_cache_after_teardown, monkeypatch, fresh_engine_caches
):
    # fresh_engine_caches tears down first, while the patch still hides the
    # original _gauss_row; the original's cache must still be cleared
    original = gauss_row_cache_after_teardown
    monkeypatch.setattr(engine, "_gauss_row", lambda n, bits: original(n, bits))
    motive_table(JORDAN, (1,), 4)
    assert original.cache_info().currsize > 0


class TestIndependentOracles:
    @pytest.mark.parametrize("r,n_max", [(1, 12), (2, 7), (3, 5), (4, 4)])
    def test_jordan_torus_fixed_points(self, r, n_max):
        rows = motive_table(JORDAN, (r,), n_max)
        assert [list(row.class_polynomial) for row in rows] == torus_fixed_point_classes(r, n_max)

    def test_hilbert_scheme_euler_characteristic(self):
        # chi(Hilb^n(A^2)) = p(n), the number of partitions of n
        rows = motive_table(JORDAN, (1,), 12)
        partition_counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
        assert [sum(row.class_polynomial) for row in rows] == partition_counts

    @pytest.mark.parametrize(
        "quiver,w,bound",
        [
            (SINGLE_VERTEX, (4,), 6),
            (A2, (1, 1), 6),
            (A2, (2, 1), 6),
            (STAR3, (1, 1, 1), 12),
            (STAR3, (2, 0, 1), 7),
        ],
    )
    def test_type_a_euler_characteristic(self, quiver, w, bound):
        mults = weight_multiplicities(quiver, w)
        for row in motive_table(quiver, w, bound):
            assert sum(row.class_polynomial) == mults.get(row.v, 0), row.v


class TestCostGuard:
    @staticmethod
    def assert_refused(capsys, monkeypatch, quiver, w, bound, weight):
        def forbidden(*args):
            raise AssertionError("column step computed")

        monkeypatch.setattr(engine, "_column_step", forbidden)
        start = time.perf_counter()
        rc = cli.main(["series", "--quiver", quiver, "--w", w, "--max-degree", str(bound)])
        assert time.perf_counter() - start < 1
        assert rc == 2
        # C(bound + 2n, 2n) states of (bound (bound + 1) / 2 + 1) digits at
        # the packing width, times the value's 2^15-bit blocks
        n = len(w.split(","))
        value_bits = engine._packing_bits(bound) * (bound * (bound + 1) // 2 + 1)
        assert weight == -(-value_bits // 2**15)
        estimate = comb(bound + 2 * n, 2 * n) * value_bits * weight
        assert estimate > engine.MAX_CHAIN_COST
        err = capsys.readouterr().err
        assert f"estimated at {estimate} bits" in err
        assert f"the limit is {engine.MAX_CHAIN_COST}" in err

    def test_refuses_before_any_arithmetic(self, capsys, monkeypatch, fresh_engine_caches):
        self.assert_refused(capsys, monkeypatch, "star3", "1,1,1", 30, 3)

    def test_refuses_long_one_vertex_runs(self, capsys, monkeypatch, fresh_engine_caches):
        # Jordan at degree 60 took 40 s in-process before the weight
        self.assert_refused(capsys, monkeypatch, "jordan", "1", 60, 20)

    @pytest.mark.parametrize("nvars,first_refused", [(1, 55), (2, 31), (3, 23), (4, 17)])
    def test_first_refused_bound(self, nvars, first_refused):
        # on the estimate alone, which admits Jordan at 48 (about 7 s to run)
        for bound in range(first_refused):
            engine._check_cost(nvars, bound)
        with pytest.raises(InputError, match="too large"):
            engine._check_cost(nvars, first_refused)

    def test_admits_deep_runs(self, fresh_engine_caches):
        rows = motive_table(JORDAN, (1,), 36)
        assert [list(row.class_polynomial) for row in rows] == goettsche_classes(36)
        mults = weight_multiplicities(STAR3, (1, 1, 1))
        rows = motive_table(STAR3, (1, 1, 1), 16)
        assert [sum(row.class_polynomial) for row in rows] == [
            mults.get(row.v, 0) for row in rows
        ]


def test_corrupted_kappa_exits_3(capsys, monkeypatch, fresh_engine_caches):
    # kappa + 1 on the framed term of ((1, 1, 1),): the framing shift of the
    # group with part counts l = (3,), which at degree <= 3 is that tuple alone
    original = engine._framing

    def corrupted(w, parts):
        bump = 1 if tuple(parts) == (3,) and any(w) else 0
        return original(w, parts) + bump

    monkeypatch.setattr(engine, "_framing", corrupted)
    rc = cli.main(["series", "--quiver", "jordan", "--w", "1", "--max-degree", "3"])
    assert rc == 3
    assert "polynomiality violated for v=(3,)" in capsys.readouterr().err


def test_corrupted_constant_term_exits_3(capsys, monkeypatch, fresh_engine_caches):
    # the arrow term + 1 at every column: the chain of the empty tuple, H(0, 0),
    # gets L, so the unframed constant term is L, not 1; kappa sums the same
    # term over the columns of a tuple, so the kappa suite fails too
    original = engine._arrow_column

    def corrupted(quiver, column):
        return original(quiver, column) + 1

    monkeypatch.setattr(engine, "_arrow_column", corrupted)
    rc = cli.main(["series", "--quiver", "jordan", "--w", "1", "--max-degree", "2"])
    assert rc == 3
    assert "unframed constant term 1, got L" in capsys.readouterr().err
    assert cli.main(["verify", "kappa"]) == 1
    assert "FAIL kappa: jordan w=(0,) lam=((1,),)" in capsys.readouterr().out


def test_motive_and_series_build_no_lrat(capsys, monkeypatch, fresh_engine_caches):
    # a successful class extraction stays in Laurent numerators: no LRat and
    # no MSeries is constructed on the motive and series command paths
    def forbidden(*args, **kwargs):
        raise AssertionError("LRat or MSeries constructed")

    for cls in (LRat, MSeries):
        monkeypatch.setattr(cls, "__init__", forbidden)
        monkeypatch.setattr(cls, "_raw", classmethod(forbidden))
    assert cli.main(["series", "--quiver", "star3", "--w", "1,1,1", "--max-degree", "4"]) == 0
    assert cli.main(["motive", "--quiver", "jordan", "--v", "3", "--w", "1"]) == 0
    assert capsys.readouterr().out.endswith("class = L^4 + L^5 + L^6\n")


def test_engine_value_error_is_not_a_usage_error(monkeypatch, fresh_engine_caches):
    # exit 2 is for refused input only; a ValueError inside the engine
    # propagates instead of being reported as a usage error
    def broken(quiver, column):
        raise ValueError("engine bug")

    monkeypatch.setattr(engine, "_arrow_column", broken)
    with pytest.raises(ValueError, match="engine bug"):
        cli.main(["series", "--quiver", "jordan", "--w", "1", "--max-degree", "2"])


class TestBettiReport:
    def test_examples(self):
        r = motive_class(JORDAN, (1,), (1,))
        assert betti_report(r) == [(2, 1)]
        r = motive_class(SINGLE_VERTEX, (1,), (2,))
        assert betti_report(r) == [(1, 1), (2, 1)]
        r = motive_class(SINGLE_VERTEX, (2,), (1,))
        assert betti_report(r) == []
