import pickle
import random
import time
from collections import Counter
from itertools import product
from math import comb, factorial

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
from quivermotive.quiver import (
    A2,
    BUILTIN_QUIVERS,
    DOUBLE_ARROW,
    JORDAN,
    SINGLE_VERTEX,
    STAR3,
    TWO_LOOP,
)
from quivermotive.series import MSeries

ONE = LRat.from_int(1)
P = Partition
BITS = 8  # packing width for hand-made numerators with small coefficients


def packed(num, bits=BITS):
    """A Laurent numerator (offset, poly) packed at L = 2^bits."""
    offset, poly = num
    return offset, _peval(poly, 1 << bits)


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
                engine._class_at(JORDAN, (1,), (1,), {(1,): packed(num)}, BITS)
            assert str(exc.value) == f"polynomiality violated for v=(1,), w=(1,): got {got}"

    def test_negative_coefficient_warns(self):
        # (L - L^2)/(L-1) = -L forces class -L^2 after the shift for jordan
        # v=(1), w=(1)
        quotient = {(1,): packed((1, (1, -1)))}
        with pytest.warns(RuntimeWarning, match="negative coefficient"):
            result = engine._class_at(JORDAN, (1,), (1,), quotient, BITS)
        assert result.class_polynomial == (0, 0, -1)


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

    def test_thread_counts_agree(self, fresh_engine_caches):
        tables = [motive_table(STAR3, (1, 1, 1), 6, threads=t) for t in (1, 2, 3)]
        assert tables[0] == tables[1] == tables[2]
        assert len(tables[0]) == len(exponents_upto(3, 6)) == 84
        # the thread count is no cache key: the other counts reuse the first run
        assert engine._numerator_groups.cache_info().currsize == 1

    def test_group_exception_reaches_caller(self, monkeypatch, fresh_engine_caches):
        original = engine._numerator_groups_at

        def broken(quiver, exp, data, bits):
            if exp == (1, 1, 0):
                raise ZeroDivisionError("groups failed at (1, 1, 0)")
            return original(quiver, exp, data, bits)

        monkeypatch.setattr(engine, "_numerator_groups_at", broken)
        with pytest.raises(ZeroDivisionError, match=r"at \(1, 1, 0\)"):
            motive_table(STAR3, (1, 1, 1), 4, threads=2)
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
        framed = engine._nilpotent_numerators(quiver, w, bound)
        unframed = engine._nilpotent_numerators(quiver, (0,) * n, bound)
        quotient = engine._quotient_numerators(quiver, w, bound)
        for exp in exponents_upto(n, bound):
            for graded in (framed, unframed, quotient):
                assert l1_norm(graded.get(exp, (0, 0)), bits) <= m[sum(exp)], (quiver, exp)
        data = engine._partition_data(bits, bound)
        for size in range(bound + 1):
            for lam in partitions_of(size):
                _, multinomial, length = data[lam]
                c = (0, multinomial * engine._cyclo_packed(length, size, bits))
                ordered = factorial(length)
                for m_r in lam.multiplicities().values():
                    ordered //= factorial(m_r)
                assert l1_norm(c, bits) <= ordered << (size - length) <= m[size], lam


def test_pmul_off_the_engine_hot_path(monkeypatch, fresh_engine_caches):
    # the numerators, cofactors and quotient are packed ints; polynomial
    # products are left for P_v, once per class row
    from quivermotive import lrat

    calls = []
    original = lrat._pmul

    def counted(a, b):
        calls.append(1)
        return original(a, b)

    for module in (lrat, engine):  # the engine imports it by name
        monkeypatch.setattr(module, "_pmul", counted)
    rows = motive_table(JORDAN, (1,), 12)
    assert len(calls) <= len(rows) == 13
    for gone in ("_divide_cyclo", "_laurent_sum", "_cofactor"):
        assert not hasattr(engine, gone), gone


def test_one_enumeration_per_exponent(monkeypatch, fresh_engine_caches):
    # the framed and the unframed numerators come from one w-free pass over
    # the partition tuples, which a second framing at the same bound reuses
    counts = Counter()
    original = engine.tuples_with_sizes

    def counted(sizes):
        counts[tuple(sizes)] += 1
        return original(sizes)

    monkeypatch.setattr(engine, "tuples_with_sizes", counted)
    motive_table(STAR3, (1, 1, 1), 6)
    assert counts == Counter(exponents_upto(3, 6))
    counts.clear()
    motive_table(STAR3, (2, 1, 0), 6)
    assert not counts


def test_corrupted_kappa_exits_3(capsys, monkeypatch, fresh_engine_caches):
    # kappa + 1 on the framed term of ((2,),): the framing shift of the group
    # with part counts l = (1,) at e = (2,), whose only tuple that is
    original = engine._framing

    def corrupted(w, lam_tuple):
        bump = 1 if tuple(lam_tuple) == (P((2,)),) and any(w) else 0
        return original(w, lam_tuple) + bump

    monkeypatch.setattr(engine, "_framing", corrupted)
    rc = cli.main(["series", "--quiver", "jordan", "--w", "1", "--max-degree", "3"])
    assert rc == 3
    assert "polynomiality violated for v=(3,)" in capsys.readouterr().err


def test_corrupted_constant_term_exits_3(capsys, monkeypatch, fresh_engine_caches):
    # kappa + 1 on the empty tuple makes the unframed constant term L, not 1
    original = engine.kappa

    def corrupted(quiver, w, lam_tuple):
        bump = 0 if any(lam.size for lam in lam_tuple) else 1
        return original(quiver, w, lam_tuple) + bump

    monkeypatch.setattr(engine, "kappa", corrupted)
    rc = cli.main(["series", "--quiver", "jordan", "--w", "1", "--max-degree", "2"])
    assert rc == 3
    assert "unframed constant term 1, got L" in capsys.readouterr().err


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
    def broken(quiver, w, lam_tuple):
        raise ValueError("engine bug")

    monkeypatch.setattr(engine, "kappa", broken)
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
