import random
from fractions import Fraction
from itertools import product, zip_longest

import pytest

from quivermotive.lrat import L, LRat, format_poly, gl_class

ONE = LRat.from_int(1)


def random_lrat(rng, degree=8):
    num = [rng.randint(-5, 5) for _ in range(rng.randint(1, degree + 1))]
    den = [rng.randint(-5, 5) for _ in range(rng.randint(1, degree + 1))]
    if not any(den):
        den = [1]
    return LRat(num, den)


def poly_mul(a, b):
    """Product of coefficient lists, test-local."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def brute_force_gl_order(n, q):
    """Count invertible matrices by scanning all of them, rank via elimination."""
    count = 0
    for entries in product(range(q), repeat=n * n):
        rows = [list(entries[i * n : (i + 1) * n]) for i in range(n)]
        rank = 0
        for col in range(n):
            piv = next((r for r in range(rank, n) if rows[r][col] % q), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = pow(rows[rank][col], -1, q)
            rows[rank] = [(x * inv) % q for x in rows[rank]]
            for r in range(n):
                if r != rank and rows[r][col]:
                    f = rows[r][col]
                    rows[r] = [(x - f * y) % q for x, y in zip(rows[r], rows[rank])]
            rank += 1
        if rank == n:
            count += 1
    return count


class TestBasicArithmetic:
    def test_add(self):
        assert L + ONE == LRat([1, 1])

    def test_mul_cancels(self):
        assert (L - ONE) * LRat(1, [-1, 1]) == ONE

    def test_negative_power_cancels(self):
        assert LRat.l_power(-1) * L == ONE

    def test_pow(self):
        assert L**3 == LRat([0, 0, 0, 1])
        assert L**-2 == LRat(1, [0, 0, 1])
        assert (L - ONE) ** 0 == ONE

    def test_int_coercion(self):
        assert 1 + L == L + 1
        assert 2 * L == L + L
        assert L - 1 == LRat([-1, 1])

    def test_zero_behaviour(self):
        zero = LRat()
        assert not zero
        assert zero + L == L
        assert zero * L == zero


class TestInverse:
    def test_l(self):
        assert L.inverse() == LRat(1, [0, 1])

    def test_quadratic(self):
        a = L * L - L
        assert a.inverse() == LRat(1, [0, -1, 1])
        assert a * a.inverse() == ONE

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            LRat().inverse()
        with pytest.raises(ZeroDivisionError):
            L / LRat()

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            LRat(1, 0)


class TestLPower:
    def test_values(self):
        assert LRat.l_power(0) == ONE
        assert LRat.l_power(3) == LRat([0, 0, 0, 1])
        assert LRat.l_power(-2) == LRat(1, [0, 0, 1])


class TestAsPolynomial:
    def test_reducing_fraction(self):
        value = LRat([-1, 0, 1], [-1, 1])  # (L^2-1)/(L-1)
        assert value.as_polynomial() == (1, 1)

    def test_non_polynomial(self):
        assert LRat(1, [-1, 1]).as_polynomial() is None
        assert LRat(1, 2).as_polynomial() is None

    def test_plain_polynomial(self):
        assert (L * L + L).as_polynomial() == (0, 1, 1)

    def test_zero(self):
        assert LRat().as_polynomial() == ()


class TestEvalAt:
    def test_square(self):
        assert (L * L).eval_at(2) == 4

    def test_gl2_order_at_two(self):
        value = (L * L - ONE) * (L * L - L)
        assert value.eval_at(2) == brute_force_gl_order(2, 2) == 6

    def test_vanishing_denominator(self):
        with pytest.raises(ZeroDivisionError, match="L = 1"):
            LRat(1, [-1, 1]).eval_at(1)

    def test_rational_result(self):
        assert LRat(1, [0, 1]).eval_at(2) == Fraction(1, 2)


class TestGlClass:
    def test_small_values(self):
        assert gl_class(0) == ONE
        assert gl_class(1) == L - ONE
        assert gl_class(2) == (L * L - ONE) * (L * L - L)

    def test_against_brute_force(self):
        for n in range(4):
            for q in (2, 3):
                if q ** (n * n) > 1 << 15:
                    continue
                assert gl_class(n).eval_at(q) == brute_force_gl_order(n, q)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gl_class(-1)


class TestRingAxioms:
    def test_random_triples(self):
        rng = random.Random(20240517)
        for _ in range(1000):
            a, b, c = (random_lrat(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    @pytest.mark.parametrize("inputs", ["random", "shared factor, zero, negative lead"])
    def test_sums_and_products_are_canonical(self, inputs):
        # each sum and product is the canonical form of its unreduced pieces,
        # num_a den_b + num_b den_a over den_a den_b and num_a num_b over
        # den_a den_b, built test-locally
        def add(a, b):
            return [x + y for x, y in zip_longest(a, b, fillvalue=0)]

        def raw(rng, degree):
            num = [rng.randint(-4, 4) for _ in range(rng.randint(1, degree + 1))]
            den = [rng.randint(-4, 4) for _ in range(rng.randint(1, degree))] + [rng.randint(1, 4)]
            if inputs == "random":
                return num, den
            # a shared linear factor in every denominator, a negative leading
            # denominator, and now and then a zero numerator
            shared = [rng.choice((-2, -1, 1, 2)), 1]
            if rng.random() < 0.2:
                num = [0] * len(num)
            return num, [-c for c in poly_mul(shared, den)]

        rng = random.Random(8128)
        for _ in range(300):
            (na, da), (nb, db) = raw(rng, 4), raw(rng, 4)
            a, b = LRat(na, da), LRat(nb, db)
            total = LRat(add(poly_mul(na, db), poly_mul(nb, da)), poly_mul(da, db))
            prod = LRat(poly_mul(na, nb), poly_mul(da, db))
            assert ((a + b).num, (a + b).den) == (total.num, total.den)
            assert ((a * b).num, (a * b).den) == (prod.num, prod.den)
            assert (a + b).den[-1] > 0 and (a * b).den[-1] > 0

    def test_eval_is_homomorphism(self):
        rng = random.Random(987)
        for _ in range(200):
            a, b = (random_lrat(rng, 6) for _ in range(2))
            for q in (2, 3, 5, 7):
                try:
                    va, vb = a.eval_at(q), b.eval_at(q)
                except ZeroDivisionError:
                    continue
                assert (a + b).eval_at(q) == va + vb
                assert (a * b).eval_at(q) == va * vb

    def test_inverse_round_trip(self):
        rng = random.Random(555)
        for _ in range(200):
            a = random_lrat(rng, 6)
            if not a:
                continue
            assert a * a.inverse() == ONE
            assert a.inverse().inverse() == a


class TestCanonicalForm:
    def test_scaling_invariance(self):
        rng = random.Random(321)
        for _ in range(300):
            a = random_lrat(rng, 6)
            c = random_lrat(rng, 4)
            if not c:
                continue
            b = (a * c) / c
            assert (a.num, a.den) == (b.num, b.den)

    def test_common_factor_in_construction(self):
        # a/b and (c*a)/(c*b) built from raw coefficient lists come out with
        # identical representations; the multiplication here is test-local
        rng = random.Random(654)
        for _ in range(300):
            num = [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
            den = [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
            scale = [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
            if not any(den) or not any(scale):
                continue
            plain = LRat(num, den)
            scaled = LRat(poly_mul(scale, num), poly_mul(scale, den))
            assert (plain.num, plain.den) == (scaled.num, scaled.den)

    def test_denominator_positive_leading(self):
        a = LRat([1], [-1, -1])  # 1/(-1-L)
        assert a.den[-1] > 0
        assert a == LRat([-1], [1, 1])

    def test_hash_consistency(self):
        a = LRat([-1, 0, 1], [-1, 1])
        b = LRat([1, 1])
        assert a == b
        assert hash(a) == hash(b)


class TestFormatting:
    def test_ascending_tokens(self):
        assert format_poly((0, 1, 1)) == "L^1 + L^2"
        assert format_poly((1, 2, 0, 1)) == "1 + 2*L^1 + L^3"
        assert format_poly(()) == "0"
        assert format_poly((0, -1, 3)) == "-L^1 + 3*L^2"
        assert format_poly((-2,)) == "-2"

    def test_str_of_fraction(self):
        assert str(LRat(1, [-1, 1])) == "(1) / (-1 + L^1)"
        assert str(L * L + L) == "L^1 + L^2"
