import json
import random
import time
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from quivermotive import cli, fflab
from quivermotive.fflab import (
    EnumerationBudgetError,
    centralizer_order,
    charsum_fiber_identity,
    charsum_linear_lemma,
    count_moment_fiber,
    fourier_inversion_check,
    group_order,
    jordan_nilpotent,
    kappa_oracle,
)
from quivermotive.partitions import Partition, exponents_upto, partitions_of, tuples_with_sizes
from quivermotive.points import count_stable_fiber
from quivermotive.quiver import (
    A2,
    BUILTIN_QUIVERS,
    DOUBLE_ARROW,
    JORDAN,
    SINGLE_VERTEX,
    STAR3,
    TWO_LOOP,
    Quiver,
)
from quivermotive.verify import _FIBER_IDENTITY_CASES

P = Partition
CYCLE3 = Quiver(3, ((0, 1), (1, 2), (2, 0)))


class TestRhoDerivative:
    def test_zero_element_acts_as_zero(self):
        arrows, framing = fflab._rho_products(JORDAN, (1,), (1,), [((0,),)], [((3,),)], [((5,),)])
        assert arrows == (((0,),),)
        assert framing == (((0,),),)

    def test_one_dimensional_loop_commutes(self):
        # on a 1x1 loop the bracket vanishes, only the framing moves
        arrows, framing = fflab._rho_products(JORDAN, (1,), (1,), [((4,),)], [((2,),)], [((3,),)])
        assert arrows == (((0,),),)
        assert framing == (((12,),),)

    def test_identity_on_framing(self):
        identity = ((1, 0), (0, 1))
        arrows, framing = fflab._rho_products(SINGLE_VERTEX, (2,), (1,), [identity], (), (((1,), (2,)),))
        assert framing == (((1,), (2,)),)

    def test_linear_in_x_and_phi(self):
        rng = random.Random(3)
        p = 7

        def rand(r, c):
            return tuple(tuple(rng.randrange(p) for _ in range(c)) for _ in range(r))

        def add(m1, m2):
            return tuple(
                tuple((x + y) % p for x, y in zip(r1, r2)) for r1, r2 in zip(m1, m2)
            )

        def rho(X, phi):  # rho'(X) phi, reduced mod p
            return tuple(
                tuple(tuple(tuple(x % p for x in row) for row in m) for m in part)
                for part in fflab._rho_products(JORDAN, (2,), (1,), X, *phi)
            )

        for _ in range(20):
            X1, X2 = (rand(2, 2),), (rand(2, 2),)
            Xsum = (add(X1[0], X2[0]),)
            phi = ([rand(2, 2)], [rand(2, 1)])
            a1, f1 = rho(X1, phi)
            a2, f2 = rho(X2, phi)
            asum, fsum = rho(Xsum, phi)
            assert asum == (add(a1[0], a2[0]),)
            assert fsum == (add(f1[0], f2[0]),)
            # and in the point, for a fixed Lie-algebra element
            phi2 = ([rand(2, 2)], [rand(2, 1)])
            phisum = ([add(phi[0][0], phi2[0][0])], [add(phi[1][0], phi2[1][0])])
            b1, g1 = rho(X1, phi)
            b2, g2 = rho(X1, phi2)
            bsum, gsum = rho(X1, phisum)
            assert bsum == (add(b1[0], b2[0]),)
            assert gsum == (add(g1[0], g2[0]),)


class TestMomentPairing:
    def test_hand_expansion_one_dimensional(self):
        # phi = (a, b), psi = (c, d), X = (x): the loop bracket dies in
        # dimension one and the framing contributes x * b * d
        point = ((((2,),),), (((3,),),), (((5,),),), (((7,),),))
        assert _trace_pairing(JORDAN, (1,), (1,), point, (((4,),),), 101) == 4 * 3 * 7

    def test_zero_element(self):
        point = ((((1,),),),) * 4
        assert _trace_pairing(JORDAN, (1,), (1,), point, (((0,),),), 101) == 0

    def test_doubling_psi_doubles_value(self):
        point = ((((2,),),), (((3,),),), (((5,),),), (((7,),),))
        doubled = ((((2,),),), (((3,),),), (((10,),),), (((14,),),))
        X = (((1,),),)
        assert _trace_pairing(JORDAN, (1,), (1,), doubled, X, 101) == 2 * _trace_pairing(
            JORDAN, (1,), (1,), point, X, 101
        )

    def test_linear_in_x_and_psi_mod_p(self):
        rng = random.Random(19)
        p = 7

        def rand_mat(r, c):
            return tuple(tuple(rng.randrange(p) for _ in range(c)) for _ in range(r))

        def pair(point, X):
            return _trace_pairing(JORDAN, (2,), (1,), point, (X,), p)

        for _ in range(10):
            phi, psi = (rand_mat(2, 2),), (rand_mat(2, 1),)
            psi_arrow, psi_framing = rand_mat(2, 2), rand_mat(1, 2)
            point = (phi, psi, (psi_arrow,), (psi_framing,))
            doubled = (
                phi, psi,
                (tuple(tuple(2 * x for x in row) for row in psi_arrow),),
                (tuple(tuple(2 * x for x in row) for row in psi_framing),),
            )
            X1, X2 = rand_mat(2, 2), rand_mat(2, 2)
            Xsum = tuple(tuple((a + b) % p for a, b in zip(r1, r2)) for r1, r2 in zip(X1, X2))
            assert pair(point, Xsum) == (pair(point, X1) + pair(point, X2)) % p
            assert pair(doubled, X1) == 2 * pair(point, X1) % p


class TestFiberCounts:
    def test_jordan_unit_hand_counts(self):
        # condition reduces to b*d = 1 with the two loop coordinates free
        assert count_moment_fiber(JORDAN, (1,), (1,), 1, 2) == 4
        assert count_moment_fiber(JORDAN, (1,), (1,), 1, 3) == 18

    def test_vertex_two_framings(self):
        # pinned: the class L^2 + L evaluated at 2 times the group order 1
        assert count_moment_fiber(SINGLE_VERTEX, (1,), (2,), 1, 2) == 6

    def test_strategies_agree(self):
        # "linear" is orbit-reduced: one psi elimination per G_v-orbit of the
        # arrow part of phi, over every framing; the last three frame two vertices
        cases = (
            (JORDAN, (1,), (1,), (2, 3)),
            (JORDAN, (1,), (0,), (5,)),
            (JORDAN, (2,), (1,), (2, 3)),
            (SINGLE_VERTEX, (1,), (2,), (3,)),
            (SINGLE_VERTEX, (2,), (2,), (2,)),
            (A2, (1, 1), (1, 0), (2, 3, 5)),
            (A2, (1, 1), (1, 1), (2, 3, 5)),
            (A2, (2, 1), (1, 0), (2, 3, 5)),
            (A2, (1, 2), (0, 1), (2, 3)),
            (STAR3, (1, 1, 1), (1, 0, 0), (2, 3, 5)),
            (STAR3, (1, 1, 1), (1, 1, 1), (2, 3)),
            (STAR3, (2, 1, 1), (1, 0, 0), (2, 3)),
            (DOUBLE_ARROW, (1, 1), (1, 0), (2, 3, 5)),
            (DOUBLE_ARROW, (2, 1), (1, 0), (2, 3)),
            (TWO_LOOP, (1,), (1,), (2, 3, 5)),
            (TWO_LOOP, (2,), (0,), (2,)),
            (A2, (2, 1), (1, 1), (2, 3)),
            (CYCLE3, (1, 1, 1), (1, 1, 0), (2, 3)),
            (CYCLE3, (2, 1, 1), (1, 0, 1), (2,)),
        )
        for quiver, v, w, qs in cases:
            for q in qs:
                for alpha in (0, 1):
                    full = count_moment_fiber(quiver, v, w, alpha, q, strategy="full")
                    linear = count_moment_fiber(quiver, v, w, alpha, q, strategy="linear")
                    assert full == linear, (quiver, v, w, q, alpha)

    def test_alpha_zero_includes_origin(self):
        # the zero fiber contains (0, 0), the unit fiber does not
        zero = count_moment_fiber(JORDAN, (1,), (1,), 0, 3)
        one = count_moment_fiber(JORDAN, (1,), (1,), 1, 3)
        assert zero + 2 * one == 3**4

    def test_budget_error_names_size(self):
        # forcing full enumeration reports the pair count it would need
        with pytest.raises(EnumerationBudgetError, match="625"):
            count_moment_fiber(SINGLE_VERTEX, (1,), (2,), 1, 5, budget=100, strategy="full")
        # the automatic fallback still needs the phi half to fit
        with pytest.raises(EnumerationBudgetError, match="25"):
            count_moment_fiber(SINGLE_VERTEX, (1,), (2,), 1, 5, budget=10)

    def test_small_characteristic_regression_values(self):
        # over the 2-element field the level-1 fiber is not generic (p = 2
        # divides the root 2 <= v), so it need not count the variety: it has
        # 240 and 29568 points where class x |G| is 144 and 18816, which the
        # stable zero fiber does count (TestStableFiber).  Pinned from two
        # independent enumerations so any drift is caught
        assert count_moment_fiber(JORDAN, (2,), (1,), 1, 2) == 240
        assert count_moment_fiber(JORDAN, (3,), (1,), 1, 2, strategy="linear") == 29568

    def test_zero_dimension_vector(self):
        for strategy in ("full", "linear"):
            assert count_moment_fiber(JORDAN, (0,), (1,), 1, 3, strategy=strategy) == 1

    def test_zero_dimensional_rep_space(self):
        # no arrows and no framing: only the origin exists, and it maps to 0
        for strategy in ("full", "linear"):
            assert count_moment_fiber(SINGLE_VERTEX, (2,), (0,), 1, 2, strategy=strategy) == 0
            assert count_moment_fiber(SINGLE_VERTEX, (2,), (0,), 0, 2, strategy=strategy) == 1

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            count_moment_fiber(JORDAN, (1,), (1,), 1, 4)


class TestPhiOrbits:
    # small enough to scan the whole group for stabilizers; the orbit pass
    # sees the arrow part of phi only, so w plays no part here
    SMALL = (
        (JORDAN, (2,), (1,), 2),
        (JORDAN, (2,), (1,), 3),
        (A2, (1, 1), (1, 1), 3),
        (A2, (2, 1), (1, 0), 2),
        (DOUBLE_ARROW, (2, 1), (1, 0), 2),
        (SINGLE_VERTEX, (2,), (0,), 2),
    )
    CASES = SMALL + (
        (JORDAN, (3,), (1,), 2),
        (SINGLE_VERTEX, (2,), (2,), 5),
        (STAR3, (1, 1, 1), (1, 1, 1), 3),
        (TWO_LOOP, (2,), (0,), 2),
        (A2, (0, 1), (0, 1), 3),
        (JORDAN, (0,), (1,), 3),
        (CYCLE3, (2, 1, 1), (1, 0, 1), 3),
    )

    def test_sizes_partition_the_phi_points(self):
        # the class equation on the arrow points: the orbit sizes add up to
        # q to the number of arrow coordinates
        for quiver, v, w, q in self.CASES:
            reps, sizes = fflab._arrow_orbits(quiver, v, q)
            n_arrow = sum(v[s] * v[t] for s, t in quiver.arrows)
            assert sum(sizes) == q**n_arrow, (quiver, v, w, q)
            assert reps[0] == 0 and min(sizes) >= 1
            assert all(a < b for a, b in zip(reps, reps[1:]))

    def test_orbit_stabilizer(self):
        # each orbit size is |G_v| / |Stab(a)|, with the stabilizer of the
        # representative's arrow part found by scanning all of G_v
        for quiver, v, w, q in self.SMALL:
            shapes = [(v[t], v[s]) for s, t in quiver.arrows]
            n_arrow = sum(r * c for r, c in shapes)
            group = list(product(*(_invertible_matrices(n, q) for n in v)))
            assert len(group) == group_order(v, q)
            reps, sizes = fflab._arrow_orbits(quiver, v, q)
            for rep, size in zip(reps, sizes):
                arrows = fflab._matrices([(rep // q**c) % q for c in range(n_arrow)], shapes)
                stabilizer = sum(_fixes(quiver, g, arrows, (), q) for g in group)
                assert size * stabilizer == len(group), (quiver, v, w, q, rep)

    def test_generators_generate(self):
        for n, q in ((1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (2, 5), (3, 2)):
            gens = [g for g, _ in fflab._gl_generators(n, q)]
            identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

            def mul(a, b):
                return tuple(
                    tuple(sum(a[i][k] * b[k][j] for k in range(n)) % q for j in range(n))
                    for i in range(n)
                )

            for g, g_inv in fflab._gl_generators(n, q):
                assert mul(g, g_inv) == identity
            seen, frontier = {identity}, [identity]
            while frontier:
                m = frontier.pop()
                for g in gens:
                    image = mul(m, g)
                    if image not in seen:
                        seen.add(image)
                        frontier.append(image)
            assert len(seen) == group_order((n,), q), (n, q)

    def test_fewer_generators_only_refine(self, monkeypatch):
        # with fewer generators the orbits split, down to single points with
        # none, and the count stays the same
        cases = ((JORDAN, (2,), (1,), 1, 2), (JORDAN, (2,), (1,), 0, 3), (A2, (2, 1), (1, 0), 1, 3))
        expected = [count_moment_fiber(*case, strategy="full") for case in cases]
        original = fflab._gl_generators
        for keep in (1, 0):
            monkeypatch.setattr(fflab, "_gl_generators", lambda n, q: original(n, q)[:keep])
            for case, count in zip(cases, expected):
                assert count_moment_fiber(*case, strategy="linear") == count, (keep, case)
        assert len(fflab._arrow_orbits(JORDAN, (2,), 2)[0]) == 2**4

    def test_one_image_table_per_generator(self, monkeypatch):
        # Jordan v=(3,) over F_3: 3^9 arrow points, four generators of GL_3,
        # each tabulated once for the whole walk, in two steps of three rows
        row_parts = fflab._row_parts
        calls = []
        monkeypatch.setattr(
            fflab, "_row_parts", lambda *args: calls.append(args[2]) or row_parts(*args)
        )
        reps, sizes = fflab._arrow_orbits(JORDAN, (3,), 3)
        assert calls.count(3) == 8  # the others check g . g_inv = I on row vectors
        assert len(reps) == 39 and sum(sizes) == 3**9

    def test_separable_tables_are_packed(self):
        # image tables are 64-bit machine ints, the lowest digit block first
        table = fflab._separable([[0, 1, 2], [0, 3, 6], [0, 1 << 40]])
        assert isinstance(table, memoryview) and table.format == "q"
        assert table.tolist() == list(range(9)) + [x + (1 << 40) for x in range(9)]
        assert fflab._separable([]).tolist() == [0]


class TestLaneBlocks:
    # lane values of k coordinates, a block of at most LANE_BLOCK lanes at a
    # time: a small block splits every scan into many, with the same counts
    @pytest.mark.parametrize("block", [4, 27, 97])
    def test_block_size_does_not_change_the_counts(self, monkeypatch, block):
        cases = [(JORDAN, (2,), (1,), 1, 2), (A2, (2, 1), (1, 0), 0, 3), (SINGLE_VERTEX, (2,), (3,), 1, 2)]
        fibers = [
            count_moment_fiber(*case, strategy=strategy) for case in cases for strategy in ("full", "linear")
        ]
        orders = [centralizer_order(lam, q) for q in (2, 3) for lam in partitions_of(3)]
        monkeypatch.setattr(fflab, "LANE_BLOCK", block)
        assert [
            count_moment_fiber(*case, strategy=strategy) for case in cases for strategy in ("full", "linear")
        ] == fibers
        assert [centralizer_order(lam, q) for q in (2, 3) for lam in partitions_of(3)] == orders
        assert fibers[0::2] == fibers[1::2]

    def test_every_point_on_one_lane(self, monkeypatch):
        # lane L of a block holds the low digits of L, and the blocks with
        # their constant high digits cover every point once
        for block in (2, 9, 1 << 20):
            monkeypatch.setattr(fflab, "LANE_BLOCK", block)
            for q, k in ((2, 5), (3, 4), (5, 2), (7, 2), (31, 2), (1009, 1)):
                points = []
                for coords, mask in fflab._field(q).lane_blocks(k):
                    lanes = mask.bit_length()
                    assert mask == (1 << lanes) - 1 and lanes <= max(block, 1)
                    for lane in range(lanes):
                        point = [_lane_element(x, lane) for x in coords]
                        assert sum(c * q**i for i, c in enumerate(point)) % lanes == lane
                        points.append(tuple(point))
                everything = [tuple((i // q**c) % q for c in range(k)) for i in range(q**k)]
                assert sorted(points) == sorted(everything), (q, k, block)


def _lane_element(lanes, lane):
    """The element a lane value holds on one lane: plane i holds its bit i."""
    return sum((plane >> lane & 1) << i for i, plane in enumerate(lanes))


def _as_lanes(values, q):
    """The lane value holding values[L] on lane L."""
    bits = (q - 1).bit_length()
    return tuple(sum((x >> i & 1) << lane for lane, x in enumerate(values)) for i in range(bits))


def _invertible_matrices(n, q):
    return [
        tuple(entries[i * n : (i + 1) * n] for i in range(n))
        for entries in product(range(q), repeat=n * n)
        if _leibniz_det_mod([entries[i * n : (i + 1) * n] for i in range(n)], q)
    ]


def _fixes(quiver, g, arrows, framing, q):
    """Whether g . phi = phi: g_t E = E g_s on each arrow, g_i F = F on each framing."""

    def mul(a, b):
        cols = len(b[0]) if b else 0
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) % q for j in range(cols))
            for i in range(len(a))
        )

    return all(mul(g[t], e) == mul(e, g[s]) for (s, t), e in zip(quiver.arrows, arrows)) and all(
        mul(g[i], f) == f for i, f in enumerate(framing)
    )


class TestStableFiber:
    TINY = (
        (JORDAN, (1,), (1,), 2),
        (JORDAN, (1,), (1,), 3),
        (JORDAN, (2,), (1,), 2),
        (SINGLE_VERTEX, (1,), (2,), 3),
        (SINGLE_VERTEX, (2,), (2,), 2),
        (A2, (1, 1), (1, 1), 2),
        (A2, (1, 1), (0, 1), 3),
        (DOUBLE_ARROW, (1, 1), (1, 0), 2),
        (STAR3, (1, 1, 1), (1, 1, 1), 2),
        # two psi loop operators at one vertex, and two framed vertices
        (TWO_LOOP, (1,), (1,), 3),
        (DOUBLE_ARROW, (1, 1), (1, 1), 2),
        # framed at a leaf: the framing image spans a line of V, so the
        # closure runs per projected psi point, one per line through 0
        (STAR3, (1, 1, 1), (0, 1, 0), 3),
    )

    def test_matches_pairwise_enumeration(self):
        for quiver, v, w, q in self.TINY:
            assert count_stable_fiber(quiver, v, w, q) == _stable_by_pairs(quiver, v, w, q), (
                quiver,
                v,
                w,
                q,
            )

    def test_brute_forced_values(self):
        # independently brute-forced over (X, Y, i) and the like; at each of
        # these the level-1 fiber deviates from class x |G|, the stable count
        # does not
        assert count_stable_fiber(A2, (1, 1), (1, 1), 2) == 8
        assert count_stable_fiber(DOUBLE_ARROW, (1, 1), (1, 0), 2) == 6
        assert count_stable_fiber(A2, (2, 1), (1, 1), 2) == 6
        assert count_stable_fiber(STAR3, (1, 1, 1), (1, 1, 1), 2) == 56
        assert count_stable_fiber(JORDAN, (2,), (1,), 2) == 144

    def test_jordan_matches_cyclic_commuting_triples(self):
        # a stable point of the Jordan zero fiber with w = 1 has j = 0, so it
        # is a commuting pair with a cyclic vector; 18816 is criterion 2's
        # value at v=(3,), q=2
        for n, q, expected in ((2, 2, 144), (2, 3, 5184), (3, 2, 18816)):
            assert _cyclic_commuting_triples(n, q) == expected
            assert count_stable_fiber(JORDAN, (n,), (1,), q) == expected

    def test_free_orbits_inside_zero_fiber(self):
        for quiver, v, w, q in self.TINY + ((JORDAN, (2,), (2,), 2), (A2, (2, 1), (1, 1), 3)):
            stable = count_stable_fiber(quiver, v, w, q)
            assert stable <= count_moment_fiber(quiver, v, w, 0, q), (quiver, v, w, q)
            assert stable % group_order(v, q) == 0, (quiver, v, w, q)

    def test_zero_dimension_vector(self):
        assert count_stable_fiber(JORDAN, (0,), (1,), 3) == 1
        assert count_stable_fiber(A2, (0, 0), (0, 0), 2) == 1

    def test_budget_error_names_size(self):
        # Jordan v=(2,), w=(1,) over F_2: 2^6 = 64 phis, 688 zero-fiber points
        with pytest.raises(EnumerationBudgetError, match="needs 64 points"):
            count_stable_fiber(JORDAN, (2,), (1,), 2, budget=10)
        with pytest.raises(EnumerationBudgetError, match="needs 688 points"):
            count_stable_fiber(JORDAN, (2,), (1,), 2, budget=100)
        assert count_stable_fiber(JORDAN, (2,), (1,), 2, budget=688) == 144

    def test_refused_before_the_stability_pass(self):
        # Jordan v=(3,), w=(1,) over F_3: 3^12 phis fit the default budget,
        # the zero fiber does not, and its size comes from the orbit-reduced
        # fiber count, so the refusal takes no stability test at all
        start = time.perf_counter()
        with pytest.raises(EnumerationBudgetError, match="needs 67969773 points"):
            count_stable_fiber(JORDAN, (3,), (1,), 3)
        assert time.perf_counter() - start < 5

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            count_stable_fiber(JORDAN, (1,), (1,), 4)


class TestLargePrimes:
    # a bit-sliced lane value takes one int per binary digit of q - 1, so
    # large fields cost their bit length, not their size
    def test_strategies_agree_at_large_primes(self):
        for q in (31, 1009):
            for alpha, expected in ((1, q - 1), (0, 2 * q - 1)):
                for strategy in ("full", "linear"):
                    count = count_moment_fiber(SINGLE_VERTEX, (1,), (1,), alpha, q, strategy=strategy)
                    assert count == expected, (q, alpha, strategy)
        # a loop and its dual always commute at v = (1,)
        assert count_moment_fiber(JORDAN, (1,), (0,), 0, 1009, strategy="full") == 1009**2
        assert count_moment_fiber(JORDAN, (1,), (0,), 0, 1009, strategy="linear") == 1009**2
        # a2 with one framing: 31^4 pairs fit the full enumeration
        assert count_moment_fiber(A2, (1, 1), (1, 0), 0, 31, strategy="full") == count_moment_fiber(
            A2, (1, 1), (1, 0), 0, 31, strategy="linear"
        )

    def test_large_prime_fiber_is_fast(self):
        # a2 with arrow a, framing f and duals b, g: the fiber over alpha is
        # ab = alpha and fg - ab = alpha, so (2q - 1)^2 points at alpha = 0
        # and (q - 1)^2 at alpha = 1; over F_1009, 1009^2 phi points
        start = time.perf_counter()
        assert count_moment_fiber(A2, (1, 1), (1, 0), 0, 1009) == 2017**2
        assert count_moment_fiber(A2, (1, 1), (1, 0), 1, 1009) == 1008**2
        assert time.perf_counter() - start < 2.0


class TestQuotientCount:
    def test_values_match_class_evaluation(self):
        # Jordan v=(1,), w=(1,) has class L^2: the level-1 fiber is q^2 |G|
        for q in (2, 3):
            assert count_moment_fiber(JORDAN, (1,), (1,), 1, q) == q**2 * group_order((1,), q)

    def test_group_order(self):
        assert group_order((1,), 2) == 1
        assert group_order((2,), 2) == 6
        assert group_order((2, 1), 3) == 48 * 2


class TestCentralizerOrder:
    def test_stated_values(self):
        assert centralizer_order(P((1,)), 2) == 1
        assert centralizer_order(P((2,)), 2) == 2
        assert centralizer_order(P((1, 1)), 2) == 6

    def test_empty_partition(self):
        assert centralizer_order(P(), 3) == 1

    def test_non_prime_rejected(self):
        for lam in (P(), P((1,))):
            with pytest.raises(ValueError, match="prime"):
                centralizer_order(lam, 4)

    def test_out_of_range(self):
        with pytest.raises(EnumerationBudgetError):
            centralizer_order(P((1, 1, 1, 1)), 3)

    def test_scan_is_the_commutant(self):
        # the scan enumerates the kernel of the commutator map, whose
        # dimension is the classical sum of squared conjugate parts; the
        # budget error reports q to that dimension
        for q in (2, 3, 5):
            for n in range(1, 6):
                for lam in partitions_of(n):
                    k = sum(c * c for c in lam.conjugate().parts)
                    with pytest.raises(EnumerationBudgetError) as exc:
                        centralizer_order(lam, q, budget=q**k - 1)
                    assert exc.value.needed == q**k, (lam, q)

    def test_large_prime_fields(self):
        # the lane arithmetic grows with the bit length of q, not with q
        assert centralizer_order(P((1,)), 65521) == 65520
        assert centralizer_order(P((2,)), 1009) == 1009 * 1008  # 1009^2 lanes, one block
        with pytest.raises(EnumerationBudgetError):
            centralizer_order(P((1, 1)), 65521)

    def test_whole_space_kernel_is_fast(self):
        # J = 0: every 4x4 matrix commutes, 2^16 of them; best of five runs
        # within 25 ms, the full scan's time before the kernel scan (7-11 ms
        # on a 2-core Xeon)
        best = min(_timed(centralizer_order, P((1, 1, 1, 1)), 2) for _ in range(5))
        assert best < 0.025

    def test_jordan_matrix_shape(self):
        assert jordan_nilpotent(P((2, 1))) == ((0, 1, 0), (0, 0, 0), (0, 0, 0))
        assert jordan_nilpotent(P()) == ()


def test_prime_check_matches_trial_division():
    for q in range(-2, 5000):
        prime = q > 1 and all(q % d for d in range(2, int(q**0.5) + 1))
        try:
            assert fflab._require_prime(q) == q and prime, q
        except ValueError:
            assert not prime, q


def _timed(f, *args):
    start = time.perf_counter()
    f(*args)
    return time.perf_counter() - start


class TestKappaOracle:
    def test_stated_values(self):
        assert kappa_oracle(JORDAN, (2,), (0,), (P((2,)),)) == 2
        assert kappa_oracle(SINGLE_VERTEX, (1,), (1,), (P((1,)),)) == 1
        assert kappa_oracle(JORDAN, (2,), (1,), (P((1, 1)),)) == 6

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sizes"):
            kappa_oracle(JORDAN, (2,), (1,), (P((1,)),))

    def test_out_of_range(self):
        with pytest.raises(EnumerationBudgetError, match="needs 9 points, budget is 8"):
            kappa_oracle(JORDAN, (9,), (1,), (P((9,)),), max_total=8)

    @pytest.mark.parametrize(
        "v,w,lams",
        [
            ((True,), (1,), (P((1,)),)),
            ((1.0,), (1,), (P((1,)),)),
            (("1",), (1,), (P((1,)),)),
            ((1,), (False,), (P((1,)),)),
            ((1,), (1.0,), (P((1,)),)),
            ((1,), ("1",), (P((1,)),)),
            ((1, 0), (1,), (P((1,)),)),
            ((1,), (1, 0), (P((1,)),)),
            ((1,), (1,), (P((1,)), P())),
        ],
    )
    def test_bad_input_refused(self, v, w, lams):
        # the suite skips these checks; the public oracle keeps them
        with pytest.raises(ValueError):
            kappa_oracle(JORDAN, v, w, lams)

    def test_cached_jordan_matrices_are_tuples(self):
        # the kappa ranks and the centralizer scan share one cached matrix per
        # partition, so it must be immutable
        J = jordan_nilpotent(P((2, 1)))
        assert jordan_nilpotent(P((2, 1))) is J
        assert J == ((0, 1, 0), (0, 0, 0), (0, 0, 0))
        assert all(type(row) is tuple for row in J)

    def test_block_sum_matches_dense_nullity(self, fresh_fflab_caches):
        # the per-block nullities against one rank of the whole block-diagonal
        # matrix: the verify kappa grid, then multi-arrow and loop quivers
        from quivermotive.verify import _KAPPA_GRID

        grid = [(quiver, w, 5) for _, quiver, ws in _KAPPA_GRID for w in ws]
        grid += [
            (STAR3, (0, 0, 0), 3),
            (STAR3, (1, 0, 2), 3),
            (DOUBLE_ARROW, (0, 0), 4),
            (DOUBLE_ARROW, (1, 1), 4),
            (TWO_LOOP, (0,), 4),
            (TWO_LOOP, (2,), 4),
        ]
        checked = 0
        for quiver, w, max_total in grid:
            for v in exponents_upto(quiver.vertex_count, max_total):
                for tup in tuples_with_sizes(v):
                    X = tuple(jordan_nilpotent(lam) for lam in tup)
                    d = fflab.dim_rep_space(quiver, v, w)
                    dense = d - fflab._rank_rational(_kron_rho_matrix(quiver, w, X).tolist())
                    assert kappa_oracle(quiver, v, w, tup) == dense, (quiver, v, w, tup)
                    checked += 1
        assert checked > 400
        assert fflab._arrow_nullity.cache_info().hits > 0

    def test_kappa_suite_ranks_each_distinct_block_once(self, fresh_fflab_caches, monkeypatch):
        # the block caches are keyed on partitions: 89 arrow and 57 framing
        # blocks, each ranked once over the rationals
        from quivermotive.verify import kappa_suite

        rank = fflab._rank_rational
        calls = []
        monkeypatch.setattr(fflab, "_rank_rational", lambda rows: calls.append(1) or rank(rows))
        cases = kappa_suite()
        assert [c.status for c in cases] == ["PASS"] * 279
        assert len(calls) == 146
        assert fflab._arrow_nullity.cache_info().currsize == 89
        assert fflab._framing_nullity.cache_info().currsize == 57


def _leibniz_det_mod(rows, q):
    """Determinant mod q as the signed sum over all permutations."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total % q


def _literal_centralizer_order(lam, q):
    """Invertible M with M J = J M, by a plain scan over tuples of entries."""
    n = lam.size
    J = jordan_nilpotent(lam)

    def mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) % q for j in range(n))
            for i in range(n)
        )

    count = 0
    for entries in product(range(q), repeat=n * n):
        M = tuple(entries[i * n : (i + 1) * n] for i in range(n))
        if mul(M, J) == mul(J, M) and _leibniz_det_mod(M, q):
            count += 1
    return count


def _kron_arrow_block(X_t, X_s):
    """E -> X_t E - E X_s on row-major E, as X_t (x) I - I (x) X_s^T."""
    A = np.array(X_t, dtype=np.int64).reshape(len(X_t), len(X_t))
    B = np.array(X_s, dtype=np.int64).reshape(len(X_s), len(X_s))
    return np.kron(A, np.eye(len(B), dtype=np.int64)) - np.kron(np.eye(len(A), dtype=np.int64), B.T)


def _kron_framing_block(X_i, w_i):
    """E -> X_i E on row-major E with w_i columns, as X_i (x) I."""
    A = np.array(X_i, dtype=np.int64).reshape(len(X_i), len(X_i))
    return np.kron(A, np.eye(w_i, dtype=np.int64))


def _kron_rho_matrix(quiver, w, X):
    """The matrix of rho'(X) from Kronecker blocks: arrows, then framings, on the diagonal."""
    blocks = [_kron_arrow_block(X[t], X[s]) for s, t in quiver.arrows]
    blocks += [_kron_framing_block(X[i], w[i]) for i in range(quiver.vertex_count)]
    d = sum(len(b) for b in blocks)
    out = np.zeros((d, d), dtype=np.int64)
    pos = 0
    for b in blocks:
        out[pos : pos + len(b), pos : pos + len(b)] = b
        pos += len(b)
    return out


def _fraction_rank(rows):
    """Rank over the rationals by Gauss-Jordan elimination on Fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col] / mat[rank][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


class TestOracleReferences:
    """The vectorized oracle kernels against literal loop versions."""

    def test_centralizer_matches_literal_scan(self):
        for q, max_size in ((2, 3), (3, 3), (5, 2), (7, 2)):
            for n in range(max_size + 1):
                for lam in partitions_of(n):
                    assert centralizer_order(lam, q) == _literal_centralizer_order(lam, q), (lam, q)

    def test_zero_nilpotent_gives_the_whole_group(self):
        # J = 0 commutes with every matrix, so the scan counts all of GL_n,
        # whose order the product formula gives
        for q, max_size in ((2, 4), (3, 3), (5, 2), (7, 2)):
            for n in range(max_size + 1):
                assert centralizer_order(P((1,) * n), q, budget=q ** (n * n)) == group_order((n,), q)

    def test_det_mod_matches_leibniz(self):
        # each lane of a block holds one matrix; the lane value of entry
        # (i, j) holds that entry of every matrix
        rng = random.Random(29)
        for q in (2, 3, 5, 7):
            field = fflab._field(q)
            for n in range(5):
                batch = [[[rng.randrange(q) for _ in range(n)] for _ in range(n)] for _ in range(60)]
                batch[0] = [[(q - 1) * int(i == j) for j in range(n)] for i in range(n)]
                batch[1] = [[0] * n for _ in range(n)]
                entries = [_as_lanes([m[i][j] for m in batch], q) for i in range(n) for j in range(n)]
                mask = (1 << len(batch)) - 1
                det = fflab._det_lanes(field, entries, n, mask)
                got = [_lane_element(det, lane) for lane in range(len(batch))]
                assert got == [_leibniz_det_mod(m, q) for m in batch], (q, n)
        # large fields, each element 7 to 28 bits, minors up to (q-1)^4 and beyond
        for q in (89, 97, 23167, 23173, (1 << 28) - 57):
            field = fflab._field(q)
            for n in (4, 5):
                batch = [[[rng.randrange(q) for _ in range(n)] for _ in range(n)] for _ in range(20)]
                batch[0] = [[(q - 1) * int(i == j) for j in range(n)] for i in range(n)]
                entries = [_as_lanes([m[i][j] for m in batch], q) for i in range(n) for j in range(n)]
                det = fflab._det_lanes(field, entries, n, (1 << len(batch)) - 1)
                got = [_lane_element(det, lane) for lane in range(len(batch))]
                assert got == [_leibniz_det_mod(m, q) for m in batch], (q, n)

    def test_rho_matrix_columns_match_derivative(self):
        # the image of each unit phi under the explicit products vanishes
        # outside the unit's component and is its column of that component's
        # row block inside it
        rng = random.Random(31)
        for quiver in BUILTIN_QUIVERS.values():
            k = quiver.vertex_count
            for v in exponents_upto(k, 3):
                for w in ((0,) * k, (1,) * k, tuple(range(k))):
                    X = tuple(
                        tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
                        for n in v
                    )
                    blocks = [fflab._arrow_rows(X[t], X[s]) for s, t in quiver.arrows]
                    blocks += [fflab._framing_rows(X[i], w[i]) for i in range(k)]
                    d = fflab.dim_rep_space(quiver, v, w)
                    assert sum(map(len, blocks)) == d
                    pos = 0
                    for block in blocks:
                        assert all(len(row) == len(block) for row in block)
                        for j in range(len(block)):
                            unit = [0] * d
                            unit[pos + j] = 1
                            arrows, framing = fflab._rho_products(
                                quiver, v, w, X, *fflab._unflatten_phi(quiver, v, w, unit)
                            )
                            flat = [x for m in arrows + framing for row in m for x in row]
                            column = [row[j] for row in block]
                            assert flat[pos : pos + len(block)] == column, (quiver, v, w, pos, j)
                            assert not any(flat[:pos] + flat[pos + len(block) :]), (quiver, v, w)
                        pos += len(block)

    def test_rows_match_kron_reference(self):
        # every pair of Jordan matrices up to size 5, then random integer
        # matrices, against the Kronecker-product form of each block
        jordans = [jordan_nilpotent(lam) for n in range(6) for lam in partitions_of(n)]
        rng = random.Random(43)
        randoms = [
            tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))
            for n in (0, 1, 2, 3, 4)
            for _ in range(4)
        ]
        for group in (jordans, randoms):
            for X_t, X_s in product(group, repeat=2):
                rows = fflab._arrow_rows(X_t, X_s)
                assert rows == _kron_arrow_block(X_t, X_s).tolist(), (X_t, X_s)
                assert all(type(x) is int for row in rows for x in row)
            for X_i, w_i in product(group, range(4)):
                rows = fflab._framing_rows(X_i, w_i)
                assert rows == _kron_framing_block(X_i, w_i).tolist(), (X_i, w_i)

    def test_rank_matches_fraction_elimination(self):
        rng = random.Random(37)
        cases = [[], [[]], [[], []], [[0, 0, 0]], [[0] * 4 for _ in range(3)]]
        # negative pivots: -1 after 1 and after -1, below rows the step skips,
        # and a larger negative pivot whose division by prev must stay exact
        cases += [
            [[-1, 2], [3, 4]],
            [[1, 0, 2], [0, -1, 3], [0, 0, 5], [2, 1, 4]],
            [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [0, 0, 7]],
            [[-3, 1, 2], [6, -2, -4], [0, -5, 1], [9, 2, -1]],
            [[-2, 4, -6], [-1, 2, -3], [0, 0, -1]],
            fflab._arrow_rows(jordan_nilpotent(P((2, 1))), jordan_nilpotent(P((3,)))),
            [[-x for x in row] for row in fflab._arrow_rows(jordan_nilpotent(P((3,))), ((1,),))],
        ]
        for _ in range(200):
            m, n, k = rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 4)
            # a product through k dimensions has rank at most k
            left = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(m)]
            right = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
            cases.append(
                [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)] for i in range(m)]
            )
            cases.append([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
            # sparse, like the structure matrices: most rows skip a pivot step
            cases.append([[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(m)])
        for rows in cases:
            before = [list(row) for row in rows]
            assert fflab._rank_rational(rows) == _fraction_rank(rows), rows
            assert rows == before, "the rows were written in place"

    def test_list_echelon_is_reduced_and_keeps_the_row_space(self):
        rng = random.Random(41)
        for q in (2, 3, 5, 7):
            systems = [[[0] * 4 for _ in range(3)], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]
            diagonal = [rng.randrange(1, q) for _ in range(5)]
            systems.append([[x if i == j else 0 for j in range(5)] for i, x in enumerate(diagonal)])
            for _ in range(30):
                m, cols = rng.randint(1, 6), rng.randint(1, 7)
                systems.append([[rng.randrange(q) for _ in range(cols)] for _ in range(m)])
            for rows in systems:
                # pivots in every column, or in all but a trailing right-hand side
                for ncols in {len(rows[0]), max(1, len(rows[0]) - 1)}:
                    before = [list(row) for row in rows]
                    echelon, pivots = fflab._echelon_mod(rows, q, ncols)
                    assert rows == before, "the rows were written in place"
                    assert len(echelon) == len(rows)
                    assert pivots == sorted(set(pivots)) and all(p < ncols for p in pivots)
                    for r, p in enumerate(pivots):
                        # a unit pivot, alone in its column, after a zero lead
                        assert [row[p] for row in echelon] == [int(k == r) for k in range(len(rows))]
                        assert not any(echelon[r][:p]), (q, rows, ncols)
                    # past the rank, nothing is left in the pivot columns
                    assert not any(x for row in echelon[len(pivots) :] for x in row[:ncols]), (q, rows, ncols)
                    # the same row space: neither side adds to the other's rank
                    rank = _rank_mod(rows, q)
                    assert _rank_mod(echelon, q) == rank == _rank_mod(rows + echelon, q), (q, rows)
            assert fflab._echelon_mod(systems[2], q, 5)[1] == [0, 1, 2, 3, 4]
            assert fflab._echelon_mod(systems[0], q, 4) == (systems[0], [])

    def test_batch_elimination_matches_scalar(self):
        # the framing systems eliminated bit-sliced, one lane per framing,
        # against one list elimination (_echelon_mod) per framing
        rng = random.Random(23)
        for q in (2, 3, 5, 7):
            for _ in range(40):
                m, n = rng.randint(0, 4), rng.randint(0, 3)
                systems = [
                    {(j, b): rng.choice((0, 0, rng.randrange(q))) for j in range(n) for b in range(n)}
                    for _ in range(m)
                ]
                targets = [rng.choice((0, rng.randrange(q))) for _ in range(m)]
                expected = 0
                for f in product(range(q), repeat=n):
                    rows = [
                        [sum(c * f[j] for (j, col), c in terms.items() if col == b) % q for b in range(n)]
                        + [t]
                        for terms, t in zip(systems, targets)
                    ]
                    echelon, pivots = fflab._echelon_mod(rows, q, n)
                    if not any(row[n] for row in echelon[len(pivots) :]):
                        expected += q ** (n - len(pivots))
                got = fflab._framing_counts(fflab._field(q), systems, targets, n)
                assert got == expected, (q, systems, targets)


class TestCycloCount:
    """Count lists read as cyclotomic integers, compared by _same_values.

    The powers of zeta sum to zero, so a constant added to every count
    leaves the value alone.
    """

    def test_constant_vector_is_invisible(self):
        assert fflab._same_values([3, 1, 4, 1, 5], [10, 8, 11, 8, 12], 5)

    def test_equivalence_relation(self):
        a, b, c = [1, 2, 3], [0, 1, 2], [-5, -4, -3]
        assert fflab._same_values(a, a, 3)
        assert fflab._same_values(a, b, 3) and fflab._same_values(b, a, 3)
        assert fflab._same_values(b, c, 3) and fflab._same_values(a, c, 3)

    def test_all_ones_is_zero(self):
        assert fflab._same_values([1, 1, 1], [0, 0, 0], 3)

    def test_int_comparison(self):
        # the integer n is the count list [n, 0, ..., 0]
        assert fflab._same_values([5, 2], [3, 0], 2)


class TestSameValues:
    def test_any_other_difference_is_seen(self):
        base = [3, 1, 4, 1, 5]
        for t in range(5):
            for step in (-2, 1):
                other = list(base)
                other[t] += step
                assert not fflab._same_values(base, other, 5), (t, step)
        assert not fflab._same_values([1, 0, 0], [0, 1, 0], 3)
        assert not fflab._same_values([0, 0, 0], [0] * 6, 3)

    def test_stacked_blocks_have_their_own_constants(self):
        # a stacked list of k values agrees when each block's difference is
        # constant, whatever the constants of the other blocks
        a = [1, 2, 3, 0, 0, 0, 4, 4, 7]
        assert fflab._same_values(a, [0, 1, 2, 5, 5, 5, 4, 4, 7], 3)
        assert not fflab._same_values(a, [0, 1, 2, 5, 5, 5, 4, 5, 7], 3)
        assert not fflab._same_values([0, 0, 0, 0], [0, 1, 1, 0], 2)


class TestLinearLemma:
    def test_nonzero_form_cancels(self):
        assert charsum_linear_lemma(1, [((1,), 0)], 3)
        assert charsum_linear_lemma(1, [((2,), 1)], 5)

    def test_zero_form_counts_space(self):
        assert charsum_linear_lemma(1, [((0,), 0)], 3)
        assert charsum_linear_lemma(2, [((0, 0), 2)], 3)

    def test_random_affine_families(self):
        rng = random.Random(11)
        for q in (2, 3, 5):
            for n in (1, 2, 3):
                family = [
                    (tuple(rng.randrange(q) for _ in range(n)), rng.randrange(q))
                    for _ in range(20)
                ]
                assert charsum_linear_lemma(n, family, q)

    def test_detects_wrong_length(self):
        with pytest.raises(ValueError, match="entries"):
            charsum_linear_lemma(2, [((1,), 0)], 3)


def _rotated(counts, t):
    """counts times zeta^t: the count at s moves to s + t, mod the length."""
    t %= len(counts)
    return counts[-t:] + counts[:-t]


class TestFourier:
    def test_indicator_of_zero(self):
        q, n = 3, 1
        phases = fflab._phase_table(q, n)
        f = [[1, 0, 0], None, None]
        transformed = fflab._transform_counts(f, q, phases)
        for counts in transformed:
            assert fflab._same_values(counts, [1, 0, 0], q)
        double = fflab._transform_counts(transformed, q, phases)
        assert fflab._same_values(double[0], [3, 0, 0], q)
        assert fflab._same_values(double[1], [0, 0, 0], q)

    def test_constant_function(self):
        q, n = 3, 1
        transformed = fflab._transform_counts([[1, 0, 0]] * 3, q, fflab._phase_table(q, n))
        assert fflab._same_values(transformed[0], [3, 0, 0], q)
        assert fflab._same_values(transformed[1], [0, 0, 0], q)
        assert fflab._same_values(transformed[2], [0, 0, 0], q)

    def test_matches_literal_sum(self):
        # the term of v at w is f(v) times zeta^<v, w>; points without a
        # value contribute nothing
        rng = random.Random(13)
        for q, n in ((2, 1), (3, 2), (5, 2), (2, 3)):
            points = list(product(range(q), repeat=n))
            f = [
                [rng.randint(-4, 4) for _ in range(q)] if rng.random() < 0.7 else None
                for _ in points
            ]
            transformed = fflab._transform_counts(f, q, fflab._phase_table(q, n))
            assert len(transformed) == len(points)
            for wv, counts in zip(points, transformed):
                literal = [0] * q
                for vv, val in zip(points, f):
                    if val is not None:
                        turned = _rotated(val, sum(a * b for a, b in zip(vv, wv)))
                        literal = [x + y for x, y in zip(literal, turned)]
                assert counts == literal, (q, n, wv)

    def test_stacked_transform_matches_separate_ones(self):
        # k count lists stacked at each point transform block by block
        rng = random.Random(17)
        for q in (2, 3, 5):
            for n in (1, 2):
                points = list(product(range(q), repeat=n))
                phases = fflab._phase_table(q, n)
                present = [rng.random() < 0.7 for _ in points]
                present[0] = True
                for k in (1, 3):
                    blocks = [
                        [[rng.randint(-4, 4) for _ in range(q)] if here else None
                         for here in present]
                        for _ in range(k)
                    ]
                    stacked = [
                        [c for block in blocks for c in block[i]] if here else None
                        for i, here in enumerate(present)
                    ]
                    separate = [fflab._transform_counts(block, q, phases) for block in blocks]
                    out = fflab._transform_counts(stacked, q, phases)
                    assert out == [
                        [c for result in separate for c in result[j]] for j in range(len(points))
                    ], (q, n, k)

    def test_inversion_random(self):
        for q in (2, 3, 5):
            for n in (1, 2):
                assert fourier_inversion_check(n, q, trials=20, seed=5)

    def test_inversion_is_deterministic(self):
        assert fourier_inversion_check(2, 3, trials=3, seed=1) == fourier_inversion_check(
            2, 3, trials=3, seed=1
        )


FIBER_IDENTITY_GRID = [
    pytest.param(qv, v, w, alpha, q, id="-".join(name.split()) + f"-q={q}")
    for name, qv, v, w, alpha in _FIBER_IDENTITY_CASES
    for q in (2, 3)
]


class TestFiberIdentity:
    @pytest.mark.parametrize("quiver,v,w,alpha,q", FIBER_IDENTITY_GRID)
    def test_grid_case(self, quiver, v, w, alpha, q):
        assert charsum_fiber_identity(quiver, v, w, alpha, q)

    @pytest.mark.parametrize("quiver,v,w,alpha,q", FIBER_IDENTITY_GRID)
    def test_fails_on_a_wrong_fiber_count(self, monkeypatch, quiver, v, w, alpha, q):
        count = fflab.count_moment_fiber
        monkeypatch.setattr(fflab, "count_moment_fiber", lambda *args, **kw: count(*args, **kw) + 1)
        assert not charsum_fiber_identity(quiver, v, w, alpha, q)

    def test_holds_even_where_count_deviates(self):
        # the identity is plain character orthogonality, so it survives the
        # small fields where the polynomial count dictionary does not
        assert charsum_fiber_identity(JORDAN, (2,), (1,), 1, 2, budget=1 << 22)

    def test_budget(self):
        with pytest.raises(EnumerationBudgetError):
            charsum_fiber_identity(JORDAN, (2,), (1,), 1, 3, budget=100)


class TestEngineOracleConsistency:
    # Exact equality between the class polynomial at L = q (times the group
    # order) and the level-1 fiber count.  The level-1 fiber stands in for the
    # variety only where the level is generic: p divides no positive root
    # beta <= v.  Every mismatch seen has such a root (p not exceeding the
    # total of v over some connected piece of its support), and the stable
    # zero fiber matches the class there too (TestStableFiber).  The
    # mismatching level-1 counts themselves are pinned in TestFiberCounts.
    SAFE_GRID = (
        (JORDAN, (1,), (1,), (2, 3, 5)),
        (JORDAN, (1,), (2,), (2, 3, 5)),
        (JORDAN, (2,), (1,), (3, 5)),
        (JORDAN, (2,), (2,), (3, 5)),
        (SINGLE_VERTEX, (1,), (1,), (2, 3, 5)),
        (SINGLE_VERTEX, (2,), (2,), (2, 3, 5)),
        (SINGLE_VERTEX, (2,), (4,), (2, 3)),
        (A2, (1, 0), (1, 1), (2, 3, 5)),
        (A2, (0, 1), (2, 0), (2, 3, 5)),
        (A2, (1, 1), (1, 1), (3, 5)),
        (A2, (1, 1), (2, 2), (3, 5)),
        (A2, (2, 1), (1, 1), (3, 5)),
        (A2, (2, 0), (1, 1), (2, 3)),
        (TWO_LOOP, (1,), (1,), (2, 3, 5)),
        (TWO_LOOP, (1,), (2,), (2, 3, 5)),
        (TWO_LOOP, (2,), (1,), (3,)),  # q=5 is exact too but needs 5^10 points
    )

    def test_polynomial_matches_count(self):
        from quivermotive.engine import motive_class
        from quivermotive.lrat import LRat

        for quiver, v, w, qs in self.SAFE_GRID:
            cls = LRat(list(motive_class(quiver, v, w).class_polynomial))
            for q in qs:
                fiber = count_moment_fiber(quiver, v, w, 1, q)
                assert cls.eval_at(q) * group_order(v, q) == fiber, (quiver, v, w, q)

    def test_multi_vertex_mismatch_pattern(self):
        # connected support of total size 2 (resp. 3) deviates exactly at
        # p = 2 (resp. p = 2 and 3) and matches at larger p
        from quivermotive.engine import motive_class
        from quivermotive.lrat import LRat
        from quivermotive.quiver import STAR3

        cases = (
            (A2, (1, 1), (1, 1), {2: False, 3: True, 5: True}),
            (STAR3, (1, 1, 1), (1, 1, 1), {2: False, 3: False, 5: True}),
        )
        for quiver, v, w, expectations in cases:
            cls = LRat(list(motive_class(quiver, v, w).class_polynomial))
            for q, should_match in expectations.items():
                fiber = count_moment_fiber(quiver, v, w, 1, q)
                matches = cls.eval_at(q) * group_order(v, q) == fiber
                assert matches == should_match, (quiver, v, w, q)


class TestMomentSystemInternals:
    def test_bilinear_matrices_reproduce_pairing(self):
        # every builtin, with a loop, parallel arrows and a 2 x 2 framing
        # block among the cases: a psi layout that pairs phi entry (r, c)
        # with anything but psi entry (c, r) changes no fiber count, since
        # it permutes psi-space, so no verify suite sees it
        assert _forms_reproduce_pairing()

    def test_products_without_the_source_term_fail(self, capsys, monkeypatch, fresh_fflab_caches):
        # rho'(X) on an arrow as E -> X_t E, the -E X_s term dropped: the
        # moment forms stop matching the pairing, and the fiber identity
        # fails on each case with an arrow, while the vertex case holds
        original = fflab._rho_products

        def without_source_term(quiver, v, w, X, arrows_in, framing_in):
            _, framing = original(quiver, v, w, X, arrows_in, framing_in)
            arrows = zip(arrows_in, quiver.arrows)
            return tuple(fflab._mat_mul(X[t], E, v[t], v[t], v[s]) for E, (s, t) in arrows), framing

        monkeypatch.setattr(fflab, "_rho_products", without_source_term)
        assert not _forms_reproduce_pairing()
        assert cli.main(["verify", "harmonic", "--q", "2", "--format", "records"]) == 1
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        failed = [r["case"] for r in records if r["status"] == "FAIL"]
        arrowed = [name for name, quiver, *_ in _FIBER_IDENTITY_CASES if quiver.arrows]
        assert failed == [f"fiber-identity {name} q=2" for name in arrowed]
        assert len(failed) == 4


PAIRING_CASES = (
    (JORDAN, (2,), (2,)),
    (SINGLE_VERTEX, (2,), (2,)),
    (A2, (2, 1), (2, 1)),
    (DOUBLE_ARROW, (2, 1), (2, 0)),
    (STAR3, (2, 1, 1), (2, 0, 1)),
    (TWO_LOOP, (2,), (2,)),
)


def _forms_reproduce_pairing():
    """Whether each moment form, the sum of m phi_a psi_b over its terms, is the trace pairing at X."""
    rng = random.Random(17)
    for (quiver, v, w), q in product(PAIRING_CASES, (2, 3, 5)):
        forms, _ = fflab._moment_system(quiver, v, w, q)
        d = fflab.dim_rep_space(quiver, v, w)
        basis = fflab._lie_basis(quiver, v)
        assert len(forms) == len(basis)
        for _ in range(10):
            phi_vec = [rng.randrange(q) for _ in range(d)]
            psi_vec = [rng.randrange(q) for _ in range(d)]
            point = _point_from_vectors(quiver, v, w, phi_vec, psi_vec)
            for (X, _), terms in zip(basis, forms):
                via_terms = sum(phi_vec[a] * m * psi_vec[b] for a, b, m in terms)
                if _trace_pairing(quiver, v, w, point, X, q) != via_terms % q:
                    return False
    return True


def _point_from_vectors(quiver, v, w, phi_vec, psi_vec):
    """(phi arrows, phi framing, psi arrows, psi framing), psi's shapes the transposes of phi's."""
    mats = tuple(fflab._matrices(psi_vec, fflab._psi_shapes(quiver, v, w)))
    n_arrows = len(quiver.arrows)
    return (*fflab._unflatten_phi(quiver, v, w, phi_vec), mats[:n_arrows], mats[n_arrows:])


def _trace_pairing(quiver, v, w, point, X, q):
    """The sum of tr(psi . rho'(X) phi) over the arrows and framings of point, mod q."""
    phi_arrows, phi_framing, psi_arrows, psi_framing = point
    arrows, framing = fflab._rho_products(quiver, v, w, X, phi_arrows, phi_framing)
    pairs = zip(psi_arrows + psi_framing, arrows + framing)
    return sum(b[i][j] * a[j][i] for b, a in pairs for i in range(len(b)) for j in range(len(a))) % q


def _rank_mod(rows, q):
    """Rank over the q-element field, by inserting each row into a basis keyed by leading column.

    A row is reduced by the basis row of its leading column until it
    vanishes or leads a column that has none, which it then takes.
    """
    basis = {}
    for row in rows:
        row = [x % q for x in row]
        lead = next((i for i, x in enumerate(row) if x), None)
        while lead in basis:
            c = row[lead]
            row = [(x - c * y) % q for x, y in zip(row, basis[lead])]
            lead = next((i for i, x in enumerate(row) if x), None)
        if lead is not None:
            unit = pow(row[lead], -1, q)
            basis[lead] = [x * unit % q for x in row]
    return len(basis)


def _generated_subspace(ops, gens, q, n):
    """All vectors of the span of gens closed under ops, as a set of tuples."""
    span = {(0,) * n}
    frontier = [tuple(g) for g in gens]
    while frontier:
        vec = frontier.pop()
        if vec in span:
            continue
        span |= {tuple((a + c * b) % q for a, b in zip(x, vec)) for x in span for c in range(q)}
        for op in ops:
            frontier.append(
                tuple(sum(op[r][c] * vec[c] for c in range(n)) % q for r in range(n))
            )
    return span


def _cyclic_commuting_triples(n, q):
    """Triples (X, Y, i) over F_q with XY = YX and i cyclic for X and Y.

    Scans all pairs of n x n matrices for commuting ones; i is cyclic when
    the vectors X^a Y^b i with a + b < n span F_q^n, which holds when some n
    of them have a determinant that is nonzero mod q.
    """
    from itertools import combinations

    mats = np.array(list(product(range(q), repeat=n * n)), dtype=np.int64).reshape(-1, n, n)
    prods = np.einsum("aij,bjk->abik", mats, mats) % q
    xs, ys = np.nonzero((prods == prods.transpose(1, 0, 2, 3)).all(axis=(2, 3)))
    X, Y = mats[xs], mats[ys]
    vecs = np.array(list(product(range(q), repeat=n)), dtype=np.int64)
    power = np.broadcast_to(np.eye(n, dtype=np.int64), X.shape)
    images = []
    for a in range(n):
        mono = power
        for _ in range(n - a):
            images.append(np.einsum("pij,vj->pvi", mono, vecs) % q)
            mono = np.einsum("pij,pjk->pik", mono, Y) % q
        power = np.einsum("pij,pjk->pik", power, X) % q
    images = np.stack(images, axis=2).astype(float)
    cyclic = np.zeros(images.shape[:2], dtype=bool)
    for rows in combinations(range(images.shape[2]), n):
        det = np.rint(np.linalg.det(images[:, :, rows, :])).astype(np.int64)
        cyclic |= det % q != 0
    return int(cyclic.sum())


def _stable_by_pairs(quiver, v, w, q):
    """Stable zero-fiber points by testing every (phi, psi) pair directly.

    The moment condition goes through _trace_pairing on the elementary
    basis, stability through an explicit closure of the framing images'
    span, with no elimination anywhere.
    """
    d = fflab.dim_rep_space(quiver, v, w)
    n = sum(v)
    offsets = [sum(v[:i]) for i in range(quiver.vertex_count)]
    basis = [X for X, _ in fflab._lie_basis(quiver, v)]
    count = 0
    for phi_vec in product(range(q), repeat=d):
        for psi_vec in product(range(q), repeat=d):
            point = _point_from_vectors(quiver, v, w, phi_vec, psi_vec)
            if any(_trace_pairing(quiver, v, w, point, X, q) for X in basis):
                continue
            phi_arrows, phi_framing, psi_arrows, _ = point
            ops = []
            for (s, t), fwd, back in zip(quiver.arrows, phi_arrows, psi_arrows):
                big_fwd = [[0] * n for _ in range(n)]
                big_back = [[0] * n for _ in range(n)]
                for a in range(v[t]):
                    for b in range(v[s]):
                        big_fwd[offsets[t] + a][offsets[s] + b] = fwd[a][b]
                        big_back[offsets[s] + b][offsets[t] + a] = back[b][a]
                ops += [big_fwd, big_back]
            gens = []
            for i, frame in enumerate(phi_framing):
                for b in range(w[i]):
                    vec = [0] * n
                    for a in range(v[i]):
                        vec[offsets[i] + a] = frame[a][b]
                    gens.append(vec)
            if len(_generated_subspace(ops, gens, q, n)) == q**n:
                count += 1
    return count
