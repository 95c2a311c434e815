from itertools import product

import pytest

from quivermotive.partitions import (
    Partition,
    pairing,
    partitions_of,
    tuples_with_sizes,
)


def brute_force_partitions(n):
    """Every weakly decreasing positive tuple summing to n, by exhaustive scan."""
    if n == 0:
        return [()]
    found = set()
    for length in range(1, n + 1):
        for candidate in product(range(1, n + 1), repeat=length):
            if sum(candidate) == n and all(
                a >= b for a, b in zip(candidate, candidate[1:])
            ):
                found.add(candidate)
    return sorted(found, reverse=True)


def descending_sums(n, cap):
    """The weakly decreasing tuples of parts <= cap summing to n, largest first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in descending_sums(n - first, first):
            yield (first,) + rest


def partition_counts(limit):
    """p(0..limit) by the coin-style recurrence, independent of the enumerator."""
    table = [1] + [0] * limit
    for part in range(1, limit + 1):
        for s in range(part, limit + 1):
            table[s] += table[s - part]
    return table


def conjugate_columns(parts):
    """Transpose by column counting, independent of Partition.conjugate."""
    return [sum(1 for p in parts if p >= i) for i in range(1, (parts[0] if parts else 0) + 1)]


class TestPartition:
    def test_empty_partition(self):
        lam = Partition()
        assert lam.size == 0
        assert len(lam) == 0
        assert not lam

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            Partition((2, 0))
        with pytest.raises(ValueError):
            Partition((-1,))

    def test_rejects_increasing_parts(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_ones(self):
        assert Partition.ones(0) == Partition()
        assert Partition.ones(3).parts == (1, 1, 1)

    def test_conjugate_is_involution(self):
        for n in range(8):
            for lam in partitions_of(n):
                assert lam.conjugate().conjugate() == lam

    def test_hash_and_equality(self):
        assert Partition((2, 1)) == Partition([2, 1])
        assert hash(Partition((2, 1))) == hash(Partition((2, 1)))
        assert Partition((2,)) != Partition((1, 1))


class TestEnumeration:
    def test_zero_and_one(self):
        assert partitions_of(0) == [Partition()]
        assert partitions_of(1) == [Partition((1,))]

    def test_five_against_brute_force(self):
        got = [p.parts for p in partitions_of(5)]
        assert got == brute_force_partitions(5)
        assert len(got) == 7

    def test_documented_order(self):
        assert [p.parts for p in partitions_of(4)] == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_reverse_lexicographic(self):
        for n in range(10):
            parts = [p.parts for p in partitions_of(n)]
            assert parts == sorted(parts, reverse=True)
            assert len(set(parts)) == len(parts)

    def test_counts_match_recurrence(self):
        table = partition_counts(30)
        for n in range(31):
            assert len(partitions_of(n)) == table[n]

    def test_matches_validated_constructor(self):
        # the enumeration gives what the constructor gives for the parts of
        # the reference recursion, conjugate columns included, in order
        for n in range(31):
            got = partitions_of(n)
            expected = [Partition(parts) for parts in descending_sums(n, n)]
            assert [lam.parts for lam in got] == [lam.parts for lam in expected], n
            assert [lam._columns for lam in got] == [lam._columns for lam in expected], n

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            partitions_of(-1)

    def test_returns_fresh_list(self):
        first = partitions_of(3)
        first.pop()
        assert len(partitions_of(3)) == 3


class TestPairing:
    def test_stated_values(self):
        assert pairing(Partition((1,)), Partition((1,))) == 1
        assert pairing(Partition((2, 1)), Partition((1, 1))) == 4
        assert pairing(Partition((2,)), Partition((2,))) == 2

    def test_empty_partition_pairs_to_zero(self):
        for n in range(5):
            for lam in partitions_of(n):
                assert pairing(Partition(), lam) == 0

    def test_symmetric_exhaustive(self):
        pool = [lam for n in range(9) for lam in partitions_of(n)]
        for lam in pool:
            for mu in pool:
                assert pairing(lam, mu) == pairing(mu, lam)

    def test_conjugate_identity_exhaustive(self):
        pool = [lam for n in range(9) for lam in partitions_of(n)]
        for lam in pool:
            for mu in pool:
                ca = conjugate_columns(lam.parts)
                cb = conjugate_columns(mu.parts)
                dot = sum(a * b for a, b in zip(ca, cb))
                assert pairing(lam, mu) == dot

    def test_multiplicity_definition_exhaustive(self):
        # the defining sum over part sizes i, j of min(i, j) m_i(lam) m_j(mu)
        pool = [lam for n in range(9) for lam in partitions_of(n)]
        for lam in pool:
            for mu in pool:
                total = sum(
                    min(i, j) * mi * mj
                    for i, mi in lam.multiplicities().items()
                    for j, mj in mu.multiplicities().items()
                )
                assert pairing(lam, mu) == total

    def test_diagonal_lower_bound(self):
        # pairing(lam, lam) is the sum of squared conjugate parts, so it is
        # at least the size, with equality exactly for single-row partitions
        for n in range(1, 9):
            for lam in partitions_of(n):
                diag = pairing(lam, lam)
                assert diag >= lam.size
                assert (diag == lam.size) == (len(lam) == 1)

    def test_ones_pairing_counts_rows(self):
        for n in range(9):
            for lam in partitions_of(n):
                for a in range(4):
                    assert pairing(Partition.ones(a), lam) == a * len(lam)


class TestTuples:
    def test_zero_vector(self):
        tuples = list(tuples_with_sizes((0,)))
        assert tuples == [(Partition(),)]

    def test_single_vertex_two(self):
        tuples = [tuple(p.parts for p in t) for t in tuples_with_sizes((2,))]
        assert tuples == [((2,),), ((1, 1),)]

    def test_two_vertex_count(self):
        assert len(list(tuples_with_sizes((2, 1)))) == 2

    def test_total_count_is_product(self):
        table = partition_counts(6)
        for sizes in product(range(4), repeat=2):
            expected = table[sizes[0]] * table[sizes[1]]
            got = list(tuples_with_sizes(sizes))
            assert len(got) == expected
            assert len(set(got)) == expected
            for tup in got:
                assert tuple(p.size for p in tup) == sizes
