import math

import pytest
from hypothesis import given, settings, strategies as st

from orbpairs.mordell import (
    ClassicalWitness,
    OrbifoldP1Triple,
    RationalPoint,
    density_report,
    enumerate_p_full,
    factorize,
    integer_nth_root,
    is_general_type_triple,
    is_p_full,
    is_perfect_power,
    merge_point_lists,
    search_classical,
    search_points,
)
from orbpairs.orbcore import DomainError
from cross_checks import enumerate_p_full_by_filter
from timeguard import time_guard


def search_points_by_trial(triple, max_a, max_b, sign="minus", b_range=None):
    """Reference search: decide each candidate by trial division."""
    a_values = enumerate_p_full(max_a, triple.p)
    b_values = enumerate_p_full(max_b, triple.r)
    if b_range is not None:
        b_values = [b for b in b_values if b_range[0] <= b <= b_range[1]]
    found = []
    for b in b_values:
        for a in a_values:
            if a == b or math.gcd(a, b) != 1:
                continue
            c = abs(a - b) if sign == "minus" else a + b
            if is_p_full(c, triple.q):
                found.append(RationalPoint(a, b))
    return found


class TestPFull:
    def test_examples(self):
        assert is_p_full(8, 3)
        assert not is_p_full(12, 2)
        assert is_p_full(72, 2)
        assert is_p_full(1, 4)
        assert is_p_full(-8, 3)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            is_p_full(0, 2)

    def test_against_sieve_oracle(self):
        # independent oracle: factor through a smallest-prime-factor sieve
        limit = 10**5
        spf = list(range(limit + 1))
        for i in range(2, math.isqrt(limit) + 1):
            if spf[i] == i:
                for j in range(i * i, limit + 1, i):
                    if spf[j] == j:
                        spf[j] = i

        def min_exponent(n: int) -> float:
            if n == 1:
                return math.inf
            smallest = math.inf
            while n > 1:
                prime = spf[n]
                e = 0
                while n % prime == 0:
                    n //= prime
                    e += 1
                smallest = min(smallest, e)
            return smallest

        for n in range(1, limit + 1):
            smallest = min_exponent(n)
            for p in range(2, 6):
                assert is_p_full(n, p) == (smallest >= p), (n, p)
                assert is_p_full(-n, p) == (smallest >= p), (-n, p)

    @given(st.integers(2, 4), st.integers(1, 10**6), st.integers(1, 10**6))
    @settings(max_examples=200)
    def test_coprime_multiplicativity(self, p, a, b):
        if math.gcd(a, b) != 1:
            return
        if is_p_full(a, p) and is_p_full(b, p):
            assert is_p_full(a * b, p)


class TestEnumerate:
    def test_hundred_squarefull(self):
        values = enumerate_p_full(100, 2)
        assert values == [1, 4, 8, 9, 16, 25, 27, 32, 36, 49, 64, 72, 81, 100]
        assert len(values) == 14

    def test_small_limits(self):
        assert enumerate_p_full(7, 3) == [1]
        assert enumerate_p_full(1, 2) == [1]

    def test_generation_matches_filter_oracle(self):
        for p in (2, 3, 4):
            assert enumerate_p_full(10**4, p) == enumerate_p_full_by_filter(10**4, p)

    def test_strictly_sorted(self):
        values = enumerate_p_full(10**5, 2)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_sieve_bound_is_checked_before_sieving(self):
        # 2-full values up to 10^15 need primes up to 3.2 * 10^7 (about
        # 6.9 * 10^7 values); at 33 steps a root, the largest admitted root
        # is 1,242,424; the refusal must come before any sieving
        with time_guard(1):
            with pytest.raises(
                DomainError,
                match="enumerating the 2-full values up to 1000000000000000 takes more than 41000000 steps",
            ):
                enumerate_p_full(10**15, 2)
        # the admitted enumerations do sieve, so they get a hang guard
        # rather than a speed bound
        with time_guard(10):
            assert len(enumerate_p_full(10**10, 2)) == 214122
            assert len(enumerate_p_full(10**15, 3)) == 434572

    def test_values_are_counted_as_they_are_made(self):
        # both sieve to 10^5, but make 5.5 * 10^6 and 1.4 * 10^6 values at
        # 32 steps each; the budget stops them at the 1,278,126th value
        for limit, p in [(10**40, 8), (10**25, 5)]:
            with time_guard(3), pytest.raises(
                DomainError, match=f"{p}-full values up to {limit} takes more than 41000000 steps"
            ):
                enumerate_p_full(limit, p)


class TestDensity:
    def test_slope_near_inverse_exponent(self):
        for p in (2, 3):
            report = density_report(10**6, p)
            assert abs(report.slope - 1 / p) <= 0.08

    def test_count_consistency(self):
        report = density_report(10**3, 2)
        assert report.count == len(enumerate_p_full(10**3, 2))

    def test_limit_precondition(self):
        with pytest.raises(DomainError):
            density_report(999, 2)


class TestSearchPoints:
    def test_273_contains_9_8(self):
        points = search_points(OrbifoldP1Triple(2, 7, 3), 100, 100)
        assert RationalPoint(9, 8) in points

    def test_237_contains_9_1(self):
        points = search_points(OrbifoldP1Triple(2, 3, 7), 100, 100)
        assert RationalPoint(9, 1) in points

    def test_tiny_bounds_match_brute_force(self):
        triple = OrbifoldP1Triple(2, 3, 7)
        for max_a, max_b in [(3, 3), (10, 10), (30, 20)]:
            expected = []
            for b in range(1, max_b + 1):
                for a in range(1, max_a + 1):
                    if a == b or math.gcd(a, b) != 1:
                        continue
                    if not (is_p_full(a, 2) and is_p_full(b, 7)):
                        continue
                    if is_p_full(abs(a - b), 3):
                        expected.append((a, b))
            got = [(pt.a, pt.b) for pt in search_points(triple, max_a, max_b)]
            assert got == sorted(expected, key=lambda ab: (ab[1], ab[0]))

    def test_sign_plus(self):
        # a=1, b=8: a+b = 9 = 3^2 is 2-full but not 3-full
        assert RationalPoint(1, 8) in search_points(
            OrbifoldP1Triple(2, 2, 3), 30, 30, sign="plus"
        )
        assert RationalPoint(1, 8) not in search_points(
            OrbifoldP1Triple(2, 3, 3), 30, 30, sign="plus"
        )

    def test_bounds_validated(self):
        with pytest.raises(DomainError):
            search_points(OrbifoldP1Triple(2, 3, 7), 0, 10)

    def test_shard_merge_determinism(self):
        triple = OrbifoldP1Triple(2, 7, 3)
        full = search_points(triple, 200, 200)
        shards = []
        bounds = [(1, 50), (51, 100), (101, 150), (151, 200)]
        for lo, hi in bounds:
            shards.append(search_points(triple, 200, 200, b_range=(lo, hi)))
        assert merge_point_lists(shards) == full

    @given(
        st.integers(2, 7),
        st.integers(2, 7),
        st.integers(2, 7),
        st.integers(1, 3000),
        st.integers(1, 3000),
        st.sampled_from(["minus", "plus"]),
        st.lists(st.integers(1, 3000), max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_trial_division_and_shards_merge(self, p, q, r, max_a, max_b, sign, cuts):
        triple = OrbifoldP1Triple(p, q, r)
        full = search_points(triple, max_a, max_b, sign)
        assert full == search_points_by_trial(triple, max_a, max_b, sign)
        edges = [0] + sorted(set(c for c in cuts if c < max_b)) + [max_b]
        shards = []
        for lo, hi in zip(edges, edges[1:]):
            shard = search_points(triple, max_a, max_b, sign, b_range=(lo + 1, hi))
            assert shard == search_points_by_trial(triple, max_a, max_b, sign, (lo + 1, hi))
            shards.append(shard)
        assert merge_point_lists(shards) == full

    def test_excluded_273_at_10_6(self):
        with time_guard(5):
            points = search_points(OrbifoldP1Triple(2, 7, 3), 10**6, 10**6)
        assert [(pt.a, pt.b) for pt in points] == [
            (9, 8), (2312, 125), (5041, 4913), (12168, 12167), (498436, 107811),
        ]

    def test_pair_budget_is_checked_before_the_search(self):
        # 21044 2-full a- and b-values up to 10^8 make 4.4 * 10^8 pairs
        with time_guard(2), pytest.raises(DomainError, match="21044 a-values and 21044 b-values"):
            search_points(OrbifoldP1Triple(2, 3, 2), 10**8, 10**8)

    def test_excluded_237_at_10_8(self):
        with time_guard(5):
            points = search_points(OrbifoldP1Triple(2, 3, 7), 10**8, 10**8)
        assert [(pt.a, pt.b) for pt in points] == [
            (9, 1), (12168, 1), (5041, 128), (169, 512),
            (2312, 2187), (6661561, 6561), (498436, 390625),
        ]


class TestSearchClassical:
    def test_323_contains_1_2_3(self):
        witnesses = search_classical(OrbifoldP1Triple(3, 2, 3), 10, 10)
        assert ClassicalWitness(1, 2, 3) in witnesses
        for w in witnesses:
            assert w.alpha**3 + w.beta**3 == w.gamma**2
            assert math.gcd(w.alpha, w.beta) == 1

    def test_exhaustive_tiny(self):
        witnesses = search_classical(OrbifoldP1Triple(2, 3, 7), 3, 3)
        expected = []
        for beta in range(1, 4):
            for alpha in range(1, 4):
                if math.gcd(alpha, beta) != 1:
                    continue
                total = alpha**2 + beta**7
                root = round(total ** (1 / 3))
                for g in (root - 1, root, root + 1):
                    if g >= 0 and g**3 == total:
                        expected.append((alpha, beta, g))
        assert [(w.alpha, w.beta, w.gamma) for w in witnesses] == sorted(
            expected, key=lambda t: (t[1], t[0])
        )

    def test_bounds_validated(self):
        with pytest.raises(DomainError):
            search_classical(OrbifoldP1Triple(2, 3, 7), 1, 0)

    def test_pair_budget(self):
        # 1000 * 1000 pairs of 41 steps are admitted (about 1.2 s for
        # (2, 3, 7)); one more alpha, or a bound of 10^15, is refused before
        # any root
        with time_guard(1):
            for max_alpha, max_beta in [(1001, 1000), (1, 10**6 + 1), (10**15, 10**15)]:
                with pytest.raises(DomainError, match="takes more than 41000000 steps"):
                    search_classical(OrbifoldP1Triple(2, 3, 7), max_alpha, max_beta)
        # the largest benchmark search, 10^2.35 ~ 224, tests 50,176 pairs
        assert search_classical(OrbifoldP1Triple(2, 3, 7), 224, 224) == []

    def test_huge_exponent_is_refused_before_any_power(self):
        # four pairs, but 2^99999999 has 10^8 bits: each root extraction
        # would divide numbers of that size
        with time_guard(1), pytest.raises(DomainError, match="takes more than 41000000 steps"):
            search_classical(OrbifoldP1Triple(99999999, 2, 3), 2, 2)

    def test_classical_points_are_nonclassical_under_plus(self):
        # alpha^p and beta^r are p- and r-full; their sum gamma^q is q-full
        for triple in (OrbifoldP1Triple(3, 2, 3), OrbifoldP1Triple(2, 2, 3)):
            witnesses = search_classical(triple, 6, 6)
            assert witnesses
            max_a = max(w.alpha**triple.p for w in witnesses)
            max_b = max(w.beta**triple.r for w in witnesses)
            points = search_points(triple, max_a, max_b, sign="plus")
            for w in witnesses:
                assert RationalPoint(w.alpha**triple.p, w.beta**triple.r) in points


class TestTripleClassification:
    def test_examples(self):
        assert is_general_type_triple(OrbifoldP1Triple(2, 3, 7))
        assert not is_general_type_triple(OrbifoldP1Triple(2, 3, 5))
        assert not is_general_type_triple(OrbifoldP1Triple(2, 3, 6))

    def test_validation(self):
        with pytest.raises(DomainError):
            OrbifoldP1Triple(1, 3, 7)


class TestIntegerRoots:
    def test_exact_roots(self):
        for n in range(1, 500):
            for k in (2, 3, 5):
                root = integer_nth_root(n, k)
                assert root**k <= n < (root + 1) ** k

    def test_large_values(self):
        assert integer_nth_root(10**30, 3) == 10**10
        assert integer_nth_root(10**30 - 1, 3) == 10**10 - 1
        assert is_perfect_power(2**60, 5) == (True, 2**12)
        assert is_perfect_power(2**60 + 1, 5) == (False, 0)

    def test_huge_root_index(self):
        with time_guard(1):
            assert integer_nth_root(10**15, 10**15) == 1
            assert integer_nth_root(2, 10**15) == 1

    def test_root_index_near_the_bit_length(self):
        # around k = n.bit_length() the root drops to 1; brute force is
        # the largest x with x^k <= n
        for n in [2, 3, 7, 8, 9, 255, 256, 257, 10**6, 2**40 - 1, 2**40, 3**30]:
            bits = n.bit_length()
            for k in range(max(1, bits - 4), bits + 3):
                expected = 1
                while (expected + 1) ** k <= n:
                    expected += 1
                assert integer_nth_root(n, k) == expected, (n, k)

    def test_point_validation(self):
        with pytest.raises(DomainError):
            RationalPoint(2, 2)
        with pytest.raises(DomainError):
            RationalPoint(4, 2)
