import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations_with_replacement, product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from orbpairs import symdiff
from orbpairs.orbcore import INFINITY, MAX_STEPS, DomainError, Multiplicity, SelfCheckError, as_multiplicity
from orbpairs.symdiff import (
    MultiIndexJ,
    ceil_quotient,
    check_positive_floor,
    check_relative_exponent_bounds,
    floor_coefficient_multiple,
    generator_exponents,
    occupancy,
    positive_floor_threshold,
    relative_exponent,
)
from cross_checks import check_floor_ceiling_identity, multi_indices
from timeguard import time_guard


class TestOccupancy:
    def test_examples(self):
        assert occupancy(MultiIndexJ(2, 1, ((1,), (1,), (2,)))) == (2, 1)
        assert occupancy(MultiIndexJ(3, 2, ((1, 2), (2, 3)))) == (1, 2, 1)
        assert occupancy(MultiIndexJ(2, 2, ((1, 2),) * 5)) == (5, 5)

    def test_sum_rule(self):
        for p, q, n in [(3, 2, 4), (4, 1, 6), (4, 3, 3)]:
            for j in multi_indices(p, q, n):
                assert sum(occupancy(j)) == n * q

    def test_validation(self):
        with pytest.raises(DomainError):
            MultiIndexJ(2, 3, ((1, 2, 3),))
        with pytest.raises(DomainError):
            MultiIndexJ(3, 2, ((1, 4),))
        with pytest.raises(DomainError):
            MultiIndexJ(3, 2, ((1, 1),))


class TestGeneratorExponents:
    def test_examples(self):
        prof = generator_exponents([3], [2])
        assert prof.ceil_exponents == (2,) and prof.floor_exponents == (1,)
        prof = generator_exponents([0], [5])
        assert prof.ceil_exponents == (0,) and prof.floor_exponents == (0,)
        prof = generator_exponents([7], [3])
        assert prof.ceil_exponents == (3,) and prof.floor_exponents == (4,)

    def test_rational_multiplicity_floor(self):
        assert floor_coefficient_multiple(5, Multiplicity(Fraction(5, 2))) == 3
        assert floor_coefficient_multiple(4, INFINITY) == 4
        assert ceil_quotient(4, INFINITY) == 0

    def test_infinite_rejected(self):
        with pytest.raises(DomainError):
            generator_exponents([3], [INFINITY])

    def test_identity_exhaustive(self):
        assert check_floor_ceiling_identity(200, 50) == 201 * 50


class TestPositiveFloor:
    def test_thresholds(self):
        assert positive_floor_threshold(2, 1, (Multiplicity(2), Multiplicity(2))) == 4
        assert positive_floor_threshold(3, 2, (Multiplicity(2),) * 3) == 3
        assert positive_floor_threshold(1, 1, (Multiplicity(2),)) == 2

    def test_examples_pass(self):
        assert check_positive_floor(2, 1, [2, 2]).ok
        assert check_positive_floor(3, 2, [2, 2, 2]).ok
        assert check_positive_floor(1, 1, [2]).ok

    def test_mixed_multiplicities(self):
        assert check_positive_floor(3, 1, [2, 3, 4]).ok
        assert check_positive_floor(2, 2, [4, 2]).ok

    def test_multiplicity_one_rejected(self):
        with pytest.raises(DomainError):
            check_positive_floor(2, 1, [1, 2])

    def test_q_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            check_positive_floor(2, 3, [2, 2])

    def test_limit_enforced(self):
        # N = 8..10: 671 multi-indices, 8,844 steps
        assert check_positive_floor(4, 1, [2, 2, 2, 2], extra=2).checked == 671
        # N = 18: C(26, 18) = 1,562,275 multi-indices of 27 steps each
        with pytest.raises(DomainError, match=r"N = 18\.\.18 over 1-subsets of 1\.\.9 takes more than 41000000 steps"):
            check_positive_floor(9, 1, [2] * 9, extra=0)

    def test_multi_index_count_capped(self):
        # p*N*q = 189, but 8,052,482,548 multi-indices
        with pytest.raises(DomainError, match=r"N = 6\.\.7 over 3-subsets of 1\.\.9 takes more than 41000000 steps"):
            check_positive_floor(9, 3, [2] * 9)
        # q = 7: 36 subsets, N = 3 alone gives C(38, 3) = 8436
        assert check_positive_floor(9, 7, [2] * 9, extra=0).checked == 8436

    def test_large_enumerations_refused_at_once(self):
        with time_guard(1):
            for args, kwargs in [
                ((2, 1, [2, 2]), {"extra": 10**15}),
                ((40, 20, [2] * 40), {}),
            ]:
                with pytest.raises(DomainError, match="takes more than 41000000 steps"):
                    check_positive_floor(*args, **kwargs)

    def test_long_multi_index_refused(self):
        # m = 1 + 1/(2*10^6) puts N = 2*10^6 + 1 at p = q = 1: one multi-index
        # of 2,000,002 steps, within the step bound, but of N*q = 2,000,001 entries
        with time_guard(1):
            with pytest.raises(
                DomainError,
                match=r"N = 2000001 1-subsets holds N\*q = 2000001 entries, more than the limit 2000000",
            ):
                check_positive_floor(1, 1, [Fraction(2 * 10**6 + 1, 2 * 10**6)], extra=0)

    def test_threshold_far_from_zero_is_found_quickly(self):
        # m = 1 + 1/10^6: no floor exponent is positive below k = 10^6 + 1
        with time_guard(2):
            rep = check_positive_floor(1, 1, [Fraction(10**6 + 1, 10**6)], extra=0)
        assert rep.ok and rep.n_values == (10**6 + 1,) and rep.checked == 1

    def test_multi_indices_of_n_zero_and_below(self):
        assert [j.subsets for j in multi_indices(3, 2, 0)] == [()]
        with pytest.raises(DomainError, match="need n >= 0"):
            list(multi_indices(3, 2, -1))


class TestStepCount:
    def test_admits_every_run_the_former_bounds_admitted(self):
        # the former bounds admitted N_lo..N_hi when N_lo >= ceil(p / q)
        # (the threshold at m = oo), p * N_hi * q <= 200 and there were at
        # most 10^6 multi-indices
        admitted, most = 0, 0
        for p in range(1, 201):
            for q in range(1, p + 1):
                n_top, pool = 200 // (p * q), math.comb(p, q)
                for lo in range(-(-p // q), n_top + 1):
                    count = 0
                    for hi in range(lo, n_top + 1):
                        count += math.comb(pool + hi - 1, hi)
                        if count > 10**6:
                            break
                        admitted += 1
                        most = max(most, symdiff._steps(p, q, range(lo, hi + 1)))
        assert admitted == 32328
        assert most == 40_320_090 <= MAX_STEPS

    def test_large_pool_refused_before_math_comb(self):
        # computing C(9 * 10^5 - 1, 6 * 10^5) alone takes seconds
        p = 3 * 10**5
        with time_guard(1):
            assert symdiff._steps(p, 1, range(2 * p, 2 * p + 2)) > MAX_STEPS

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_count_matches_enumeration(self, p):
        for q in range(1, p + 1):
            for lo in range(1, 5):
                for hi in range(lo, 5):
                    n_values = range(lo, hi + 1)
                    enumerated = sum(n * q + p for n in n_values for _ in multi_indices(p, q, n))
                    assert symdiff._steps(p, q, n_values) == enumerated


def reference_positive_floor(p, q, mults, extra):
    """The check as it was written before it compared occupancies with
    per-index thresholds: every multi-index built, its occupancy taken, and
    the floor exponent of each index computed."""
    ms = tuple(as_multiplicity(m) for m in mults)
    threshold = positive_floor_threshold(p, q, ms)
    n_values = tuple(range(threshold, threshold + extra + 1))
    checked, bad = 0, []
    for n in n_values:
        for j in multi_indices(p, q, n):
            checked += 1
            k = occupancy(j)
            if not any(symdiff.floor_coefficient_multiple(kj, m) > 0 for kj, m in zip(k, ms)):
                bad.append((n, j))
    return threshold, n_values, checked, tuple(bad)


def assert_matches_reference(p, q, mults, extra):
    report = check_positive_floor(p, q, mults, extra=extra)
    got = (report.threshold, report.n_values, report.checked, report.counterexamples)
    assert got == reference_positive_floor(p, q, mults, extra), (p, q, mults)


POSITIVE_FLOOR_MULTS = (Fraction(3, 2), 2, Fraction(5, 2), 3, INFINITY)


class TestPositiveFloorAgainstReference:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_reports_match(self, p):
        vectors = list(combinations_with_replacement(POSITIVE_FLOOR_MULTS, p))
        if p == 4:
            vectors = vectors[::7]
        for q in range(1, p + 1):
            for mults in vectors:
                assert_matches_reference(p, q, list(mults), extra=1)

    def test_counterexamples_match_with_an_index_never_positive(self, monkeypatch):
        # the check must take each index's threshold from the floor function
        # itself: with m = 5/2 never positive, the multi-indices that put
        # too little weight elsewhere become counterexamples
        floor = symdiff.floor_coefficient_multiple
        never = Multiplicity(Fraction(5, 2))
        monkeypatch.setattr(
            symdiff, "floor_coefficient_multiple", lambda k, m: 0 if m == never else floor(k, m)
        )
        cases = [
            (3, 1, [2, Fraction(5, 2), 3]),
            (3, 2, [Fraction(5, 2), Fraction(5, 2), 4]),
            (3, 1, [Fraction(5, 2), INFINITY, 2]),
            (4, 2, [Fraction(5, 2), 3, Fraction(5, 2), Fraction(3, 2)]),
            (2, 1, [Fraction(5, 2), Fraction(5, 2)]),
        ]
        for p, q, mults in cases:
            assert not check_positive_floor(p, q, mults, extra=2).ok
            assert_matches_reference(p, q, mults, extra=2)


class TestRelativeExponent:
    def test_examples(self):
        assert relative_exponent(5, (1, 2, 2), 2, 2) == 0
        assert relative_exponent(0, (0, 0, 0), 5, 2) == 0
        assert relative_exponent(6, (0, 3, 3), 3, 2) == 0

    def test_infinite_multiplicity(self):
        # coefficient 1: the value collapses to k(0)
        assert relative_exponent(7, (3, 2, 2), INFINITY, 2) == 3

    def test_validation(self):
        with pytest.raises(DomainError):
            relative_exponent(5, (1, 2), 2, 2)
        with pytest.raises(DomainError):
            relative_exponent(5, (1, 2, 3), 2, 2)
        with pytest.raises(DomainError):
            relative_exponent(5, (1, -1, 5), 2, 2)
        with pytest.raises(DomainError):
            relative_exponent(5, (1, 2, 2), Fraction(5, 2), 2)

    def test_exhaustive_bounds_small(self):
        report = check_relative_exponent_bounds(12, 3, 5)
        assert report.ok and report.checked > 0

    @pytest.mark.parametrize("floor", ["true", "ceiling", "square"])
    def test_floor_tables_match_relative_exponent(self, monkeypatch, floor):
        # the grid reads floors from tables; relative_exponent is the
        # oracle, with the true floor and with broken ones in its place that
        # push values below (ceiling) and above (square) the two-sided bound
        def ceiling(k, m):
            n = m.finite_value().numerator
            return -(-k * (n - 1) // n)

        broken = {"ceiling": ceiling, "square": lambda k, m: k * k}.get(floor)
        if broken:
            monkeypatch.setattr(symdiff, "floor_coefficient_multiple", broken)
        kj_max, q_max, m_max = 9, 3, 6
        expected = []
        for q in range(1, q_max + 1):
            for kj in range(kj_max + 1):
                for parts in product(range(kj + 1), repeat=q + 1):
                    if sum(parts) != kj:
                        continue
                    for m in range(2, m_max + 1):
                        try:
                            relative_exponent(kj, parts, m, q)
                        except SelfCheckError:
                            expected.append((kj, parts, m))
        report = check_relative_exponent_bounds(kj_max, q_max, m_max)
        assert bool(expected) == bool(broken)
        assert report.violations == tuple(expected)

    @pytest.mark.parametrize("grid", [(0, 1, 2), (5, 1, 1), (12, 3, 5), (7, 5, 9)])
    def test_checked_matches_closed_form(self, grid):
        # (q+1)-part compositions of kj number C(kj + q, q), once per m
        kj_max, q_max, m_max = grid
        compositions = sum(
            math.comb(kj + q, q) for q in range(1, q_max + 1) for kj in range(kj_max + 1)
        )
        assert check_relative_exponent_bounds(*grid).checked == compositions * max(m_max - 1, 0)


def reference_relative_bounds(kj_max, q_max, m_max):
    """The grid as it was written before it compared extremes of floor sums:
    every decomposition enumerated, in order, and checked against one table
    of the floor function per m."""
    floors = {
        m: [symdiff.floor_coefficient_multiple(k, Multiplicity(m)) for k in range(kj_max + 1)]
        for m in range(2, m_max + 1)
    }
    checked, violations = 0, []
    for q in range(1, q_max + 1):
        for kj in range(kj_max + 1):
            for parts in product(range(kj + 1), repeat=q + 1):
                if sum(parts) != kj:
                    continue
                checked += len(floors)
                for m, floor in floors.items():
                    low = floor[parts[0]]
                    value = floor[kj] - sum(floor[x] for x in parts[1:])
                    if not low <= value <= q + low:
                        violations.append((kj, parts, m))
    return checked, tuple(violations)


# per m, the floor table's kind and entries: the true floor, the true floor
# shifted by entry // 4 (mostly 0, sometimes -1, 1 or 2), or the entries as
# they are, which are neither monotone nor nonnegative
FLOOR_TABLES = st.lists(
    st.tuples(
        st.sampled_from(["true", "shifted", "arbitrary"]),
        st.lists(st.integers(-4, 8), min_size=9, max_size=9),
    ),
    min_size=4,
    max_size=4,
)


class TestRelativeBoundsAgainstReference:
    @given(st.integers(0, 8), st.integers(0, 4), st.integers(0, 5), FLOOR_TABLES)
    def test_matches_reference_for_any_integer_floor_table(self, kj_max, q_max, m_max, tables):
        true_floor = symdiff.floor_coefficient_multiple

        def floor(k, m):
            kind, entries = tables[int(m.finite_value()) - 2]
            if kind == "arbitrary":
                return entries[k]
            return true_floor(k, m) + (entries[k] // 4 if kind == "shifted" else 0)

        with mock.patch.object(symdiff, "floor_coefficient_multiple", floor):
            expected = reference_relative_bounds(kj_max, q_max, m_max)
            report = check_relative_exponent_bounds(kj_max, q_max, m_max)
        assert (report.checked, report.violations) == expected

    def test_large_grid_runs(self):
        # 8,724,994,578 decompositions, decided from 9 tables of 61 floors
        with time_guard(2):
            report = check_relative_exponent_bounds(60, 6, 10)
        assert report.ok and report.checked == 8_724_994_578

    def test_grids_in_use_are_admitted(self):
        # the work grows with each argument, and (24, 2, 9) bounds every
        # grid of the symdiff_exhaustive benchmark workload
        for grid in [(0, 1, 2), (5, 1, 1), (6, 2, 4), (7, 5, 9), (9, 3, 6), (12, 3, 5), (20, 4, 6), (24, 2, 9)]:
            assert check_relative_exponent_bounds(*grid).ok

    def test_large_grids_refused_at_once(self):
        # (6369, 1, 2) takes 40,991,014 steps (about 2 s), (6370, 1, 2)
        # 41,003,820; an empty table still costs its levels, and a level its m
        with time_guard(1):
            for grid in [
                (6370, 1, 2), (10**6, 1, 2), (0, 1, 10**15), (1, 10**9, 2),
                (-1, 10**15, 2), (-1, 1, 10**15), (10**15,) * 3,
            ]:
                with pytest.raises(DomainError, match="takes more than 41000000 steps"):
                    check_relative_exponent_bounds(*grid)
        with pytest.raises(DomainError, match=r"grid kj <= 6370, q <= 1, m <= 2 takes more"):
            check_relative_exponent_bounds(6370, 1, 2)


class TestSuperadditivityIdentity:
    @given(
        st.lists(
            st.fractions(min_value=0, max_value=30, max_denominator=12),
            min_size=1,
            max_size=6,
        )
    )
    def test_floor_of_sum_bound(self, xs):
        # floor(sum) - sum(floor) lies in [0, number of terms]
        import math

        gap = math.floor(sum(xs)) - sum(math.floor(x) for x in xs)
        assert 0 <= gap <= len(xs)

    @given(st.integers(0, 40), st.integers(2, 10), st.integers(1, 4))
    def test_relative_exponent_bound_random(self, kj, m, q):
        import random

        rng = random.Random(kj * 1000 + m * 10 + q)
        parts = [0] * (q + 1)
        for _ in range(kj):
            parts[rng.randrange(q + 1)] += 1
        value = relative_exponent(kj, tuple(parts), m, q)
        low = floor_coefficient_multiple(parts[0], Multiplicity(m))
        assert low <= value <= q + low


def floor_reference(k, m):
    """floor(k(1 - 1/m)) over the rationals."""
    return k if m.is_infinite else math.floor(k * (1 - Fraction(1) / m.finite_value()))


def ceil_reference(k, m):
    """ceil(k / m) over the rationals."""
    return 0 if m.is_infinite else math.ceil(Fraction(k) / m.finite_value())


class TestIntegerExponentFormulas:
    def test_match_rational_formulas(self):
        # every m = a/b with 1 <= a/b <= 10 and b <= 7, and m = oo
        mults = {Multiplicity(Fraction(a, b)) for b in range(1, 8) for a in range(b, 10 * b + 1)}
        for m in [*mults, INFINITY]:
            for k in range(201):
                assert floor_coefficient_multiple(k, m) == floor_reference(k, m), (k, m)
                assert ceil_quotient(k, m) == ceil_reference(k, m), (k, m)


class TestSelfChecksSurviveOptimize:
    def test_broken_floor_caught_under_python_O(self):
        # python -O strips assert statements; the self-checks must still fire
        script = textwrap.dedent(
            """
            import sys
            from orbpairs import planepairs, symdiff
            from orbpairs.orbcore import DomainError, SelfCheckError

            def ceil_instead_of_floor(k, m):
                n = m.finite_value().numerator
                return k - k // n

            symdiff.floor_coefficient_multiple = ceil_instead_of_floor
            planepairs.anticanonical_degree = lambda pair: 0
            report = symdiff.check_relative_exponent_bounds(6, 2, 4)
            print(f"optimize={sys.flags.optimize} ok={report.ok} checked={report.checked}")
            for name, check in [
                ("generator", lambda: symdiff.generator_exponents([3], [2])),
                ("familydim", lambda: planepairs.family_dim_report(
                    planepairs.PlaneArrangementPair([("L1", 1, 3), ("L2", 1, 3)]), 3)),
            ]:
                try:
                    check()
                    print(f"{name}=passed")
                except SelfCheckError:
                    print(f"{name}=SelfCheckError")
            try:
                symdiff.check_positive_floor(9, 1, [2] * 9, extra=0)
                print("budget=passed")
            except DomainError:
                print("budget=DomainError")
            """
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [
            "optimize=1", "ok=False", "checked=336", "generator=SelfCheckError", "familydim=SelfCheckError",
            "budget=DomainError",
        ]
