import random
from fractions import Fraction

import pytest

from orbpairs.fibration import (
    FibrationData,
    MorphismData,
    MorphismPair,
    TwoStageData,
    base_multiplicity,
    check_orbifold_morphism,
    compose_base,
    orbifold_base,
)
from orbpairs.orbcore import INFINITY, DomainError, Multiplicity, OrbifoldDivisor, divisor_leq


class TestBaseMultiplicity:
    def test_double_fibre(self):
        fd = FibrationData({"D": [(2, 1)]})
        assert base_multiplicity(fd, "D", "inf") == Multiplicity(2)

    def test_inf_gcd_discrepancy(self):
        # mixed fibre with components of coefficients 2 and 3
        fd = FibrationData({"D": [(2, 1), (2, 1), (2, 1), (3, 1), (3, 1)]})
        assert base_multiplicity(fd, "D", "inf") == Multiplicity(2)
        assert base_multiplicity(fd, "D", "gcd") == Multiplicity(1)

    def test_component_multiplicity_enters_product(self):
        fd = FibrationData({"D": [(3, 2)]})
        assert base_multiplicity(fd, "D", "inf") == Multiplicity(6)

    def test_infinite_component(self):
        fd = FibrationData({"D": [(2, INFINITY), (3, 1)]})
        assert base_multiplicity(fd, "D", "inf") == Multiplicity(3)
        with pytest.raises(DomainError):
            base_multiplicity(fd, "D", "gcd")

    def test_gcd_rejects_rational(self):
        fd = FibrationData({"D": [(2, Fraction(3, 2))]})
        assert base_multiplicity(fd, "D", "inf") == Multiplicity(3)
        fd2 = FibrationData({"D": [(1, Fraction(3, 2))]})
        with pytest.raises(DomainError):
            base_multiplicity(fd2, "D", "gcd")

    def test_unknown_label(self):
        fd = FibrationData({"D": [(2, 1)]})
        with pytest.raises(DomainError):
            base_multiplicity(fd, "E", "inf")

    def test_gcd_divides_every_component(self):
        rng = random.Random(3)
        for _ in range(500):
            comps = [(rng.randint(1, 20), rng.randint(1, 12)) for _ in range(rng.randint(1, 6))]
            fd = FibrationData({"D": comps})
            g = base_multiplicity(fd, "D", "gcd").as_integer()
            scaled = [t * m for t, m in comps]
            assert all(v % g == 0 for v in scaled)
            # hence the gcd divides the inf multiplicity
            assert base_multiplicity(fd, "D", "inf").as_integer() % g == 0


class TestOrbifoldBase:
    def test_six_double_fibres(self):
        fd = FibrationData({f"p{i}": [(2, 1)] for i in range(1, 7)})
        base = orbifold_base(fd, "inf")
        assert base == OrbifoldDivisor({f"p{i}": 2 for i in range(1, 7)})

    def test_gcd_coprime_fibre_is_trivial(self):
        fd = FibrationData({"D": [(2, 1), (3, 1)]})
        assert orbifold_base(fd, "gcd").is_zero

    def test_non_multiple_fibre_dropped(self):
        fd = FibrationData({"D": [(1, 1)]})
        assert orbifold_base(fd, "inf").is_zero

    def test_trivial_when_all_unit(self):
        fd = FibrationData({"D": [(1, 1), (1, 1)], "E": [(1, 1)]})
        assert orbifold_base(fd, "inf").is_zero

    def test_monotone_in_component_multiplicities(self):
        rng = random.Random(5)
        for _ in range(300):
            labels = [f"D{i}" for i in range(rng.randint(1, 3))]
            fibers = {
                lbl: [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(rng.randint(1, 4))]
                for lbl in labels
            }
            raised = {
                lbl: [(t, m + rng.randint(0, 3)) for t, m in comps]
                for lbl, comps in fibers.items()
            }
            lo = orbifold_base(FibrationData(fibers), "inf")
            hi = orbifold_base(FibrationData(raised), "inf")
            assert divisor_leq(lo, hi)


def random_two_stage(rng: random.Random) -> TwoStageData:
    y_labels = [f"D{i}" for i in range(1, rng.randint(2, 5))]
    upper = {}
    for lbl in y_labels:
        comps = []
        for _ in range(rng.randint(1, 4)):
            m = INFINITY if rng.random() < 0.1 else rng.randint(1, 12)
            comps.append((rng.randint(1, 20), m))
        upper[lbl] = comps
    lower = {}
    for i in range(1, rng.randint(2, 4)):
        lower[f"F{i}"] = [
            (rng.randint(1, 20), rng.choice(y_labels)) for _ in range(rng.randint(1, 4))
        ]
    return TwoStageData(FibrationData(upper), lower)


class TestComposition:
    def test_single_chain(self):
        ts = TwoStageData(FibrationData({"D": [(2, 1)]}), {"F": [(1, "D")]})
        direct, staged = compose_base(ts)
        assert direct == staged == OrbifoldDivisor({"F": 2})

    def test_two_branch_example(self):
        ts = TwoStageData(
            FibrationData({"D1": [(1, 3)], "D2": [(5, 1)]}),
            {"F": [(2, "D1"), (1, "D2")]},
        )
        direct, staged = compose_base(ts)
        assert direct == staged == OrbifoldDivisor({"F": 5})

    def test_randomized_equality(self):
        # the composition rule, checked on ten thousand random instances
        rng = random.Random(20240817)
        for _ in range(10_000):
            direct, staged = compose_base(random_two_stage(rng))
            assert direct == staged

    def test_unknown_reference_rejected(self):
        with pytest.raises(DomainError):
            TwoStageData(FibrationData({"D": [(2, 1)]}), {"F": [(1, "E")]})


class TestMorphismCheck:
    def make(self, m_x, m_y, t):
        return MorphismData(
            (MorphismPair("E", "D", t),),
            OrbifoldDivisor({"D": m_x}),
            OrbifoldDivisor({"E": m_y}),
        )

    def test_base_change_pair(self):
        md = self.make(1, 2, 2)
        assert check_orbifold_morphism(md, "inf").ok
        assert check_orbifold_morphism(md, "classical").ok

    def test_inf_without_divisibility(self):
        md = self.make(1, 2, 3)
        assert check_orbifold_morphism(md, "inf").ok
        assert not check_orbifold_morphism(md, "classical").ok

    def test_inf_failure(self):
        md = self.make(1, 4, 3)
        report = check_orbifold_morphism(md, "inf")
        assert not report.ok
        assert report.checks[0].scaled == Multiplicity(3)

    def test_infinite_rules(self):
        assert check_orbifold_morphism(self.make(INFINITY, 5, 2), "inf").ok
        assert check_orbifold_morphism(self.make(INFINITY, 5, 2), "classical").ok
        assert not check_orbifold_morphism(self.make(3, INFINITY, 2), "inf").ok
        assert not check_orbifold_morphism(self.make(3, INFINITY, 2), "classical").ok
        assert check_orbifold_morphism(self.make(INFINITY, INFINITY, 1), "classical").ok

    def test_classical_requires_integrality(self):
        md = self.make(Fraction(3, 2), 2, 2)
        with pytest.raises(DomainError):
            check_orbifold_morphism(md, "classical")

    def test_classical_implies_inf(self):
        rng = random.Random(9)
        for _ in range(500):
            md = self.make(rng.randint(1, 12), rng.randint(1, 12), rng.randint(1, 12))
            if check_orbifold_morphism(md, "classical").ok:
                assert check_orbifold_morphism(md, "inf").ok
