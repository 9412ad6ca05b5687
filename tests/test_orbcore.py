import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orbpairs.orbcore import (
    INFINITY,
    MAX_COEFF_DIGITS,
    DomainError,
    Multiplicity,
    OrbifoldDivisor,
    coefficient,
    divisor_leq,
    mult_gcd,
    mult_lcm,
    mult_min,
    multiplicity_from_coefficient,
    too_long_to_print,
)


class TestMultiplicity:
    def test_coefficient_examples(self):
        assert coefficient(2) == Fraction(1, 2)
        assert coefficient(INFINITY) == 1
        assert coefficient(Fraction(3, 2)) == Fraction(1, 3)

    def test_from_coefficient_examples(self):
        assert multiplicity_from_coefficient(Fraction(1, 2)) == Multiplicity(2)
        assert multiplicity_from_coefficient(1) == INFINITY
        assert multiplicity_from_coefficient(0) == Multiplicity(1)

    def test_from_coefficient_range(self):
        with pytest.raises(DomainError):
            multiplicity_from_coefficient(Fraction(3, 2))
        with pytest.raises(DomainError):
            multiplicity_from_coefficient(Fraction(-1, 2))

    def test_below_one_rejected(self):
        with pytest.raises(DomainError):
            Multiplicity(Fraction(1, 2))
        with pytest.raises(DomainError):
            Multiplicity(0)

    def test_floats_rejected(self):
        with pytest.raises(DomainError):
            Multiplicity(1.5)

    def test_integrality(self):
        assert Multiplicity(3).is_integral
        assert INFINITY.is_integral
        assert not Multiplicity(Fraction(3, 2)).is_integral

    def test_scale_rules(self):
        assert Multiplicity(2).scale(3) == Multiplicity(6)
        assert INFINITY.scale(7) == INFINITY
        with pytest.raises(DomainError):
            Multiplicity(2).scale(0)

    def test_min_rules(self):
        assert mult_min([INFINITY, Multiplicity(3)]) == Multiplicity(3)
        assert mult_min([INFINITY, INFINITY]) == INFINITY

    def test_lcm_rules(self):
        assert mult_lcm([Multiplicity(4), Multiplicity(6)]) == Multiplicity(12)
        assert mult_lcm([INFINITY, Multiplicity(5)]) == INFINITY

    def test_gcd_rules(self):
        assert mult_gcd([Multiplicity(4), Multiplicity(6)]) == Multiplicity(2)
        with pytest.raises(DomainError):
            mult_gcd([INFINITY, Multiplicity(4)])

    def test_ordering(self):
        assert Multiplicity(2) < Multiplicity(3) < INFINITY
        assert not INFINITY < INFINITY

    @given(st.integers(1, 60), st.integers(1, 60))
    def test_coefficient_round_trip(self, num, den):
        value = 1 + Fraction(num, den)
        m = Multiplicity(value)
        assert multiplicity_from_coefficient(m.coefficient()) == m

    def test_coefficient_round_trip_grid(self):
        # exhaustive over a grid of small coefficients in [0, 1]
        for den in range(1, 25):
            for num in range(den + 1):
                c = Fraction(num, den)
                assert multiplicity_from_coefficient(c).coefficient() == c


class TestOrbifoldDivisor:
    def test_normalization(self):
        d = OrbifoldDivisor({"D": 1, "E": 2})
        assert d.support == ("E",)
        assert d.multiplicity("D") == Multiplicity(1)

    def test_normalization_idempotent(self):
        assert OrbifoldDivisor({"D": 1}) == OrbifoldDivisor({})

    def test_flags(self):
        assert OrbifoldDivisor({"D": 2, "E": INFINITY}).is_integral
        assert not OrbifoldDivisor({"D": Fraction(3, 2)}).is_integral
        assert OrbifoldDivisor({"D": 2}).is_finite
        assert not OrbifoldDivisor({"D": INFINITY}).is_finite

    def test_leq_examples(self):
        assert divisor_leq(OrbifoldDivisor({"D": 2}), OrbifoldDivisor({"D": 3}))
        assert not divisor_leq(OrbifoldDivisor({"D": 2}), OrbifoldDivisor({"E": 2}))
        assert divisor_leq(OrbifoldDivisor({}), OrbifoldDivisor({"D": INFINITY}))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DomainError):
            OrbifoldDivisor([("D", 2), ("D", 3)])


_mult = st.one_of(
    st.just(INFINITY),
    st.integers(1, 8).map(Multiplicity),
    st.fractions(min_value=1, max_value=8, max_denominator=6).map(Multiplicity),
)
_divisor = st.dictionaries(st.sampled_from("ABCDE"), _mult, max_size=4).map(OrbifoldDivisor)


class TestPartialOrder:
    @given(_divisor)
    def test_reflexive(self, d):
        assert divisor_leq(d, d)

    @given(_divisor, _divisor)
    def test_antisymmetric(self, a, b):
        if divisor_leq(a, b) and divisor_leq(b, a):
            assert a == b

    @given(_divisor, _divisor, _divisor)
    def test_transitive(self, a, b, c):
        if divisor_leq(a, b) and divisor_leq(b, c):
            assert divisor_leq(a, c)


def test_too_long_to_print_matches_the_conversion_limit():
    assert MAX_COEFF_DIGITS == sys.int_info.default_max_str_digits
    widest = 10**MAX_COEFF_DIGITS - 1  # MAX_COEFF_DIGITS nines
    for q in (Fraction(widest), Fraction(-widest), Fraction(1, widest)):
        assert not too_long_to_print(q)
    for q in (Fraction(widest + 1), Fraction(-widest - 1), Fraction(1, widest + 1)):
        assert too_long_to_print(q)
