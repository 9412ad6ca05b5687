import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbpairs.orbcore import DomainError
from orbpairs.polynomials import (
    HomogeneousPoly2,
    HomogeneousPoly3,
    factor_rational,
    poly2_gcd,
    qdeg,
    qmul,
    qpoly,
    qscale,
    render_poly2,
    render_poly3,
    squarefree_decomposition,
)


SWINNERTON_DYER_16 = (
    46225, 0, -5596840, 0, 13950764, 0, -7453176, 0, 1513334, 0, -141912, 0, 6476, 0, -136, 0, 1,
)


def expand(factors):
    out = qpoly([1])
    for coeffs, e in factors:
        for _ in range(e):
            out = qmul(out, qpoly(coeffs))
    return out


class TestFactorRational:
    def test_known_factorizations(self):
        cases = [
            # (x-1)^2 (x+2) (x^2+1)
            (expand([((-1, 1), 2), ((2, 1), 1), ((1, 0, 1), 1)]),
             [((-1, 1), 2), ((1, 0, 1), 1), ((2, 1), 1)]),
            # x^4 - 4 = (x^2-2)(x^2+2)
            (qpoly([-4, 0, 0, 0, 1]), [((-2, 0, 1), 1), ((2, 0, 1), 1)]),
            # 6x^2 + 5x + 1 = (2x+1)(3x+1)
            (qpoly([1, 5, 6]), [((1, 2), 1), ((1, 3), 1)]),
            # x^4 + 1 irreducible over Q
            (qpoly([1, 0, 0, 0, 1]), [((1, 0, 0, 0, 1), 1)]),
            # x^6 - 1 = (x-1)(x+1)(x^2+x+1)(x^2-x+1)
            (qpoly([-1, 0, 0, 0, 0, 0, 1]),
             [((-1, 1), 1), ((1, 1), 1), ((1, -1, 1), 1), ((1, 1, 1), 1)]),
            # x^3 (double content)
            (qpoly([0, 0, 0, 2]), [((0, 1), 3)]),
            # x^24 - 1: the cyclotomic polynomials of the 8 divisors of 24
            (qpoly([-1] + [0] * 23 + [1]),
             [((-1, 1), 1), ((1, 1), 1), ((1, 1, 1), 1), ((1, 0, 1), 1), ((1, -1, 1), 1),
              ((1, 0, 0, 0, 1), 1), ((1, 0, -1, 0, 1), 1), ((1, 0, 0, 0, -1, 0, 0, 0, 1), 1)]),
            # Swinnerton-Dyer polynomial for sqrt 2, 3, 5, 7: irreducible, but
            # it splits into factors of degree <= 2 modulo every prime
            (qpoly(SWINNERTON_DYER_16), [(SWINNERTON_DYER_16, 1)]),
            # -3/4 x^3 (x+1)^2: content and a negative leading coefficient
            (qscale(expand([((0, 1), 3), ((1, 1), 2)]), Fraction(-3, 4)),
             [((0, 1), 3), ((1, 1), 2)]),
        ]
        for poly, expected in cases:
            _, factors = factor_rational(poly)
            assert sorted(factors) == sorted(expected), poly

    def test_content_tracking(self):
        content, factors = factor_rational(qscale(qpoly([1, 2, 1]), Fraction(3, 4)))
        assert content == Fraction(3, 4)
        assert factors == [((1, 1), 2)]

    def test_cyclotomic_like(self):
        # x^4 + x^3 + x^2 + x + 1 is irreducible
        _, factors = factor_rational(qpoly([1, 1, 1, 1, 1]))
        assert len(factors) == 1 and factors[0][1] == 1

    def test_swinnerton_dyer_style(self):
        # (x^2-2)(x^2-3)(x^2-6): pairwise products are squares patterns that
        # stress the recombination stage
        poly = expand([((-2, 0, 1), 1), ((-3, 0, 1), 1), ((-6, 0, 1), 1)])
        _, factors = factor_rational(poly)
        assert sorted(factors) == [((-6, 0, 1), 1), ((-3, 0, 1), 1), ((-2, 0, 1), 1)]

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            factor_rational(qpoly([]))

    def test_random_reconstruction(self):
        rng = random.Random(42)
        for _ in range(150):
            degree = rng.randint(1, 9)
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree)]
            coeffs.append(Fraction(rng.randint(1, 9)))
            poly = qpoly(coeffs)
            if qdeg(poly) < 1:
                continue
            content, factors = factor_rational(poly)
            assert qscale(expand(factors), content) == poly

    def test_products_of_known_irreducibles(self):
        irreducibles = [(-1, 1), (1, 1), (2, 1), (1, 0, 1), (-2, 0, 1), (1, 1, 1), (3, -1, 2)]
        rng = random.Random(17)
        for _ in range(100):
            chosen = {}
            for _ in range(rng.randint(1, 4)):
                f = rng.choice(irreducibles)
                chosen[f] = chosen.get(f, 0) + rng.randint(1, 2)
            poly = expand(sorted(chosen.items()))
            _, factors = factor_rational(poly)
            assert sorted(factors) == sorted(chosen.items())


class TestSquarefree:
    def test_derivative_gcd_structure(self):
        cases = [
            # (x-1)^3 (x+1): parts of multiplicity 1 and 3
            (expand([((-1, 1), 3), ((1, 1), 1)]), [((1, 1), 1), ((-1, 1), 3)]),
            # -3/4 x^3 (x+1)^2: content and a negative leading coefficient
            (qscale(expand([((0, 1), 3), ((1, 1), 2)]), Fraction(-3, 4)),
             [((1, 1), 2), ((0, 1), 3)]),
        ]
        for poly, expected in cases:
            parts = squarefree_decomposition(poly)
            assert sorted(parts, key=lambda pe: pe[1]) == expected, poly

    def test_squarefree_input(self):
        assert squarefree_decomposition(qpoly([-1, 0, 1])) == [((-1, 0, 1), 1)]

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=5), st.integers(1, 3))
    @settings(max_examples=60)
    def test_multiplicity_detected(self, tail, e):
        base = qpoly(tail + [1])
        if qdeg(base) < 1:
            return
        poly = expand([(base, e)])
        parts = squarefree_decomposition(poly)
        total = expand(parts)
        ratio = poly[-1] / total[-1]
        assert qscale(total, ratio) == poly
        assert max(mult for _, mult in parts) >= e


class TestHomogeneousForms:
    def test_factor_splits_s_and_u(self):
        # s^2 * u * (s - u)
        form = (
            HomogeneousPoly2.variable("s")
            .power(2)
            .mul(HomogeneousPoly2.variable("u"))
            .mul(HomogeneousPoly2(1, (Fraction(-1), Fraction(1))))
        )
        _, factors = form.factor()
        as_strings = sorted((str(f), e) for f, e in factors)
        assert as_strings == [("s", 2), ("s-u", 1), ("u", 1)]

    def test_degree_conservation(self):
        rng = random.Random(23)
        for _ in range(100):
            d = rng.randint(1, 7)
            coeffs = [Fraction(rng.randint(-6, 6)) for _ in range(d + 1)]
            form = HomogeneousPoly2(d, tuple(coeffs))
            if form.is_zero:
                continue
            _, factors = form.factor()
            assert sum(f.degree * e for f, e in factors) == d

    def test_canonical_normalization(self):
        form = HomogeneousPoly2(1, (Fraction(-2, 3), Fraction(-4, 3)))
        canon = form.canonical()
        assert canon.coeffs == (Fraction(1), Fraction(2))

    def test_gcd(self):
        s = HomogeneousPoly2.variable("s")
        u = HomogeneousPoly2.variable("u")
        f = s.power(2).mul(u)
        g = s.mul(u).mul(u)
        assert str(poly2_gcd(f, g)) == "s*u"

    @given(*[
        st.tuples(
            st.integers(0, 2),
            st.integers(0, 2),
            st.lists(st.fractions(-6, 6, max_denominator=4), min_size=1, max_size=4),
        )
        for _ in range(3)
    ])
    @settings(max_examples=60, deadline=None)
    def test_gcd_matches_factorizations(self, a, b, c):
        # gcd(a*c, b*c) against the min exponents of the shared canonical
        # factors that factor() finds in both products
        def form(sval, uval, core):
            coeffs = (0,) * sval + tuple(core) + (0,) * uval
            return HomogeneousPoly2(len(coeffs) - 1, coeffs)

        forms = [form(*spec) for spec in (a, b, c)]
        if any(f.is_zero for f in forms):
            return
        ac, bc = forms[0].mul(forms[2]), forms[1].mul(forms[2])
        exponents = [dict(product.factor()[1]) for product in (ac, bc)]
        expected = HomogeneousPoly2.one()
        for factor, e in exponents[0].items():
            expected = expected.mul(factor.power(min(e, exponents[1].get(factor, 0))))
        assert poly2_gcd(ac, bc) == expected

    def test_rendering(self):
        assert render_poly2(HomogeneousPoly2(2, (Fraction(-2), Fraction(0), Fraction(1)))) == "s^2-2*u^2"
        assert render_poly2(HomogeneousPoly2.zero(3)) == "0"
        assert (
            render_poly2(HomogeneousPoly2(2, (Fraction(1), Fraction(1, 2), Fraction(0))))
            == "1/2*s*u+u^2"
        )

    def test_substitution(self):
        conic_form = HomogeneousPoly3.from_dict(2, {(1, 0, 1): 1, (0, 2, 0): -1})
        s2 = HomogeneousPoly2(2, (Fraction(0), Fraction(0), Fraction(1)))
        su = HomogeneousPoly2(2, (Fraction(0), Fraction(1), Fraction(0)))
        u2 = HomogeneousPoly2(2, (Fraction(1), Fraction(0), Fraction(0)))
        assert conic_form.substitute(s2, su, u2).is_zero

    def test_render3(self):
        form = HomogeneousPoly3.from_dict(2, {(1, 0, 1): 1, (0, 2, 0): -1})
        assert render_poly3(form) == "x0*x2-x1^2"
