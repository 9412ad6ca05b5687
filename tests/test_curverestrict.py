"""Contact orders and restrictions, checked against explicit geometry.

The standing fixtures: coordinate lines x0, x1, x2 and the line
x0 + x1 + x2, the smooth conic x0*x2 - x1^2 with its tangent/secant lines,
and the cuspidal cubic (s*u^2 : u^3 : s^3) whose cusp maps to (0:0:1) with
cuspidal tangent line x1 = 0.
"""

from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from base_point_reference import check_one_gcd, check_parametrization
from cross_checks import contact_orders_by_component
from orbpairs import curverestrict
from orbpairs.curveclass import canonical_degree
from orbpairs.curverestrict import (
    ParamPlaneCurve,
    PlaneDivisorComponent,
    contact_orders,
    is_delta_rational,
    pullback,
    restrict,
)
from orbpairs.orbcore import INFINITY, DomainError, Multiplicity, divisor_leq
from orbpairs.polynomials import HomogeneousPoly2, HomogeneousPoly3

S = HomogeneousPoly2.variable("s")
U = HomogeneousPoly2.variable("u")
ZERO1 = HomogeneousPoly2.zero(1)

X0 = HomogeneousPoly3.from_dict(1, {(1, 0, 0): 1})
X1 = HomogeneousPoly3.from_dict(1, {(0, 1, 0): 1})
X2 = HomogeneousPoly3.from_dict(1, {(0, 0, 1): 1})
SUM_LINE = HomogeneousPoly3.from_dict(1, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
CONIC = HomogeneousPoly3.from_dict(2, {(1, 0, 1): 1, (0, 2, 0): -1})

CONIC_PARAM = ParamPlaneCurve(
    HomogeneousPoly2(2, (Fraction(0), Fraction(0), Fraction(1))),  # s^2
    HomogeneousPoly2(2, (Fraction(0), Fraction(1), Fraction(0))),  # s*u
    HomogeneousPoly2(2, (Fraction(1), Fraction(0), Fraction(0))),  # u^2
)
CUSPIDAL_CUBIC = ParamPlaneCurve(
    HomogeneousPoly2(3, (Fraction(0), Fraction(0), Fraction(1), Fraction(0))),  # s^2 u
    HomogeneousPoly2(3, (Fraction(1), Fraction(0), Fraction(0), Fraction(0))),  # u^3
    HomogeneousPoly2(3, (Fraction(0), Fraction(0), Fraction(0), Fraction(1))),  # s^3
)


def comp(label, form, mult):
    return PlaneDivisorComponent(label, form, Multiplicity(mult) if mult != "inf" else INFINITY)


def line_through(point, other):
    """Parametrized line s*point + u*other."""
    coords = []
    for a, b in zip(point, other):
        coords.append(HomogeneousPoly2(1, (Fraction(b), Fraction(a))))
    return ParamPlaneCurve(*coords)


# planted common factors: s, u and s + 2u
PLANTED = (S, U, HomogeneousPoly2(1, (Fraction(2), Fraction(1))))


@st.composite
def parametrizations(draw):
    """(planted factor or None, three coordinates of one degree 1-4); each
    coordinate is zero a quarter of the time, and otherwise has small
    rational coefficients, times the planted factor if there is one."""
    degree = draw(st.integers(1, 4))
    planted = draw(st.sampled_from((None,) + PLANTED))
    coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    coords = []
    for _ in range(3):
        if draw(st.integers(0, 3)) == 0:
            coords.append(HomogeneousPoly2.zero(degree))
            continue
        free = degree if planted is None else degree - 1
        coeffs = draw(st.lists(coefficients, min_size=free + 1, max_size=free + 1))
        form = HomogeneousPoly2(free, tuple(coeffs))
        coords.append(form if planted is None else planted.mul(form))
    return planted, coords


def check_outcome(check, coords) -> str:
    try:
        check(*coords)
    except DomainError as exc:
        return str(exc)
    return "accepted"


class TestBasePointOracle:
    """ParamPlaneCurve's one gcd over all nonzero coordinates against the
    former pairwise fold."""

    @given(parametrizations())
    @settings(max_examples=200, deadline=None)
    @example((None, [HomogeneousPoly2(1, (Fraction(4), Fraction(2))), ZERO1, ZERO1]))  # shown as given
    @example((U, [U.mul(S), ZERO1.mul(S), U.mul(PLANTED[2])]))
    @example((None, [S.mul(S), U.mul(PLANTED[2]), S.mul(U)]))
    def test_matches_pairwise_fold(self, case):
        planted, coords = case
        outcome = check_outcome(ParamPlaneCurve, coords)
        assert outcome == check_outcome(check_parametrization, coords)
        if planted is not None and not all(c.is_zero for c in coords):
            assert outcome.startswith("parametrization has the common factor")


# shared factors: linear, pure powers of s and u, an irreducible quadratic
# and a quadratic with rational coefficients
SHARED = (
    S, U, PLANTED[2], S.mul(S), U.mul(U), U.mul(S),
    HomogeneousPoly2(2, (Fraction(1), Fraction(0), Fraction(1))),  # s^2 + u^2
    HomogeneousPoly2(2, (Fraction(-2, 3), Fraction(1, 2), Fraction(5))),
)


@st.composite
def coordinate_triples(draw):
    """Three coordinates, each zero, a rational multiple of a pure power of
    s or of u, or a form with small rational coefficients; times a shared
    factor when one is drawn; and now and then one coordinate's degree
    raised by a factor s or u."""
    shared = draw(st.sampled_from(SHARED)) if draw(st.booleans()) else None
    low = 0 if shared is None else shared.degree
    degree = draw(st.integers(max(1, low), 4))
    free = degree - low
    coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    coords = []
    for _ in range(3):
        kind = draw(st.sampled_from(("zero", "s", "u", "form", "form")))
        if kind == "zero":
            coords.append(HomogeneousPoly2.zero(degree))
            continue
        if kind == "form":
            coeffs = draw(st.lists(coefficients, min_size=free + 1, max_size=free + 1))
        else:
            c = draw(coefficients.filter(bool))
            coeffs = [Fraction(0)] * free + [c] if kind == "s" else [c] + [Fraction(0)] * free
        form = HomogeneousPoly2(free, tuple(coeffs))
        coords.append(form if shared is None else shared.mul(form))
    if draw(st.integers(0, 9)) == 9:
        odd = draw(st.integers(0, 2))
        coords[odd] = coords[odd].mul(draw(st.sampled_from((S, U))))
    return coords


class TestIntegerBasePointDecision:
    """ParamPlaneCurve decides base points on integer valuations and cores;
    the former check built the gcd form of all nonzero coordinates.  Both
    accept the same triples and refuse the others with the same text."""

    @given(coordinate_triples())
    @settings(max_examples=400, deadline=None)
    @example([S.mul(S).mul(S), S.mul(U).mul(S), S.mul(S).mul(PLANTED[2])])  # s^2 shared
    @example([U.mul(U), HomogeneousPoly2.zero(2), U.mul(S)])  # u shared
    @example([SHARED[6], SHARED[6], SHARED[6]])  # one quadratic, shown as primitive
    @example([SHARED[7].mul(S), SHARED[7].mul(U), HomogeneousPoly2.zero(3)])
    @example([S.mul(S), U.mul(U), HomogeneousPoly2.zero(2)])  # coprime pure powers
    @example([HomogeneousPoly2.zero(2), SHARED[7], HomogeneousPoly2.zero(2)])  # lone, as given
    @example([S, U, S.mul(U)])  # differing degrees
    def test_matches_one_gcd(self, coords):
        assert check_outcome(ParamPlaneCurve, coords) == check_outcome(check_one_gcd, coords)

    def test_refusal_texts(self):
        quadratic, zero3 = SHARED[7], HomogeneousPoly2.zero(3)
        # the gcd is shown primitive; a lone coordinate is shown as given
        assert check_outcome(ParamPlaneCurve, [quadratic.mul(S), quadratic.mul(U), zero3]) == (
            "parametrization has the common factor 30*s^2+3*s*u-4*u^2; remove base points"
        )
        assert check_outcome(ParamPlaneCurve, [zero3, quadratic.mul(U), zero3]) == (
            "parametrization has the common factor 5*s^2*u+1/2*s*u^2-2/3*u^3; remove base points"
        )


class TestPullback:
    def test_conic_param_vs_line(self):
        result = pullback(CONIC_PARAM, comp("L", X0, 5))
        assert str(result) == "s^2"
        assert result.degree == 2

    def test_tangent_line_vs_conic(self):
        tangent = ParamPlaneCurve(ZERO1, S, U)
        result = pullback(tangent, comp("C", CONIC, "inf"))
        assert str(result) == "-s^2"

    def test_curve_inside_component(self):
        inside = ParamPlaneCurve(S, ZERO1, U)
        with pytest.raises(DomainError):
            pullback(inside, comp("L", X1, 2))

    def test_parametrized_conic_lies_on_its_equation(self):
        with pytest.raises(DomainError):
            pullback(CONIC_PARAM, comp("C", CONIC, 3))

    def test_degree_of_pullback(self):
        other_conic = HomogeneousPoly3.from_dict(2, {(2, 0, 0): 1, (0, 0, 2): 1})
        result = pullback(CONIC_PARAM, comp("C2", other_conic, 3))
        assert result.degree == 4

    def test_base_point_rejected(self):
        with pytest.raises(DomainError):
            ParamPlaneCurve(S.mul(S), S.mul(U), S.mul(U))


class TestContactOrders:
    def test_tangency_record(self):
        records = contact_orders(CONIC_PARAM, [comp("L", X0, 5)])
        assert len(records) == 1
        assert records[0].contacts == (("L", 2),)
        assert str(records[0].point) == "s"

    def test_node_line_grouping(self):
        # the line (s : s : u) passes through the intersection of x0 and x1
        line = ParamPlaneCurve(S, S, U)
        records = contact_orders(
            line, [comp("A", X0, 2), comp("B", X1, 3), comp("C", X2, 5)]
        )
        by_point = {str(r.point): r.contacts for r in records}
        assert by_point == {"s": (("A", 1), ("B", 1)), "u": (("C", 1),)}

    def test_degree_conservation(self):
        # sum of t * deg(point) over records equals d * deg(form) per component
        arrangement = [
            comp("A", X0, 2),
            comp("B", SUM_LINE, 3),
            comp("C", CONIC, 5),
        ]
        for curve in (CONIC_PARAM, CUSPIDAL_CUBIC):
            try:
                records = contact_orders(curve, arrangement)
            except DomainError:
                continue
            for component in arrangement:
                total = sum(
                    dict(r.contacts).get(component.label, 0) * r.orbit_size for r in records
                )
                assert total == curve.degree * component.form.degree

    def test_galois_orbit_size(self):
        # x0 + x2 pulls back on the conic to s^2 + u^2, irreducible of degree 2
        line = HomogeneousPoly3.from_dict(1, {(1, 0, 0): 1, (0, 0, 1): 1})
        records = contact_orders(CONIC_PARAM, [comp("L", line, 2)])
        assert len(records) == 1
        assert records[0].orbit_size == 2

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DomainError):
            contact_orders(CONIC_PARAM, [comp("L", X0, 2), comp("L", X1, 2)])


# factors of the components' forms: lines, an irreducible and a reducible
# quadratic, an irreducible cubic, and lines whose pullbacks along the test
# curves vanish at s = 0 or at u = 0, so that a product of them only has a
# constant core
FACTOR_POOL = [
    {(1, 0, 0): 1, (0, 1, 0): -1},
    {(1, 0, 0): 1, (0, 1, 0): 2},
    {(1, 0, 0): 2, (0, 1, 0): -3},
    {(2, 0, 0): 1, (0, 2, 0): 1},
    {(2, 0, 0): 1, (0, 2, 0): -1},
    {(3, 0, 0): 1, (0, 3, 0): -2},
    {(1, 0, 0): 1},
    {(0, 1, 0): 1},
    {(0, 0, 1): 1},
    {(1, 0, 0): -1, (0, 0, 1): 1},
]
# the line (s : u : s + u), the conic (s^2 : s*u : u^2), and the cuspidal cubic
BASIS_CURVES = [
    ParamPlaneCurve(S, U, HomogeneousPoly2(1, (Fraction(1), Fraction(1)))),
    CONIC_PARAM,
    CUSPIDAL_CUBIC,
]
BASIS_MULTS = [2, 3, 4, 6, Fraction(3, 2), Fraction(5, 3), "inf"]


def form_product(factors, scale):
    terms = {(0, 0, 0): Fraction(scale)}
    for factor in factors:
        product = {}
        for (a, b, c), x in terms.items():
            for (d, e, f), y in factor.items():
                key = (a + d, b + e, c + f)
                product[key] = product.get(key, 0) + x * y
        terms = product
    return HomogeneousPoly3.from_dict(sum(next(iter(terms))), terms)


@st.composite
def basis_cases(draw):
    """(curve, arrangement): one to four components, each a rational
    multiple of a product of one to four factors drawn from a small pool,
    so factors repeat within a component and are shared across them."""
    curve = draw(st.sampled_from(BASIS_CURVES))
    arrangement = []
    for i in range(draw(st.integers(1, 4))):
        factors = draw(st.lists(st.sampled_from(FACTOR_POOL), min_size=1, max_size=4))
        scale = draw(st.fractions(-3, 3, max_denominator=3).filter(bool))
        mult = draw(st.sampled_from(BASIS_MULTS))
        arrangement.append(comp(f"C{i}", form_product(factors, scale), mult))
    return curve, arrangement


def integral(component):
    m = component.multiplicity
    if m.is_integral:
        return component
    return PlaneDivisorComponent(component.label, component.form, Multiplicity(m.finite_value().numerator))


class TestCoprimeBasis:
    """contact_orders factors each piece of one coprime basis of all the
    pullbacks' squarefree parts once; the oracle factors every pullback on
    its own.  Records and both restrictions agree."""

    @given(basis_cases())
    @settings(max_examples=300, deadline=None)
    @example((BASIS_CURVES[0], [  # s^24 - u^24 and s^36 - u^36 share s^12 - u^12
        comp("A", HomogeneousPoly3.from_dict(24, {(24, 0, 0): 1, (0, 24, 0): -1}), 2),
        comp("B", HomogeneousPoly3.from_dict(36, {(36, 0, 0): 1, (0, 36, 0): -1}), 3),
    ]))
    @example((BASIS_CURVES[0], [  # only s, u and constant cores
        comp("A", form_product([FACTOR_POOL[6], FACTOR_POOL[6], FACTOR_POOL[7]], 2), 2),
        comp("B", form_product([FACTOR_POOL[7], FACTOR_POOL[9]], -1), "inf"),
    ]))
    @example((BASIS_CURVES[1], [  # a repeated quadratic, shared with a square
        comp("A", form_product([FACTOR_POOL[3]] * 3, 1), 3),
        comp("B", form_product([FACTOR_POOL[3], FACTOR_POOL[3], FACTOR_POOL[4]], 1), 2),
        comp("C", form_product([FACTOR_POOL[0], FACTOR_POOL[4]], 1), Fraction(3, 2)),
    ]))
    @example((BASIS_CURVES[0], [  # linear pieces only, equal and not
        comp("A", form_product([FACTOR_POOL[0]], 1), 2),
        comp("B", form_product([FACTOR_POOL[1], FACTOR_POOL[0]], 1), 3),
        comp("C", form_product([FACTOR_POOL[8]], 1), 4),
    ]))
    def test_matches_per_component_factoring(self, case):
        curve, arrangement = case
        records = contact_orders(curve, arrangement)
        assert records == contact_orders_by_component(curve, arrangement)
        whole = [integral(c) for c in arrangement]
        expected = {}
        with mock.patch.object(curverestrict, "contact_orders", contact_orders_by_component):
            for variant, components in (("Z", whole), ("Q", arrangement)):
                expected[variant] = restrict(curve, components, variant)
        for variant, components in (("Z", whole), ("Q", arrangement)):
            assert restrict(curve, components, variant) == expected[variant]


class TestRestrictDivisible:
    def test_tangent_contact_coprime(self):
        restricted = restrict(CONIC_PARAM, [comp("L", X0, 5)], "Z")
        assert restricted.marks.multiplicity("s") == Multiplicity(5)
        assert canonical_degree(restricted) == Fraction(-6, 5)

    def test_divisible_contact_trivial(self):
        restricted = restrict(CONIC_PARAM, [comp("L", X0, 2)], "Z")
        assert restricted.marks.is_zero

    def test_node_line_lcm(self):
        line = ParamPlaneCurve(S, S, U)
        for a, b, c in [(2, 3, 5), (4, 6, 2), (2, 2, 2)]:
            restricted = restrict(
                line, [comp("A", X0, a), comp("B", X1, b), comp("C", X2, c)], "Z"
            )
            assert restricted.marks.multiplicity("s") == Multiplicity(lcm(a, b))
            assert restricted.marks.multiplicity("u") == Multiplicity(c)

    def test_mixed_contact_orders_at_shared_point(self):
        # x1 and x2 both vanish at the curve point (1:0:0), with contact
        # orders 1 and 2; the point multiplicity is the lcm of the two
        # contributions
        arrangement = [comp("B", X1, 3), comp("C", X2, 4)]
        records = contact_orders(CONIC_PARAM, arrangement)
        by_point = {str(r.point): r.contacts for r in records}
        assert by_point["u"] == (("B", 1), ("C", 2))
        restricted = restrict(CONIC_PARAM, arrangement, "Z")
        # lcm(3/gcd(3,1), 4/gcd(4,2)) = lcm(3, 2) = 6
        assert restricted.marks.multiplicity("u") == Multiplicity(6)

    def test_galois_orbit_contributes_degree_points(self):
        line = HomogeneousPoly3.from_dict(1, {(1, 0, 0): 1, (0, 0, 1): 1})
        restricted = restrict(CONIC_PARAM, [comp("L", line, 3)], "Z")
        assert len(restricted.marks) == 2
        assert canonical_degree(restricted) == -2 + 2 * Fraction(2, 3)

    def test_integrality_required(self):
        with pytest.raises(DomainError):
            restrict(CONIC_PARAM, [comp("L", X0, Fraction(5, 2))], "Z")


class TestRestrictRational:
    def test_footnote_formula(self):
        restricted = restrict(CONIC_PARAM, [comp("L", X0, 5)], "Q")
        assert restricted.marks.multiplicity("s") == Multiplicity(Fraction(5, 2))

    def test_exact_division_dropped(self):
        restricted = restrict(CONIC_PARAM, [comp("L", X0, 2)], "Q")
        assert restricted.marks.is_zero

    def test_clamped_below_one(self):
        # contact order 3 against multiplicity 2: the raw ratio 2/3 is below
        # the allowed range and clamps to 1
        restricted = restrict(CUSPIDAL_CUBIC, [comp("D", X1, 2)], "Q")
        assert restricted.marks.is_zero

    def test_rational_multiplicities_allowed(self):
        restricted = restrict(CONIC_PARAM, [comp("L", X0, Fraction(7, 2))], "Q")
        assert restricted.marks.multiplicity("s") == Multiplicity(Fraction(7, 4))

    def test_divisible_dominates_rational(self):
        # the divisible restriction is pointwise at least the rational one
        import random

        rng = random.Random(31)
        arrangement_pool = [
            ("A", X0),
            ("B", X1),
            ("C", X2),
            ("D", SUM_LINE),
            ("E", CONIC),
        ]
        for _ in range(60):
            chosen = rng.sample(arrangement_pool, rng.randint(1, 4))
            arrangement = [comp(lbl, form, rng.randint(2, 9)) for lbl, form in chosen]
            for curve in (CONIC_PARAM, CUSPIDAL_CUBIC, ParamPlaneCurve(S, S, U)):
                try:
                    z = restrict(curve, arrangement, "Z")
                    q = restrict(curve, arrangement, "Q")
                except DomainError:
                    continue
                assert divisor_leq(q.marks, z.marks)
                if is_delta_rational(curve, arrangement, "Z"):
                    assert is_delta_rational(curve, arrangement, "Q")


class TestInfinityConicDichotomy:
    def test_tangent_line_rational(self):
        tangent = ParamPlaneCurve(ZERO1, S, U)
        assert is_delta_rational(tangent, [comp("C", CONIC, "inf")], "Z")

    def test_secant_line_not_rational(self):
        secant = ParamPlaneCurve(S, ZERO1, U)
        arrangement = [comp("C", CONIC, "inf")]
        records = contact_orders(secant, arrangement)
        assert sorted(t for r in records for _, t in r.contacts) == [1, 1]
        assert not is_delta_rational(secant, arrangement, "Z")
        restricted = restrict(secant, arrangement, "Z")
        assert canonical_degree(restricted) == 0


class TestCuspidalCubicCriterion:
    def test_cuspidal_tangent_is_rational(self):
        # the cuspidal tangent x1 = 0 meets the cubic only at the cusp,
        # with full contact order 3
        arrangement = [comp("D", X1, "inf")]
        records = contact_orders(CUSPIDAL_CUBIC, arrangement)
        assert len(records) == 1 and records[0].contacts == (("D", 3),)
        assert is_delta_rational(CUSPIDAL_CUBIC, arrangement, "Z")

    def test_other_line_through_cusp_not_rational(self):
        # x0 = 0 also passes through the cusp but is not the cuspidal tangent
        arrangement = [comp("D", X0, "inf")]
        records = contact_orders(CUSPIDAL_CUBIC, arrangement)
        assert len(records) == 2
        assert not is_delta_rational(CUSPIDAL_CUBIC, arrangement, "Z")

    def test_generic_line_not_rational(self):
        arrangement = [comp("D", SUM_LINE, "inf")]
        assert not is_delta_rational(CUSPIDAL_CUBIC, arrangement, "Z")


class TestLogarithmicTwoLines:
    def test_node_line_rational(self):
        arrangement = [comp("L", X0, "inf"), comp("Lp", X1, "inf")]
        node_line = line_through((0, 0, 1), (1, 2, 0))
        assert is_delta_rational(node_line, arrangement, "Z")

    def test_generic_line_not_rational(self):
        arrangement = [comp("L", X0, "inf"), comp("Lp", X1, "inf")]
        generic = line_through((1, 2, 3), (0, 1, 1))
        assert not is_delta_rational(generic, arrangement, "Z")


class TestThreeLineFamilies:
    def test_node_lines_rational_for_all_multiplicities(self):
        # lines through a node of two of the three coordinate lines are
        # orbifold-rational for every multiplicity assignment; all three
        # node families are covered
        families = [
            (line_through((0, 0, 1), (1, 2, 0)), lambda a, b, c: (lcm(a, b), c)),
            (line_through((0, 1, 0), (1, 0, 2)), lambda a, b, c: (lcm(a, c), b)),
            (line_through((1, 0, 0), (0, 1, 2)), lambda a, b, c: (lcm(b, c), a)),
        ]
        for a in range(2, 13):
            for b in range(2, 13):
                for c in range(2, 13):
                    arrangement = [
                        comp("A", X0, a),
                        comp("B", X1, b),
                        comp("C", X2, c),
                    ]
                    for node_line, marks_of in families:
                        assert is_delta_rational(node_line, arrangement, "Z")
                        node_mult, other = marks_of(a, b, c)
                        restricted = restrict(node_line, arrangement, "Z")
                        expected = -Fraction(1, node_mult) - Fraction(1, other)
                        assert canonical_degree(restricted) == expected


class TestFourLineFamilies:
    def arrangement(self, a, b):
        return [
            comp("A", X0, 2),
            comp("B", X1, 2),
            comp("C", X2, a),
            comp("D", SUM_LINE, b),
        ]

    def test_only_high_node_family_rational(self):
        # with multiplicities (2, 2, a, b) and a, b >= 4, only lines through
        # the node of the two high-multiplicity lines are orbifold-rational
        high_node = line_through((1, -1, 0), (1, 1, 1))  # on x2 and the sum line
        low_node = line_through((0, 0, 1), (1, 2, 0))  # on x0 and x1
        mixed_node = line_through((0, 1, 0), (1, 0, 1))  # on x0 and x2
        for a in range(4, 13):
            for b in range(a, 13):
                arrangement = self.arrangement(a, b)
                assert is_delta_rational(high_node, arrangement, "Z")
                restricted = restrict(high_node, arrangement, "Z")
                assert canonical_degree(restricted) == -Fraction(1, lcm(a, b))
                assert not is_delta_rational(low_node, arrangement, "Z")
                assert not is_delta_rational(mixed_node, arrangement, "Z")
