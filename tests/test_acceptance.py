"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value here is either computed by an independent oracle inside
the test (brute force, exhaustive enumeration) or is an exact worked value
verified by hand; tolerances and runtime budgets are fixed, not calibrated.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd, lcm
from pathlib import Path

import pytest

from orbpairs.curveclass import CurveOrbifold, Kappa, canonical_degree, kappa_curve
from orbpairs.curverestrict import (
    ParamPlaneCurve,
    PlaneDivisorComponent,
    is_delta_rational,
    restrict,
)
from orbpairs.fibration import (
    FibrationData,
    TwoStageData,
    base_multiplicity,
    compose_base,
)
from orbpairs.mordell import (
    ClassicalWitness,
    OrbifoldP1Triple,
    RationalPoint,
    density_report,
    enumerate_p_full,
    merge_point_lists,
    search_classical,
    search_points,
)
from orbpairs.orbcore import INFINITY, Multiplicity
from orbpairs.planepairs import (
    PlaneArrangementPair,
    anticanonical_degree,
    expected_family_dim,
    family_dim_report,
    is_fano,
)
from orbpairs.polynomials import HomogeneousPoly2, HomogeneousPoly3
from orbpairs.specparse import format_document, parse
from orbpairs.symdiff import (
    check_positive_floor,
    check_relative_exponent_bounds,
)
from orbpairs.cli import main as cli_main

from cross_checks import check_floor_ceiling_identity, enumerate_p_full_by_filter
from test_cli import CORPUS, GOLDEN, spec


def report(number: int, elapsed: float, message: str) -> None:
    print(f"criterion {number}: PASS ({elapsed:.2f}s) {message}")


def test_criterion_1_triangle_trichotomy():
    start = time.perf_counter()
    assert canonical_degree(CurveOrbifold.from_multiplicities(0, (2, 3, 7))) == Fraction(1, 42)
    for p, q, r in combinations_with_replacement(range(2, 31), 3):
        curve = CurveOrbifold.from_multiplicities(0, (p, q, r))
        expected = Fraction(1, p) + Fraction(1, q) + Fraction(1, r) < 1
        assert (kappa_curve(curve) is Kappa.ONE) == expected, (p, q, r)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, elapsed, "kappa trichotomy over all triples up to 30, (2,3,7) degree 1/42")


def test_criterion_2_fano_checks():
    start = time.perf_counter()

    def lines(*mults):
        return PlaneArrangementPair([(f"L{i}", 1, m) for i, m in enumerate(mults, 1)])

    assert anticanonical_degree(lines(3, 3, 5, 7)) == Fraction(1, 105)
    assert is_fano(lines(3, 3, 5, 7))
    assert anticanonical_degree(lines(2, 3, 7, 41)) == Fraction(1, 1722)
    assert is_fano(lines(2, 3, 7, 41))
    assert not is_fano(lines(3, 3, 5, 8))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, elapsed, "anticanonical degrees 1/105 and 1/1722 exact; (3,3,5,8) not Fano")


def test_criterion_3_inf_gcd_discrepancy():
    start = time.perf_counter()
    fd = FibrationData({"D": [(2, 1), (2, 1), (2, 1), (3, 1), (3, 1)]})
    assert base_multiplicity(fd, "D", "inf") == Multiplicity(2)
    assert base_multiplicity(fd, "D", "gcd") == Multiplicity(1)
    elapsed = time.perf_counter() - start
    report(3, elapsed, "mixed (2,2,2,3,3)-fibre: multiplicity 2 under inf, 1 under gcd")


def test_criterion_4_composition_rule():
    start = time.perf_counter()
    rng = random.Random(271828)
    count = 10_000
    for _ in range(count):
        y_labels = [f"D{i}" for i in range(1, rng.randint(2, 5))]
        upper = {}
        for lbl in y_labels:
            comps = []
            for _ in range(rng.randint(1, 4)):
                m = INFINITY if rng.random() < 0.1 else rng.randint(1, 12)
                comps.append((rng.randint(1, 20), m))
            upper[lbl] = comps
        lower = {
            f"F{i}": [(rng.randint(1, 20), rng.choice(y_labels)) for _ in range(rng.randint(1, 4))]
            for i in range(1, rng.randint(2, 4))
        }
        direct, staged = compose_base(TwoStageData(FibrationData(upper), lower))
        assert direct == staged
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(4, elapsed, f"composition rule exact on {count} random two-stage instances")


X0 = HomogeneousPoly3.from_dict(1, {(1, 0, 0): 1})
X1 = HomogeneousPoly3.from_dict(1, {(0, 1, 0): 1})
X2 = HomogeneousPoly3.from_dict(1, {(0, 0, 1): 1})
SUM_LINE = HomogeneousPoly3.from_dict(1, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
CONIC = HomogeneousPoly3.from_dict(2, {(1, 0, 1): 1, (0, 2, 0): -1})


def _line(point, other):
    return ParamPlaneCurve(
        *(HomogeneousPoly2(1, (Fraction(b), Fraction(a))) for a, b in zip(point, other))
    )


def test_criterion_5_rational_line_families():
    start = time.perf_counter()

    def comp(label, form, mult):
        return PlaneDivisorComponent(
            label, form, INFINITY if mult == "inf" else Multiplicity(mult)
        )

    # three general lines: all three node families are rational for every
    # multiplicity assignment 2 <= a,b,c <= 12
    node_lines = [
        _line((0, 0, 1), (1, 2, 0)),  # through the AB node
        _line((0, 1, 0), (1, 0, 2)),  # through the AC node
        _line((1, 0, 0), (0, 1, 2)),  # through the BC node
    ]
    for a in range(2, 13):
        for b in range(2, 13):
            for c in range(2, 13):
                arrangement = [comp("A", X0, a), comp("B", X1, b), comp("C", X2, c)]
                for node_line in node_lines:
                    assert is_delta_rational(node_line, arrangement, "Z")

    # four lines (2, 2, a, b), 4 <= a <= b <= 12: exactly the high node family
    high = _line((1, -1, 0), (1, 1, 1))
    low = _line((0, 0, 1), (1, 2, 0))
    mixed = _line((0, 1, 0), (1, 0, 1))
    for a in range(4, 13):
        for b in range(a, 13):
            arrangement = [
                comp("A", X0, 2),
                comp("B", X1, 2),
                comp("C", X2, a),
                comp("D", SUM_LINE, b),
            ]
            assert is_delta_rational(high, arrangement, "Z")
            restricted = restrict(high, arrangement, "Z")
            assert canonical_degree(restricted) == -Fraction(1, lcm(a, b))
            assert not is_delta_rational(low, arrangement, "Z")
            assert not is_delta_rational(mixed, arrangement, "Z")

    # tangent/secant dichotomy against the logarithmic conic
    zero1 = HomogeneousPoly2.zero(1)
    s = HomogeneousPoly2.variable("s")
    u = HomogeneousPoly2.variable("u")
    tangent = ParamPlaneCurve(zero1, s, u)
    secant = ParamPlaneCurve(s, zero1, u)
    assert is_delta_rational(tangent, [comp("C", CONIC, "inf")], "Z")
    assert not is_delta_rational(secant, [comp("C", CONIC, "inf")], "Z")

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(5, elapsed, "node-line families and conic tangency via computed contact orders")


def test_criterion_6_floor_exponent_bounds():
    start = time.perf_counter()
    checked = 0
    for p in range(1, 5):
        for q in range(1, p + 1):
            for mults in product((2, 3, 4), repeat=p):
                rep = check_positive_floor(p, q, list(mults), extra=2)
                assert rep.ok, (p, q, mults, rep.counterexamples[:3])
                checked += rep.checked
    bounds = check_relative_exponent_bounds(20, 4, 6)
    assert bounds.ok
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        6,
        elapsed,
        f"positive floor exponents on {checked} multi-indices; "
        f"relative-exponent bounds on {bounds.checked} decompositions",
    )


def test_criterion_7_p_full_arithmetic():
    start = time.perf_counter()
    values = enumerate_p_full(100, 2)
    assert len(values) == 14
    assert values == enumerate_p_full_by_filter(100, 2)
    for p in (2, 3):
        rep = density_report(10**6, p)
        assert abs(rep.slope - 1 / p) <= 0.08, (p, rep.slope)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(7, elapsed, "14 square-full integers below 100; density slopes within 1/p +/- 0.08")


def test_criterion_8_mordell_searches():
    start = time.perf_counter()
    assert RationalPoint(9, 8) in search_points(OrbifoldP1Triple(2, 7, 3), 100, 100)
    assert RationalPoint(9, 1) in search_points(OrbifoldP1Triple(2, 3, 7), 100, 100)
    witnesses = search_classical(OrbifoldP1Triple(3, 2, 3), 10, 10)
    assert ClassicalWitness(1, 2, 3) in witnesses

    # classical witnesses give non-classical points under the plus convention
    for triple in (OrbifoldP1Triple(3, 2, 3), OrbifoldP1Triple(2, 2, 3)):
        found = search_classical(triple, 6, 6)
        assert found
        max_a = max(w.alpha**triple.p for w in found)
        max_b = max(w.beta**triple.r for w in found)
        plus_points = search_points(triple, max_a, max_b, sign="plus")
        for w in found:
            assert RationalPoint(w.alpha**triple.p, w.beta**triple.r) in plus_points

    # four-way shard split merges to the unsharded result
    triple = OrbifoldP1Triple(2, 7, 3)
    full = search_points(triple, 200, 200)
    shards = [
        search_points(triple, 200, 200, b_range=(lo, hi))
        for lo, hi in [(1, 50), (51, 100), (101, 150), (151, 200)]
    ]
    assert merge_point_lists(shards) == full
    elapsed = time.perf_counter() - start
    report(8, elapsed, "search witnesses, classical inclusion under plus, shard determinism")


def test_criterion_9_identity_suite():
    start = time.perf_counter()
    assert check_floor_ceiling_identity(200, 50) == 201 * 50

    rng = random.Random(31415)
    for _ in range(300):
        k = rng.randint(1, 5)
        mults = [rng.randint(2, 12) for _ in range(k)]
        degree = lcm(*mults) * rng.randint(1, 4)
        pair = PlaneArrangementPair([(f"L{i}", 1, m) for i, m in enumerate(mults, 1)])
        assert Fraction(expected_family_dim(pair, degree)) == degree * anticanonical_degree(pair) - 1

    pair = PlaneArrangementPair([("L1", 1, 3), ("L2", 1, 3), ("L3", 1, 5), ("L4", 1, 7)])
    rep = family_dim_report(pair, 105)
    assert rep.dimension == 0
    assert rep.note is not None and "3N-1" in rep.note and "N-1" in rep.note
    elapsed = time.perf_counter() - start
    report(9, elapsed, "floor/ceil identity, family-dimension identity, 3N-1 discrepancy flagged")


def test_criterion_10_cli_golden_corpus(capsys):
    start = time.perf_counter()
    # golden-file equality for the committed corpus
    for name, argv in CORPUS:
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8"), name

    # parse -> pretty-print -> parse stability on every shipped spec file
    for path in sorted((Path(spec("")).parent).glob("*.orb")):
        first = parse(path.read_text(encoding="utf-8"))
        assert first.ok
        printed = format_document(first.document)
        second = parse(printed)
        assert second.ok and second.document == first.document

    # JSON byte-stability
    argv = ["-f", spec("mordell_triples.orb"), "mordell-search", "search273",
            "--max-a", "100", "--max-b", "100", "--json"]
    assert cli_main(argv) == 0
    first_json = capsys.readouterr().out
    assert cli_main(argv) == 0
    second_json = capsys.readouterr().out
    assert first_json.encode() == second_json.encode()
    json.loads(first_json)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(10, elapsed, "golden corpus equality, round-trip stability, byte-stable JSON")
