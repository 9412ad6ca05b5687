"""Value semantics of the container types: immutable, normalized on
construction, and equal (with equal hashes) for equal inputs."""

import sys

import pytest

from orbpairs.curveclass import CurveOrbifold
from orbpairs.fibration import FibrationData, TwoStageData
from orbpairs.orbcore import INFINITY, DomainError, Multiplicity, OrbifoldDivisor
from orbpairs.planepairs import PlaneArrangementPair
from timeguard import time_guard


def _values():
    fd = FibrationData({"D": [(2, 3)]})
    return [
        OrbifoldDivisor({"a": 2}),
        fd,
        TwoStageData(fd, {"F": [(1, "D")]}),
        PlaneArrangementPair([("L1", 1, 3)]),
    ]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_setting_an_attribute_raises(value):
    for name in ("anything", "_entries", "_fibers", "upper", "_lower", "components"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_divisor_equality_ignores_input_order_and_form():
    a = OrbifoldDivisor({"b": 2, "a": 3})
    b = OrbifoldDivisor([("a", 3), ("b", 2)])
    assert a == b
    assert hash(a) == hash(b)
    assert a.items() == (("a", Multiplicity(3)), ("b", Multiplicity(2)))
    assert a != OrbifoldDivisor({"a": 3})
    assert len({a, b}) == 1


def test_multiplicity_one_entries_are_dropped():
    d = OrbifoldDivisor({"a": 1, "b": 2, "c": INFINITY})
    assert d.support == ("b", "c")
    assert d.multiplicity("a") == Multiplicity(1)
    assert OrbifoldDivisor({"a": 1}) == OrbifoldDivisor()
    pair = PlaneArrangementPair([("L1", 1, 1), ("L2", 1, 3)])
    assert [c.label for c in pair.components] == ["L2"]
    assert pair == PlaneArrangementPair([("L2", 1, 3)])


def test_duplicate_labels_raise():
    with pytest.raises(DomainError, match="duplicate divisor label 'a'"):
        OrbifoldDivisor([("a", 2), ("a", 3)])
    # an entry of multiplicity 1 is dropped, but its label still counts
    for entries in ([("a", 1), ("a", 2)], [("a", 2), ("a", 1)], [("a", 1), ("a", 1)]):
        with pytest.raises(DomainError, match="duplicate divisor label 'a'"):
            OrbifoldDivisor(entries)
    with pytest.raises(DomainError, match="duplicate component label 'L1'"):
        PlaneArrangementPair([("L1", 1, 2), ("L1", 1, 3)])


def test_equal_inputs_compare_equal():
    fd1 = FibrationData({"E": [(1, 2)], "D": [(2, 3), (1, INFINITY)]})
    fd2 = FibrationData({"D": [(2, 3), (1, INFINITY)], "E": [(1, 2)]})
    assert fd1 == fd2
    assert hash(fd1) == hash(fd2)
    assert fd1.labels == ("D", "E")
    assert fd1 != FibrationData({"D": [(2, 3)]})

    ts1 = TwoStageData(fd1, {"G": [(1, "E")], "F": [(2, "D")]})
    ts2 = TwoStageData(fd2, {"F": [(2, "D")], "G": [(1, "E")]})
    assert ts1 == ts2
    assert ts1.upper == fd2
    assert list(ts1.lower) == ["F", "G"]
    assert ts1 != TwoStageData(fd1, {"F": [(2, "D")]})

    p1 = PlaneArrangementPair([("L1", 1, 3), ("C", 2, INFINITY)])
    p2 = PlaneArrangementPair((("L1", 1, 3), ("C", 2, INFINITY)))
    assert p1 == p2
    assert hash(p1) == hash(p2)


def test_lower_is_a_copy():
    ts = TwoStageData(FibrationData({"D": [(2, 3)]}), {"F": [(1, "D")]})
    ts.lower.clear()
    assert list(ts.lower) == ["F"]


def test_two_stage_data_is_built_in_linear_time():
    # every lower part is checked against one set of the upper labels
    with time_guard(4):
        upper = FibrationData({f"D{i}": [(1, 2)] for i in range(20000)})
        ts = TwoStageData(upper, {f"F{i}": [(1, f"D{i}")] for i in range(20000)})
    assert len(ts.lower) == 20000


def test_curve_orbifold_default_marks_are_empty():
    assert CurveOrbifold(0).marks == OrbifoldDivisor()
    assert CurveOrbifold(0).marks.is_zero
    assert str(CurveOrbifold(0).marks) == "0"
    assert repr(OrbifoldDivisor({"a": 2})) == "OrbifoldDivisor({a: 2})"


# -- the value-type protocol: every class the program builds its values from --

def _every_value_class():
    """One instance of each value type, frozen ones first."""
    from fractions import Fraction

    from orbpairs.curveclass import SphericalProfile
    from orbpairs.curverestrict import ContactRecord, ParamPlaneCurve, PlaneDivisorComponent
    from orbpairs.fibration import (
        FiberComponent, LowerComponent, MorphismData, MorphismPair, MorphismReport, PairCheck,
    )
    from orbpairs.mordell import ClassicalWitness, DensityReport, OrbifoldP1Triple, RationalPoint
    from orbpairs.planepairs import ArrangementComponent, FamilyDimReport
    from orbpairs.polynomials import HomogeneousPoly2, HomogeneousPoly3
    from orbpairs.specparse import (
        Diagnostic, ParseResult, PlaneDecl, SpecDocument, TwoStageDecl,
    )
    from orbpairs.symdiff import BoundsReport, MultiIndexJ, PositiveFloorReport

    two = Multiplicity(2)
    fd = FibrationData({"D": [(2, 3)]})
    s, u = HomogeneousPoly2(1, (0, 1)), HomogeneousPoly2(1, (1, 0))
    line = HomogeneousPoly3(1, (((1, 0, 0), Fraction(1)),))
    pair = PlaneArrangementPair([("L1", 1, 3)])
    frozen = [
        lambda: OrbifoldDivisor({"a": 2}),
        lambda: CurveOrbifold(1, OrbifoldDivisor({"p": 3})),
        lambda: SphericalProfile(Fraction(1, 6), True, 3, (2, 3, 7), None),
        lambda: ParamPlaneCurve(s, u, HomogeneousPoly2(1, (0, 0))),
        lambda: PlaneDivisorComponent("L", line, two),
        lambda: ContactRecord(s, (("L", 1),)),
        lambda: FiberComponent(2, two),
        lambda: FibrationData({"D": [(2, 3)]}),
        lambda: LowerComponent(1, "D"),
        lambda: TwoStageData(fd, {"F": [(1, "D")]}),
        lambda: MorphismPair("E", "D", 2),
        lambda: MorphismData((MorphismPair("E", "D", 2),), OrbifoldDivisor(), OrbifoldDivisor()),
        lambda: PairCheck("E", "D", 2, two, two, Multiplicity(4), True),
        lambda: MorphismReport("inf", True, ()),
        lambda: OrbifoldP1Triple(2, 3, 7),
        lambda: RationalPoint(1, 2),
        lambda: ClassicalWitness(1, 2, 3),
        lambda: DensityReport(100, 2, 10, 1.0, 0.5, ((10, 3),), (1, 4, 8)),
        lambda: ArrangementComponent("L", 1, two),
        lambda: PlaneArrangementPair([("L1", 1, 3)]),
        lambda: FamilyDimReport(3, 9, 4, 5, None),
        lambda: HomogeneousPoly2(2, (1, 0, 1)),
        lambda: line,
        lambda: Diagnostic(1, 2, "unexpected '}'"),
        lambda: MultiIndexJ(3, 2, ((2, 1), (1, 3))),
        lambda: PositiveFloorReport(2, 1, (two, two), 1, (1, 2), 7, ()),
        lambda: BoundsReport(4, ()),
    ]
    mutable = [
        lambda: PlaneDecl(pair),
        lambda: TwoStageDecl("f", TwoStageData(fd, {"F": [(1, "D")]})),
        lambda: SpecDocument(),
        lambda: ParseResult(SpecDocument(), []),
    ]
    return frozen, mutable


FROZEN, MUTABLE = _every_value_class()


def _name(make):
    return type(make()).__name__


def test_every_value_class_is_listed():
    # _every_value_class has imported every domain module
    listed = {type(make()) for make in FROZEN + MUTABLE}
    assert len(listed) == len(FROZEN) + len(MUTABLE) == 31
    found = {
        cls
        for name, module in sys.modules.items() if name.startswith("orbpairs.")
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == name
        and "__annotations__" in vars(cls) and "__init__" in vars(cls)
        and not issubclass(cls, tuple)
    }
    assert found == listed


@pytest.mark.parametrize("make", FROZEN, ids=_name)
def test_frozen_fields_refuse_assignment_and_deletion(make):
    value = make()
    before = repr(value)
    for name in vars(value):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before


@pytest.mark.parametrize("make", FROZEN, ids=_name)
def test_frozen_equality_is_by_exact_class_and_fields(make):
    a, b = make(), make()
    assert a == b and not a != b
    assert hash(a) == hash(b)
    as_tuple = tuple(vars(a).values())
    assert a != as_tuple
    assert a.__eq__(as_tuple) is NotImplemented

    class Twin(type(a)):
        pass

    twin = Twin.__new__(Twin)
    for name, field_value in vars(a).items():
        object.__setattr__(twin, name, field_value)
    assert vars(twin) == vars(a)
    assert a != twin and twin != a


@pytest.mark.parametrize("make", MUTABLE, ids=_name)
def test_mutable_values_are_unhashable(make):
    value = make()
    assert type(value).__hash__ is None
    with pytest.raises(TypeError):
        hash(value)
    assert value == make()


def test_custom_repr_and_hash_are_kept():
    d = OrbifoldDivisor({"b": 3, "a": 2})
    assert repr(d) == "OrbifoldDivisor({a: 2, b: 3})"
    assert hash(d) == hash((("a", Multiplicity(2)), ("b", Multiplicity(3))))
    fd = FibrationData({"D": [(2, 3)]})
    assert hash(fd) == hash(fd.items())


def test_generated_repr_text():
    from orbpairs.fibration import FiberComponent, MorphismReport
    from orbpairs.mordell import RationalPoint
    from orbpairs.planepairs import FamilyDimReport
    from orbpairs.specparse import SpecDocument

    assert repr(RationalPoint(1, 2)) == "RationalPoint(a=1, b=2)"
    assert repr(FiberComponent(2, Multiplicity(3))) == (
        "FiberComponent(t=2, multiplicity=Multiplicity(3))"
    )
    assert repr(FamilyDimReport(3, 9, 4, 5, "n")) == (
        "FamilyDimReport(degree=3, parameters=9, conditions=4, dimension=5, note='n')"
    )
    assert repr(MorphismReport("inf", True, ())) == "MorphismReport(mode='inf', ok=True, checks=())"
    assert repr(CurveOrbifold(0)) == "CurveOrbifold(genus=0, marks=OrbifoldDivisor(0))"
    assert repr(SpecDocument()) == (
        "SpecDocument(curves={}, planes={}, fibrations={}, twostages={}, morphisms={},"
        " paramcurves={}, mordells={})"
    )


def test_each_document_gets_fresh_tables():
    from orbpairs.specparse import PlaneDecl, SpecDocument

    a, b = SpecDocument(), SpecDocument()
    tables = list(vars(a))
    assert tables == [
        "curves", "planes", "fibrations", "twostages", "morphisms", "paramcurves", "mordells",
    ]
    for name in tables:
        assert getattr(a, name) == {} and getattr(a, name) is not getattr(b, name)
    a.curves["c"] = CurveOrbifold(0)
    assert b.curves == {}
    given = {"L1": None}
    assert SpecDocument(curves=given).curves is given
    pair = PlaneArrangementPair([("L1", 1, 3)])
    assert PlaneDecl(pair).forms is not PlaneDecl(pair).forms


def test_declaration_keywords_keep_document_order():
    from orbpairs.specparse import _DECL_KEYWORDS

    assert _DECL_KEYWORDS == (
        "curve", "plane", "fibration", "twostage", "morphism", "paramcurve", "mordell",
    )
