"""Value semantics of the container types: immutable, normalized on
construction, and equal (with equal hashes) for equal inputs."""

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
