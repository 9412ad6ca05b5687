"""Plane-arrangement pairs: anticanonical degree, Fano test, family counts.

A pair is an arrangement of plane curves, each recorded only by its degree
and multiplicity; general position is an assumption documented here, not
checked (incidence geometry lives in curverestrict).  The anticanonical
degree of the pair against the line class is 3 - sum d_j (1 - 1/m_j).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .orbcore import DomainError, Multiplicity, MultiplicityLike, SelfCheckError, as_multiplicity


@dataclass(frozen=True)
class ArrangementComponent:
    label: str
    degree: int
    multiplicity: Multiplicity

    def __post_init__(self) -> None:
        if not isinstance(self.degree, int) or self.degree < 1:
            raise DomainError(f"component degree must be a positive integer, got {self.degree!r}")


class PlaneArrangementPair:
    """An arrangement of labeled plane curves with multiplicities > 1.

    Components of multiplicity 1 are normalized away; labels must be unique.
    """

    __slots__ = ("_components",)

    def __init__(self, components: Iterable[tuple[str, int, MultiplicityLike]]) -> None:
        seen: set[str] = set()
        kept: list[ArrangementComponent] = []
        for label, degree, mult in components:
            if label in seen:
                raise DomainError(f"duplicate component label {label!r}")
            seen.add(label)
            m = as_multiplicity(mult)
            if m.is_one:
                continue
            kept.append(ArrangementComponent(label, degree, m))
        object.__setattr__(self, "_components", tuple(kept))

    def __setattr__(self, name, val):
        raise AttributeError("PlaneArrangementPair is immutable")

    @property
    def components(self) -> tuple[ArrangementComponent, ...]:
        return self._components

    @property
    def is_lines_only(self) -> bool:
        return all(c.degree == 1 for c in self._components)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlaneArrangementPair):
            return NotImplemented
        return self._components == other._components

    def __hash__(self) -> int:
        return hash(self._components)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{c.label}(d={c.degree}, m={c.multiplicity})" for c in self._components
        )
        return f"PlaneArrangementPair({inner})"


def anticanonical_degree(pair: PlaneArrangementPair) -> Fraction:
    """Degree of -(K + Delta) against the line class: 3 - sum d_j(1 - 1/m_j)."""
    total = Fraction(3)
    for c in pair.components:
        total -= c.degree * c.multiplicity.coefficient()
    return total


def is_fano(pair: PlaneArrangementPair) -> bool:
    """Fano means the anticanonical degree is strictly positive."""
    return anticanonical_degree(pair) > 0


def _require_line_arrangement(pair: PlaneArrangementPair, degree: int) -> list[int]:
    if not isinstance(degree, int) or degree < 1:
        raise DomainError(f"curve degree must be a positive integer, got {degree!r}")
    mults = []
    for c in pair.components:
        if c.degree != 1:
            raise DomainError(f"component {c.label!r} has degree {c.degree}; lines required")
        if c.multiplicity.is_infinite or not c.multiplicity.is_integral:
            raise DomainError(
                f"component {c.label!r} needs a finite integral multiplicity, got {c.multiplicity}"
            )
        m = c.multiplicity.as_integer()
        if degree % m != 0:
            raise DomainError(
                f"multiplicity {m} of component {c.label!r} does not divide degree {degree}"
            )
        mults.append(m)
    return mults


def expected_family_dim(pair: PlaneArrangementPair, degree: int) -> int:
    """Parameter count minus contact conditions for rational plane curves
    of the given degree meeting each line with contact orders divisible by
    its multiplicity.

    Parameters: 3*degree - 1.  Conditions per line: degree * (1 - 1/m).
    The divisibility m | degree makes the count an exact integer.
    """
    return family_dim_report(pair, degree).dimension


def adjunction_identity_check(pair: PlaneArrangementPair, degree: int) -> bool:
    """Executable witness that the family dimension equals
    degree * anticanonical_degree - 1 exactly."""
    dim = expected_family_dim(pair, degree)
    rhs = degree * anticanonical_degree(pair) - 1
    return Fraction(dim) == rhs


@dataclass(frozen=True)
class FamilyDimReport:
    degree: int
    parameters: int
    conditions: int
    dimension: int
    identity_value: int
    note: str | None


def family_dim_report(pair: PlaneArrangementPair, degree: int) -> FamilyDimReport:
    """Family-dimension count with the parameter/condition breakdown.

    For the four-line arrangement with multiplicities (3,3,5,7) at degree
    105*N, the count comes out to N - 1; the figure 3N - 1 sometimes quoted
    for this arrangement is inconsistent with these parameter/condition
    counts, and the report flags that rather than reproducing it.
    """
    mults = _require_line_arrangement(pair, degree)
    parameters = 3 * degree - 1
    conditions = sum(degree - degree // m for m in mults)
    dimension = parameters - conditions
    rhs = degree * anticanonical_degree(pair) - 1
    if Fraction(dimension) != rhs:
        raise SelfCheckError(f"family dimension {dimension} != degree * anticanonical - 1 = {rhs}")
    note = None
    if sorted(mults) == [3, 3, 5, 7] and degree % 105 == 0:
        n = degree // 105
        note = (
            f"dimension = N-1 = {dimension} for N = {n} (degree = 105*N); the quoted "
            f"figure 3N-1 = {3 * n - 1} does not match the parameter/condition counts "
            f"{parameters} - {conditions} and is not used"
        )
    return FamilyDimReport(
        degree=degree,
        parameters=parameters,
        conditions=conditions,
        dimension=dimension,
        identity_value=dimension,
        note=note,
    )
