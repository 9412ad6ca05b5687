"""Classification of one-dimensional orbifolds by canonical degree.

A curve orbifold is a genus together with marked points carrying
multiplicities.  Its canonical degree 2g - 2 + sum(1 - 1/m_i) is an exact
rational whose sign drives everything: the canonical dimension trichotomy,
specialness, and orbifold rationality.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterable

from ._value import dataclass
from .orbcore import (
    DomainError,
    Multiplicity,
    MultiplicityLike,
    OrbifoldDivisor,
    as_multiplicity,
)


class Kappa(enum.Enum):
    """Canonical dimension of a curve orbifold: -oo, 0 or 1."""

    MINUS_INFINITY = "-inf"
    ZERO = "0"
    ONE = "1"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class CurveOrbifold:
    """A genus-g curve with an orbifold divisor of marked points."""

    genus: int
    marks: OrbifoldDivisor = OrbifoldDivisor()

    def __post_init__(self) -> None:
        if not isinstance(self.genus, int) or self.genus < 0:
            raise DomainError(f"genus must be a nonnegative integer, got {self.genus!r}")

    @classmethod
    def from_multiplicities(cls, genus: int, mults: Iterable[MultiplicityLike]) -> "CurveOrbifold":
        """Convenience constructor labeling the marks p1, p2, ..."""
        entries = [(f"p{i}", as_multiplicity(m)) for i, m in enumerate(mults, start=1)]
        return cls(genus, OrbifoldDivisor(entries))


def canonical_degree(c: CurveOrbifold) -> Fraction:
    """deg(K_C + Delta) = 2g - 2 + sum of mark coefficients, exactly."""
    return Fraction(2 * c.genus - 2) + c.marks.sum_coefficients()


def kappa_curve(c: CurveOrbifold) -> Kappa:
    """Canonical dimension by the exact sign of the canonical degree."""
    d = canonical_degree(c)
    if d < 0:
        return Kappa.MINUS_INFINITY
    if d == 0:
        return Kappa.ZERO
    return Kappa.ONE


def is_special_curve(c: CurveOrbifold) -> bool:
    """Special means canonical degree <= 0 (no general-type quotient)."""
    return canonical_degree(c) <= 0


def is_rational_orbifold_curve(c: CurveOrbifold) -> bool:
    """Genus 0 with negative canonical degree (kappa = -oo)."""
    return c.genus == 0 and canonical_degree(c) < 0


# The full list of mark triples of negative degree at genus 0 falls into
# these families (the subgroups of rotations of the sphere).
_SPHERICAL_EXCEPTIONAL = {
    (2, 3, 3): "(2,3,3)",
    (2, 3, 4): "(2,3,4)",
    (2, 3, 5): "(2,3,5)",
}


@dataclass(frozen=True)
class SphericalProfile:
    """Report on a genus-0 orbifold with finite integral marks."""

    degree: Fraction
    rational: bool
    mark_count: int
    multiplicities: tuple[int, ...]
    family: str | None


def spherical_profile(c: CurveOrbifold) -> SphericalProfile:
    """Classify a genus-0 integral orbifold curve by its mark triple family.

    For a rational orbifold with exactly three marks, the sorted triple
    belongs to one of (2,2,n), (2,3,3), (2,3,4), (2,3,5); with fewer marks
    the orbifold is always rational and no family applies.
    """
    if c.genus != 0:
        raise DomainError("spherical profile is defined for genus 0 only")
    mults = []
    for _, m in c.marks.items():
        if m.is_infinite or not m.is_integral:
            raise DomainError(f"spherical profile requires finite integral marks, got {m}")
        mults.append(m.as_integer())
    mults.sort()
    degree = canonical_degree(c)
    rational = degree < 0
    family = None
    if rational and len(mults) == 3:
        triple = tuple(mults)
        if triple[:2] == (2, 2):
            family = "(2,2,n)"
        else:
            family = _SPHERICAL_EXCEPTIONAL[triple]
    return SphericalProfile(
        degree=degree,
        rational=rational,
        mark_count=len(mults),
        multiplicities=tuple(mults),
        family=family,
    )
