"""Restriction of plane orbifold divisors to parametrized rational curves.

A parametrized curve is three equal-degree binary forms without a common
factor.  Pulling each arrangement component back along the parametrization
and factoring over Q gives the exact contact orders t at every parameter
point; points are represented by canonical irreducible factors, so a Galois
orbit of conjugate points is one record and contributes deg(factor) marked
points to the restricted curve orbifold.

Two restrictions are computed: the divisible one with multiplicity
lcm_j m_j / gcd(m_j, t_j) at each point, and the rational one with
max_j m_j / t_j (clamped below at 1, since multiplicities live in [1, oo]).
Any contact with an infinite-multiplicity component forces an infinite mark.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Literal, Sequence

from ._value import dataclass
from .curveclass import CurveOrbifold, Kappa, kappa_curve
from .orbcore import (
    INFINITY,
    MAX_COEFF_DIGITS,
    DomainError,
    Multiplicity,
    OrbifoldDivisor,
    mult_lcm,
    too_long_to_print,
)
from .polynomials import (
    HomogeneousPoly2,
    HomogeneousPoly3,
    coprime_basis,
    factor_rational,
    poly2_gcd,
    poly2_gcd_parts,
    squarefree_parts,
)

RestrictVariant = Literal["Z", "Q"]

# the points s = 0 and u = 0
_S, _U = HomogeneousPoly2.variable("s"), HomogeneousPoly2.variable("u")


@dataclass(frozen=True)
class ParamPlaneCurve:
    """A degree-d rational parametrization (x0 : x1 : x2) of a plane curve
    by three binary forms with no common factor (base-point free)."""

    x0: HomogeneousPoly2
    x1: HomogeneousPoly2
    x2: HomogeneousPoly2

    def __post_init__(self) -> None:
        coords = (self.x0, self.x1, self.x2)
        degrees = {c.degree for c in coords}
        if len(degrees) != 1:
            raise DomainError(f"coordinate degrees differ: {sorted(degrees)}")
        if self.degree < 1:
            raise DomainError("parametrization degree must be at least 1")
        nonzero = [c for c in coords if not c.is_zero]
        if not nonzero:
            raise DomainError("parametrization is identically zero")
        # base-point free: the nonzero coordinates share no power of s or u
        # and their integer cores are coprime.  The common factor is built
        # only to be shown; a lone nonzero coordinate is shown as given.
        if len(nonzero) > 1 and poly2_gcd_parts(nonzero) == (0, 0, (1,)):
            return
        common = nonzero[0] if len(nonzero) == 1 else poly2_gcd(*nonzero)
        raise DomainError(f"parametrization has the common factor {common}; remove base points")

    @property
    def degree(self) -> int:
        return self.x0.degree

    @property
    def coords(self) -> tuple[HomogeneousPoly2, HomogeneousPoly2, HomogeneousPoly2]:
        return (self.x0, self.x1, self.x2)


@dataclass(frozen=True)
class PlaneDivisorComponent:
    """One arrangement component: a nonzero squarefree defining form with an
    orbifold multiplicity.  Squarefreeness is declared input, not checked."""

    label: str
    form: HomogeneousPoly3
    multiplicity: Multiplicity

    def __post_init__(self) -> None:
        if self.form.is_zero:
            raise DomainError(f"component {self.label!r} has the zero defining form")
        if self.form.degree < 1:
            raise DomainError(f"component {self.label!r} must have degree >= 1")


@dataclass(frozen=True)
class ContactRecord:
    """One parameter point (canonical irreducible factor over Q) with the
    contact order against every component whose pullback vanishes there."""

    point: HomogeneousPoly2
    contacts: tuple[tuple[str, int], ...]

    @property
    def orbit_size(self) -> int:
        return self.point.degree


def pullback(curve: ParamPlaneCurve, comp: PlaneDivisorComponent) -> HomogeneousPoly2:
    """Substitute the parametrization into the defining form.

    The result is homogeneous of degree d * deg(form); an identically zero
    pullback means the curve lies inside the component and is an error."""
    result = comp.form.substitute(*curve.coords)
    if result.is_zero:
        raise DomainError(
            f"curve lies inside the support of component {comp.label!r}"
        )
    return result


def contact_orders(
    curve: ParamPlaneCurve, arrangement: Sequence[PlaneDivisorComponent]
) -> list[ContactRecord]:
    """Contact orders of the curve with every arrangement component.

    The squarefree parts of all pullbacks are refined into one basis of
    pairwise coprime pieces, each carrying the exponent every component
    gives it, and each piece is factored over Q once; records are grouped
    by canonical factor, so a point lying on several components yields a
    single record listing all of them."""
    labels_seen: set[str] = set()
    by_point: dict[HomogeneousPoly2, dict[str, int]] = {}
    tagged: list[tuple[tuple[int, ...], dict[str, int]]] = []
    for comp in arrangement:
        if comp.label in labels_seen:
            raise DomainError(f"duplicate component label {comp.label!r}")
        labels_seen.add(comp.label)
        sval, uval, parts = squarefree_parts(pullback(curve, comp))
        for point, exponent in ((_S, sval), (_U, uval)):
            if exponent:
                by_point.setdefault(point, {})[comp.label] = exponent
        tagged += [(part, {comp.label: exponent}) for part, exponent in parts]
    # a piece is squarefree, so each of its factors carries its exponents,
    # and a linear piece is its own factor
    for piece, contacts in coprime_basis(tagged):
        for factor, _ in factor_rational(piece)[1] if len(piece) > 2 else [(piece, 1)]:
            by_point[HomogeneousPoly2(len(factor) - 1, factor)] = contacts
    records = [
        ContactRecord(point, tuple(sorted(contacts.items())))
        for point, contacts in by_point.items()
    ]
    records.sort(key=lambda r: (r.point.degree, r.point.coeffs))
    return records


def _point_labels(record: ContactRecord) -> list[str]:
    """One opaque label per geometric point in the Galois orbit."""
    if any(map(too_long_to_print, record.point.coeffs)):
        raise DomainError(
            f"a degree-{record.orbit_size} contact point has a coefficient over the "
            f"limit of {MAX_COEFF_DIGITS} digits, so it cannot be labeled"
        )
    base = str(record.point)
    if record.orbit_size == 1:
        return [base]
    return [f"{base}#{i}" for i in range(1, record.orbit_size + 1)]


def restrict(
    curve: ParamPlaneCurve,
    arrangement: Sequence[PlaneDivisorComponent],
    variant: RestrictVariant = "Z",
) -> CurveOrbifold:
    """The orbifold divisor the arrangement induces on the parameter line.

    Z (divisible): the smallest integral divisor making the parametrization
    a divisible orbifold morphism, lcm_j of m_j / gcd(m_j, t_j) at each
    point over the components through it.  Q (rational): max_j of m_j / t_j,
    clamped below at 1 (values below 1 cannot be multiplicities)."""
    if variant not in ("Z", "Q"):
        raise DomainError(f"unknown restriction variant {variant!r}")
    for comp in arrangement:
        if variant == "Z" and not comp.multiplicity.is_integral:
            raise DomainError(
                f"divisible restriction needs integral multiplicities; "
                f"component {comp.label!r} has {comp.multiplicity}"
            )
    mults = {comp.label: comp.multiplicity for comp in arrangement}
    entries: list[tuple[str, Multiplicity]] = []
    for record in contact_orders(curve, arrangement):
        parts: list[Multiplicity] = []
        for label, t in record.contacts:
            m = mults[label]
            if m.is_infinite:
                parts.append(INFINITY)
            elif variant == "Z":
                mv = m.as_integer()
                parts.append(Multiplicity(mv // math.gcd(mv, t)))
            else:
                parts.append(Multiplicity(max(Fraction(1), m.finite_value() / t)))
        point_mult = mult_lcm(parts) if variant == "Z" else max(parts)
        if point_mult.is_one:
            continue
        for label in _point_labels(record):
            entries.append((label, point_mult))
    return CurveOrbifold(0, OrbifoldDivisor(entries))


def is_delta_rational(
    curve: ParamPlaneCurve,
    arrangement: Sequence[PlaneDivisorComponent],
    variant: RestrictVariant = "Z",
) -> bool:
    """True iff the chosen restriction has negative canonical degree."""
    return kappa_curve(restrict(curve, arrangement, variant)) is Kappa.MINUS_INFINITY
