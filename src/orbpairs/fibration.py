"""Orbifold bases of fibrations from multiple-fiber data.

A fibration is recorded purely at divisor level: over each base divisor, the
list of (t_k, m_k) pairs for the fiber components mapping onto it (the
f-exceptional part is not representable and must be omitted by callers).
The base multiplicity over a divisor is min_k t_k*m_k in the inf convention
and gcd_k t_k*m_k in the classical one; the classical notion is defined only
for finite integral values.
"""

from __future__ import annotations

from typing import Iterable, Literal, Mapping

from ._value import dataclass
from .orbcore import (
    DomainError,
    Multiplicity,
    MultiplicityLike,
    OrbifoldDivisor,
    as_multiplicity,
    mult_gcd,
    mult_min,
)

BaseMode = Literal["inf", "gcd"]
MorphismMode = Literal["inf", "classical"]


@dataclass(frozen=True)
class FiberComponent:
    """One fiber component: coefficient t in the pulled-back divisor and
    its own orbifold multiplicity m."""

    t: int
    multiplicity: Multiplicity

    def __post_init__(self) -> None:
        if not isinstance(self.t, int) or self.t < 1:
            raise DomainError(f"fiber coefficient must be a positive integer, got {self.t!r}")

    @property
    def scaled(self) -> Multiplicity:
        return self.multiplicity.scale(self.t)


@dataclass(frozen=True)
class FibrationData:
    """Per-base-divisor fiber component lists; every listed divisor has at
    least one component."""

    _fibers: Mapping[str, Iterable[tuple[int, MultiplicityLike]]]

    def __post_init__(self) -> None:
        out: dict[str, tuple[FiberComponent, ...]] = {}
        for label, comps in self._fibers.items():
            parts = tuple(FiberComponent(t, as_multiplicity(m)) for t, m in comps)
            if not parts:
                raise DomainError(f"base divisor {label!r} has no fiber components")
            out[label] = parts
        object.__setattr__(self, "_fibers", dict(sorted(out.items())))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self._fibers)

    def components(self, label: str) -> tuple[FiberComponent, ...]:
        if label not in self._fibers:
            raise DomainError(f"unknown base divisor {label!r}")
        return self._fibers[label]

    def items(self) -> tuple[tuple[str, tuple[FiberComponent, ...]], ...]:
        return tuple(self._fibers.items())

    def __hash__(self) -> int:
        return hash(tuple(self._fibers.items()))


def _check_mode(mode: str) -> None:
    if mode not in ("inf", "gcd"):
        raise DomainError(f"unknown multiplicity mode {mode!r}")


def base_multiplicity(fd: FibrationData, label: str, mode: BaseMode = "inf") -> Multiplicity:
    """Multiplicity of the fiber over a base divisor.

    inf mode: min_k t_k * m_k (total over rationals and infinity).
    gcd mode: gcd_k t_k * m_k, requiring every t_k * m_k to be a finite
    integer; anything else is an error, not a skip.
    """
    _check_mode(mode)
    scaled = [c.scaled for c in fd.components(label)]
    if mode == "inf":
        return mult_min(scaled)
    for m in scaled:
        if m.is_infinite or not m.is_integral:
            raise DomainError(
                f"gcd multiplicity over {label!r} needs finite integral t*m, got {m}"
            )
    return mult_gcd(scaled)


def orbifold_base(fd: FibrationData, mode: BaseMode = "inf") -> OrbifoldDivisor:
    """The orbifold base divisor: each listed label with its base
    multiplicity, multiplicity-1 entries dropped."""
    return OrbifoldDivisor(
        [(label, base_multiplicity(fd, label, mode)) for label in fd.labels]
    )


@dataclass(frozen=True)
class LowerComponent:
    """One component of g*F: coefficient s on the Y-divisor named y_label."""

    s: int
    y_label: str

    def __post_init__(self) -> None:
        if not isinstance(self.s, int) or self.s < 1:
            raise DomainError(f"lower coefficient must be a positive integer, got {self.s!r}")


@dataclass(frozen=True)
class TwoStageData:
    """Composable pair of fibrations X -> Y -> Z at divisor level.

    ``upper`` records f over Y; ``lower`` maps each Z-divisor label to the
    components of its pullback under g, referencing Y-divisor labels that
    must all appear in ``upper``.
    """

    upper: FibrationData
    _lower: Mapping[str, Iterable[tuple[int, str]]]

    def __post_init__(self) -> None:
        low: dict[str, tuple[LowerComponent, ...]] = {}
        known = set(self.upper.labels)
        for z_label, comps in self._lower.items():
            parts = tuple(LowerComponent(s, y_label) for s, y_label in comps)
            if not parts:
                raise DomainError(f"Z-divisor {z_label!r} has no components")
            for part in parts:
                if part.y_label not in known:
                    raise DomainError(
                        f"Y-divisor {part.y_label!r} referenced by {z_label!r} "
                        f"is not in the upper fibration"
                    )
            low[z_label] = parts
        object.__setattr__(self, "_lower", tuple(sorted(low.items())))

    @property
    def lower(self) -> dict[str, tuple[LowerComponent, ...]]:
        return dict(self._lower)


def compose_base(ts: TwoStageData) -> tuple[OrbifoldDivisor, OrbifoldDivisor]:
    """Orbifold base of the composite, both ways.

    direct: flatten to components (s_l * t_{l,k}, m_{l,k}) over each
    Z-divisor and take the inf base.  staged: inf base of the lower stage
    with Y-multiplicities read off the upper stage's inf base.  The two
    always agree; both are returned so callers can assert it.  The inf
    convention is the one the composition rule holds for, so the mode is
    fixed here.
    """
    flattened = {
        z_label: [
            (lc.s * fc.t, fc.multiplicity) for lc in comps for fc in ts.upper.components(lc.y_label)
        ]
        for z_label, comps in ts.lower.items()
    }
    direct = orbifold_base(FibrationData(flattened), "inf")

    upper_base = orbifold_base(ts.upper, "inf")
    staged_data = FibrationData(
        {
            z_label: [(lc.s, upper_base.multiplicity(lc.y_label)) for lc in comps]
            for z_label, comps in ts.lower.items()
        }
    )
    staged = orbifold_base(staged_data, "inf")
    return direct, staged


@dataclass(frozen=True)
class MorphismPair:
    """A pair (E on Y, D on X) with t the coefficient of D in f*E."""

    y_label: str
    x_label: str
    t: int

    def __post_init__(self) -> None:
        if not isinstance(self.t, int) or self.t < 1:
            raise DomainError(f"pullback coefficient must be a positive integer, got {self.t!r}")


@dataclass(frozen=True)
class MorphismData:
    pairs: tuple[MorphismPair, ...]
    delta_x: OrbifoldDivisor
    delta_y: OrbifoldDivisor


@dataclass(frozen=True)
class PairCheck:
    y_label: str
    x_label: str
    t: int
    m_x: Multiplicity
    m_y: Multiplicity
    scaled: Multiplicity
    ok: bool


@dataclass(frozen=True)
class MorphismReport:
    mode: str
    ok: bool
    checks: tuple[PairCheck, ...]


def _divides(m_y: Multiplicity, scaled: Multiplicity) -> bool:
    # the only multiple of +oo is itself; oo itself is a multiple of anything
    if scaled.is_infinite:
        return True
    if m_y.is_infinite:
        return False
    return scaled.as_integer() % m_y.as_integer() == 0


def check_orbifold_morphism(md: MorphismData, mode: MorphismMode = "inf") -> MorphismReport:
    """Check the multiplicity condition for every listed pair.

    inf mode: t * m_X(D) >= m_Y(E).  classical mode: m_Y(E) divides
    t * m_X(D), requiring both divisors to be integral.
    """
    if mode not in ("inf", "classical"):
        raise DomainError(f"unknown morphism mode {mode!r}")
    if mode == "classical":
        if not md.delta_x.is_integral or not md.delta_y.is_integral:
            raise DomainError("classical morphism check requires integral orbifold divisors")
    checks = []
    for pair in md.pairs:
        m_x = md.delta_x.multiplicity(pair.x_label)
        m_y = md.delta_y.multiplicity(pair.y_label)
        scaled = m_x.scale(pair.t)
        if mode == "inf":
            ok = scaled >= m_y
        else:
            ok = _divides(m_y, scaled)
        checks.append(PairCheck(pair.y_label, pair.x_label, pair.t, m_x, m_y, scaled, ok))
    return MorphismReport(mode=mode, ok=all(c.ok for c in checks), checks=tuple(checks))
