"""Exact arithmetic for orbifold multiplicities and divisors.

A multiplicity is an exact rational in [1, oo) or the distinguished value
infinity; the attached coefficient is 1 - 1/m, so multiplicity 1 means "not
part of the divisor" and infinity is the logarithmic (coefficient 1) case.
An orbifold divisor is a finite formal sum of labeled prime divisors with
such weights.  Everything here is exact: no floats ever enter the arithmetic,
because all downstream decisions branch on exact signs and divisibility.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Mapping, Union

from ._value import dataclass


# The most digits the interpreter converts to a string by default.  The spec
# parser caps every coefficient it builds below this, curverestrict refuses a
# contact point whose label would pass it, family_dim_report a note that
# would, and the CLI refuses any result that passes it when it renders the
# output.
MAX_COEFF_DIGITS = 4300
_COEFF_BOUND = 10**MAX_COEFF_DIGITS
TOO_LONG_RESULT = f"a result has a number of more than {MAX_COEFF_DIGITS} digits"


def too_long_to_print(q: Fraction) -> bool:
    """True iff q's numerator or denominator has over MAX_COEFF_DIGITS digits;
    decided by comparison, without converting q to a string."""
    return max(abs(q.numerator), q.denominator) >= _COEFF_BOUND


class DomainError(ValueError):
    """An operation was applied outside its mathematical domain."""


# The most steps one enumeration may take; it has no override.  It admits
# every run of symdiff-check's former limits (the largest takes 40,320,090),
# and each enumeration weighs its steps so that one takes 20-60 ns (CPython
# 3.11 on a shared 2-vCPU host): the largest admitted runs take 1-2.5 s.
MAX_STEPS = 41 * 10**6


def require_steps(steps: int, what: str) -> None:
    """Refuse work estimated at more than MAX_STEPS steps."""
    if steps > MAX_STEPS:
        raise DomainError(f"{what} takes more than {MAX_STEPS} steps")


class SelfCheckError(ArithmeticError):
    """A built-in mathematical self-check failed: a defect, not a bad input."""


MultiplicityLike = Union["Multiplicity", int, Fraction]


# Not a dataclass: <, hash and text are custom anyway, and a dataclass slows Multiplicity() and ==.
@total_ordering
class Multiplicity:
    """An exact rational weight >= 1, or infinity.

    Infinity is a distinguished state, never a sentinel number.  The
    arithmetic conventions are: t * oo = oo for positive integers t,
    min(oo, x) = x, lcm(oo, x) = oo, and gcd involving oo is undefined.
    """

    __slots__ = ("_value",)

    def __init__(self, value: int | Fraction | None) -> None:
        if value is not None:
            if isinstance(value, float):
                raise DomainError("multiplicities must be exact rationals, not floats")
            value = Fraction(value)
            if value < 1:
                raise DomainError(f"multiplicity {value} is below 1")
        self._value: Fraction | None
        object.__setattr__(self, "_value", value)

    def __setattr__(self, name, val):  # immutable after construction
        raise AttributeError("Multiplicity is immutable")

    @classmethod
    def infinity(cls) -> "Multiplicity":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    @property
    def is_finite(self) -> bool:
        return self._value is not None

    @property
    def is_one(self) -> bool:
        return self._value == 1

    @property
    def is_integral(self) -> bool:
        """True for integers and for infinity (m in Z union {+oo})."""
        return self._value is None or self._value.denominator == 1

    def finite_value(self) -> Fraction:
        if self._value is None:
            raise DomainError("multiplicity is infinite")
        return self._value

    def as_integer(self) -> int:
        v = self.finite_value()
        if v.denominator != 1:
            raise DomainError(f"multiplicity {v} is not integral")
        return v.numerator

    def coefficient(self) -> Fraction:
        """The divisor coefficient 1 - 1/m; infinity maps to 1."""
        if self._value is None:
            return Fraction(1)
        return 1 - Fraction(1, 1) / self._value

    def scale(self, t: int) -> "Multiplicity":
        """t * m for a positive integer t; t * oo = oo."""
        if not isinstance(t, int) or t < 1:
            raise DomainError(f"scaling factor must be a positive integer, got {t!r}")
        if self._value is None:
            return self
        return Multiplicity(self._value * t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multiplicity):
            return NotImplemented
        return self._value == other._value

    def __lt__(self, other) -> bool:
        if not isinstance(other, Multiplicity):
            return NotImplemented
        if self._value is None:
            return False
        if other._value is None:
            return True
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(("Multiplicity", self._value))

    def __str__(self) -> str:
        return "inf" if self._value is None else str(self._value)

    def __repr__(self) -> str:
        return f"Multiplicity({self})"


INFINITY = Multiplicity.infinity()
ONE = Multiplicity(1)


def as_multiplicity(m: MultiplicityLike) -> Multiplicity:
    if isinstance(m, Multiplicity):
        return m
    return Multiplicity(m)


def coefficient(m: MultiplicityLike) -> Fraction:
    """Coefficient 1 - 1/m of a weight-m divisor; infinity gives 1."""
    return as_multiplicity(m).coefficient()


def multiplicity_from_coefficient(c: Fraction | int) -> Multiplicity:
    """Inverse of ``coefficient``: 1 -> infinity, else 1/(1-c)."""
    c = Fraction(c)
    if c < 0 or c > 1:
        raise DomainError(f"coefficient {c} outside [0, 1]")
    if c == 1:
        return INFINITY
    return Multiplicity(1 / (1 - c))


def mult_min(ms: Iterable[MultiplicityLike]) -> Multiplicity:
    """Minimum of a nonempty collection; min(oo, x) = x."""
    items = [as_multiplicity(m) for m in ms]
    if not items:
        raise DomainError("minimum of an empty multiplicity collection")
    return min(items)


def mult_lcm(ms: Iterable[MultiplicityLike]) -> Multiplicity:
    """lcm of integral multiplicities; the only multiple of oo is itself."""
    out = 1
    for m in ms:
        m = as_multiplicity(m)
        if m.is_infinite:
            return INFINITY
        out = math.lcm(out, m.as_integer())
    return Multiplicity(out)


def mult_gcd(ms: Iterable[MultiplicityLike]) -> Multiplicity:
    """gcd of finite integral multiplicities; gcd involving oo is undefined."""
    items = [as_multiplicity(m) for m in ms]
    if not items:
        raise DomainError("gcd of an empty multiplicity collection")
    out = 0
    for m in items:
        if m.is_infinite:
            raise DomainError("gcd involving an infinite multiplicity is undefined")
        out = math.gcd(out, m.as_integer())
    return Multiplicity(out)


@dataclass(frozen=True)
class OrbifoldDivisor:
    """Finite formal sum of labeled prime divisors with multiplicities.

    Entries with multiplicity exactly 1 are normalized away; an absent label
    means multiplicity 1.  Labels are opaque strings and never interpreted.
    Instances are immutable and hashable.
    """

    _entries: Mapping[str, MultiplicityLike] | Iterable[tuple[str, MultiplicityLike]] = ()

    def __post_init__(self) -> None:
        entries = self._entries
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        items: dict[str, Multiplicity] = {}
        seen: set[str] = set()
        for label, m in pairs:
            if label in seen:
                raise DomainError(f"duplicate divisor label {label!r}")
            seen.add(label)
            mult = as_multiplicity(m)
            if not mult.is_one:
                items[label] = mult
        object.__setattr__(self, "_entries", dict(sorted(items.items())))

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def items(self) -> tuple[tuple[str, Multiplicity], ...]:
        return tuple(self._entries.items())

    def multiplicity(self, label: str) -> Multiplicity:
        return self._entries.get(label, ONE)

    @property
    def is_zero(self) -> bool:
        return not self._entries

    @property
    def is_integral(self) -> bool:
        return all(m.is_integral for m in self._entries.values())

    @property
    def is_finite(self) -> bool:
        return all(m.is_finite for m in self._entries.values())

    def sum_coefficients(self) -> Fraction:
        return sum((m.coefficient() for m in self._entries.values()), Fraction(0))

    def __hash__(self) -> int:
        return hash(tuple(self._entries.items()))

    def __len__(self) -> int:
        return len(self._entries)

    def __str__(self) -> str:
        if not self._entries:
            return "0"
        inner = ", ".join(f"{label}: {m}" for label, m in self._entries.items())
        return "{" + inner + "}"

    def __repr__(self) -> str:
        return f"OrbifoldDivisor({self})"


def divisor_leq(delta: OrbifoldDivisor, delta_prime: OrbifoldDivisor) -> bool:
    """The lattice order: delta <= delta' iff delta' - delta is effective
    (labelwise m <= m')."""
    return all(m <= delta_prime.multiplicity(label) for label, m in delta.items())
