"""Exponent combinatorics of symmetric differential sheaves on orbifolds.

Local generators of the N-th symmetric q-differentials adapted to a
multiplicity vector (m_1, ..., m_p) are indexed by N-tuples of q-element
subsets of {1..p}.  Only the integer combinatorics of their exponents is
computed here: occupancy vectors, the ceil/floor exponent pair, the
positive-floor threshold, and the relative (filtration) exponent with its
two-sided bound.  Sheaves themselves are never materialized.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from operator import add
from typing import Iterable, Sequence

from ._value import dataclass
from .orbcore import (
    MAX_STEPS,
    DomainError,
    Multiplicity,
    MultiplicityLike,
    SelfCheckError,
    as_multiplicity,
    require_steps,
)

# The most entries, N * q, one multi-index of a positive-floor check may
# hold; at q = 1 that tuple takes about 46 MB.  Every run within the former
# bounds had N * q <= 200.
_MAX_INDEX_LENGTH = 2 * 10**6


@dataclass(frozen=True)
class MultiIndexJ:
    """An N-tuple of q-element subsets of {1..p}, canonically ordered."""

    p: int
    q: int
    subsets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not 1 <= self.q <= self.p:
            raise DomainError(f"need 1 <= q <= p, got q={self.q}, p={self.p}")
        canon = tuple(sorted(tuple(sorted(s)) for s in self.subsets))
        object.__setattr__(self, "subsets", canon)
        for s in canon:
            if len(s) != self.q or len(set(s)) != self.q:
                raise DomainError(f"subset {s} does not have cardinality {self.q}")
            if not all(1 <= j <= self.p for j in s):
                raise DomainError(f"subset {s} is not contained in 1..{self.p}")


def occupancy(j: MultiIndexJ) -> tuple[int, ...]:
    """k_j = number of subsets containing j; the k_j sum to N*q."""
    counts = [0] * j.p
    for subset in j.subsets:
        for idx in subset:
            counts[idx - 1] += 1
    return tuple(counts)


def floor_coefficient_multiple(k: int, m: Multiplicity) -> int:
    """floor(k * (1 - 1/m)) computed exactly; m = oo gives k."""
    if k < 0:
        raise DomainError(f"occupancy must be nonnegative, got {k}")
    if m.is_infinite:
        return k
    v = m.finite_value()  # m = a/b: floor(k(1 - b/a)) = floor(k(a - b)/a)
    return k * (v.numerator - v.denominator) // v.numerator


def ceil_quotient(k: int, m: Multiplicity) -> int:
    """ceil(k / m) computed exactly; m = oo gives 0 for every k >= 0."""
    if k < 0:
        raise DomainError(f"occupancy must be nonnegative, got {k}")
    if m.is_infinite:
        return 0
    v = m.finite_value()  # m = a/b: ceil(k / m) = ceil(kb / a)
    return -(-k * v.denominator // v.numerator)


def positive_floor_threshold(p: int, q: int, mults: Sequence[Multiplicity]) -> int:
    """Smallest N from which some floor exponent must be positive:
    ceil(p / (q * (1 - 1/m))) with m the minimum multiplicity."""
    m = min(mults)
    c = m.coefficient()
    if c == 0:
        raise DomainError("positive-floor threshold needs all multiplicities > 1")
    return math.ceil(Fraction(p) / (q * c))


def _steps(p: int, q: int, n_values: Iterable[int]) -> int:
    """The steps of checking every multi-index for each N in ``n_values``:
    N * q + p per multi-index (its occupancy increments and threshold
    comparisons).  Exact up to MAX_STEPS; past it, counting stops with some
    larger number."""
    steps, pool = 0, math.comb(p, q)
    for n in n_values:
        cost = n * q + p
        # a draw of n >= 1 subsets has at least `pool` outcomes, so a pool
        # that large is over the bound before math.comb is asked
        over = n and pool * cost > MAX_STEPS
        steps += (pool if over else math.comb(pool + n - 1, n)) * cost
        if steps > MAX_STEPS:
            break
    return steps


@dataclass(frozen=True)
class PositiveFloorReport:
    p: int
    q: int
    mults: tuple[Multiplicity, ...]
    threshold: int
    n_values: tuple[int, ...]
    checked: int
    counterexamples: tuple[tuple[int, MultiIndexJ], ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def check_positive_floor(
    p: int,
    q: int,
    mults: Sequence[MultiplicityLike],
    extra: int = 1,
) -> PositiveFloorReport:
    """Exhaustively verify that at and above the threshold every multi-index
    has some strictly positive floor exponent.

    Enumerates all multi-indices for N = threshold .. threshold + extra and
    reports counterexamples (expected: none).  Refuses to run past MAX_STEPS
    steps, or to hold a multi-index of more than _MAX_INDEX_LENGTH entries.
    """
    if not 1 <= q <= p:
        raise DomainError(f"need 1 <= q <= p, got q={q}, p={p}")
    if len(mults) != p:
        raise DomainError(f"expected {p} multiplicities, got {len(mults)}")
    if extra < 0:
        raise DomainError(f"extra must be >= 0, got {extra}")
    ms = tuple(as_multiplicity(m) for m in mults)
    for m in ms:
        if m.is_finite and m.finite_value() <= 1:
            raise DomainError("positive-floor check requires all multiplicities > 1")
    threshold = positive_floor_threshold(p, q, ms)
    n_values = range(threshold, threshold + extra + 1)
    what = f"enumeration for N = {threshold}..{threshold + extra} over {q}-subsets of 1..{p}"
    require_steps(_steps(p, q, n_values), what)
    if n_values[-1] * q > _MAX_INDEX_LENGTH:
        raise DomainError(
            f"a multi-index of N = {n_values[-1]} {q}-subsets holds N*q = {n_values[-1] * q} "
            f"entries, more than the limit {_MAX_INDEX_LENGTH}"
        )
    # floor(k(1 - 1/m)) does not decrease in k, so index j has a positive
    # floor exponent once its occupancy reaches need[j], the least such k <= N
    # (N + 1 if none), found by bisection: for m near 1 it is far from 0
    need = [
        bisect_left(range(n_values[-1] + 1), True, key=lambda k: floor_coefficient_multiple(k, m) > 0)
        for m in ms
    ]
    checked = 0
    bad: list[tuple[int, MultiIndexJ]] = []
    pool = tuple(combinations(range(1, p + 1), q))
    for n in n_values:
        for subsets in combinations_with_replacement(pool, n):
            checked += 1
            counts = [0] * p
            for subset in subsets:
                for idx in subset:
                    counts[idx - 1] += 1
            if not any(k >= t for k, t in zip(counts, need)):
                bad.append((n, MultiIndexJ(p, q, subsets)))
    return PositiveFloorReport(
        p=p,
        q=q,
        mults=ms,
        threshold=threshold,
        n_values=tuple(n_values),
        checked=checked,
        counterexamples=tuple(bad),
    )


def relative_exponent(
    kj: int, decomposition: Sequence[int], m: MultiplicityLike, q: int
) -> int:
    """The filtration exponent floor(kj(1-1/m)) - sum_{r>=1} floor(k(r)(1-1/m))
    for a decomposition (k(0), ..., k(q)) of kj, with its two-sided bound
    floor(k(0)(1-1/m)) <= value <= q + floor(k(0)(1-1/m)) checked
    (SelfCheckError on failure).

    ``check_relative_exponent_bounds`` decides the same bound from extremes
    of floor sums; ``test_floor_tables_match_relative_exponent`` pins the
    two together, so change both when the bound changes."""
    mult = as_multiplicity(m)
    if not mult.is_integral:
        raise DomainError(f"relative exponent requires an integral multiplicity, got {mult}")
    parts = list(decomposition)
    if len(parts) != q + 1:
        raise DomainError(f"decomposition must have q+1 = {q + 1} parts, got {len(parts)}")
    if any(not isinstance(x, int) or x < 0 for x in parts):
        raise DomainError(f"decomposition parts must be nonnegative integers: {parts}")
    if sum(parts) != kj:
        raise DomainError(f"decomposition {parts} does not sum to {kj}")
    total = floor_coefficient_multiple(kj, mult)
    value = total - sum(floor_coefficient_multiple(x, mult) for x in parts[1:])
    low = floor_coefficient_multiple(parts[0], mult)
    if not low <= value <= q + low:
        raise SelfCheckError(
            f"relative exponent {value} outside [{low}, {q + low}] for kj={kj}, "
            f"decomposition {parts}, m={mult}"
        )
    return value


@dataclass(frozen=True)
class BoundsReport:
    checked: int
    violations: tuple[tuple[int, tuple[int, ...], int], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_relative_exponent_bounds(
    kj_max: int, q_max: int, m_max: int
) -> BoundsReport:
    """Exhaustive verification of the relative-exponent bounds over all
    decompositions with kj <= kj_max, 1 <= q <= q_max, 2 <= m <= m_max.

    With f the table of floor(k(1-1/m)), k <= kj_max, a decomposition
    (k0, ..., kq) of kj meets the bound of ``relative_exponent`` exactly when
    f(kj) - q <= f(k0) + ... + f(kq) <= f(kj).  The least and greatest floor
    sums over the r-part compositions of each t follow from those over r - 1
    parts by a (min, +) and a (max, +) convolution with f, so they decide
    every decomposition of a kj, or of a kj with a given k0, at once; only a
    group (q, kj, k0) that fails is enumerated, to list its violations.
    Refuses more than MAX_STEPS steps before any work: a convolution term
    is one step, and each m, table entry, level (m, q) and t of a level is
    32, so that a step takes 30-60 ns whatever the grid's shape (CPython
    3.11 on a shared 2-vCPU host)."""
    size, ms = max(kj_max + 1, 0), range(2, m_max + 1)
    steps = len(ms) * (32 + 32 * size + max(q_max, 0) * (32 + size * (size + 33)))
    require_steps(steps, f"relative-exponent grid kj <= {kj_max}, q <= {q_max}, m <= {m_max}")
    # the (q+1)-part compositions of kj <= kj_max number C(kj_max + 1 + q, q + 1)
    checked = len(ms) * sum(math.comb(size + q, q + 1) for q in range(1, q_max + 1))
    violations: list[tuple[int, tuple[int, ...], int]] = []
    for m in ms:
        f = [floor_coefficient_multiple(k, Multiplicity(m)) for k in range(size)]
        lows = highs = f  # the least and greatest floor sums of q parts; wide_*: q + 1
        for q in range(1, q_max + 1):
            wide_lows, wide_highs = _convolve(min, f, lows), _convolve(max, f, highs)
            for kj in range(size):
                if wide_lows[kj] >= f[kj] - q and wide_highs[kj] <= f[kj]:
                    continue
                for k0 in range(kj + 1):
                    if f[k0] + lows[kj - k0] >= f[kj] - q and f[k0] + highs[kj - k0] <= f[kj]:
                        continue
                    violations.extend(
                        (kj, (k0, *tail), m)
                        for tail in _compositions(kj - k0, q)
                        if not f[kj] - q <= f[k0] + sum(f[x] for x in tail) <= f[kj]
                    )
            lows, highs = wide_lows, wide_highs
    # in the order of an enumeration by q, kj, decomposition, then m
    violations.sort(key=lambda v: (len(v[1]), v[0], v[1], v[2]))
    return BoundsReport(checked=checked, violations=tuple(violations))


def _convolve(pick, table: list[int], level: list[int]) -> list[int]:
    """pick (min or max) of table[a] + level[t - a] over a <= t, for each t."""
    return [pick(map(add, table[: t + 1], level[t::-1])) for t in range(len(table))]


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail

