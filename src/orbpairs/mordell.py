"""p-full integers and rational point searches on three-marked orbifold lines.

An integer is p-full when every prime in its factorization appears with
exponent at least p (1 is vacuously p-full).  For the orbifold line marked
(p, q, r) at 0, 1, infinity, the non-classical rational points are the
coprime fractions a/b with a p-full, b r-full and a-b q-full.  The point
search enumerates the p-full, r-full and q-full values in range once each
and decides q-fullness of a-b by membership in the enumerated set; trial
division (``factorize``, ``is_p_full``) is kept for single values.  The
classical points come from exact power identities alpha^p + beta^r =
gamma^q.  All power and root computations are exact integer arithmetic.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from ._value import dataclass
from .curveclass import CurveOrbifold, Kappa, kappa_curve
from .orbcore import MAX_STEPS, DomainError, require_steps


@dataclass(frozen=True)
class OrbifoldP1Triple:
    """Multiplicities at 0, 1 and infinity; each at least 2."""

    p: int
    q: int
    r: int

    def __post_init__(self) -> None:
        for name, v in (("p", self.p), ("q", self.q), ("r", self.r)):
            if not isinstance(v, int) or v < 2:
                raise DomainError(f"{name} must be an integer >= 2, got {v!r}")


@dataclass(frozen=True)
class RationalPoint:
    """A normalized point x = a/b: positive coprime integers, a != b."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 1:
            raise DomainError(f"point coordinates must be positive, got ({self.a}, {self.b})")
        if self.a == self.b:
            raise DomainError("a = b gives the marked point x = 1")
        if math.gcd(self.a, self.b) != 1:
            raise DomainError(f"({self.a}, {self.b}) is not reduced")


@dataclass(frozen=True)
class ClassicalWitness:
    """Coprime (alpha, beta) with alpha^p + beta^r = gamma^q exactly."""

    alpha: int
    beta: int
    gamma: int


def primes_up_to(n: int) -> list[int]:
    """Primes <= n by the sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, flag in enumerate(sieve) if flag]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of |n| by trial division, as (prime, exponent)."""
    if n == 0:
        raise DomainError("0 has no prime factorization")
    n = abs(n)
    out: list[tuple[int, int]] = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def is_p_full(n: int, p: int) -> bool:
    """True iff every prime dividing n does so with exponent >= p."""
    if p < 2:
        raise DomainError(f"fullness exponent must be >= 2, got {p}")
    if n == 0:
        raise DomainError("0 is neither p-full nor p-defective")
    return all(e >= p for _, e in factorize(n))


def enumerate_p_full(limit: int, p: int) -> list[int]:
    """All p-full integers in [1, limit], ascending, including 1.

    Generates products of prime powers with exponents >= p directly, so the
    cost scales with the output size (at least limit^(1/p) values) rather
    than with the limit.  The sieve to limit^(1/p) is one step per number
    and each value 32; every n^p with n <= limit^(1/p) is p-full, so the
    steps are checked once before sieving and again as the values grow.
    """
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit}")
    if p < 2:
        raise DomainError(f"fullness exponent must be >= 2, got {p}")
    root = integer_nth_root(limit, p)
    what = f"enumerating the {p}-full values up to {limit}"
    require_steps(33 * root, what)
    primes = primes_up_to(root)
    most = (MAX_STEPS - root) // 32
    out: list[int] = []

    def extend(start: int, value: int) -> None:
        out.append(value)
        if len(out) > most:
            require_steps(root + 32 * len(out), what)
        for i in range(start, len(primes)):
            power = primes[i] ** p
            if value > limit // power:
                break
            v = value * power
            while v <= limit:
                extend(i + 1, v)
                if v > limit // primes[i]:
                    break
                v *= primes[i]

    extend(0, 1)
    return sorted(out)


@dataclass(frozen=True)
class DensityReport:
    """Counting diagnostics against the expected X^(1/p) growth, with the
    p-full values counted."""

    limit: int
    p: int
    count: int
    ratio: float
    slope: float
    checkpoints: tuple[tuple[int, int], ...]
    values: tuple[int, ...]


def density_report(limit: int, p: int) -> DensityReport:
    """Counts of p-full integers at dyadic checkpoints with the fitted
    log-log slope (expected near 1/p) and the count/limit^(1/p) ratio."""
    if limit < 10**3:
        raise DomainError(f"density report needs limit >= 1000, got {limit}")
    values = enumerate_p_full(limit, p)
    # fit over at most 8 dyadic checkpoints: deeper ones leave the
    # asymptotic regime and the lower-order terms bend the slope
    checkpoints: list[tuple[int, int]] = []
    x = limit
    while x >= 100 and len(checkpoints) < 8:
        checkpoints.append((x, bisect_right(values, x)))
        x //= 2
    xs = [math.log(x) for x, _ in checkpoints]
    ys = [math.log(c) for _, c in checkpoints]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    slope = sum((a - mean_x) * (b - mean_y) for a, b in zip(xs, ys)) / sum(
        (a - mean_x) ** 2 for a in xs
    )
    count = len(values)
    return DensityReport(
        limit=limit,
        p=p,
        count=count,
        ratio=count / math.exp(math.log(limit) / p),  # limit may exceed any float
        slope=slope,
        checkpoints=tuple(checkpoints),
        values=tuple(values),
    )


def search_points(
    triple: OrbifoldP1Triple,
    max_a: int,
    max_b: int,
    sign: str = "minus",
    b_range: tuple[int, int] | None = None,
) -> list[RationalPoint]:
    """All points a/b with a p-full <= max_a, b r-full <= max_b, gcd(a,b)=1,
    a != b, and |a-b| (sign="minus") or a+b (sign="plus") q-full.

    The a- and b-values and the q-full values up to the largest candidate
    the searched a- and b-values can make are each enumerated once; a
    candidate is q-full exactly when it lies in that set, so no candidate
    is factorized.  Testing a pair is 4 steps.

    Results are sorted by (b, a).  ``b_range`` restricts the denominators to
    a closed interval so disjoint shards can be searched independently and
    merged; the merged output is identical to the unsharded one.
    """
    if max_a < 1 or max_b < 1:
        raise DomainError(f"search bounds must be >= 1, got ({max_a}, {max_b})")
    if sign not in ("minus", "plus"):
        raise DomainError(f"unknown sign convention {sign!r}")
    a_values = enumerate_p_full(max_a, triple.p)
    b_values = enumerate_p_full(max_b, triple.r)
    if b_range is not None:
        lo, hi = b_range
        b_values = [b for b in b_values if lo <= b <= hi]
    if not b_values:
        return []
    n_a, n_b = len(a_values), len(b_values)
    require_steps(4 * n_a * n_b, f"a search over {n_a} a-values and {n_b} b-values")
    # every candidate |a-b| or a+b is at most this bound, so one enumeration
    # of the q-full values decides them all by membership; a = b is coprime
    # only at 1, where the candidate is 0 or 2 and neither is q-full
    minus = sign == "minus"
    a_top, b_top = a_values[-1], b_values[-1]
    c_max = max(a_top, b_top) if minus else a_top + b_top
    q_full = set(enumerate_p_full(c_max, triple.q))
    found: list[RationalPoint] = []
    for b in b_values:
        for a in a_values:
            c = abs(a - b) if minus else a + b
            if c in q_full and math.gcd(a, b) == 1:
                found.append(RationalPoint(a, b))
    return found


def merge_point_lists(shards: list[list[RationalPoint]]) -> list[RationalPoint]:
    """Deterministic merge of disjoint shard outputs, sorted by (b, a)."""
    merged = [pt for shard in shards for pt in shard]
    merged.sort(key=lambda pt: (pt.b, pt.a))
    return merged


def search_classical(
    triple: OrbifoldP1Triple, max_alpha: int, max_beta: int
) -> list[ClassicalWitness]:
    """All coprime (alpha, beta) in range with alpha^p + beta^r an exact
    q-th power, with the root gamma reported.

    A pair whose powers have at most b bits takes 30 + b/6 + b^2/40000
    steps: the root extraction divides b-bit numbers a few times."""
    if max_alpha < 1 or max_beta < 1:
        raise DomainError(f"search bounds must be >= 1, got ({max_alpha}, {max_beta})")
    bits = max(triple.p * max_alpha.bit_length(), triple.r * max_beta.bit_length())
    steps = max_alpha * max_beta * (30 + bits // 6 + bits * bits // 40000)
    require_steps(steps, f"a classical search over alpha <= {max_alpha} and beta <= {max_beta}")
    out: list[ClassicalWitness] = []
    for beta in range(1, max_beta + 1):
        for alpha in range(1, max_alpha + 1):
            if math.gcd(alpha, beta) != 1:
                continue
            total = alpha**triple.p + beta**triple.r
            ok, gamma = is_perfect_power(total, triple.q)
            if ok:
                out.append(ClassicalWitness(alpha, beta, gamma))
    return out


def is_general_type_triple(triple: OrbifoldP1Triple) -> bool:
    """Exact test 1/p + 1/q + 1/r < 1 via the curve classifier."""
    curve = CurveOrbifold.from_multiplicities(0, (triple.p, triple.q, triple.r))
    return kappa_curve(curve) is Kappa.ONE


def integer_nth_root(n: int, k: int) -> int:
    """floor(n^(1/k)) by exact integer Newton iteration."""
    if n < 0:
        raise DomainError(f"nth root of a negative integer, got {n}")
    if k < 1:
        raise DomainError(f"root index must be >= 1, got {k}")
    if n in (0, 1) or k == 1:
        return n
    # n < 2^k, so the root is 1; this also keeps x^(k-1) below from growing
    # to k bits for a huge k
    if k >= n.bit_length():
        return 1
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    return x


def is_perfect_power(n: int, k: int) -> tuple[bool, int]:
    """Exact test whether n is a k-th power; returns (flag, root)."""
    if n < 1:
        raise DomainError(f"perfect-power test needs a positive integer, got {n}")
    root = integer_nth_root(n, k)
    if root**k == n:
        return True, root
    return False, 0
