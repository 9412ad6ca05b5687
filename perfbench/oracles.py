"""Independent reference arithmetic for checking the program's outputs.

Nothing here imports orbpairs: every check rebuilds its expectation from
plain integers (cyclotomic polynomials, binary-form products, trial
division, brute-force searches, closed-form counts), so a faster but wrong
program fails the benchmark instead of improving it.

Binary forms are integer coefficient tuples indexed by the s-power, the
same orientation the program uses: coeffs[i] multiplies s^i u^(d-i).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

# ---------------------------------------------------------------------------
# binary forms over Z


def form_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return tuple(out)


def form_pow(f, e):
    out = (1,)
    for _ in range(e):
        out = form_mul(out, f)
    return out


def canonical(coeffs):
    """Primitive integer form with a positive top coefficient."""
    fr = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in fr))
    ints = [int(c * den) for c in fr]
    g = math.gcd(*ints)
    top = max(i for i, c in enumerate(ints) if c)
    if ints[top] < 0:
        g = -g
    return tuple(c // g for c in ints)


def _div_exact_monic(f, g):
    """Exact quotient of ascending integer polynomials, g monic."""
    rem = list(f)
    quo = [0] * (len(f) - len(g) + 1)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + len(g) - 1]
        quo[i] = c
        if c:
            for j, b in enumerate(g):
                rem[i + j] -= c * b
    if any(rem):
        raise ArithmeticError("inexact division in the cyclotomic oracle")
    return tuple(quo)


@lru_cache(maxsize=None)
def cyclotomic(n: int):
    """Ascending coefficients of the n-th cyclotomic polynomial."""
    f = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            f = _div_exact_monic(f, cyclotomic(d))
    return f


def fermat_factors(n: int, sign: int) -> dict:
    """Irreducible factors of s^n + sign*u^n as {canonical form: 1}."""
    if sign < 0:
        degrees = [d for d in range(1, n + 1) if n % d == 0]
    else:
        degrees = [d for d in range(1, 2 * n + 1) if (2 * n) % d == 0 and n % d]
    return {cyclotomic(d): 1 for d in degrees}


def forms_proportional(f, g) -> bool:
    if len(f) != len(g):
        return False
    lf, lg = f[-1], g[-1]
    return all(a * lg == b * lf for a, b in zip(f, g))


def check_contacts(records, expected_by_label: dict, pullbacks: dict) -> str | None:
    """Compare contact records with the planted factorization of every
    component and rebuild each pullback from the returned factors.

    ``records`` are (point coeffs, ((label, t), ...)) pairs; a None entry in
    ``expected_by_label`` means only the reconstruction is checked (dense
    forms, whose factorization is not planted)."""
    got: dict = {}
    for point, contacts in records:
        if canonical(point) != tuple(point):
            return f"point {point} is not a canonical primitive form"
        for label, t in contacts:
            got.setdefault(label, {})[tuple(point)] = t
    for label, pull in pullbacks.items():
        factors = got.get(label, {})
        product = (1,)
        degree = 0
        for point, t in factors.items():
            product = form_mul(product, form_pow(point, t))
            degree += (len(point) - 1) * t
        if degree != len(pull) - 1:
            return f"{label}: sum of deg*exponent {degree} != pullback degree {len(pull) - 1}"
        if not forms_proportional(product, pull):
            return f"{label}: product of the returned factors is not the pullback"
        expected = expected_by_label.get(label)
        if expected is not None and factors != expected:
            return f"{label}: factors {sorted(factors.items())} != planted {sorted(expected.items())}"
    if set(got) - set(pullbacks):
        return f"contacts with unknown labels {sorted(set(got) - set(pullbacks))}"
    return None


# ---------------------------------------------------------------------------
# p-full integers


def trial_factor(n: int) -> dict:
    out: dict = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_full(n: int, k: int) -> bool:
    return n >= 1 and all(e >= k for e in trial_factor(n).values())


class SmallestPrimeSieve:
    """Smallest-prime-factor table for brute-force completeness checks."""

    def __init__(self, limit: int) -> None:
        spf = list(range(limit + 1))
        for i in range(2, math.isqrt(limit) + 1):
            if spf[i] == i:
                for j in range(i * i, limit + 1, i):
                    if spf[j] == j:
                        spf[j] = i
        self.limit = limit
        self.spf = spf

    def is_full(self, n: int, k: int) -> bool:
        spf = self.spf
        while n > 1:
            p = spf[n]
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e < k:
                return False
        return True


def check_points(points, p, q, r, max_a, max_b, sign) -> str | None:
    """Soundness of every returned point by trial division, plus order."""
    for a, b in points:
        c = abs(a - b) if sign == "minus" else a + b
        if not (1 <= a <= max_a and 1 <= b <= max_b and a != b and math.gcd(a, b) == 1):
            return f"point {a}/{b} is out of range or not reduced"
        if not (is_full(a, p) and is_full(b, r) and is_full(c, q)):
            return f"point {a}/{b} fails the fullness conditions"
    if list(points) != sorted(points, key=lambda ab: (ab[1], ab[0])):
        return "points are not sorted by (b, a)"
    return None


def brute_points(sieve: SmallestPrimeSieve, p, q, r, max_a, max_b, sign):
    a_vals = [a for a in range(1, max_a + 1) if sieve.is_full(a, p)]
    b_vals = [b for b in range(1, max_b + 1) if sieve.is_full(b, r)]
    out = []
    for b in b_vals:
        for a in a_vals:
            if a == b or math.gcd(a, b) != 1:
                continue
            c = abs(a - b) if sign == "minus" else a + b
            if sieve.is_full(c, q):
                out.append((a, b))
    return out


def exact_root(n: int, k: int) -> int | None:
    """The k-th root of n when n is a perfect k-th power, by bisection."""
    lo, hi = 0, 1
    while hi**k <= n:
        hi *= 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo if lo**k == n else None


def check_witnesses(witnesses, p, q, r, bound) -> str | None:
    for alpha, beta, gamma in witnesses:
        if not (1 <= alpha <= bound and 1 <= beta <= bound and math.gcd(alpha, beta) == 1):
            return f"witness ({alpha}, {beta}) is out of range or not coprime"
        if alpha**p + beta**r != gamma**q:
            return f"witness ({alpha}, {beta}, {gamma}) is not an identity"
    return None


def brute_witnesses(p, q, r, bound):
    out = []
    for beta in range(1, bound + 1):
        for alpha in range(1, bound + 1):
            if math.gcd(alpha, beta) == 1:
                gamma = exact_root(alpha**p + beta**r, q)
                if gamma is not None:
                    out.append((alpha, beta, gamma))
    return out


# ---------------------------------------------------------------------------
# symdiff closed forms


def positive_floor_threshold(p: int, q: int, mults) -> int:
    m = min(mults)
    return math.ceil(Fraction(p) / (q * (1 - Fraction(1, m))))


def multi_index_count(p: int, q: int, mults, extra: int) -> int:
    """Multisets of N q-subsets of {1..p}, summed over the checked N:
    C(C(p,q)+N-1, N) for N = threshold .. threshold + extra."""
    t = positive_floor_threshold(p, q, mults)
    s = math.comb(p, q)
    return sum(math.comb(s + n - 1, n) for n in range(t, t + extra + 1))


def decomposition_count(kj_max: int, q_max: int, m_max: int) -> int:
    """(q+1)-part compositions of every kj <= kj_max, times the m values."""
    compositions = sum(
        math.comb(kj + q, q) for q in range(1, q_max + 1) for kj in range(kj_max + 1)
    )
    return compositions * (m_max - 1)
