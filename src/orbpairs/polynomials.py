"""Exact polynomial arithmetic for contact-order computations.

Univariate polynomials are tuples of coefficients in ascending degree: over Q
they hold Fractions, over Z and modulo a prime they hold ints, and one
schoolbook multiply serves all three.  Homogeneous binary forms in (s, u)
wrap such a tuple indexed by the s-power; homogeneous ternary forms in
(x0, x1, x2) are sparse monomial maps.  Pulling a ternary form back along a
parametrization runs over Z: the coordinates' denominators are cleared
once, powers are built incrementally, and the terms are summed as integers
over one common denominator.  Full factorization over Q is implemented here
and runs on integers after the content is split off once at entry: Yun
squarefree decomposition with primitive pseudo-remainder gcds and exact
integer division, factoring modulo the first odd prime that keeps the part
squarefree (the search is open-ended: only the finitely many primes dividing
lc * discriminant are unusable) by distinct-degree factorization and seeded
Cantor-Zassenhaus equal-degree splitting, quadratic Hensel lifting on a
factor tree past the Mignotte bound, and subset recombination.  A subset
must pass a constant-term divisibility test and a root bound on its
next-to-top coefficient, both read from the lifted factors, before its
product is built and confirmed by exact integer trial division.  Every
factorization is verified by multiplying back before it is returned.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from typing import Iterable, Iterator, Mapping, Sequence

from .orbcore import DomainError

QPoly = tuple[Fraction, ...]
IPoly = tuple[int, ...]
GFPoly = tuple[int, ...]


# ---------------------------------------------------------------------------
# univariate arithmetic over Q, Z and Z/m


def _trim(coeffs: Iterable, modulus: int | None = None) -> tuple:
    """Coefficients reduced modulo `modulus` (if given) without trailing zeros."""
    out = [c % modulus for c in coeffs] if modulus else list(coeffs)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _mul(f: Sequence, g: Sequence) -> list:
    """Schoolbook product of two coefficient sequences, untrimmed."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _sub(f: Sequence, g: Sequence, modulus: int | None = None) -> tuple:
    n = max(len(f), len(g))
    return _trim(
        [(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)], modulus
    )


def _deriv(f: Sequence, modulus: int | None = None) -> tuple:
    return _trim([i * f[i] for i in range(1, len(f))], modulus)


def qdeg(f: QPoly) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(f) - 1


def _primitive(f: Sequence[int]) -> IPoly:
    """Primitive part with positive leading coefficient; () for zero."""
    f = _trim(f)
    if not f:
        return ()
    g = math.gcd(*f)
    if f[-1] < 0:
        g = -g
    return tuple(c // g for c in f)


def content_primitive(f: QPoly) -> tuple[Fraction, IPoly]:
    """Write f = content * primitive with an integer primitive part of
    positive leading coefficient."""
    if not f:
        return Fraction(0), ()
    denom = math.lcm(*(c.denominator for c in f))
    ints = [c.numerator * (denom // c.denominator) for c in f]
    prim = _primitive(ints)
    return Fraction(ints[-1] // prim[-1], denom), prim


def _divide(f: IPoly, g: IPoly) -> IPoly | None:
    """Quotient f / g in Z[x], or None when g does not divide f exactly."""
    rem = list(f)
    n = len(g)
    quo = [0] * max(len(rem) - n + 1, 0)
    for i in range(len(quo) - 1, -1, -1):
        q, r = divmod(rem[i + n - 1], g[-1])
        if r:
            return None
        if q:
            quo[i] = q
            for j, b in enumerate(g):
                rem[i + j] -= q * b
    return tuple(quo) if not any(rem) else None


def _prem(f: IPoly, g: IPoly) -> IPoly:
    """Remainder of c * f by g over Z, c a power of lc(g)."""
    r = list(f)
    n = len(g) - 1
    while len(r) > n:
        c = r.pop()
        if c:
            shift = len(r) - n
            r = [g[-1] * a for a in r]
            for j in range(n):
                r[shift + j] -= c * g[j]
    return _trim(r)


def _gcd(f: IPoly, g: IPoly) -> IPoly:
    """Primitive gcd over Z by the primitive pseudo-remainder sequence."""
    a, b = _primitive(f), _primitive(g)
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a


def squarefree_decomposition(f: QPoly) -> list[tuple[IPoly, int]]:
    """Yun's algorithm over Z via derivative gcds.

    Returns pairwise-coprime primitive squarefree parts with multiplicities,
    so that f is a constant times the product of part^multiplicity."""
    if qdeg(f) < 1:
        raise DomainError("squarefree decomposition needs degree >= 1")
    out: list[tuple[IPoly, int]] = []
    b = content_primitive(f)[1]
    d = _deriv(b)
    i = 0
    # step 0 divides out gcd(f, f'); step i >= 1 splits off the part of
    # multiplicity i as gcd(b, c - b')
    while len(b) > 1:
        a = _gcd(b, d)
        if i and len(a) > 1:
            out.append((a, i))
        b, c = _divide(b, a), _divide(d, a)
        if b is None or c is None:
            raise ArithmeticError("inexact division in squarefree decomposition")
        d = _sub(c, _deriv(b))
        i += 1
    return out


# ---------------------------------------------------------------------------
# arithmetic modulo a prime


def gf_divmod(f: GFPoly, g: GFPoly, p: int) -> tuple[GFPoly, GFPoly]:
    """Quotient and remainder modulo p; lc(g) must be a unit mod p, so p may
    be a prime power when g is monic.  Entries are reduced only where read."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    n = len(g)
    quo = [0] * max(len(f) - n + 1, 0)
    inv = pow(g[-1], -1, p)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + n - 1] * inv % p
        if c:
            quo[i] = c
            rem[i : i + n] = [r - c * b for r, b in zip(rem[i : i + n], g)]
    return _trim(quo, p), _trim(rem[: n - 1], p)


def gf_gcd(f: GFPoly, g: GFPoly, p: int) -> GFPoly:
    a, b = f, g
    while b:
        a, b = b, gf_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = _trim([c * inv for c in a], p)
    return a


def gf_pow_mod(base: GFPoly, e: int, mod: GFPoly, p: int) -> GFPoly:
    result: GFPoly = (1,)
    base = gf_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = gf_divmod(_trim(_mul(result, base), p), mod, p)[1]
        e >>= 1
        if e:
            base = gf_divmod(_trim(_mul(base, base), p), mod, p)[1]
    return result


def gf_inverse_mod(a: GFPoly, mod: GFPoly, p: int) -> GFPoly:
    """Inverse of a modulo (mod, p) by the extended Euclidean algorithm."""
    r0, r1 = mod, gf_divmod(a, mod, p)[1]
    t0: GFPoly = ()
    t1: GFPoly = (1,)
    while r1:
        q, r = gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, _sub(t0, _mul(q, t1), p)
    if len(r0) != 1:
        raise ArithmeticError("element is not invertible")
    inv = pow(r0[0], -1, p)
    return _trim([c * inv for c in t0], p)


def _gf_equal_degree(g: GFPoly, d: int, p: int, rng: random.Random) -> list[GFPoly]:
    """Monic irreducible factors of a monic squarefree g modulo an odd prime
    p when all of them have degree d (Cantor-Zassenhaus)."""
    n = len(g) - 1
    if n == d:
        return [g]
    # a random a is a nonzero square modulo about half of the factors, and
    # exactly there a^((p^d - 1)/2) = 1 (von zur Gathen & Gerhard, 14.8)
    e = (p**d - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)], p)
        s = gf_gcd(g, _sub(gf_pow_mod(a, e, g, p), (1,), p), p)
        if 0 < len(s) - 1 < n:
            rest = gf_divmod(g, s, p)[0]
            return _gf_equal_degree(s, d, p, rng) + _gf_equal_degree(rest, d, p, rng)


# keeps Berlekamp's name: perfbench/tracing.py wraps it by name for its metrics
def gf_berlekamp(f: GFPoly, p: int) -> list[GFPoly]:
    """Monic irreducible factors, sorted, of a monic squarefree polynomial
    modulo an odd prime p: distinct-degree factorization, then equal-degree
    splitting with random elements drawn from a generator seeded by p."""
    rng = random.Random(p)
    factors: list[GFPoly] = []
    rest, h, d = f, (0, 1), 0
    # once every factor of degree <= d is out, a rest of degree below
    # 2(d + 1) is irreducible
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        # h = x^(p^d) mod rest, and x^(p^d) - x is the product of the monic
        # irreducibles whose degree divides d (von zur Gathen & Gerhard, 14.2)
        h = gf_pow_mod(h, p, rest, p)
        g = gf_gcd(rest, _sub(h, (0, 1), p), p)
        if len(g) > 1:
            factors += _gf_equal_degree(g, d, p, rng)
            rest = gf_divmod(rest, g, p)[0]
    if len(rest) > 1:
        factors.append(rest)
    return sorted(factors)


# ---------------------------------------------------------------------------
# factorization over Z / Q


def _odd_primes() -> Iterator[int]:
    """3, 5, 7, 11, ... without end."""
    p = 3
    while True:
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            yield p
        p += 2


def _symmetric(c: int, modulus: int) -> int:
    c %= modulus
    return c - modulus if c > modulus // 2 else c


def _hensel_lift(f: IPoly, modular: list[GFPoly], p: int, k: int) -> list[IPoly]:
    """Lift the congruence f = lc(f) * prod(monic g_i) from mod p to mod p^k;
    returns the monic lifts in the order of the g_i.

    Quadratic lifting on a factor tree (von zur Gathen & Gerhard, 15.10 and
    15.17): the g_i split into two halves of about equal degree, f = g * h
    with h the monic product of the second half, and (g, h) are lifted with
    s = g^-1 mod h along the precisions 1, ..., ceil(k/2), k before each
    half is lifted the same way.  Lifts of coprime monic factors are unique,
    so the result does not depend on the tree's shape."""
    pk = p**k
    if len(modular) == 1:
        inv = pow(f[-1], -1, pk)
        return [_trim([c * inv for c in f], pk)]
    prefix = list(accumulate(len(g) - 1 for g in modular))
    cut = min(range(1, len(modular)), key=lambda i: abs(2 * prefix[i - 1] - prefix[-1]))
    h: GFPoly = (1,)
    for g in modular[cut:]:
        h = _trim(_mul(h, g), p)
    g = gf_divmod(f, h, p)[0]
    s = gf_inverse_mod(g, h, p)
    precisions = [k]
    while precisions[-1] > 1:
        precisions.append((precisions[-1] + 1) // 2)
    for j in reversed(precisions[:-1]):
        modulus = p**j
        # h is monic, so dividing by it needs no inverse modulo p^j
        e = _sub(f, _mul(g, h), modulus)
        delta = gf_divmod(_mul(s, e), h, modulus)[1]
        h = list(h)
        for i, c in enumerate(delta):
            h[i] = (h[i] + c) % modulus
        g = gf_divmod(f, h, modulus)[0]
        if j < k:
            # Newton step for the inverse: s * g = 1 + eps mod h gives
            # s * (2 - s * g) * g = 1 - eps^2
            sg = gf_divmod(_mul(s, g), h, modulus)[1]
            s = gf_divmod(_mul(s, _sub((2,), sg, modulus)), h, modulus)[1]
    return _hensel_lift(g, modular[:cut], p, k) + _hensel_lift(tuple(h), modular[cut:], p, k)


def _zassenhaus(f: IPoly) -> list[IPoly]:
    """Irreducible factors of a primitive squarefree integer polynomial with
    positive leading coefficient."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    lc = f[-1]
    # ends: only the finitely many primes dividing lc * disc(f) are unusable
    for p in _odd_primes():
        if lc % p:
            fp = _trim(f, p)
            if len(gf_gcd(fp, _deriv(fp, p), p)) == 1:
                break
    inv_lc = pow(lc, -1, p)
    modular = gf_berlekamp(_trim([c * inv_lc for c in f], p), p)
    if len(modular) == 1:
        return [f]

    # lift until p^k exceeds twice 2^n * |f|_2 * |lc|, so the symmetric
    # representative of any lc-adjusted true factor is exact (Mignotte)
    norm2 = math.isqrt(sum(c * c for c in f)) + 1
    bound = 2 * (1 << n) * norm2 * abs(lc)
    pk = p
    k = 1
    while pk <= bound:
        pk *= p
        k += 1

    lifted = _hensel_lift(f, modular, p, k)
    degrees = [len(g) - 1 for g in lifted]

    result: list[IPoly] = []
    active = list(range(len(lifted)))
    remaining = f
    size = 1
    while 2 * size <= len(active):
        # a true factor h of remaining shows up as (lc / lc(h)) * h, and p^k
        # exceeds twice its coefficients, so symmetric residues are exact:
        # its constant term divides lc * remaining(0), and its next-to-top
        # coefficient is lc times the sum of deg(h) roots, each at most the
        # Cauchy bound R (Abbott-Shoup-Zimmermann)
        lc = remaining[-1]
        root_bound = 1 + -(-max(abs(c) for c in remaining[:-1]) // lc)
        trailing = lc * remaining[0]
        found = False
        for subset in combinations(active, size):
            degree = sum(degrees[i] for i in subset)
            trace = _symmetric(lc * sum(lifted[i][-2] for i in subset), pk)
            if abs(trace) > lc * degree * root_bound:
                continue
            if trailing:
                constant = lc
                for i in subset:
                    constant = constant * lifted[i][0] % pk
                constant = _symmetric(constant, pk)
                if not constant or trailing % constant:
                    continue
            prod: GFPoly = (lc,)
            for i in subset:
                prod = _trim(_mul(prod, lifted[i]), pk)
            candidate = _primitive([_symmetric(c, pk) for c in prod])
            if len(candidate) < 2:
                continue
            quo = _divide(remaining, candidate)
            if quo is not None:
                result.append(candidate)
                remaining = quo
                active = [i for i in active if i not in subset]
                found = True
                break
        if not found:
            size += 1
    if len(remaining) >= 2:
        result.append(remaining)
    return sorted(result)


def factor_rational(f: QPoly) -> tuple[Fraction, list[tuple[IPoly, int]]]:
    """Factor a nonzero univariate polynomial over Q.

    Returns (content, factors) with primitive integer irreducible factors of
    positive leading coefficient and their exponents, verified by expanding
    the product back."""
    if not f:
        raise DomainError("cannot factor the zero polynomial")
    if qdeg(f) == 0:
        return f[0], []
    content, prim = content_primitive(f)
    factors = [
        (irr, mult) for part, mult in squarefree_decomposition(prim) for irr in _zassenhaus(part)
    ]
    factors.sort(key=lambda fe: (len(fe[0]), fe[0]))
    check: list[int] = [1]
    for irr, e in factors:
        for _ in range(e):
            check = _mul(check, irr)
    if tuple(check) != prim:
        raise ArithmeticError("factorization self-check failed")
    return content, factors


# ---------------------------------------------------------------------------
# homogeneous binary forms in (s, u)


@dataclass(frozen=True)
class HomogeneousPoly2:
    """A homogeneous polynomial in (s, u); coeffs[i] multiplies s^i u^(d-i)."""

    degree: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise DomainError(f"degree must be nonnegative, got {self.degree}")
        cs = tuple(Fraction(c) for c in self.coeffs)
        if len(cs) != self.degree + 1:
            raise DomainError(
                f"degree-{self.degree} form needs {self.degree + 1} coefficients, got {len(cs)}"
            )
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def zero(cls, degree: int) -> "HomogeneousPoly2":
        return cls(degree, (Fraction(0),) * (degree + 1))

    @classmethod
    def variable(cls, name: str) -> "HomogeneousPoly2":
        if name == "s":
            return cls(1, (Fraction(0), Fraction(1)))
        if name == "u":
            return cls(1, (Fraction(1), Fraction(0)))
        raise DomainError(f"unknown parameter variable {name!r}")

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def mul(self, other: "HomogeneousPoly2") -> "HomogeneousPoly2":
        return HomogeneousPoly2(self.degree + other.degree, tuple(_mul(self.coeffs, other.coeffs)))

    def canonical(self) -> "HomogeneousPoly2":
        """Primitive integer form, positive at the top s-power: the canonical
        representative used to group irreducible factors across pullbacks."""
        if self.is_zero:
            raise DomainError("the zero form has no canonical representative")
        prim = content_primitive(_trim(self.coeffs))[1]
        return HomogeneousPoly2(self.degree, prim + (0,) * (self.degree + 1 - len(prim)))

    def factor(self) -> tuple[Fraction, list[tuple["HomogeneousPoly2", int]]]:
        """Factor into canonical irreducible forms with exponents.

        Powers of s and of u split off first; the remainder dehomogenizes to
        a univariate polynomial with nonzero constant term and full degree,
        which is factored over Q and homogenized back."""
        if self.is_zero:
            raise DomainError("cannot factor the zero form")
        sval, uval, core = _split(self)
        out: list[tuple[HomogeneousPoly2, int]] = []
        if sval:
            out.append((HomogeneousPoly2.variable("s"), sval))
        if uval:
            out.append((HomogeneousPoly2.variable("u"), uval))
        if len(core) == 1:
            return core[0], out
        content, factors = factor_rational(core)
        out.extend((HomogeneousPoly2(len(irr) - 1, irr), e) for irr, e in factors)
        out.sort(key=lambda fe: (fe[0].degree, fe[0].coeffs))
        return content, out

    def __str__(self) -> str:
        return render_poly2(self)


def _split(form: HomogeneousPoly2) -> tuple[int, int, QPoly]:
    """(s-valuation, u-valuation, core) of a nonzero form, where the core's
    coefficients are those of form / (s^sval u^uval), lowest s-power first."""
    nonzero = [i for i, c in enumerate(form.coeffs) if c]
    return nonzero[0], form.degree - nonzero[-1], form.coeffs[nonzero[0] : nonzero[-1] + 1]


def poly2_gcd(f: HomogeneousPoly2, g: HomogeneousPoly2) -> HomogeneousPoly2:
    """gcd of two nonzero homogeneous forms, in canonical form."""
    if f.is_zero or g.is_zero:
        raise DomainError("gcd with the zero form")
    fs, fu, fcore = _split(f)
    gs, gu, gcore = _split(g)
    core = _gcd(content_primitive(fcore)[1], content_primitive(gcore)[1])
    coeffs = (0,) * min(fs, gs) + core + (0,) * min(fu, gu)
    return HomogeneousPoly2(len(coeffs) - 1, coeffs)


# ---------------------------------------------------------------------------
# homogeneous ternary forms in (x0, x1, x2)


@dataclass(frozen=True)
class HomogeneousPoly3:
    """A homogeneous form in (x0, x1, x2) as a sparse monomial map."""

    degree: int
    terms: tuple[tuple[tuple[int, int, int], Fraction], ...]

    def __post_init__(self) -> None:
        seen: dict[tuple[int, int, int], Fraction] = {}
        for expo, c in self.terms:
            i, j, k = expo
            if i < 0 or j < 0 or k < 0 or i + j + k != self.degree:
                raise DomainError(
                    f"monomial {expo} is not homogeneous of degree {self.degree}"
                )
            c = Fraction(c)
            if c != 0:
                seen[expo] = seen.get(expo, Fraction(0)) + c
        canon = tuple(sorted((e, c) for e, c in seen.items() if c != 0))
        object.__setattr__(self, "terms", canon)

    @classmethod
    def from_dict(
        cls, degree: int, terms: Mapping[tuple[int, int, int], Fraction | int]
    ) -> "HomogeneousPoly3":
        return cls(degree, tuple((e, Fraction(c)) for e, c in terms.items()))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def substitute(
        self,
        x0: HomogeneousPoly2,
        x1: HomogeneousPoly2,
        x2: HomogeneousPoly2,
    ) -> HomogeneousPoly2:
        """Pull the form back along a degree-d parametrization; the result is
        homogeneous of degree d * deg(form) in (s, u).

        Runs over Z: each coordinate is written x_m = X_m / L_m with integer
        X_m, the powers X_m^e the form uses are built one multiply apart, and
        each term c * X0^i X1^j X2^k is added into one integer coefficient
        list with weight c * L0^(n-i) L1^(n-j) L2^(n-k) over the common
        denominator D * (L0 L1 L2)^n, D the lcm of the form's denominators."""
        if not (x0.degree == x1.degree == x2.degree):
            raise DomainError("parametrization coordinates must share one degree")
        n = self.degree
        scales = [math.lcm(*(c.denominator for c in x.coeffs)) for x in (x0, x1, x2)]
        powers: list[dict[int, list[int]]] = []
        for m, (x, scale) in enumerate(zip((x0, x1, x2), scales)):
            ints = [c.numerator * (scale // c.denominator) for c in x.coeffs]
            used = {expo[m] for expo, _ in self.terms}
            # keep only the exponents in use, so a sparse high-degree form
            # does not hold every intermediate power
            power, kept = [1], {}
            for e in range(max(used, default=0) + 1):
                if e:
                    power = _mul(power, ints)
                if e in used:
                    kept[e] = power
            powers.append(kept)
        scale_powers = [[scale**e for e in range(n + 1)] for scale in scales]
        denom = math.lcm(*(c.denominator for _, c in self.terms))
        total = [0] * (x0.degree * n + 1)
        for (i, j, k), c in self.terms:
            weight = (
                c.numerator * (denom // c.denominator)
                * scale_powers[0][n - i] * scale_powers[1][n - j] * scale_powers[2][n - k]
            )
            for t, v in enumerate(_mul(_mul(powers[0][i], powers[1][j]), powers[2][k])):
                if v:
                    total[t] += weight * v
        common = denom * scale_powers[0][n] * scale_powers[1][n] * scale_powers[2][n]
        return HomogeneousPoly2(len(total) - 1, tuple(Fraction(v, common) for v in total))

    def __str__(self) -> str:
        return render_poly3(self)


# ---------------------------------------------------------------------------
# rendering


def _render_coeff(c: Fraction, varpart: str, first: bool) -> str:
    sign = "-" if c < 0 else ("" if first else "+")
    mag = abs(c)
    if varpart and mag == 1:
        return f"{sign}{varpart}"
    if varpart:
        return f"{sign}{mag}*{varpart}"
    return f"{sign}{mag}"


def _varpart(pairs: Sequence[tuple[str, int]]) -> str:
    parts = []
    for name, e in pairs:
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def render_poly2(form: HomogeneousPoly2) -> str:
    if form.is_zero:
        return "0"
    chunks = []
    first = True
    for i in range(form.degree, -1, -1):
        c = form.coeffs[i]
        if c == 0:
            continue
        varpart = _varpart((("s", i), ("u", form.degree - i)))
        chunks.append(_render_coeff(c, varpart, first))
        first = False
    return "".join(chunks)


def render_poly3(form: HomogeneousPoly3) -> str:
    if form.is_zero:
        return "0"
    chunks = []
    first = True
    for (i, j, k), c in sorted(form.terms, key=lambda t: (-t[0][0], -t[0][1])):
        varpart = _varpart((("x0", i), ("x1", j), ("x2", k)))
        chunks.append(_render_coeff(c, varpart, first))
        first = False
    return "".join(chunks)
