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
squarefree decomposition with heuristic gcds and exact integer division
(a part squarefree modulo 3, 5 or 7 needs none),
factoring modulo the first odd prime that keeps the part squarefree (only
the finitely many primes dividing lc * discriminant are unusable), or past
20 modular factors there the one of the next four such primes with the
fewest, by distinct-degree factorization and seeded Cantor-Zassenhaus
equal-degree splitting, both raising to powers in
GF(p)[x]/(m) on Kronecker-packed residues (one machine-integer slot per
coefficient, so a product is one int multiply and a fold of the high slots),
quadratic Hensel lifting on a factor tree past the Mignotte bound for
factors of half the degree, and recombination over subsets of at most half
the degree.  A subset must pass a constant-term divisibility test and a
root bound on its next-to-top coefficient, both read from the lifted
factors, before its product is built and confirmed by exact integer trial
division.  Every factorization is verified by multiplying back before it is
returned.  The degree-0 and degree-1 cases are decided in the kernels
alone: `_gcd` trial divides by a linear operand, `squarefree_decomposition`
gives a constant no parts, and it and `_zassenhaus` return a linear
polynomial as it is.  Division modulo p or p^k is one loop, which the gcds,
the residue rings and the Hensel steps run for the remainder alone.  The squarefree parts of several forms refine
into one coprime basis, so a factor they share is factored once.
"""

from __future__ import annotations

import math
import operator
import random
import struct
import sys
from fractions import Fraction
from itertools import accumulate, combinations, islice
from typing import Iterable, Iterator, Mapping, Sequence

from ._value import dataclass
from .orbcore import DomainError, SelfCheckError

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


def _gcd(f: IPoly, g: IPoly) -> IPoly:
    """Primitive gcd over Z.  A linear operand is irreducible, so one trial
    division decides it; otherwise the heuristic gcd (Char, Geddes and Gonnet,
    J. Symbolic Comput. 7, 1989) runs: a candidate is read from the symmetric
    base-xi digits of the integer gcd of the primitive parts' values at xi.
    With xi >= 2 * min(|a|oo, |b|oo) + 2 a common factor r the candidate
    missed has |r(xi)| > xi / 2 and divides its content, which is at most
    xi / 2: so a candidate whose primitive part divides both is the gcd.
    Otherwise xi grows; past twice the gcd's height times the cofactors'
    resultant the digits are an integer multiple of the gcd."""
    a, b = sorted((_primitive(f), _primitive(g)), key=len)
    if len(a) < 2:  # a zero or constant operand
        return (1,) if a else b
    if len(a) == 2:  # a linear operand is irreducible: the gcd if it divides the other
        return a if _divide(b, a) is not None else (1,)
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    while True:
        h = math.gcd(_evaluate(a, xi), _evaluate(b, xi))
        digits = []
        while h:
            digits.append(_symmetric(h, xi))
            h = (h - digits[-1]) // xi
        candidate = _primitive(digits)
        if _divide(a, candidate) is not None and _divide(b, candidate) is not None:
            return candidate
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011  # (1 + sqrt 3) * xi^(5/4)


def _evaluate(f: IPoly, x: int) -> int:
    """f(x) by Horner's rule."""
    value = 0
    for c in reversed(f):
        value = value * x + c
    return value


def squarefree_decomposition(f: QPoly) -> list[tuple[IPoly, int]]:
    """Yun's algorithm over Z via derivative gcds.

    Returns pairwise-coprime primitive squarefree parts with multiplicities,
    so that f is a constant times the product of part^multiplicity; a
    nonzero constant has no parts."""
    if not f:
        raise DomainError("cannot decompose the zero polynomial")
    b = content_primitive(f)[1]
    if len(b) == 1:
        return []
    # a linear b is squarefree; a factor repeated over Z stays repeated
    # modulo a prime that keeps the degree, so b squarefree modulo one such
    # prime is squarefree
    if len(b) == 2 or any(_squarefree_mod(b, p) for p in (3, 5, 7)):
        return [(b, 1)]
    out: list[tuple[IPoly, int]] = []
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
            raise SelfCheckError("inexact division in squarefree decomposition")
        d = _sub(c, _deriv(b))
        i += 1
    return out


# ---------------------------------------------------------------------------
# arithmetic modulo a prime


def gf_rem(f: GFPoly, g: GFPoly, p: int, quo: list[int] | None = None) -> GFPoly:
    """Remainder of f by g modulo p, and the quotient's reduced coefficients
    in `quo` if given len(f) - len(g) + 1 zeros there.  lc(g) must be a unit
    mod p, so p may be a prime power when g is monic, which needs no
    inverse.  Entries are reduced only where read."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    n = len(g) - 1
    lead = g[-1] % p
    inv = 1 if lead == 1 else pow(lead, -1, p)
    for i in range(len(rem) - n - 1, -1, -1):
        c = rem[i + n] * inv % p
        if c:
            if quo is not None:
                quo[i] = c
            # rem[i + n] is now 0 mod p and is never read again
            rem[i : i + n] = [r - c * b for r, b in zip(rem[i : i + n], g)]
    return _trim(rem[:n], p)


def gf_divmod(f: GFPoly, g: GFPoly, p: int) -> tuple[GFPoly, GFPoly]:
    """Quotient and remainder modulo p, under `gf_rem`'s conditions."""
    quo = [0] * max(len(f) - len(g) + 1, 0)
    rem = gf_rem(f, g, p, quo)
    return _trim(quo), rem


def gf_gcd(f: GFPoly, g: GFPoly, p: int) -> GFPoly:
    a, b = f, g
    while b:
        a, b = b, gf_rem(a, b, p)
    return _monic_mod(a, p) if a else a


def _monic_mod(f: Sequence[int], p: int) -> GFPoly:
    """f times the inverse of its leading coefficient, reduced mod p."""
    inv = pow(f[-1], -1, p)
    return _trim([c * inv for c in f], p)


def _squarefree_mod(f: IPoly, p: int) -> bool:
    """Whether f keeps its degree modulo p and is squarefree there."""
    if not f[-1] % p:
        return False
    fp = _trim(f, p)
    return len(gf_gcd(fp, _deriv(fp, p), p)) == 1


class _Residues:
    """GF(p)[x]/(m) for a fixed modulus m of degree >= 1, residues held as
    reduced coefficient tuples: the arithmetic for primes too wide to pack."""

    def __init__(self, m: GFPoly, p: int) -> None:
        self.m, self.p = m, p

    def pack(self, f: GFPoly) -> GFPoly:
        return gf_rem(f, self.m, self.p)

    def unpack(self, a: GFPoly) -> GFPoly:
        return a

    def mul(self, a: GFPoly, b: GFPoly) -> GFPoly:
        return gf_rem(_mul(a, b), self.m, self.p)

    def pow(self, a, e: int):
        """a^e by left-to-right square-and-multiply."""
        if not e:
            return self.pack((1,))
        result = a
        for bit in bin(e)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        return result


class _PackedResidues(_Residues):
    """GF(p)[x]/(m) with each residue Kronecker-packed into one int, one
    machine-integer slot per coefficient.  A product is one int multiply;
    its high slots x^(n+j) are folded back by adding their coefficient mod p
    times the packed row x^(n+j) mod m, and one pass takes every slot mod p.
    No slot exceeds (2n - 1)(p - 1)^2, so `_residues` picks the narrowest
    struct type code whose slots hold that."""

    def __init__(self, m: GFPoly, p: int, code: str) -> None:
        super().__init__(m, p)
        n = self.n = len(m) - 1
        self.code, self.size = code, struct.calcsize(code)
        self.layout = struct.Struct(f"{n}{code}")
        w = 8 * self.size
        self.low = (1 << w * n) - 1
        inv = pow(m[-1], -1, p)
        # rows[j] = x^(n+j) mod m, each from the last by one shift and fold
        row = self._pack([-c * inv % p for c in m[:-1]])
        rows = [row]
        for _ in range(n - 2):
            row <<= w
            row = self._reduce((row & self.low) + (row >> w * n) * rows[0])
            rows.append(row)
        self.rows = rows

    def _pack(self, coeffs: Sequence[int]) -> int:
        """The packed residue of exactly n reduced coefficients."""
        return int.from_bytes(self.layout.pack(*coeffs), sys.byteorder)

    def _slots(self, a: int, count: int) -> memoryview:
        return memoryview(a.to_bytes(self.size * count, sys.byteorder)).cast(self.code)

    def _reduce(self, a: int) -> int:
        p = self.p
        return self._pack([c % p for c in self._slots(a, self.n)])

    def pack(self, f: GFPoly) -> int:
        r = super().pack(f)
        return self._pack(r + (0,) * (self.n - len(r)))

    def unpack(self, a: int) -> GFPoly:
        return _trim(self._slots(a, self.n))

    def mul(self, a: int, b: int) -> int:
        p, n = self.p, self.n
        prod = a * b
        high = [c % p for c in self._slots(prod, 2 * n - 1)[n:]]
        return self._reduce((prod & self.low) + sum(map(operator.mul, high, self.rows)))


def _residues(m: GFPoly, p: int) -> _Residues:
    """Arithmetic modulo (m, p) for m of degree >= 1 with a unit leading
    coefficient: packed in the narrowest slots that cannot overflow, or as
    coefficient tuples when no type code is wide enough."""
    bound = (2 * len(m) - 3) * (p - 1) ** 2
    for code in "BHIQ":
        if bound < 1 << 8 * struct.calcsize(code):
            return _PackedResidues(m, p, code)
    return _Residues(m, p)


def gf_inverse_mod(a: GFPoly, mod: GFPoly, p: int) -> GFPoly:
    """Inverse of a modulo (mod, p) by the extended Euclidean algorithm."""
    r0, r1 = mod, gf_rem(a, mod, p)
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
    ring = _residues(g, p)
    while True:
        a = ring.pack([rng.randrange(p) for _ in range(n)])
        s = gf_gcd(g, _sub(ring.unpack(ring.pow(a, e)), (1,), p), p)
        if 0 < len(s) - 1 < n:
            rest = gf_divmod(g, s, p)[0]
            return _gf_equal_degree(s, d, p, rng) + _gf_equal_degree(rest, d, p, rng)


def _gf_distinct_degree(f: GFPoly, p: int) -> list[tuple[GFPoly, int]]:
    """Distinct-degree factorization of a monic squarefree polynomial modulo
    an odd prime p: pairs (g, d), d increasing, with g the product of the
    monic irreducible factors of degree d, for every d that has one."""
    out: list[tuple[GFPoly, int]] = []
    rest, x_pd, d, ring = f, (0, 1), 0, None
    # once every factor of degree <= d is out, a rest of degree below
    # 2(d + 1) is irreducible
    while len(rest) - 1 >= 2 * (d + 1):
        if ring is None or ring.m is not rest:
            # one kernel per rest: a new rest divides the old one, so
            # x^(p^d) reduces on to it
            ring = _residues(rest, p)
            h = ring.pack(x_pd)
        d += 1
        # h = x^(p^d) mod rest, packed, and x^(p^d) - x is the product of the
        # monic irreducibles whose degree divides d (von zur Gathen & Gerhard,
        # 14.2)
        h = ring.pow(h, p)
        x_pd = ring.unpack(h)
        g = gf_gcd(rest, _sub(x_pd, (0, 1), p), p)
        if len(g) > 1:
            out.append((g, d))
            rest = gf_divmod(rest, g, p)[0]
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


# keeps Berlekamp's name: perfbench/tracing.py wraps it by name for its metrics
def gf_berlekamp(f: GFPoly, p: int) -> list[GFPoly]:
    """Monic irreducible factors, sorted, of a monic squarefree polynomial
    modulo an odd prime p: distinct-degree factorization, then equal-degree
    splitting with random elements drawn from a generator seeded by p."""
    rng = random.Random(p)
    return sorted(
        factor
        for g, d in _gf_distinct_degree(f, p)
        for factor in _gf_equal_degree(g, d, p, rng)
    )


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
        return [_monic_mod(f, pk)]
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
    moduli = [p**j for j in reversed(precisions[:-1])]
    # h is monic, so dividing by it needs no inverse modulo p^j.  The
    # correction s * (f - g*h) mod h is s * (f mod h) mod h whatever the
    # precision of g, so no product g*h is formed, and one division by each
    # new h gives g at this precision and f mod h at the next.
    e = gf_rem(f, h, moduli[0]) if moduli else ()
    for modulus, following in zip(moduli, moduli[1:] + [pk]):
        delta = gf_rem(_mul(s, e), h, modulus)
        h = list(h)
        for i, c in enumerate(delta):
            h[i] = (h[i] + c) % modulus
        g, e = gf_divmod(f, h, following)
        if modulus < pk:
            # Newton step for the inverse: s * g = 1 + eps mod h gives
            # s * (2 - s * g) * g = 1 - eps^2
            sg = gf_rem(_mul(s, g), h, modulus)
            s = gf_rem(_mul(s, _sub((2,), sg, modulus)), h, modulus)
    return _hensel_lift(g, modular[:cut], p, k) + _hensel_lift(tuple(h), modular[cut:], p, k)


def _zassenhaus(f: IPoly) -> list[IPoly]:
    """Irreducible factors of a primitive squarefree integer polynomial with
    positive leading coefficient."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    lc = f[-1]
    # endless: only the finitely many primes dividing lc * disc(f) are unusable
    primes = (p for p in _odd_primes() if _squarefree_mod(f, p))
    p = next(primes)
    modular = gf_berlekamp(_monic_mod(f, p), p)
    if len(modular) > 20:
        # recombination grows with the number of modular factors, which
        # varies with the prime: past 20, count them at the next 4 usable
        # primes by distinct-degree factorization alone and take the fewest
        count, q = min(
            (sum((len(g) - 1) // d for g, d in _gf_distinct_degree(_monic_mod(f, q), q)), q)
            for q in islice(primes, 4)
        )
        if count < len(modular):
            p, modular = q, gf_berlekamp(_monic_mod(f, q), q)
    if len(modular) == 1:
        return [f]

    # a true factor is found together with its cofactor, so only factors of
    # degree <= n/2 are searched for; lift until p^k exceeds twice
    # 2^(n/2) * |f|_2 * |lc|, so the symmetric representative of any
    # lc-adjusted true factor of that degree is exact (Mignotte)
    norm2 = math.isqrt(sum(c * c for c in f)) + 1
    bound = 2 * (1 << n // 2) * norm2 * abs(lc)
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
    # subsets of `size` factors all have degree above half of remaining's
    # once its `size` smallest active factors do
    while sum(sorted(degrees[i] for i in active)[:size]) <= (half := (len(remaining) - 1) // 2):
        # a true factor h of remaining shows up as (lc / lc(h)) * h, and p^k
        # exceeds twice its coefficients, so symmetric residues are exact:
        # its constant term divides lc * remaining(0), and its next-to-top
        # coefficient is lc times the sum of deg(h) roots, each at most the
        # Cauchy bound R (Abbott-Shoup-Zimmermann)
        lc = remaining[-1]
        root_bound = 1 + -(-max(abs(c) for c in remaining[:-1]) // lc)
        trailing = lc * remaining[0]
        for subset in combinations(active, size):
            degree = sum(degrees[i] for i in subset)
            if degree > half:
                continue
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
            quo = _divide(remaining, candidate)
            if quo is not None:
                result.append(candidate)
                remaining = quo
                active = [i for i in active if i not in subset]
                break
        else:
            size += 1
    if len(remaining) >= 2:
        result.append(remaining)
    return result


def factor_rational(f: QPoly) -> tuple[Fraction, list[tuple[IPoly, int]]]:
    """Factor a nonzero univariate polynomial over Q.

    Returns (content, factors) with primitive integer irreducible factors of
    positive leading coefficient and their exponents, verified by expanding
    the product back.  A constant or linear polynomial needs no rule of its
    own here: `squarefree_decomposition` gives a constant no parts, and it
    and `_zassenhaus` return a linear polynomial as it is."""
    if not f:
        raise DomainError("cannot factor the zero polynomial")
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
        raise SelfCheckError("factorization self-check failed")
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
        cs = tuple(c if type(c) is Fraction else Fraction(c) for c in self.coeffs)
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
        return not any(self.coeffs)

    def mul(self, other: "HomogeneousPoly2") -> "HomogeneousPoly2":
        return HomogeneousPoly2(self.degree + other.degree, tuple(_mul(self.coeffs, other.coeffs)))

    def __str__(self) -> str:
        return render_poly2(self)


def _split(form: HomogeneousPoly2) -> tuple[int, int, QPoly]:
    """(s-valuation, u-valuation, core) of a nonzero form, where the core's
    coefficients are those of form / (s^sval u^uval), lowest s-power first."""
    nonzero = [i for i, c in enumerate(form.coeffs) if c]
    return nonzero[0], form.degree - nonzero[-1], form.coeffs[nonzero[0] : nonzero[-1] + 1]


def squarefree_parts(form: HomogeneousPoly2) -> tuple[int, int, list[tuple[IPoly, int]]]:
    """(s-valuation, u-valuation, squarefree parts with multiplicities) of a
    nonzero form: Yun's parts of its integer core."""
    sval, uval, core = _split(form)
    return sval, uval, squarefree_decomposition(core)


def coprime_basis(parts: Iterable[tuple[IPoly, dict]]) -> list[tuple[IPoly, dict]]:
    """Factor refinement (Bach, Driscoll and Shallit, J. Algorithms 15, 1993)
    of primitive squarefree polynomials tagged with dicts: pairwise coprime
    pieces, each tagged with the union of the tags of the parts it divides.
    A part meets each piece b once: g = gcd(b, f), for f what is left of the
    part, becomes a piece and so does b / g, both coprime to f / g as b is
    squarefree."""
    basis: list[tuple[IPoly, dict]] = []
    for f, tag in parts:
        refined = []
        for b, btag in basis:
            if len(f) > 1 and len(g := _gcd(b, f)) > 1:
                refined.append((g, btag | tag))
                b, f = _divide(b, g), _divide(f, g)
            if len(b) > 1:
                refined.append((b, btag))
        if len(f) > 1:
            refined.append((f, tag))
        basis = refined
    return basis


def poly2_gcd_parts(forms: Sequence[HomogeneousPoly2]) -> tuple[int, int, IPoly]:
    """(s-valuation, u-valuation, integer core) of the gcd of nonzero forms:
    the least powers of s and of u, and the primitive gcd of the forms'
    integer cores, which is (1,) once they are coprime."""
    svals, uvals, cores = zip(*map(_split, forms))
    core: IPoly = ()
    for fcore in sorted(cores, key=len):  # shortest first: a monomial ends it at once
        core = _gcd(core, content_primitive(fcore)[1]) if len(fcore) > 1 else (1,)
        if len(core) == 1:
            break
    return min(svals), min(uvals), core


def poly2_gcd(*forms: HomogeneousPoly2) -> HomogeneousPoly2:
    """gcd of nonzero homogeneous forms, in canonical form: the least powers
    of s and of u times the gcd of the forms' integer cores."""
    if any(f.is_zero for f in forms):
        raise DomainError("gcd with the zero form")
    sval, uval, core = poly2_gcd_parts(forms)
    coeffs = (0,) * sval + core + (0,) * uval
    return HomogeneousPoly2(len(coeffs) - 1, coeffs)


# ---------------------------------------------------------------------------
# homogeneous ternary forms in (x0, x1, x2)


@dataclass(frozen=True)
class HomogeneousPoly3:
    """A homogeneous form in (x0, x1, x2) as a sparse monomial map."""

    degree: int
    terms: tuple[tuple[tuple[int, int, int], Fraction], ...]

    def __post_init__(self) -> None:
        # a monomial map: canonical terms are sorted, with nonzero Fractions
        canon = sorted((e, c if type(c) is Fraction else Fraction(c)) for e, c in self.terms if c)
        object.__setattr__(self, "terms", tuple(canon))

    @classmethod
    def from_dict(
        cls, degree: int, terms: Mapping[tuple[int, int, int], Fraction | int]
    ) -> "HomogeneousPoly3":
        """The form with these terms, each monomial checked to have degree
        ``degree``; the constructor itself trusts its monomials."""
        for i, j, k in terms:
            if min(i, j, k) < 0 or i + j + k != degree:
                raise DomainError(f"monomial {(i, j, k)} is not homogeneous of degree {degree}")
        return cls(degree, tuple(terms.items()))

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


def _render(terms: Iterable[tuple[Sequence[int], Fraction]], names: Sequence[str]) -> str:
    """The nonzero terms in the order given: a sign, the magnitude unless
    it is 1 before a monomial, and the monomial, with exponent 1 left off."""
    chunks = []
    for expo, c in terms:
        if c == 0:
            continue
        monomial = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, expo) if e)
        if not monomial:
            body = str(abs(c))
        elif abs(c) == 1:
            body = monomial
        else:
            body = f"{abs(c)}*{monomial}"
        chunks.append(("-" if c < 0 else "+") + body)
    return "".join(chunks).removeprefix("+") or "0"


def render_poly2(form: HomogeneousPoly2) -> str:
    d = form.degree
    return _render((((i, d - i), form.coeffs[i]) for i in range(d, -1, -1)), ("s", "u"))


def render_poly3(form: HomogeneousPoly3) -> str:
    terms = sorted(form.terms, key=lambda t: (-t[0][0], -t[0][1]))
    return _render(terms, ("x0", "x1", "x2"))
