import math
import random
from fractions import Fraction
from itertools import combinations, zip_longest

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from orbpairs import polynomials
from orbpairs.orbcore import DomainError, SelfCheckError
from orbpairs.polynomials import (
    HomogeneousPoly2,
    HomogeneousPoly3,
    _deriv,
    _divide,
    _hensel_lift,
    _mul,
    _odd_primes,
    _primitive,
    _sub,
    _symmetric,
    _trim,
    content_primitive,
    factor_rational,
    gf_berlekamp,
    gf_divmod,
    gf_gcd,
    gf_inverse_mod,
    poly2_gcd,
    qdeg,
    render_poly2,
    render_poly3,
    squarefree_decomposition,
)
from cross_checks import gf_pow_mod
from text_layer_reference import render_poly2 as reference_render_poly2
from text_layer_reference import render_poly3 as reference_render_poly3
from timeguard import time_guard


RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))

SWINNERTON_DYER_16 = (
    46225, 0, -5596840, 0, 13950764, 0, -7453176, 0, 1513334, 0, -141912, 0, 6476, 0, -136, 0, 1,
)


def qpoly(coeffs):
    return _trim(Fraction(c) for c in coeffs)


def qmul(f, g):
    return qpoly(_mul(f, g))


def qscale(f, c):
    return qpoly([a * c for a in f])


def power(form, e):
    result = HomogeneousPoly2(0, (1,))
    for _ in range(e):
        result = result.mul(form)
    return result


def substitute_reference(form, x0, x1, x2):
    """The power-and-add pullback in Fraction arithmetic: each x_m^e by e
    multiplications (cached), the terms added one at a time."""
    powers = {}
    total = [Fraction(0)] * (x0.degree * form.degree + 1)
    for (i, j, k), c in form.terms:
        term = HomogeneousPoly2(0, (1,))
        for x, e in ((x0, i), (x1, j), (x2, k)):
            if (id(x), e) not in powers:
                powers[id(x), e] = power(x, e)
            term = term.mul(powers[id(x), e])
        for t, a in enumerate(term.coeffs):
            total[t] += c * a
    return HomogeneousPoly2(len(total) - 1, tuple(total))


def swinnerton_dyer(primes):
    """The product of x - (+-sqrt(q1) +- ... +- sqrt(qm)) over all signs, one
    prime q at a time: with y^2 = q, P(x + y) = A + y*B and
    P(x + y) * P(x - y) = A^2 - q*B^2."""
    poly = (0, 1)
    for q in primes:
        a, b = [0], [0]
        for c in reversed(poly):
            # (A + y*B) * (x + y) + c = (x*A + c + q*B) + y*(A + x*B)
            a, b = (
                [u + q * v for u, v in zip_longest([c] + a, b, fillvalue=0)],
                [u + v for u, v in zip_longest(a, [0] + b, fillvalue=0)],
            )
        poly = _sub(_mul(a, a), [q * v for v in _mul(b, b)])
    return poly


def modular_setup(f):
    """The prime, the monic modular factors and the exponent k that the
    factoring code uses for a primitive squarefree f of degree >= 2."""
    for p in _odd_primes():
        if f[-1] % p:
            fp = _trim(f, p)
            if len(gf_gcd(fp, _deriv(fp, p), p)) == 1:
                break
    inv_lc = pow(f[-1], -1, p)
    modular = gf_berlekamp(_trim([c * inv_lc for c in f], p), p)
    bound = 2 * (1 << (len(f) - 1)) * (math.isqrt(sum(c * c for c in f)) + 1) * abs(f[-1])
    k = 1
    while p**k <= bound:
        k += 1
    return p, modular, k


def prem_reference(f, g):
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


def gcd_reference(f, g):
    """Primitive gcd over Z by the primitive pseudo-remainder sequence, the
    gcd that the squarefree decomposition used before the heuristic gcd."""
    a, b = _primitive(f), _primitive(g)
    while b:
        a, b = b, _primitive(prem_reference(a, b))
    return a


def pow_mod_reference(base, e, mod, p):
    """base^e modulo (mod, p) by right-to-left square-and-multiply on lists,
    with schoolbook products and remainders."""

    def reduce(f):
        f = [c % p for c in f]
        inv = pow(mod[-1], -1, p)
        while len(f) >= len(mod):
            c = f[-1] * inv % p
            shift = len(f) - len(mod)
            for i, b in enumerate(mod):
                f[shift + i] = (f[shift + i] - c * b) % p
            f.pop()
        return _trim(f)

    def times(f, g):
        out = [0] * (len(f) + len(g))
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] += a * b
        return reduce(out)

    mod = _trim(mod, p)
    result, base = reduce([1]), reduce(base)
    while e:
        if e & 1:
            result = times(result, base)
        e >>= 1
        base = times(base, base)
    return result


def hensel_lift_reference(f, modular, p, k):
    """Linear lifting: k - 1 steps, each rebuilding the product of all factors
    mod p^(j+1) and correcting every factor by one p-adic digit."""
    lc = f[-1]
    gs = [list(g) for g in modular]
    inverses = []
    for i, g in enumerate(modular):
        others = (lc % p,)
        for j, h in enumerate(modular):
            if j != i:
                others = _trim(_mul(others, h), p)
        inverses.append(gf_inverse_mod(others, g, p))
    pj = p
    for _ in range(1, k):
        modulus = pj * p
        prod = (lc % modulus,)
        for g in gs:
            prod = _trim(_mul(prod, g), modulus)
        ebar = _trim([c // pj for c in _sub(f, prod, modulus)], p)
        for i, g in enumerate(gs):
            delta = gf_divmod(_trim(_mul(ebar, inverses[i]), p), _trim(g, p), p)[1]
            for deg, c in enumerate(delta):
                g[deg] = (g[deg] + pj * c) % modulus
        pj = modulus
    return [tuple(g) for g in gs]


def zassenhaus_reference(f):
    """Linear lifting, then every subset's product built before a
    trailing-coefficient test and trial division."""
    if len(f) <= 2:
        return [f]
    p, modular, k = modular_setup(f)
    if len(modular) == 1:
        return [f]
    pk = p**k
    lifted = hensel_lift_reference(f, modular, p, k)
    result = []
    active = list(range(len(lifted)))
    remaining = f
    size = 1
    while 2 * size <= len(active):
        found = False
        for subset in combinations(active, size):
            prod = (remaining[-1] % pk,)
            for idx in subset:
                prod = _trim(_mul(prod, lifted[idx]), pk)
            candidate = _primitive([_symmetric(c, pk) for c in prod])
            if len(candidate) < 2:
                continue
            if candidate[0] and remaining[0] % candidate[0]:
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


def factor_reference(poly):
    content, prim = content_primitive(poly)
    factors = [
        (irr, mult) for part, mult in squarefree_decomposition(prim) for irr in zassenhaus_reference(part)
    ]
    return content, sorted(factors, key=lambda fe: (len(fe[0]), fe[0]))


def is_irreducible_mod(f, p):
    """Rabin's test for a monic f of degree d: x^(p^d) = x mod f, and
    x^(p^(d/r)) - x is prime to f for every prime r dividing d."""
    d = len(f) - 1
    x = gf_divmod((0, 1), f, p)[1]
    if gf_pow_mod(x, p**d, f, p) != x:
        return False
    primes = [r for r in range(2, d + 1) if d % r == 0 and all(r % t for t in range(2, r))]
    return all(len(gf_gcd(f, _sub(gf_pow_mod(x, p ** (d // r), f, p), x, p), p)) == 1 for r in primes)


def assert_modular_factorization(f, factors, p):
    """The factors are sorted, monic and irreducible mod p, with product f."""
    assert factors == sorted(factors)
    product = (1,)
    for g in factors:
        product = _trim(_mul(product, g), p)
    assert product == f
    assert all(g[-1] == 1 and is_irreducible_mod(g, p) for g in factors)


def expand(factors):
    out = qpoly([1])
    for coeffs, e in factors:
        for _ in range(e):
            out = qmul(out, qpoly(coeffs))
    return out


class TestFactorRational:
    def test_known_factorizations(self):
        cases = [
            # (x-1)^2 (x+2) (x^2+1)
            (expand([((-1, 1), 2), ((2, 1), 1), ((1, 0, 1), 1)]),
             [((-1, 1), 2), ((1, 0, 1), 1), ((2, 1), 1)]),
            # x^4 - 4 = (x^2-2)(x^2+2)
            (qpoly([-4, 0, 0, 0, 1]), [((-2, 0, 1), 1), ((2, 0, 1), 1)]),
            # 6x^2 + 5x + 1 = (2x+1)(3x+1)
            (qpoly([1, 5, 6]), [((1, 2), 1), ((1, 3), 1)]),
            # x^4 + 1 irreducible over Q
            (qpoly([1, 0, 0, 0, 1]), [((1, 0, 0, 0, 1), 1)]),
            # x^6 - 1 = (x-1)(x+1)(x^2+x+1)(x^2-x+1)
            (qpoly([-1, 0, 0, 0, 0, 0, 1]),
             [((-1, 1), 1), ((1, 1), 1), ((1, -1, 1), 1), ((1, 1, 1), 1)]),
            # x^3 (double content)
            (qpoly([0, 0, 0, 2]), [((0, 1), 3)]),
            # x^24 - 1: the cyclotomic polynomials of the 8 divisors of 24
            (qpoly([-1] + [0] * 23 + [1]),
             [((-1, 1), 1), ((1, 1), 1), ((1, 1, 1), 1), ((1, 0, 1), 1), ((1, -1, 1), 1),
              ((1, 0, 0, 0, 1), 1), ((1, 0, -1, 0, 1), 1), ((1, 0, 0, 0, -1, 0, 0, 0, 1), 1)]),
            # Swinnerton-Dyer polynomial for sqrt 2, 3, 5, 7: irreducible, but
            # it splits into factors of degree <= 2 modulo every prime
            (qpoly(SWINNERTON_DYER_16), [(SWINNERTON_DYER_16, 1)]),
            # -3/4 x^3 (x+1)^2: content and a negative leading coefficient
            (qscale(expand([((0, 1), 3), ((1, 1), 2)]), Fraction(-3, 4)),
             [((0, 1), 3), ((1, 1), 2)]),
            # x (x-1) (x^2+1) and x (x^4+1): a squarefree part with a zero
            # constant term, where the constant-term test cannot apply; mod 3
            # x^4+1 splits into two quadratics, so x must be found on its own
            (expand([((0, 1), 1), ((-1, 1), 1), ((1, 0, 1), 1)]),
             [((0, 1), 1), ((-1, 1), 1), ((1, 0, 1), 1)]),
            (expand([((0, 1), 1), ((1, 0, 0, 0, 1), 1)]), [((0, 1), 1), ((1, 0, 0, 0, 1), 1)]),
        ]
        for poly, expected in cases:
            _, factors = factor_rational(poly)
            assert sorted(factors) == sorted(expected), poly

    def test_x105_minus_1(self):
        # the core of s^105 - u^105: thousands of recombination candidates
        # pass the constant-term test (cyclotomic constant terms are +-1),
        # and the trace test rejects nearly all of them
        poly = qpoly([-1] + [0] * 104 + [1])
        with time_guard(5):
            _, factors = factor_rational(poly)
        # the cyclotomic polynomials of 1, 3, 5, 7, 15, 21, 35 and 105
        assert [(len(f) - 1, e) for f, e in factors] == [
            (1, 1), (2, 1), (4, 1), (6, 1), (8, 1), (12, 1), (24, 1), (48, 1)
        ]
        assert expand(factors) == poly

    def test_swinnerton_dyer_32(self):
        # irreducible over Q, but a product of factors of degree <= 2 modulo
        # every prime: every subset up to half the modular factors is tried
        poly = swinnerton_dyer([2, 3, 5, 7, 11])
        assert swinnerton_dyer([2, 3, 5, 7]) == SWINNERTON_DYER_16
        assert len(poly) == 33
        with time_guard(5):
            _, factors = factor_rational(qpoly(poly))
        assert factors == [(poly, 1)]

    def test_lifted_far_enough_for_every_factor(self, monkeypatch):
        # an lc-adjusted factor of degree d <= n/2 has coefficients up to
        # C(d, j) * |f|_2 (Mignotte), and only p^k above twice the largest,
        # C(n//2, n//4) * |f|_2, recovers every such factor from symmetric
        # residues; the tested factors stay far below that, so a too-low p^k
        # must be caught here, not by a wrong factorization
        lifts = set()
        lift = polynomials._hensel_lift

        def spy(f, modular, p, k):
            lifts.add((p, k))
            return lift(f, modular, p, k)

        monkeypatch.setattr(polynomials, "_hensel_lift", spy)
        # x^105 - 1, SD16 and (2x^2 + 1)(3x^4 - x + 5): squarefree and primitive
        for poly in [(-1,) + (0,) * 104 + (1,), SWINNERTON_DYER_16, (5, -1, 10, -2, 3, 0, 6)]:
            lifts.clear()
            factor_rational(qpoly(poly))
            ((p, k),) = lifts
            n = len(poly) - 1
            assert p ** (2 * k) > 4 * math.comb(n // 2, n // 4) ** 2 * sum(c * c for c in poly), (n, p, k)

    def test_squared_factor_of_degree_60(self):
        # g^2 * h with deg g = 60, deg h = 80 and 30-bit coefficients: the
        # squarefree step's gcd of a degree-200 part and its derivative is g
        rng = random.Random(2024)
        g, h = (
            _primitive([rng.randint(-(2**30), 2**30) for _ in range(d)] + [rng.randint(1, 2**30)])
            for d in (60, 80)
        )
        poly = qpoly(_mul(_mul(g, g), h))
        with time_guard(2):
            content, factors = factor_rational(poly)
        assert content == 1 and factors == [(g, 2), (h, 1)]

    def test_large_first_usable_prime(self):
        # P x^6 + 1 with P the product of the odd primes below 2000: the
        # first prime not dividing the leading coefficient is 2003, and
        # splitting modulo it must not cost time linear in the prime
        big = math.prod(q for q in range(3, 2000, 2) if all(q % t for t in range(3, q, 2)))
        poly = (1, 0, 0, 0, 0, 0, big)
        with time_guard(2):
            _, factors = factor_rational(qpoly(poly))
        assert factors == [(poly, 1)]
        p, modular, _ = modular_setup(poly)
        assert p == 2003 and len(modular) > 1 and all(is_irreducible_mod(g, p) for g in modular)

    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(lambda cs: cs[-1]),
        st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=5).filter(lambda cs: cs[-1]),
                 max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_lifting_and_recombination_match_reference(self, with_zero_root, others):
        # products of small integer polynomials, one factor with a zero
        # constant term, against the linear lifter and the subset loop that
        # builds every product before testing it
        poly = expand([((0, *with_zero_root), 1)] + [(tuple(cs), 1) for cs in others])
        assume(2 <= qdeg(poly) <= 16)
        for part, _ in squarefree_decomposition(poly):
            if len(part) > 2:
                p, modular, k = modular_setup(part)
                if len(modular) > 1:
                    assert _hensel_lift(part, modular, p, k) == hensel_lift_reference(part, modular, p, k)
        assert factor_rational(poly) == factor_reference(poly)

    @given(
        st.lists(st.integers(0, 1008), min_size=2, max_size=13),
        st.sampled_from([3, 5, 7, 11, 41, 1009]),
    )
    @settings(max_examples=150, deadline=None)
    def test_berlekamp_factors_are_irreducible(self, coeffs, p):
        f = _trim(coeffs[:-1] + [1], p)
        assume(len(f) > 2 and len(gf_gcd(f, _deriv(f, p), p)) == 1)
        assert_modular_factorization(f, gf_berlekamp(f, p), p)

    @given(
        st.integers(0, 2**32),
        st.sampled_from([3, 5, 7, 1009]),
        st.integers(2, 4),
        st.integers(3, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_berlekamp_splits_equal_degree_products(self, seed, p, d, count):
        # every factor has degree d, so distinct-degree factorization leaves
        # one product and the equal-degree recursion does all the splitting;
        # GF(3) has only three monic irreducible quadratics
        count = min(count, 3) if (p, d) == (3, 2) else count
        rng = random.Random(seed)
        chosen = set()
        while len(chosen) < count:
            g = tuple(rng.randrange(p) for _ in range(d)) + (1,)
            if is_irreducible_mod(g, p):
                chosen.add(g)
        f = (1,)
        for g in chosen:
            f = _trim(_mul(f, g), p)
        factors = gf_berlekamp(f, p)
        assert_modular_factorization(f, factors, p)
        assert factors == sorted(chosen)

    @given(
        st.sampled_from([3, 5, 7, 41, 1009, 2003, 65521, 2**31 - 1, 2**61 - 1]),
        st.data(),
        st.booleans(),
        st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_pow_mod_matches_reference(self, p, data, monic, e):
        # slots of 8, 16, 32 and 64 bits all occur below degree 60; 2^31 - 1
        # packs only up to degree 2 and 2^61 - 1 never, so both also take
        # the unpacked path
        n = data.draw(st.integers(0, 60))
        mod = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)))
        mod += (1,) if monic else (data.draw(st.integers(1, p - 1)),)
        base = tuple(data.draw(st.lists(st.integers(-p, 2 * p), max_size=2 * n + 3)))
        assert gf_pow_mod(base, e, mod, p) == pow_mod_reference(base, e, mod, p)

    def test_pow_mod_edge_cases(self):
        for p in (3, 2003, 2**61 - 1):
            for mod in ((1, 2, 0, 1), (1, 2, 0, 2)):
                # e = 0, a zero base, a base longer than the modulus
                assert gf_pow_mod((5, 1), 0, mod, p) == (1,)
                assert gf_pow_mod((), 7, mod, p) == ()
                assert gf_pow_mod((), 0, mod, p) == (1,)
                long_base = tuple(range(1, 12))
                assert gf_pow_mod(long_base, 3, mod, p) == pow_mod_reference(long_base, 3, mod, p)
            # a constant modulus leaves only the zero residue
            assert gf_pow_mod((5, 1), 0, (4,), p) == ()
            assert gf_pow_mod((5, 1), 9, (4,), p) == ()
        # a modulus whose top coefficient vanishes mod p has lower degree
        assert gf_pow_mod((0, 1), 5, (1, 1, 3), 3) == (2,)
        assert gf_pow_mod((0, 1), 2, (1, 0, 1, 5), 5) == (4,)
        # an exponent with many bits, as in equal-degree splitting
        e = (17**12 - 1) // 2
        mod = (3, 0, 5, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1)
        assert gf_pow_mod((1, 1), e, mod, 17) == pow_mod_reference((1, 1), e, mod, 17)

    def test_berlekamp_x210_minus_1_mod_17(self):
        # twelve of the factors have degree 12, the order of 17 modulo 35,
        # and splitting them raises to (17^12 - 1)/2, an exponent of 49 bits
        f = (16,) + (0,) * 209 + (1,)
        with time_guard(5):
            factors = gf_berlekamp(f, 17)
        assert len(factors) == 28
        assert_modular_factorization(f, factors, 17)

    def test_half_degree_recombination(self):
        # the degree-16 Swinnerton-Dyer polynomial, more than half of the
        # degree, times three linear factors: 11 factors mod 11, and subsets
        # of degree <= 9 include sizes a loop over half the factor count
        # never reaches
        poly = expand([(SWINNERTON_DYER_16, 1), ((-1, 1), 1), ((2, 1), 1), ((1, 2), 1)])
        _, factors = factor_rational(poly)
        assert factors == [((-1, 1), 1), ((1, 2), 1), ((2, 1), 1), (SWINNERTON_DYER_16, 1)]
        assert factor_rational(poly) == factor_reference(poly)
        # two irreducible factors of degree exactly n/2 (Eisenstein at 2 in
        # x -+ 1), not monic and with binomial coefficients: 5 factors mod 7,
        # so the true factors are subsets of degree exactly half
        g = tuple(3 * math.comb(6, i) + 2 * (i == 0) for i in range(7))
        h = tuple(5 * math.comb(6, i) * (-1) ** i - 2 * (i == 0) for i in range(7))
        poly = expand([(g, 1), (h, 1)])
        p, modular, _ = modular_setup(_primitive([int(c) for c in poly]))
        assert (p, sorted(len(m) - 1 for m in modular)) == (7, [2, 2, 2, 3, 3])
        _, factors = factor_rational(poly)
        assert factors == [(h, 1), (g, 1)]
        assert factor_rational(poly) == factor_reference(poly)

    def test_content_tracking(self):
        content, factors = factor_rational(qscale(qpoly([1, 2, 1]), Fraction(3, 4)))
        assert content == Fraction(3, 4)
        assert factors == [((1, 1), 2)]

    def test_cyclotomic_like(self):
        # x^4 + x^3 + x^2 + x + 1 is irreducible
        _, factors = factor_rational(qpoly([1, 1, 1, 1, 1]))
        assert len(factors) == 1 and factors[0][1] == 1

    def test_swinnerton_dyer_style(self):
        # (x^2-2)(x^2-3)(x^2-6): pairwise products are squares patterns that
        # stress the recombination stage
        poly = expand([((-2, 0, 1), 1), ((-3, 0, 1), 1), ((-6, 0, 1), 1)])
        _, factors = factor_rational(poly)
        assert sorted(factors) == [((-6, 0, 1), 1), ((-3, 0, 1), 1), ((-2, 0, 1), 1)]

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            factor_rational(qpoly([]))

    def test_random_reconstruction(self):
        rng = random.Random(42)
        for _ in range(150):
            degree = rng.randint(1, 9)
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree)]
            coeffs.append(Fraction(rng.randint(1, 9)))
            poly = qpoly(coeffs)
            if qdeg(poly) < 1:
                continue
            content, factors = factor_rational(poly)
            assert qscale(expand(factors), content) == poly

    def test_products_of_known_irreducibles(self):
        irreducibles = [(-1, 1), (1, 1), (2, 1), (1, 0, 1), (-2, 0, 1), (1, 1, 1), (3, -1, 2)]
        rng = random.Random(17)
        for _ in range(100):
            chosen = {}
            for _ in range(rng.randint(1, 4)):
                f = rng.choice(irreducibles)
                chosen[f] = chosen.get(f, 0) + rng.randint(1, 2)
            poly = expand(sorted(chosen.items()))
            _, factors = factor_rational(poly)
            assert sorted(factors) == sorted(chosen.items())


INT_POLYS = st.lists(st.integers(-40, 40), max_size=6).map(_trim)


class TestLinearFactors:
    """A linear polynomial is its own irreducible factor: factor_rational
    returns its content and primitive part without the squarefree and
    modular stages, as the reference factorization does with them."""

    @pytest.mark.parametrize("coeffs,content,primitive", [
        ((-3, 2), Fraction(1), (-3, 2)),
        ((4, -6), Fraction(-2), (-2, 3)),  # negative leading coefficient
        ((Fraction(1, 2), Fraction(-2, 3)), Fraction(-1, 6), (-3, 4)),
        ((0, 5), Fraction(5), (0, 1)),  # zero constant term
        ((0, Fraction(-7, 4)), Fraction(-7, 4), (0, 1)),
        ((Fraction(-9, 2), 3), Fraction(3, 2), (-3, 2)),
    ])
    def test_known_linear(self, coeffs, content, primitive):
        poly = qpoly(coeffs)
        assert factor_rational(poly) == (content, [(primitive, 1)])
        assert factor_rational(poly) == factor_reference(poly)

    @given(RATIONALS, RATIONALS.filter(bool))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, constant, leading):
        poly = (constant, leading)
        assert factor_rational(poly) == factor_reference(poly)

    def test_contact_orders_of_lines(self):
        # lines against the four lines x0, x1, x2, x0+x1+x2: every pullback
        # is a linear form or a multiple of s or u
        from orbpairs.curverestrict import ParamPlaneCurve, PlaneDivisorComponent, contact_orders
        from orbpairs.orbcore import Multiplicity

        def form(*coeffs):
            return HomogeneousPoly2(1, tuple(map(Fraction, coeffs)))

        def line(label, terms):
            return PlaneDivisorComponent(label, HomogeneousPoly3.from_dict(1, terms), Multiplicity(2))

        arrangement = [
            line("A", {(1, 0, 0): 1}), line("B", {(0, 1, 0): 1}), line("C", {(0, 0, 1): 1}),
            line("D", {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}),
        ]
        cases = [
            # highnode: (s+u : u-s : u)
            (form(1, 1), form(1, -1), form(1, 0)),
            [("s-u", (("B", 1),)), ("u", (("C", 1), ("D", 1))), ("s+u", (("A", 1),))],
            # genericline: (u : s : s+u)
            (form(1, 0), form(0, 1), form(1, 1)),
            [("s", (("B", 1),)), ("u", (("A", 1),)), ("s+u", (("C", 1), ("D", 1)))],
            # (1/2 s - u : -3u : s + 2/3 u)
            (form(-1, Fraction(1, 2)), form(-3, 0), form(Fraction(2, 3), 1)),
            [("9*s-20*u", (("D", 1),)), ("s-2*u", (("A", 1),)), ("u", (("B", 1),)),
             ("3*s+2*u", (("C", 1),))],
        ]
        for coords, expected in zip(cases[::2], cases[1::2]):
            records = contact_orders(ParamPlaneCurve(*coords), arrangement)
            assert [(str(r.point), r.contacts) for r in records] == expected


class TestGcd:
    @given(INT_POLYS, INT_POLYS, INT_POLYS)
    @settings(max_examples=200, deadline=None)
    @example((1, 1), (), (2, 3))  # one operand zero
    @example((1, 1), (), ())  # both zero
    @example((1,), (6,), (1, 2, 1))  # a constant operand
    @example((3, -2), (1, 0, -1), (-5, 7))  # negative leading coefficients
    @example((2, -3, 1, 4), (1,), (1,))  # equal operands
    @example((3, 2), (-1, -2), (2, 1))  # the digits at the first xi are not the gcd
    @example((2, -1), (-4, 5, 2), (1,))  # a common root at 2: xi = 3 reads a wrong gcd, 6 does not
    @example((-6,), (4, -4, -3), (0, 2, -1))  # the first candidate divides one operand only
    @example(  # 40-bit coefficients
        (1099511627779, -549755813881, 5), (-34359738368, 11, 3486784401), (678223072849, -1, 2199023255552, 9)
    )
    def test_matches_pseudo_remainder_gcd(self, common, a, b):
        f, g = _trim(_mul(common, a)), _trim(_mul(common, b))
        with time_guard(2):
            d = polynomials._gcd(f, g)
        assert d == gcd_reference(f, g)
        if d:
            assert _divide(f, d) is not None and _divide(g, d) is not None
            assert _divide(d, _primitive(common)) is not None


class TestSquarefree:
    def test_derivative_gcd_structure(self):
        cases = [
            # (x-1)^3 (x+1): parts of multiplicity 1 and 3
            (expand([((-1, 1), 3), ((1, 1), 1)]), [((1, 1), 1), ((-1, 1), 3)]),
            # -3/4 x^3 (x+1)^2: content and a negative leading coefficient
            (qscale(expand([((0, 1), 3), ((1, 1), 2)]), Fraction(-3, 4)),
             [((1, 1), 2), ((0, 1), 3)]),
        ]
        for poly, expected in cases:
            parts = squarefree_decomposition(poly)
            assert sorted(parts, key=lambda pe: pe[1]) == expected, poly

    def test_squarefree_input(self):
        assert squarefree_decomposition(qpoly([-1, 0, 1])) == [((-1, 0, 1), 1)]

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=5), st.integers(1, 3))
    @settings(max_examples=60)
    def test_multiplicity_detected(self, tail, e):
        base = qpoly(tail + [1])
        if qdeg(base) < 1:
            return
        poly = expand([(base, e)])
        parts = squarefree_decomposition(poly)
        total = expand(parts)
        ratio = poly[-1] / total[-1]
        assert qscale(total, ratio) == poly
        assert max(mult for _, mult in parts) >= e


class TestSelfChecks:
    def test_dropped_factor_is_caught(self, monkeypatch):
        zassenhaus = polynomials._zassenhaus
        monkeypatch.setattr(polynomials, "_zassenhaus", lambda f: zassenhaus(f)[1:])
        with pytest.raises(SelfCheckError, match="factorization self-check failed"):
            factor_rational(qpoly([-1, 0, 0, 0, 0, 0, 1]))

    def test_inexact_squarefree_division_is_caught(self, monkeypatch):
        # a "gcd" that does not divide x^2 + 1
        monkeypatch.setattr(polynomials, "_gcd", lambda f, g: (1, 1))
        with pytest.raises(SelfCheckError, match="inexact division in squarefree decomposition"):
            squarefree_decomposition(qpoly([1, 0, 1]))


class TestHomogeneousForms:
    def test_factor_splits_s_and_u(self):
        # s^2 * u * (s - u)
        form = (
            power(HomogeneousPoly2.variable("s"), 2)
            .mul(HomogeneousPoly2.variable("u"))
            .mul(HomogeneousPoly2(1, (Fraction(-1), Fraction(1))))
        )
        _, factors = form.factor()
        as_strings = sorted((str(f), e) for f, e in factors)
        assert as_strings == [("s", 2), ("s-u", 1), ("u", 1)]

    def test_degree_conservation(self):
        rng = random.Random(23)
        for _ in range(100):
            d = rng.randint(1, 7)
            coeffs = [Fraction(rng.randint(-6, 6)) for _ in range(d + 1)]
            form = HomogeneousPoly2(d, tuple(coeffs))
            if form.is_zero:
                continue
            _, factors = form.factor()
            assert sum(f.degree * e for f, e in factors) == d

    def test_factors_are_canonical(self):
        # -2/3 u - 4/3 s: the factor is primitive and positive at the top
        # s-power, the rational content goes to the unit
        form = HomogeneousPoly2(1, (Fraction(-2, 3), Fraction(-4, 3)))
        assert form.factor() == (Fraction(-2, 3), [(HomogeneousPoly2(1, (1, 2)), 1)])
        # a monomial's core is a constant, which factor_rational returns as
        # the content
        s = HomogeneousPoly2.variable("s")
        assert HomogeneousPoly2(3, (0, 0, 0, 5)).factor() == (Fraction(5), [(s, 3)])

    def test_gcd(self):
        s = HomogeneousPoly2.variable("s")
        u = HomogeneousPoly2.variable("u")
        f = power(s, 2).mul(u)
        g = s.mul(u).mul(u)
        assert str(poly2_gcd(f, g)) == "s*u"

    @given(*[
        st.tuples(
            st.integers(0, 2),
            st.integers(0, 2),
            st.lists(st.fractions(-6, 6, max_denominator=4), min_size=1, max_size=4),
        )
        for _ in range(3)
    ])
    @settings(max_examples=60, deadline=None)
    def test_gcd_matches_factorizations(self, a, b, c):
        # gcd(a*c, b*c) against the min exponents of the shared canonical
        # factors that factor() finds in both products
        def form(sval, uval, core):
            coeffs = (0,) * sval + tuple(core) + (0,) * uval
            return HomogeneousPoly2(len(coeffs) - 1, coeffs)

        forms = [form(*spec) for spec in (a, b, c)]
        if any(f.is_zero for f in forms):
            return
        ac, bc = forms[0].mul(forms[2]), forms[1].mul(forms[2])
        exponents = [dict(product.factor()[1]) for product in (ac, bc)]
        expected = HomogeneousPoly2(0, (1,))
        for factor, e in exponents[0].items():
            expected = expected.mul(power(factor, min(e, exponents[1].get(factor, 0))))
        assert poly2_gcd(ac, bc) == expected

    def test_rendering(self):
        assert render_poly2(HomogeneousPoly2(2, (Fraction(-2), Fraction(0), Fraction(1)))) == "s^2-2*u^2"
        assert render_poly2(HomogeneousPoly2.zero(3)) == "0"
        assert (
            render_poly2(HomogeneousPoly2(2, (Fraction(1), Fraction(1, 2), Fraction(0))))
            == "1/2*s*u+u^2"
        )

    def test_substitution(self):
        conic_form = HomogeneousPoly3.from_dict(2, {(1, 0, 1): 1, (0, 2, 0): -1})
        s2 = HomogeneousPoly2(2, (Fraction(0), Fraction(0), Fraction(1)))
        su = HomogeneousPoly2(2, (Fraction(0), Fraction(1), Fraction(0)))
        u2 = HomogeneousPoly2(2, (Fraction(1), Fraction(0), Fraction(0)))
        assert conic_form.substitute(s2, su, u2).is_zero

    def test_substitution_matches_power_and_add(self):
        conic = (
            HomogeneousPoly2(2, (Fraction(0), Fraction(0), Fraction(1, 2))),
            HomogeneousPoly2(2, (Fraction(3), Fraction(1, 3), Fraction(0))),
            HomogeneousPoly2.zero(2),
        )
        form = HomogeneousPoly3.from_dict(
            3, {(3, 0, 0): Fraction(2, 7), (1, 2, 0): -1, (0, 3, 0): 5, (1, 1, 1): 4}
        )
        pulled = form.substitute(*conic)
        assert pulled == substitute_reference(form, *conic)
        assert str(pulled) == "1/28*s^6-1/18*s^4*u^2-22/27*s^3*u^3+1/2*s^2*u^4+45*s*u^5+135*u^6"

    @given(
        st.integers(0, 6),
        st.lists(st.one_of(st.just(0), RATIONALS), min_size=28, max_size=28),
        st.integers(1, 4),
        st.lists(st.lists(RATIONALS, min_size=5, max_size=5), min_size=3, max_size=3),
        st.sampled_from([None, 0, 1, 2]),
    )
    @settings(max_examples=200, deadline=None)
    def test_substitution_property(self, n, form_coeffs, d, coord_coeffs, zero):
        # degree-n forms (28 = number of monomials of degree 6) against
        # degree-d coordinates, one of them possibly zero
        monomials = [(i, j, n - i - j) for i in range(n + 1) for j in range(n + 1 - i)]
        form = HomogeneousPoly3.from_dict(n, dict(zip(monomials, form_coeffs)))
        coords = [HomogeneousPoly2(d, tuple(cs[: d + 1])) for cs in coord_coeffs]
        if zero is not None:
            coords[zero] = HomogeneousPoly2.zero(d)
        assert form.substitute(*coords) == substitute_reference(form, *coords)

    def test_dense_degree_40_along_the_conic(self):
        rng = random.Random(40)
        terms = {
            (i, j, 40 - i - j): rng.choice([-1, 1]) * rng.randint(1, 9)
            for i in range(41)
            for j in range(41 - i)
        }
        form = HomogeneousPoly3.from_dict(40, terms)
        conic = [HomogeneousPoly2(2, tuple(int(t == m) for t in range(3))) for m in (2, 1, 0)]
        with time_guard(2):
            pulled = form.substitute(*conic)
        # along (s^2 : s*u : u^2), x0^i x1^j x2^k becomes s^(2i+j) u^(j+2k)
        expected = [0] * 81
        for (i, j, _), c in terms.items():
            expected[2 * i + j] += c
        assert pulled.coeffs == tuple(expected)

    def test_render3(self):
        form = HomogeneousPoly3.from_dict(2, {(1, 0, 1): 1, (0, 2, 0): -1})
        assert render_poly3(form) == "x0*x2-x1^2"


# coefficients that render differently: 0, +-1, other integers, fractions
COEFFICIENTS = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(-100, 100),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@st.composite
def ternary_forms(draw):
    d = draw(st.integers(0, 4))
    monomial = st.tuples(st.integers(0, d), st.integers(0, d)).filter(lambda ij: sum(ij) <= d)
    terms = draw(st.dictionaries(monomial.map(lambda ij: (*ij, d - sum(ij))), COEFFICIENTS, max_size=8))
    return HomogeneousPoly3.from_dict(d, terms)


class TestRenderingAgainstReference:
    """The one term renderer against the former two render loops."""

    @given(st.integers(0, 6).flatmap(lambda d: st.lists(COEFFICIENTS, min_size=d + 1, max_size=d + 1)))
    @example([0])
    @example([0, 0, 0])
    @settings(max_examples=300)
    def test_binary_forms(self, coeffs):
        form = HomogeneousPoly2(len(coeffs) - 1, tuple(coeffs))
        assert render_poly2(form) == reference_render_poly2(form)
        assert str(form) == render_poly2(form)

    @given(ternary_forms())
    @example(HomogeneousPoly3(2, ()))
    @settings(max_examples=300)
    def test_ternary_forms(self, form):
        assert render_poly3(form) == reference_render_poly3(form)
        assert str(form) == render_poly3(form)
