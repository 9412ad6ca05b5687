"""Brute-force enumerations and identity checks that only the tests use to
cross-check the program; no command runs them, so they live here and not
in ``src/``."""

from itertools import combinations, combinations_with_replacement

from orbpairs.curverestrict import ContactRecord, pullback
from orbpairs.mordell import is_p_full
from orbpairs.orbcore import DomainError, Multiplicity, SelfCheckError
from orbpairs.polynomials import (
    HomogeneousPoly2,
    _residues,
    _split,
    _trim,
    factor_rational,
    gf_divmod,
)
from orbpairs.symdiff import MultiIndexJ, ceil_quotient, floor_coefficient_multiple


def multi_indices(p, q, n):
    """All multisets of n q-subsets of {1..p}."""
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    for subsets in combinations_with_replacement(combinations(range(1, p + 1), q), n):
        yield MultiIndexJ(p, q, subsets)


def check_floor_ceiling_identity(k_max=200, m_max=50):
    """Exhaustively check floor(k(1-1/m)) = k - ceil(k/m) for integral m.

    Returns the number of (k, m) pairs checked; raises on any failure."""
    checked = 0
    for m in range(1, m_max + 1):
        mult = Multiplicity(m)
        for k in range(k_max + 1):
            if floor_coefficient_multiple(k, mult) != k - ceil_quotient(k, mult):
                raise SelfCheckError(f"floor/ceil identity failed at k={k}, m={m}")
            checked += 1
    return checked


def gf_pow_mod(base, e, mod, p):
    """base^e reduced modulo (mod, p)."""
    mod = _trim(mod, p)
    if len(mod) <= 1:
        return gf_divmod(base, mod, p)[1]
    ring = _residues(mod, p)
    return ring.unpack(ring.pow(ring.pack(base), e))


def reference_divmod(f, g, m):
    """Quotient and remainder of f by g modulo m by schoolbook long
    division, every entry reduced at once; lc(g) must be a unit mod m."""
    g = [c % m for c in g]
    inv = pow(g[-1], -1, m)
    rem = list(_trim(f, m))
    quo = [0] * max(len(rem) - len(g) + 1, 0)
    while len(rem) >= len(g):
        shift = len(rem) - len(g)
        c = quo[shift] = rem[-1] * inv % m
        for j, b in enumerate(g):
            rem[shift + j] = (rem[shift + j] - c * b) % m
        rem = list(_trim(rem))
    return _trim(quo), tuple(rem)


def enumerate_p_full_by_filter(limit, p):
    """Brute-force cross-check: filter 1..limit through is_p_full."""
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit}")
    return [n for n in range(1, limit + 1) if is_p_full(n, p)]


def factor_form(form):
    """Factor a nonzero binary form into canonical irreducible forms with
    exponents: powers of s and of u split off first; the rest dehomogenizes
    to a polynomial with nonzero constant term and full degree, which is
    factored over Q and homogenized back.  Returns (content, factors)."""
    if form.is_zero:
        raise DomainError("cannot factor the zero form")
    sval, uval, core = _split(form)
    out = []
    if sval:
        out.append((HomogeneousPoly2.variable("s"), sval))
    if uval:
        out.append((HomogeneousPoly2.variable("u"), uval))
    content, factors = factor_rational(core)
    out.extend((HomogeneousPoly2(len(irr) - 1, irr), e) for irr, e in factors)
    out.sort(key=lambda fe: (fe[0].degree, fe[0].coeffs))
    return content, out


def contact_orders_by_component(curve, arrangement):
    """`curverestrict.contact_orders` the slow way: every pullback factored
    on its own, records grouped by canonical factor."""
    labels_seen = set()
    by_point = {}
    for comp in arrangement:
        if comp.label in labels_seen:
            raise DomainError(f"duplicate component label {comp.label!r}")
        labels_seen.add(comp.label)
        for factor, exponent in factor_form(pullback(curve, comp))[1]:
            by_point.setdefault(factor, {})[comp.label] = exponent
    records = [
        ContactRecord(point, tuple(sorted(contacts.items())))
        for point, contacts in by_point.items()
    ]
    records.sort(key=lambda r: (r.point.degree, r.point.coeffs))
    return records
