"""Brute-force enumerations and identity checks that only the tests use to
cross-check the program; no command runs them, so they live here and not
in ``src/``."""

from itertools import combinations, combinations_with_replacement

from orbpairs.mordell import is_p_full
from orbpairs.orbcore import DomainError, Multiplicity, SelfCheckError
from orbpairs.polynomials import _residues, _trim, gf_divmod
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


def enumerate_p_full_by_filter(limit, p):
    """Brute-force cross-check: filter 1..limit through is_p_full."""
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit}")
    return [n for n in range(1, limit + 1) if is_p_full(n, p)]
