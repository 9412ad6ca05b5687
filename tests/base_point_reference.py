"""The parametrization check's former base-point tests, kept as references
for the current one, which decides on integers.

``poly2_gcd`` took the gcd of two forms, each core made primitive through
its ``Fraction`` content, and ``check_parametrization`` folded it over the
nonzero coordinates in order, stopping once the gcd was constant.
``check_one_gcd`` built one canonical gcd form of all nonzero coordinates
with ``poly2_gcd_of_all`` and refused when its degree was positive.  In
both, a lone nonzero coordinate was its own common factor, shown as given.
"""

from orbpairs.orbcore import DomainError
from orbpairs.polynomials import HomogeneousPoly2, _gcd, _split, content_primitive


def poly2_gcd(f, g):
    if f.is_zero or g.is_zero:
        raise DomainError("gcd with the zero form")
    fs, fu, fcore = _split(f)
    gs, gu, gcore = _split(g)
    core = _gcd(content_primitive(fcore)[1], content_primitive(gcore)[1])
    coeffs = (0,) * min(fs, gs) + core + (0,) * min(fu, gu)
    return HomogeneousPoly2(len(coeffs) - 1, coeffs)


def check_parametrization(x0, x1, x2):
    """Raise the DomainError that ParamPlaneCurve(x0, x1, x2) raised."""
    coords = (x0, x1, x2)
    degrees = {c.degree for c in coords}
    if len(degrees) != 1:
        raise DomainError(f"coordinate degrees differ: {sorted(degrees)}")
    if x0.degree < 1:
        raise DomainError("parametrization degree must be at least 1")
    nonzero = [c for c in coords if not c.is_zero]
    if not nonzero:
        raise DomainError("parametrization is identically zero")
    common = nonzero[0]
    for c in nonzero[1:]:
        if common.degree == 0:
            break
        common = poly2_gcd(common, c)
    if common.degree > 0:
        raise DomainError(f"parametrization has the common factor {common}; remove base points")


def poly2_gcd_of_all(*forms):
    svals, uvals, cores = zip(*map(_split, forms))
    core = ()
    for fcore in sorted(cores, key=len):
        core = _gcd(core, content_primitive(fcore)[1]) if len(fcore) > 1 else (1,)
        if len(core) == 1:
            break
    coeffs = (0,) * min(svals) + core + (0,) * min(uvals)
    return HomogeneousPoly2(len(coeffs) - 1, coeffs)


def check_one_gcd(x0, x1, x2):
    """Raise the DomainError that ParamPlaneCurve(x0, x1, x2) raised when it
    built the gcd form of all nonzero coordinates."""
    coords = (x0, x1, x2)
    degrees = {c.degree for c in coords}
    if len(degrees) != 1:
        raise DomainError(f"coordinate degrees differ: {sorted(degrees)}")
    if x0.degree < 1:
        raise DomainError("parametrization degree must be at least 1")
    nonzero = [c for c in coords if not c.is_zero]
    if not nonzero:
        raise DomainError("parametrization is identically zero")
    common = nonzero[0] if len(nonzero) == 1 else poly2_gcd_of_all(*nonzero)
    if common.degree > 0:
        raise DomainError(f"parametrization has the common factor {common}; remove base points")
