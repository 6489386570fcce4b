"""GL(2, Z) images of Laurent polynomials, for the invariance tests."""

from negcurve.lattice_geom import UnimodularAffineMap
from negcurve.laurent_poly import LaurentPoly


def apply_gl2z(phi, m):
    """Exponent rows (a, b) map to (a, b)*m; ValueError unless |det m| = 1."""
    f = UnimodularAffineMap(m)
    return LaurentPoly({f.apply(e): c for e, c in phi.terms.items()}, phi.char)
