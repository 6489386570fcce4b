"""The complete factorizers, called directly, as the oracle for the rigid split."""

import sympy

from negcurve.irreducibility import FactorBudgetError, factor_mod_p
from negcurve.laurent_poly import integer_terms, unit_multiply


def factor_count(phi):
    """Irreducible factors of the nonunit phi over its ground field, counted
    with multiplicity: sympy's `factor_list` over ZZ in char 0,
    `factor_mod_p` in char p.  None when `factor_mod_p` spends its budget."""
    if phi.char:
        try:
            return len(factor_mod_p(phi))
        except FactorBudgetError:
            return None
    a0 = min(a for a, _ in phi.terms)
    b0 = min(b for _, b in phi.terms)
    v, w = sympy.symbols("v w")
    poly = sympy.Poly.from_dict(integer_terms(unit_multiply(phi, 1, -a0, -b0)),
                                v, w, domain="ZZ")
    return sum(mult for _, mult in poly.factor_list()[1])
