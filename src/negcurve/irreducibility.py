"""Irreducibility certificates for Laurent polynomials.

An indecomposable Newton polygon, or a Newton segment of lattice length 1,
certifies irreducibility over every field.  Past that, `rigid_factor`
decides every negative-class input, every `search` and `classify`
candidate among them, in every characteristic: IrreducibleByRigidity or
Factored.  Other inputs are factored: over the rationals by sympy over
ZZ[v, w] (one factor reads IrreducibleOverQ), over F_p by the Kronecker
substitution w = v^M, an in-package Cantor-Zassenhaus factorization of the
univariate image, and recombination of factor subsets constrained by
Minkowski summands of the Newton polygon (IrreducibleModP, or Inconclusive
once the budget is spent).  Only the char-0 factorization imports sympy.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import chain, count, zip_longest
from math import gcd, isqrt

from .lattice_geom import area2, lattice_points, minkowski_decompositions
from .laurent_poly import (
    LaurentPoly,
    integer_terms,
    multiplicity_at_one,
    newton_polygon,
    serialize,
    unit_multiply,
)
from .symbolic_power import graded_piece


class FactorBudgetError(RuntimeError):
    """Splitting or recombination work exceeded the desk-scale budget."""


_BUDGET = 2 ** 14  # splitting attempts and candidates, together, per factor_mod_p


# verdict: IrreduciblePolytope | IrreducibleByRigidity | IrreducibleOverQ (char 0)
# | IrreducibleModP (char p) | Factored | Inconclusive (char p, not negative class)
IrreducibilityCertificate = namedtuple(
    "IrreducibilityCertificate", "verdict details p factors unit",
    defaults=(0, (), None))


def cert_to_json(cert):
    doc = {"verdict": cert.verdict, "details": cert.details}
    if cert.verdict == "IrreducibleModP":
        doc["p"] = cert.p
    if cert.verdict == "Factored":
        doc["factors"] = [serialize(f) for f in cert.factors]
        doc["unit"] = serialize(cert.unit)
    return doc


def _to_origin(phi):
    """Translate so both exponent minima are zero; returns (poly, shift)."""
    a0 = min(a for a, _ in phi.terms)
    b0 = min(b for _, b in phi.terms)
    return unit_multiply(phi, 1, -a0, -b0), (a0, b0)


def _div_coeff(c1, c2, char):
    if char == 0:
        return Fraction(c1) / c2
    return c1 * pow(c2, -1, char) % char


def exact_divide(f, g):
    """Quotient f / g in the Laurent ring, or None when not divisible."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.char != g.char:
        raise ValueError("characteristic mismatch")
    if not f:
        return LaurentPoly({}, f.char)
    fq, (fa, fb) = _to_origin(f)
    gq, (ga, gb) = _to_origin(g)
    rem = dict(fq.terms)
    eg = max(gq.terms)
    q = {}
    # each step cancels the lex-largest term of rem and adds only lex-smaller
    # ones in N^2, which has no infinite lex-descending chain: the loop ends
    while rem:
        ef = max(rem)
        da, db = ef[0] - eg[0], ef[1] - eg[1]
        if da < 0 or db < 0:
            return None
        c = _div_coeff(rem[ef], gq.terms[eg], f.char)
        q[(da, db)] = c
        for (a, b), gc in gq.terms.items():
            key = (a + da, b + db)
            val = rem.get(key, 0) - c * gc
            if f.char:
                val %= f.char
            if val:
                rem[key] = val
            else:
                rem.pop(key, None)
    return unit_multiply(LaurentPoly(q, f.char), 1, fa - ga, fb - gb)


def _shape(P):
    """Sorted vertices of P translated so both coordinate minima are zero."""
    x0 = min(x for x, _ in P.vertices)
    y0 = min(y for _, y in P.vertices)
    return tuple(sorted((x - x0, y - y0) for x, y in P.vertices))


def _translated_summands(P):
    """Shapes of the Newton polygons a proper factor may have."""
    if P.dim < 2:
        return None  # segment: no pruning
    return {_shape(Q) for pair in minkowski_decompositions(P) for Q in pair}


def _fits(psi, allowed):
    return allowed is None or _shape(newton_polygon(psi)) in allowed


# Dense polynomials over F_p: coefficient lists in [0, p), lowest degree
# first, with no trailing zero, so [] is 0 and len(f) - 1 is the degree.

def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _padd(f, g, p):
    return _trim([(a + b) % p for a, b in zip_longest(f, g, fillvalue=0)])


def _pmul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            out[i:i + len(g)] = [x + a * b for x, b in zip(out[i:i + len(g)], g)]
    return [x % p for x in out]


def _dense(f):
    """The coefficient list of an (exponent, coefficient) tuple."""
    out = [0] * (f[-1][0] + 1)
    for e, c in f:
        out[e] = c
    return out


def _pdivmod(f, g, p):
    """Quotient and remainder of f by a nonzero g."""
    r, n = list(f), len(g) - 1
    inv = pow(g[-1], -1, p)
    q = [0] * max(len(f) - n, 0)
    for i in reversed(range(len(q))):
        q[i] = c = r[i + n] * inv % p
        if c:
            r[i:i + n + 1] = [(a - c * b) % p for a, b in zip(r[i:i + n + 1], g)]
    return q, _trim(r[:n])


def _pgcd(f, g, p):
    """Monic gcd; f and g not both 0, so gcd(f, []) is f made monic."""
    while g:
        f, g = g, _pdivmod(f, g, p)[1]
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _ppowmod(g, e, f, p):
    """g^e mod f."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _pdivmod(_pmul(out, out, p), f, p)[1]
        if bit == "1":
            out = _pdivmod(_pmul(out, g, p), f, p)[1]
    return out


def _sqf(f, p):
    """(g, m) with monic f the product of the g^m, each g squarefree monic:
    Yun's splitting of the part prime to p, then the p-th root of the rest."""
    out, n = [], 1
    while len(f) > 1:
        g = _pgcd(f, _trim([i * c % p for i, c in enumerate(f)][1:]), p)
        h, i = _pdivmod(f, g, p)[0], 1
        while len(h) > 1:
            common = _pgcd(g, h, p)
            part = _pdivmod(h, common, p)[0]
            if len(part) > 1:
                out.append((part, i * n))
            g, h, i = _pdivmod(g, common, p)[0], common, i + 1
        f, n = g[::p], n * p  # g is a polynomial in t^p
    return out


def _ddf(f, p, tickets):
    """The irreducible factors of squarefree monic f, split by degree n first:
    the degree-n ones divide t^(p^n) - t."""
    out, n, g = [], 1, [0, 1]
    while 2 * n < len(f):
        g = _ppowmod(g, p, f, p)  # t^(p^n) mod f
        h = _pgcd(f, _padd(g, [0, p - 1], p), p)
        if len(h) > 1:
            out += _edf(h, n, p, tickets, p)
            f = _pdivmod(f, h, p)[0]
            g = _pdivmod(g, f, p)[1]
        n += 1
    return out + _edf(f, len(f) - 1, p, tickets, p) if len(f) > 1 else out


def _edf(f, n, p, tickets, k0):
    """The degree-n factors of f, a squarefree monic product of such.

    Attempt k = k0, k0 + 1, ... splits f by a proper gcd with the trace of
    t^(2k - 3) for p = 2 (the trace is additive and Tr(r^2) = Tr(r), so odd
    powers of t reach every split), else with r^((p^n - 1)/2) - 1 for r the
    base-p digits of k.  No k that fails on f splits a factor of f, so both
    halves of a split go on from the next k.
    """
    if len(f) - 1 == n:
        return [f]
    for k in count(k0):
        if next(tickets, None) is None:
            raise FactorBudgetError("splitting budget exhausted")
        if p == 2:
            h = s = [0] * (2 * k - 3) + [1]
            for _ in range(n - 1):
                s = _pdivmod(_pmul(s, s, p), f, p)[1]
                h = _padd(h, s, p)
        else:
            r = [k // p ** i % p for i in range(k.bit_length()) if p ** i <= k]
            h = _padd(_ppowmod(r, (p ** n - 1) // 2, f, p), [p - 1], p)
        g = _pgcd(f, h, p)
        if 1 < len(g) < len(f):
            return (_edf(g, n, p, tickets, k + 1)
                    + _edf(_pdivmod(f, g, p)[0], n, p, tickets, k + 1))


def _univariate_factors(phi, M, tickets):
    """Kronecker image factored over F_p, t-power and scalar dropped.

    Cantor and Zassenhaus (Math. Comp. 36, 1981): squarefree, distinct- and
    equal-degree splitting.  Monic factors, as (exponent, coefficient)
    tuples repeated by multiplicity, sorted by (degree, tuple).  Each
    splitting attempt takes an item of tickets; none left raises
    FactorBudgetError.
    """
    p = phi.char
    enc = {a + M * b: c % p for (a, b), c in phi.terms.items()}
    f = [enc.get(e, 0) for e in range(min(enc), max(enc) + 1)]
    out = []
    for g, mult in _sqf(_pgcd(f, [], p), p):
        for q in _ddf(g, p, tickets):
            out += [tuple((e, c) for e, c in enumerate(q) if c)] * mult
    return sorted(out, key=lambda f: (f[-1][0], f))


def _decode(f, M, p):
    """Invert e = a + M*b on dense f with a in the window |a| <= M // 2.
    With M = 1 + 2 max spread of the polynomial `factor_mod_p` splits, a
    factor g at the origin has image g(t, t^M) / t^a1, a1 its least a at
    b = 0, and the window reads v^-a1 g exactly."""
    h, terms = M // 2, {}
    for e, c in enumerate(f):
        if c:
            a = (e + h) % M - h
            terms[(a, (e - a) // M)] = c
    return LaurentPoly(terms, p)


def _distinct_combinations(items, size, start=0):
    """Index tuples of the distinct size-element sub-multisets of sorted items.

    Each sub-multiset comes once, as the first index tuple that
    `combinations(range(len(items)), size)` meets for it: a later copy of an
    item is chosen only right after its previous copy.  Nothing else is
    enumerated, so the work is the number of distinct sub-multisets.
    """
    if size == 0:
        yield ()
        return
    for i in range(start, len(items) - size + 1):
        if i > start and items[i] == items[i - 1]:
            continue
        for rest in _distinct_combinations(items, size - 1, i + 1):
            yield (i,) + rest


def factor_mod_p(phi):
    """Complete factorization over F_p, up to a unit; FactorBudgetError once
    splitting attempts and recombination candidates spend `_BUDGET`."""
    if phi.char == 0:
        raise ValueError("factor_mod_p needs positive characteristic")
    if not phi:
        raise ValueError("zero polynomial")
    p = phi.char
    cur, _ = _to_origin(phi)
    if len(cur.terms) == 1:
        return []
    spread_a = max(a for a, _ in cur.terms)
    spread_b = max(b for _, b in cur.terms)
    M = 1 + 2 * max(spread_a, spread_b)
    tickets = iter(range(_BUDGET))  # one per splitting attempt or candidate
    univ = _univariate_factors(cur, M, tickets)
    factors = []
    while len(cur.terms) > 1:
        allowed = _translated_summands(newton_polygon(cur))
        if allowed is not None and not allowed:
            break  # indecomposable polygon: cur is the last factor
        hit = None
        for size in range(1, len(univ)):
            for idx in _distinct_combinations(univ, size):
                if next(tickets, None) is None:
                    raise FactorBudgetError("recombination budget exhausted")
                prod = [1]
                for i in idx:
                    prod = _pmul(prod, _dense(univ[i]), p)
                cand = _decode(prod, M, p)
                if not _fits(cand, allowed):
                    continue
                q = exact_divide(cur, cand)
                if q is not None:
                    hit = (idx, cand, q)
                    break
            if hit:
                break
        if hit is None:
            break
        idx, cand, cur = hit[0], hit[1], hit[2]
        factors.append(_to_origin(cand)[0])
        univ = [f for i, f in enumerate(univ) if i not in idx]
    if len(cur.terms) > 1:
        factors.append(_to_origin(cur)[0])
    return factors


def rigid_factor(phi):
    """A proper factor of phi from a rigid split, or None.

    A factor returned is proper for any phi.  None proves phi absolutely
    irreducible when phi is negative-class: area2(P) < m^2, P its Newton
    polygon and m its multiplicity at (1, 1).  Over the algebraic closure let
    phi = prod phi_i^e_i, phi_i with polygon P_i and multiplicity m_i.
    Polygons (Ostrowski) and multiplicities add, so on the blow-up at (1, 1)
    of the toric surface of P the strict transform of phi is C = sum e_i C_i,
    with C^2 = area2(P) - m^2 < 0 and C_i^2 = area2(P_i) - m_i^2.  Distinct
    curves meet non-negatively, so some C_i^2 < 0 (Kurano and Matsuoka, J.
    Algebra 322, 2009): C_i is rigid, as a D in its class has D.C_i < 0, so
    contains C_i and is C_i.  So the jet kernel K(P_i, m_i) is 1-dimensional,
    in every field extension, and phi_i is defined over the ground field up to
    a scalar.  If phi is reducible, P_i is a proper Minkowski summand with
    isqrt(area2(P_i)) < m_i <= m, and the loop below meets phi_i.  Conversely
    a lone generator g of K(Q, k), k >= 1, on a proper summand Q vanishes at
    (1, 1) and lies on Q, narrower than P in some direction, so g and phi / g
    are nonunits.  Hence a negative-class phi irreducible over its ground
    field is absolutely irreducible.  Every `search` candidate is
    negative-class: it lies in the order-r jet kernel on dT, so m >= r, and P
    lies in dT, so area2(P) <= d^2/abc < r^2; so is every `classify` form, of
    order r on a pool polygon of area2 < r^2.

    A segment of lattice length g is a unit times f(t), t the primitive
    monomial along it, deg f = g; when m >= 1, 1 - t divides it, leaving a
    nonunit as g >= 2.  A primitive segment or an indecomposable polygon
    returns None before any multiplicity is computed.
    """
    P = newton_polygon(phi)
    if P.dim < 2:
        (x0, y0), (x1, y1) = P.vertices[0], P.vertices[-1]
        g = gcd(x1 - x0, y1 - y0)
        if g < 2 or not multiplicity_at_one(phi):
            return None
        return LaurentPoly({(0, 0): 1, ((x1 - x0) // g, (y1 - y0) // g): -1}, phi.char)
    pairs = minkowski_decompositions(P)
    if not pairs:
        return None
    m = multiplicity_at_one(phi)
    for Q in chain.from_iterable(pairs):
        pts = lattice_points(Q)
        # the order-k jet rows are among the order-(k + 1) rows, so the
        # first empty kernel ends Q
        for k in range(isqrt(area2(Q)) + 1, m + 1):
            basis = graded_piece(pts, k, phi.char)
            if not basis:
                break
            if len(basis) == 1 and exact_divide(phi, basis[0]) is not None:
                return basis[0]
    return None


def certify(phi):
    """Typed irreducibility certificate for a nonzero nonunit phi.

    Past the Newton polygon test, a negative-class phi reads `rigid_factor`
    in every characteristic, with no factorization.  Any other phi is
    factored: char p reads `factor_mod_p`, which ends Inconclusive once its
    `_BUDGET` splitting attempts and recombination candidates are spent, and
    char 0 reads sympy's complete factorization over ZZ, which needs no
    budget.
    """
    if not phi:
        raise ValueError("zero polynomial")
    if len(phi.terms) == 1:
        raise ValueError("units are neither reducible nor irreducible here")
    body, _ = _to_origin(phi)
    P = newton_polygon(body)
    if P.dim == 1:
        (x1, y1), (x2, y2) = P.vertices
        if gcd(x2 - x1, y2 - y1) == 1:
            return IrreducibilityCertificate(
                "IrreduciblePolytope", "newton segment is primitive")
    elif not minkowski_decompositions(P):
        return IrreducibilityCertificate(
            "IrreduciblePolytope", "newton polygon has no proper summand")
    if area2(P) < multiplicity_at_one(body) ** 2:
        factor = rigid_factor(body)
        if factor is None:
            return IrreducibilityCertificate(
                "IrreducibleByRigidity", "absolutely irreducible: no rigid split")
        return _factored(phi, [factor, exact_divide(body, factor)])
    if phi.char:
        try:
            facs = factor_mod_p(body)
        except FactorBudgetError as e:
            return IrreducibilityCertificate("Inconclusive", str(e))
        if len(facs) == 1:
            return IrreducibilityCertificate(
                "IrreducibleModP", "no splitting over the ground field",
                p=phi.char)
        return _factored(phi, facs)
    import sympy

    v, w = sympy.symbols("v w")
    poly = sympy.Poly.from_dict(integer_terms(body), v, w, domain="ZZ")
    # body is divisible by neither v nor w, so every factor is a nonunit
    facs = [LaurentPoly({e: int(c) for e, c in f.terms()}, 0)
            for f, mult in poly.factor_list()[1] for _ in range(mult)]
    if len(facs) == 1:
        return IrreducibilityCertificate(
            "IrreducibleOverQ", "no factor over the integers")
    return _factored(phi, facs)


def _factored(phi, facs):
    prod = LaurentPoly({(0, 0): 1}, phi.char)
    for f in facs:
        prod = prod * f
    unit = exact_divide(phi, prod)
    if unit is None or len(unit.terms) != 1:
        raise RuntimeError("factors do not multiply back to the polynomial")
    return IrreducibilityCertificate(
        "Factored", "split into %d factors" % len(facs),
        factors=facs, unit=unit)
