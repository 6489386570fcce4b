"""Irreducibility certificates for Laurent polynomials.

An indecomposable Newton polygon, or a Newton segment of lattice length 1,
certifies irreducibility over every field.  Past that, a longer segment
included, char 0 and char p part ways.  Over the rationals sympy's complete
factorization over ZZ[v, w] settles the question, and one reduction mod p
then labels an irreducible input by whether it stays irreducible there.
Over F_p, which sympy cannot factor in two variables, factoring goes through
the Kronecker substitution w = v^M, sympy's univariate factorization, and
recombination of factor subsets constrained by Minkowski summands of the
Newton polygon; only there can an exhausted budget end Inconclusive.  sympy
is imported only where it is called.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .lattice_geom import minkowski_decompositions
from .laurent_poly import (
    LaurentPoly,
    integer_terms,
    newton_polygon,
    serialize,
    unit_multiply,
)


class FactorBudgetError(RuntimeError):
    """Recombination or division work exceeded the desk-scale budget."""


@dataclass
class IrreducibilityCertificate:
    # IrreduciblePolytope | IrreducibleModP | IrreducibleOverQ | Factored
    # | Inconclusive (char p only)
    verdict: str
    details: str
    p: int = 0
    factors: list = field(default_factory=list)
    unit: LaurentPoly = None


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


def _univariate_factors(phi, M):
    """Kronecker image factored over F_p, t-power and scalar dropped."""
    import sympy

    p = phi.char
    enc = {}
    for (a, b), c in phi.terms.items():
        enc[a + M * b] = (enc.get(a + M * b, 0) + c) % p
    t = sympy.Symbol("t")
    _, facs = sympy.Poly.from_dict({(e,): c for e, c in enc.items()},
                                   t, modulus=p).factor_list()
    out = []
    for f, mult in facs:
        d = {e[0]: int(c) % p for e, c in f.as_dict().items()}
        if len(d) == 1:
            continue  # power of t, a unit after decoding
        out.extend([tuple(sorted(d.items()))] * mult)
    return sorted(out, key=lambda f: (max(e for e, _ in f), f))


def _decode(enc, M, p):
    """Invert e = a + M*b, unwrapping v-exponents across the largest gap."""
    residues = sorted({e % M for e, _ in enc})
    k = len(residues)
    if k > 1:
        gaps = [(residues[(i + 1) % k] - residues[i]) % M for i in range(k)]
        start = residues[(gaps.index(max(gaps)) + 1) % k]
    else:
        start = residues[0]
    terms = {}
    for e, c in enc:
        a = start + (e - start) % M
        terms[(a, (e - a) // M)] = c
    return LaurentPoly(terms, p)


def _mul_univariate(fs, p):
    prod = {0: 1}
    for f in fs:
        nxt = {}
        for e1, c1 in prod.items():
            for e2, c2 in dict(f).items():
                key = e1 + e2
                nxt[key] = (nxt.get(key, 0) + c1 * c2) % p
        prod = {e: c for e, c in nxt.items() if c}
    return tuple(sorted(prod.items()))


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


def factor_mod_p(phi, budget=2 ** 14):
    """Complete factorization over F_p, up to a unit."""
    if phi.char == 0:
        raise ValueError("factor_mod_p needs positive characteristic")
    if not phi:
        raise ValueError("zero polynomial")
    cur, _ = _to_origin(phi)
    if len(cur.terms) == 1:
        return []
    spread_a = max(a for a, _ in cur.terms)
    spread_b = max(b for _, b in cur.terms)
    M = 1 + 2 * max(spread_a, spread_b)
    univ = _univariate_factors(cur, M)
    factors = []
    work = 0
    while len(cur.terms) > 1:
        allowed = _translated_summands(newton_polygon(cur))
        if allowed is not None and not allowed:
            break  # indecomposable polygon: cur is the last factor
        hit = None
        for size in range(1, len(univ)):
            for idx in _distinct_combinations(univ, size):
                key = tuple(univ[i] for i in idx)
                work += 1
                if work > budget:
                    raise FactorBudgetError("recombination budget exhausted")
                cand = _decode(_mul_univariate(key, phi.char), M, phi.char)
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


def certify(phi, budget=2 ** 14):
    """Typed irreducibility certificate for a nonzero nonunit phi.

    budget bounds the recombination work in char p; char 0 needs none.
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
    if phi.char:
        try:
            facs = factor_mod_p(body, budget)
        except FactorBudgetError as e:
            return IrreducibilityCertificate("Inconclusive", str(e))
        if len(facs) == 1:
            return IrreducibilityCertificate(
                "IrreducibleModP", "no splitting over the ground field",
                p=phi.char)
        return _factored(phi, facs)
    return _certify_char0(phi, body)


def _certify_char0(phi, body):
    """A complete factorization over ZZ; one reduction mod p labels a lone factor.

    The reduction is by the first prime dividing no coefficient, so every
    factor keeps its Newton polygon mod p, and w = v^M with M one past the
    v-spread is injective on the support box: a reducible body always has at
    least two image factors.  Reading sympy first therefore gives the same
    certificate as reading the image first, and skips the image whenever
    the body splits.
    """
    import sympy

    ints = integer_terms(body)
    v, w = sympy.symbols("v w")
    _, facs = sympy.Poly.from_dict(ints, v, w, domain="ZZ").factor_list()
    # body is divisible by neither v nor w, so every factor is a nonunit
    if len(facs) > 1 or facs[0][1] > 1:
        found = []
        for f, mult in facs:
            found += [LaurentPoly({e: int(c) for e, c in f.terms()}, 0)] * mult
        return _factored(phi, found)
    p = 2
    while any(c % p == 0 for c in ints.values()):
        p = sympy.nextprime(p)
    M = 1 + max(a for a, _ in ints)
    image = LaurentPoly({e: c % p for e, c in ints.items()}, p)
    if len(_univariate_factors(image, M)) == 1:
        return IrreducibilityCertificate(
            "IrreducibleModP",
            "irreducible after reduction, support preserved", p=p)
    return IrreducibilityCertificate(
        "IrreducibleOverQ", "no factor over the integers")


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
