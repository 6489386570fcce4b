"""Complete 2-dimensional fans and the blown-up surfaces they describe.

Everything here is exact: intersection numbers of the torus-invariant divisors
on a simplicial complete fan, divisor class groups via Smith normal form,
anticanonical polygons, smooth subdivision, and the condition report for the
eleven-part implication diagram around a blown-up nct surface.
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .exact_arith import det2, rat_str, smith_normal_form
from .lattice_geom import (
    _ext_gcd,
    area2,
    halfplane_polygon,
    inward_normals,
    lattice_points,
    pick_counts,
)
from .laurent_poly import newton_polygon


class DiagramContradiction(RuntimeError):
    """A condition proved False was forced True; only a computation bug does this."""


def _cone_contains_east(a, b):
    # is (1,0) in the half-open cone [a, b)?  cones are salient (det > 0),
    # so two sign checks decide: det(a, e) = -a[1], det(e, b) = b[1]
    da, db = -a[1], b[1]
    if da > 0 and db > 0:
        return True
    return da == 0 and a[0] > 0 and db > 0


class Fan2D:
    """Complete fan in Z^2: counterclockwise primitive rays winding once."""

    __slots__ = ("rays",)

    def __init__(self, rays):
        rays = tuple((int(x), int(y)) for x, y in rays)
        if len(rays) < 3:
            raise ValueError("a complete fan needs at least 3 rays")
        for v in rays:
            if gcd(v[0], v[1]) != 1:
                raise ValueError("ray %r is not primitive" % (v,))
        if len(set(rays)) != len(rays):
            raise ValueError("duplicate rays")
        n = len(rays)
        for i in range(n):
            if det2(rays[i], rays[(i + 1) % n]) <= 0:
                raise ValueError("rays %r, %r out of counterclockwise order"
                                 % (rays[i], rays[(i + 1) % n]))
        winds = sum(_cone_contains_east(rays[i], rays[(i + 1) % n])
                    for i in range(n))
        if winds != 1:
            raise ValueError("rays wind %d times around the origin" % winds)
        self.rays = rays

    def __eq__(self, other):
        return isinstance(other, Fan2D) and self.rays == other.rays

    def __hash__(self):
        return hash(self.rays)

    def __repr__(self):
        return "Fan2D(%r)" % (list(self.rays),)

    def is_smooth(self):
        n = len(self.rays)
        return all(det2(self.rays[i], self.rays[(i + 1) % n]) == 1
                   for i in range(n))


def normal_fan(P):
    """Fan whose rays are the primitive inward edge normals of P."""
    return Fan2D([n for n, _ in inward_normals(P)])


class ClassGroupPresentation(namedtuple("ClassGroupPresentation",
                                        "free_rank torsion grading_matrix")):
    """Cl = Z^free_rank + sum Z/torsion[i]; columns of grading_matrix are the
    divisor classes, free coordinates first."""

    __slots__ = ()

    def class_of(self, j):
        return tuple(row[j] for row in self.grading_matrix)


def class_group(fan):
    """Cokernel of x -> (<a_i, x>)_i; accepts a Fan2D or raw rays of any dim."""
    rays = list(fan.rays) if isinstance(fan, Fan2D) else \
        [tuple(int(x) for x in r) for r in fan]
    n = len(rays)
    diag, U, _ = smith_normal_form([list(r) for r in rays])
    rank = sum(1 for d in diag if d != 0)
    free_rows = [list(U[i]) for i in range(n)
                 if i >= len(diag) or diag[i] == 0]
    torsion, torsion_rows = [], []
    for i, d in enumerate(diag):
        if d > 1:
            torsion.append(d)
            torsion_rows.append([x % d for x in U[i]])
    return ClassGroupPresentation(free_rank=n - rank, torsion=torsion,
                                  grading_matrix=free_rows + torsion_rows)


def intersection_numbers(fan):
    """D_i^2, D_i.D_{i+1} and K^2 = (sum D_i)^2 on the simplicial surface."""
    rays = fan.rays
    n = len(rays)
    dd = [Fraction(1, det2(rays[i], rays[(i + 1) % n])) for i in range(n)]
    d2 = []
    for i in range(n):
        prev, cur, nxt = rays[i - 1], rays[i], rays[(i + 1) % n]
        d2.append(Fraction(-det2(prev, nxt),
                           det2(prev, cur) * det2(cur, nxt)))
    k2 = sum(d2) + 2 * sum(dd)
    return {"D2": d2, "DD": dd, "K2": k2}


def divisor_square(fan, coeffs):
    """(sum c_i D_i)^2 for arbitrary rational coefficients."""
    n = len(fan.rays)
    nums = intersection_numbers(fan)
    total = Fraction(0)
    for i in range(n):
        against = (coeffs[i - 1] * nums["DD"][i - 1]
                   + coeffs[i] * nums["D2"][i]
                   + coeffs[(i + 1) % n] * nums["DD"][i])
        total += coeffs[i] * against
    return total


def minus_k_polygon(fan):
    """P_{-K} = {x : <x, a_i> >= -1 for every ray}."""
    return halfplane_polygon([(ray, Fraction(-1)) for ray in fan.rays])


def _insert_ray(a, b):
    # primitive ray subdividing cone(a, b): the point (1,1) in coordinates
    # where a = (1,0) and b = (p,q), 1 <= p < q = det(a,b)
    q = det2(a, b)
    _, fx, fy = _ext_gcd(a[0], a[1])
    p0 = b[0] * fx + b[1] * fy
    p = p0 % q
    if p == 0:
        raise RuntimeError("b is an a-multiple, impossible for primitive rays")
    k = (p - p0) // q
    # (1,1) pulled back through the shear and the Bezout matrix
    return ((1 - k) * a[0] - fy, (1 - k) * a[1] + fx)


def _refine(rays, coeffs):
    # each insertion trades a determinant q for two with a smaller positive
    # product, so the product of all determinants drops and the loop ends
    rays, coeffs = list(rays), list(coeffs)
    i = 0
    while i < len(rays):
        n = len(rays)
        a, b = rays[i], rays[(i + 1) % n]
        q = det2(a, b)
        if q == 1:
            i += 1
            continue
        new = _insert_ray(a, b)
        da, db = det2(a, new), det2(new, b)
        if not 0 < da * db < q:
            raise RuntimeError("determinant product must drop")
        # new = lam*a + mu*b fixes the canonical pullback coefficient
        lam, mu = Fraction(db, q), Fraction(da, q)
        cnew = lam * coeffs[i] + mu * coeffs[(i + 1) % n]
        rays.insert(i + 1, new)
        coeffs.insert(i + 1, cnew)
    return rays, coeffs


def smooth_refine(fan):
    """Insert rays until all consecutive determinants are 1; keeps P_{-K}."""
    rays, _ = _refine(fan.rays, [Fraction(1)] * len(fan.rays))
    out = Fan2D(rays)
    if not out.is_smooth():
        raise RuntimeError("refinement left a singular cone")
    if minus_k_polygon(out).vertices != minus_k_polygon(fan).vertices:
        raise RuntimeError("refinement changed the anticanonical polygon")
    return out


def k2_via_refinement(fan):
    """K^2 recomputed by squaring the canonical pullback on the refinement."""
    rays, coeffs = _refine(fan.rays, [Fraction(1)] * len(fan.rays))
    return divisor_square(Fan2D(rays), coeffs)


CONDITION_TEXT = {
    1: "-K_Y is nef and big",
    2: "-K_Y is nef",
    3: "(-K_Y)^2 > 0",
    4: "2|P_{-K_X}| > 1",
    5: "-K_Y is big",
    6: "the Cox ring of Y is noetherian",
    7: "B >= r",
    8: "H^0(Y, K_Y + nC) = 0 for all n > 0",
    9: "I = r(r-1)/2",
    10: "the extended symbolic Rees ring is noetherian",
    11: "C is rational",
}

# one-way implications; (8) and (9) imply each other
IMPLICATIONS = ((1, 2), (2, 7), (1, 3), (3, 4), (4, 5), (5, 8), (5, 6),
                (6, 10), (7, 8), (8, 9), (9, 8), (11, 9), (8, 10))


# conditions maps (1)-(11) to (True|False|None, how)
Thm36Report = namedtuple("Thm36Report", "r char conditions payload")


def thm36_report(phi, r):
    """Decide what is decidable for an r-nct phi and close under implications."""
    if r < 2:
        raise ValueError("the condition diagram concerns r >= 2")
    P = newton_polygon(phi)
    if P.dim != 2:
        raise ValueError("degenerate Newton polygon")
    A = area2(P)
    B, I = pick_counts(P, lattice_points(P))
    fan = normal_fan(P)
    pk_area = area2(minus_k_polygon(fan))
    # intersection numbers on the blow-up Y at the jet point, C the strict
    # transform: C^2 = area2 - r^2, C.E = r, E^2 = -1, C.(-K_Y) = B - r,
    # (-K_Y)^2 = (-K_X)^2 - 1, and two_pa = C.(K_Y + C) + 2 = 2I - r(r-1)
    neg_kx2 = intersection_numbers(fan)["K2"]

    cond = {i: (None, "unknown") for i in range(1, 12)}
    cond[3] = (neg_kx2 - 1 > 0, "computed")
    cond[4] = (pk_area > 1, "computed")
    cond[7] = (B >= r, "computed")
    nine = I == r * (r - 1) // 2
    cond[9] = (nine, "computed")
    cond[8] = (nine, "equals (9)")
    if len(fan.rays) == 3:
        # Picard rank 2: the curve cone is spanned by E and C, and
        # (-K_Y).E = -E^2 = 1 always, so nef comes down to C.(-K_Y) >= 0
        cond[2] = (B - r >= 0, "rank-2 certificate")
    if phi.char > 0:
        cond[10] = (True, "char > 0")

    changed = True
    while changed:
        changed = False
        for x, y in IMPLICATIONS:
            if cond[x][0] is True:
                if cond[y][0] is False:
                    raise DiagramContradiction(
                        "(%d) holds but (%d) fails; the diagram forbids this"
                        % (x, y))
                if cond[y][0] is None:
                    cond[y] = (True, "implied by (%d)=>(%d)" % (x, y))
                    changed = True

    payload = {
        "area2": A, "B": B, "I": I,
        "C2": A - r * r, "CE": r, "E2": -1,
        "CnegK": B - r,
        "negKX2": neg_kx2, "negKY2": neg_kx2 - 1,
        "minus_k_area2": pk_area, "two_pa": 2 * I - r * (r - 1),
    }
    return Thm36Report(r=r, char=phi.char, conditions=cond, payload=payload)


def thm36_to_json(report):
    words = {True: "true", False: "false", None: "unknown"}
    conds = {}
    for i in range(1, 12):
        val, how = report.conditions[i]
        conds[str(i)] = {"status": words[val], "how": how,
                         "statement": CONDITION_TEXT[i]}
    return {"r": report.r, "char": report.char, "conditions": conds,
            "payload": {k: rat_str(v) for k, v in report.payload.items()}}
