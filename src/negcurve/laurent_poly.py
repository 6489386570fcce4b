"""Laurent polynomials in v, w over Q or F_p, and their jets at (1, 1).

Coefficients are plain Fractions at char 0 and residues in [1, p) at char p;
the zero coefficient is never stored.  The jet of phi at the point v = w = 1
is taken in coordinates s = v - 1, t = w - 1: the entry of order (i, j) is
sum_{(a,b)} c_{(a,b)} * binomial(a, i) * binomial(b, j).  Multiplicities are
read on the centred support, where every exponent is nonnegative, from
`integer_terms`, the one scaling to coprime integer coefficients.  `parse`
reads text; `from_json` reads the JSON term list that `serialize` writes.
"""

import re
from fractions import Fraction
from math import comb, gcd, lcm

from .exact_arith import CharMismatch, _residue, parse_rat, rat_str
from .lattice_geom import convex_hull


class ParseError(ValueError):
    """Raised on malformed polynomial text or JSON."""


def _coerce(c, char):
    if char == 0:
        return Fraction(c)
    return _residue(Fraction(c), char)


class LaurentPoly:
    """Immutable Laurent polynomial; terms maps (a, b) to a nonzero coefficient."""

    __slots__ = ("char", "terms")

    def __init__(self, terms, char=0):
        clean = {}
        for (a, b), c in terms.items():
            c = _coerce(c, char)
            if c:
                clean[(int(a), int(b))] = c
        self.char = char
        self.terms = clean

    def _check(self, other):
        if not isinstance(other, LaurentPoly):
            raise TypeError("expected a LaurentPoly")
        if self.char != other.char:
            raise CharMismatch("cannot mix char %s and char %s" % (self.char, other.char))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and self.char == other.char
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.char, frozenset(self.terms.items())))

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return LaurentPoly(out, self.char)

    def __neg__(self):
        return LaurentPoly({k: -c for k, c in self.terms.items()}, self.char)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            return multiply(self, other)
        return LaurentPoly({k: c * Fraction(other) for k, c in self.terms.items()},
                           self.char)

    __rmul__ = __mul__

    def __repr__(self):
        return "LaurentPoly(%r, char=%s)" % (self.terms, self.char)

    def support(self):
        return sorted(self.terms)

    def reduce_mod(self, p):
        """The image at characteristic p; only defined starting from char 0."""
        if self.char != 0:
            raise CharMismatch("already at char %s" % self.char)
        return LaurentPoly(dict(self.terms), p)


def monomial(a, b, c=1, char=0):
    return LaurentPoly({(a, b): c}, char)


_SUPERSCRIPTS = "⁰¹²³⁴⁵⁶⁷⁸⁹"
_SUP_TRANS = str.maketrans(_SUPERSCRIPTS + "⁻", "0123456789-")

_TERM = re.compile(
    r"([+-]?)(\d+)?\*?"
    r"(?:v(?:\^(\(?-?\d+\)?))?)?\*?"
    r"(?:w(?:\^(\(?-?\d+\)?))?)?")


def _clean_text(text):
    text = re.sub("[%s⁻]+" % _SUPERSCRIPTS, lambda m: "^" + m.group(0), text)
    text = text.translate(_SUP_TRANS)
    if re.search(r"\d\s+\d", text):
        raise ParseError("two numbers in a row in %r" % text)
    return re.sub(r"\s+", "", text.replace("−", "-").replace("–", "-"))


def _exponent(tok):
    if tok is None:
        return 1
    return int(tok.strip("()"))


def parse(src, char=0):
    """Parse text like "-1 + 5vw - 3v^2*w"."""
    text = _clean_text(src)
    if not text:
        raise ParseError("empty polynomial text")
    terms = {}
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or m.end() == pos:
            raise ParseError("cannot read a term at %r" % text[pos:])
        sign, digits, ev, ew = m.groups()
        if not sign and not first:
            raise ParseError("missing sign before %r" % text[pos:])
        if not (digits or "v" in m.group(0) or "w" in m.group(0)):
            raise ParseError("empty term at %r" % text[pos:])
        c = int(digits) if digits else 1
        if sign == "-":
            c = -c
        a = _exponent(ev) if "v" in m.group(0) else 0
        b = _exponent(ew) if "w" in m.group(0) else 0
        key = (a, b)
        terms[key] = terms.get(key, 0) + c
        pos = m.end()
        first = False
    return LaurentPoly(terms, char)


def from_json(obj):
    try:
        char = int(obj["char"])
        terms = {}
        for t in obj["terms"]:
            key = (int(t["a"]), int(t["b"]))
            if key != (t["a"], t["b"]):
                raise ValueError("non-integral exponent %s" % ((t["a"], t["b"]),))
            c = parse_rat(str(t["c"]))
            terms[key] = terms.get(key, 0) + c
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError("bad polynomial JSON: %s" % exc)
    try:
        return LaurentPoly(terms, char)
    except CharMismatch as exc:
        raise ParseError(str(exc))


def serialize(phi):
    """JSON form; from_json(serialize(phi)) round-trips."""
    terms = [{"a": a, "b": b, "c": rat_str(phi.terms[(a, b)])}
             for a, b in phi.support()]
    return {"char": phi.char, "terms": terms}


def to_text(phi):
    if not phi.terms:
        return "0"
    parts = []
    for a, b in phi.support():
        c = phi.terms[(a, b)]
        mono = []
        if a:
            mono.append("v" if a == 1 else "v^%d" % a)
        if b:
            mono.append("w" if b == 1 else "w^%d" % b)
        body = "*".join(mono)
        if not body:
            body = rat_str(c) if phi.char == 0 else str(c)
        elif c == 1:
            pass
        elif phi.char == 0 and c == -1:
            body = "-" + body
        else:
            coef = rat_str(c) if phi.char == 0 else str(c)
            body = "%s*%s" % (coef, body)
        parts.append(body)
    text = " + ".join(parts)
    return text.replace("+ -", "- ")


def newton_polygon(phi):
    """Convex hull of the support, in the declared characteristic."""
    if not phi.terms:
        raise ValueError("zero polynomial has no Newton polygon")
    return convex_hull(list(phi.terms))


def multiply(phi, psi):
    phi._check(psi)
    out = {}
    for (a1, b1), c1 in phi.terms.items():
        for (a2, b2), c2 in psi.terms.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return LaurentPoly(out, phi.char)


def unit_multiply(phi, c, alpha=0, beta=0):
    """Multiply by the unit c*v^alpha*w^beta, c != 0."""
    c = _coerce(c, phi.char)
    if not c:
        raise ValueError("unit coefficient must be nonzero")
    return LaurentPoly({(a + alpha, b + beta): cc * c
                        for (a, b), cc in phi.terms.items()}, phi.char)


def integer_terms(phi):
    """{exponent: int}, the integer multiple of phi with content 1.

    At char p, dividing the residues by their content is a unit scaling too.
    """
    den = lcm(*(c.denominator for c in phi.terms.values()))
    ints = {e: c.numerator * (den // c.denominator) for e, c in phi.terms.items()}
    content = gcd(*ints.values())
    return {e: c // content for e, c in ints.items()}


def _order_vanishes(terms, s, char):
    for i in range(s + 1):
        val = sum(c * comb(a, i) * comb(b, s - i) for a, b, c in terms)
        if char:
            val %= char
        if val:
            return False
    return True


def multiplicity_at_one(phi):
    """Largest r with phi in (v-1, w-1)^r.

    The order of vanishing is unchanged by a unit v^alpha w^beta and by a
    nonzero scalar, so the jets are those of `integer_terms(phi)` on its
    centred support, the one whose bounding box starts at (0, 0).
    """
    if not phi.terms:
        raise ValueError("zero polynomial has infinite multiplicity")
    a0 = min(a for a, _ in phi.terms)
    b0 = min(b for _, b in phi.terms)
    terms = [(a - a0, b - b0, c) for (a, b), c in integer_terms(phi).items()]
    # total degree bounds the multiplicity of a polynomial
    bound = max(a for a, _, _ in terms) + max(b for _, b, _ in terms)
    s = 0
    while _order_vanishes(terms, s, phi.char):
        s += 1
        if s > bound:
            raise RuntimeError("multiplicity exceeded the degree bound")
    return s
