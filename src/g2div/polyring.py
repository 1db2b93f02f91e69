"""Sparse multivariate polynomials graded by Sato weights.

The grading assigns every variable a nonnegative integer weight (x has
weight 2, y weight 5, the curve coefficients their index); all formulas
transcribed from the addition/duplication laws are homogeneous in this
grading, and ``is_homogeneous`` is the standing sanity check after any
transcription.

Terms live in a dict keyed by exponent vectors; the deterministic term
order is graded-lexicographic: first by weighted degree, then by exponent
vector.  Resultants use the subresultant polynomial-remainder sequence,
cross-checked against the Sylvester determinant on small instances.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, InexactDivision, MixedFields
from .fields import Field, FieldElement

NEG_INF = float("-inf")
_SCALARS = (int, Fraction, FieldElement)


class PolyRing:
    """Fixed variable set with per-variable Sato weights over a Field."""

    def __init__(self, field: Field, variables, weights):
        variables = tuple(variables)
        weights = tuple(int(w) for w in weights)
        if len(variables) != len(weights) or len(set(variables)) != len(variables):
            raise ValueError("variables/weights mismatch")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        self.field = field
        self.variables = variables
        self.weights = weights
        self.index = {v: i for i, v in enumerate(variables)}
        self._zero_exp = (0,) * len(variables)

    def key(self):
        return (self.field.key(), self.variables, self.weights)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        ws = ",".join(f"{v}:{w}" for v, w in zip(self.variables, self.weights))
        return f"PolyRing({self.field.short_name()}; {ws})"

    # -- construction --------------------------------------------------------
    def zero(self) -> "WeightedPoly":
        return WeightedPoly(self, {})

    def one(self) -> "WeightedPoly":
        return self.const(1)

    def const(self, c) -> "WeightedPoly":
        c = self.field.coerce(c)
        if self.field.is_zero(c):
            return self.zero()
        return WeightedPoly(self, {self._zero_exp: c})

    def var(self, name: str) -> "WeightedPoly":
        i = self.index[name]
        exp = tuple(1 if j == i else 0 for j in range(len(self.variables)))
        return WeightedPoly(self, {exp: self.field.one})

    def gens(self) -> dict:
        return {v: self.var(v) for v in self.variables}

    def term_weight(self, exp) -> int:
        return sum(e * w for e, w in zip(exp, self.weights))

    def monomial(self, exp, coeff=1) -> "WeightedPoly":
        c = self.field.coerce(coeff)
        if self.field.is_zero(c):
            return self.zero()
        return WeightedPoly(self, {tuple(exp): c})


class WeightedPoly:
    __slots__ = ("ring", "_terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self._terms = terms  # exponent tuple -> nonzero FieldElement

    # -- inspection ------------------------------------------------------------
    def terms(self):
        return self._terms.items()

    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, exp) -> FieldElement:
        return self._terms.get(tuple(exp), self.ring.field.zero)

    def weighted_degree(self):
        if not self._terms:
            return NEG_INF
        tw = self.ring.term_weight
        return max(tw(e) for e in self._terms)

    def is_homogeneous(self) -> bool:
        if not self._terms:
            return True
        tw = self.ring.term_weight
        it = iter(self._terms)
        w0 = tw(next(it))
        return all(tw(e) == w0 for e in it)

    def degree_in(self, name: str) -> int:
        """Ordinary degree in one variable; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        i = self.ring.index[name]
        return max(e[i] for e in self._terms)

    def leading(self):
        """(exponent, coefficient) under grlex-by-weight order."""
        if not self._terms:
            raise DivisionByZero("leading term of zero polynomial")
        tw = self.ring.term_weight
        exp = max(self._terms, key=lambda e: (tw(e), e))
        return exp, self._terms[exp]

    # -- arithmetic --------------------------------------------------------------
    def _check(self, other):
        """other as a polynomial of this ring; NotImplemented for an operand
        type this class does not know, so the other operand's reflected
        operator runs."""
        if isinstance(other, WeightedPoly):
            if other.ring != self.ring:
                raise MixedFields("polynomials from different rings")
            return other
        if isinstance(other, _SCALARS):
            return self.ring.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        F = self.ring.field
        out = dict(self._terms)
        for e, c in other._terms.items():
            if e in out:
                s = F.add(out[e], c)
                if F.is_zero(s):
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        return WeightedPoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        F = self.ring.field
        return WeightedPoly(self.ring, {e: F.neg(c) for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._check(other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        other = self._check(other)
        return NotImplemented if other is NotImplemented else other - self

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        F = self.ring.field
        if not self._terms or not other._terms:
            return self.ring.zero()
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        out: dict = {}
        for eb, cb in b.items():
            for ea, ca in a.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                c = F.mul(ca, cb)
                if e in out:
                    s = F.add(out[e], c)
                    if F.is_zero(s):
                        del out[e]
                    else:
                        out[e] = s
                else:
                    out[e] = c
        return WeightedPoly(self.ring, out)

    __rmul__ = __mul__

    def scale(self, c) -> "WeightedPoly":
        F = self.ring.field
        c = F.coerce(c)
        if F.is_zero(c):
            return self.ring.zero()
        return WeightedPoly(self.ring, {e: F.mul(v, c) for e, v in self._terms.items()})

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def exact_div(self, g: "WeightedPoly") -> "WeightedPoly":
        """Quotient self/g; raises InexactDivision unless g divides exactly."""
        g = self._check(g)
        if g is NotImplemented:
            raise MixedFields("divisor is not a polynomial of this ring")
        if g.is_zero():
            raise DivisionByZero("division by zero polynomial")
        F = self.ring.field
        ge, gc = g.leading()
        gc_inv = F.inv(gc)
        rem = self
        qt: dict = {}
        while not rem.is_zero():
            re, rc = rem.leading()
            qe = tuple(a - b for a, b in zip(re, ge))
            if any(x < 0 for x in qe):
                raise InexactDivision("leading term not divisible")
            qc = F.mul(rc, gc_inv)
            qt[qe] = qc
            rem = rem - WeightedPoly(self.ring, {qe: qc}) * g
        return WeightedPoly(self.ring, qt)

    def __eq__(self, other):
        if isinstance(other, WeightedPoly):
            if other.ring != self.ring:
                raise MixedFields("polynomials from different rings")
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == self.ring.const(other)
        return NotImplemented

    __hash__ = None

    # -- calculus / substitution ---------------------------------------------------
    def substitute(self, bindings: dict) -> "WeightedPoly":
        """Simultaneous substitution var -> WeightedPoly/FieldElement/int."""
        images = {}
        for name, v in bindings.items():
            if isinstance(v, WeightedPoly):
                images[self.ring.index[name]] = v
            else:
                images[self.ring.index[name]] = self.ring.const(v)
        return self._transport(self.ring, images, lambda c: c)

    def transport(self, target: PolyRing, var_images: dict, coeff_map=None) -> "WeightedPoly":
        """Rebuild in another ring; var_images maps names to target polynomials."""
        images = {}
        for name, v in var_images.items():
            if not isinstance(v, WeightedPoly):
                v = target.const(v)
            images[self.ring.index[name]] = v
        if coeff_map is None:
            coeff_map = lambda c: target.field.coerce(c.value)
        return self._transport(target, images, coeff_map)

    def _transport(self, target: PolyRing, images: dict, coeff_map) -> "WeightedPoly":
        n = len(self.ring.variables)
        for i in range(n):
            if i not in images:
                if target is self.ring or self.ring.variables[i] in target.index:
                    images[i] = target.var(self.ring.variables[i])
                else:
                    raise MixedFields(f"no image for variable {self.ring.variables[i]}")
        pow_cache: dict = {}

        def power(i, e):
            if e == 0:
                return target.one()
            key = (i, e)
            if key not in pow_cache:
                pow_cache[key] = images[i] ** e
            return pow_cache[key]

        acc = target.zero()
        for e, c in self._terms.items():
            t = target.const(coeff_map(c))
            for i, ei in enumerate(e):
                if ei:
                    t = t * power(i, ei)
            acc = acc + t
        return acc

    def evaluate(self, values: dict) -> FieldElement:
        """Full numeric evaluation; values maps every occurring var to a field element."""
        F = self.ring.field
        idx_vals = {}
        for name, v in values.items():
            idx_vals[self.ring.index[name]] = F.coerce(v)
        pow_cache: dict = {}

        def power(i, e):
            key = (i, e)
            if key not in pow_cache:
                pow_cache[key] = F.pow(idx_vals[i], e)
            return pow_cache[key]

        acc = F.zero
        for e, c in self._terms.items():
            t = c
            for i, ei in enumerate(e):
                if ei:
                    t = F.mul(t, power(i, ei))
            acc = F.add(acc, t)
        return acc

    # -- univariate views -------------------------------------------------------
    def coeffs_in(self, name: str) -> list:
        """Coefficients (as WeightedPoly without name) ascending in name."""
        i = self.ring.index[name]
        d = self.degree_in(name)
        buckets: list = [dict() for _ in range(d + 1)]
        for e, c in self._terms.items():
            ne = e[:i] + (0,) + e[i + 1:]
            buckets[e[i]][ne] = c
        return [WeightedPoly(self.ring, b) for b in buckets]

    # -- display --------------------------------------------------------------
    def sorted_terms(self):
        tw = self.ring.term_weight
        return sorted(self._terms.items(), key=lambda ec: (tw(ec[0]), ec[0]), reverse=True)

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        F = self.ring.field
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, ei in zip(self.ring.variables, e):
                if ei == 1:
                    factors.append(name)
                elif ei > 1:
                    factors.append(f"{name}^{ei}")
            cs = F.to_str(c)
            if factors and cs == "1":
                body = "*".join(factors)
            elif factors and cs == "-1":
                body = "-" + "*".join(factors)
            else:
                body = "*".join([cs] + factors)
            parts.append(body)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def to_json(self) -> dict:
        F = self.ring.field
        return {
            "vars": list(self.ring.variables),
            "weights": list(self.ring.weights),
            "terms": [{"exps": list(e), "coeff": F.to_str(c)} for e, c in self.sorted_terms()],
        }

    @staticmethod
    def from_json(ring: PolyRing, obj: dict) -> "WeightedPoly":
        if tuple(obj["vars"]) != ring.variables:
            raise MixedFields("variable header mismatch")
        acc = ring.zero()
        for t in obj["terms"]:
            acc = acc + ring.monomial(tuple(t["exps"]), ring.field.from_str(t["coeff"]))
        return acc

    def __repr__(self):
        text = self.to_text()
        if len(text) > 160:
            text = text[:157] + "..."
        return f"Poly({text})"


# -------------------------------------------------------------------------
# resultants

def _prem(a: list, b: list, ring: PolyRing):
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b (ascending lists)."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    e = len(a) - len(b) + 1
    while r and len(r) - 1 >= db:
        lead = r[-1]
        shift = len(r) - 1 - db
        r = [c * lb for c in r]
        for i in range(db + 1):
            r[shift + i] = r[shift + i] - lead * b[i]
        r.pop()
        while r and r[-1].is_zero():
            r.pop()
        e -= 1
    if e > 0 and r:
        f = lb ** e
        r = [c * f for c in r]
    return r


def resultant(p: WeightedPoly, q: WeightedPoly, name: str) -> WeightedPoly:
    """Resultant of p and q with respect to one variable.

    Subresultant PRS (no content removal); the result matches the Sylvester
    determinant with p-rows on top, which fixes the sign convention.
    """
    ring = p.ring
    if q.ring != ring:
        raise MixedFields("polynomials from different rings")
    if p.is_zero() or q.is_zero():
        return ring.zero()
    A = p.coeffs_in(name)
    B = q.coeffs_in(name)
    da, db = len(A) - 1, len(B) - 1
    sign = 1
    if da < db:
        A, B, da, db = B, A, db, da
        if (da * db) % 2 == 1:
            sign = -sign
    if db == 0:
        return (B[0] ** da).scale(sign) if da else ring.one().scale(sign)
    g = ring.one()
    h = ring.one()
    while True:
        da, db = len(A) - 1, len(B) - 1
        d = da - db
        if (da % 2 == 1) and (db % 2 == 1):
            sign = -sign
        R = _prem(A, B, ring)
        if not R:
            return ring.zero()  # common factor of positive degree
        divisor = g * (h ** d)
        A, B = B, [c.exact_div(divisor) for c in R]
        g = A[-1]
        if d > 0:
            h = (g ** d).exact_div(h ** (d - 1)) if d > 1 else g
        if len(B) - 1 == 0:
            break
    dA = len(A) - 1
    res = (B[0] ** dA).exact_div(h ** (dA - 1)) if dA > 1 else (B[0] ** dA)
    return res.scale(sign)
