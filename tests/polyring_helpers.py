"""Polynomial-ring cross-check helpers that only the tests use."""
from g2div.errors import DivisionByZero, InexactDivision, MixedFields
from g2div.fields import FieldElement
from g2div.polyring import EXP_BITS, NEG_INF, SLOT, PolyRing, WeightedPoly
from g2div.torsion import MUMFORD_COORDS, X_COORDS, XY_COORDS, _ring

_SLOT_MASK = (1 << SLOT) - 1


# -------------------------------------------------------------------------
# the formal rings of the division polynomials, over Q with the curve
# coefficients as generators

def mumford_ring() -> PolyRing:
    return _ring(MUMFORD_COORDS)


def xy_ring() -> PolyRing:
    return _ring(XY_COORDS)


def x_pair_ring() -> PolyRing:
    return _ring(X_COORDS)


# -------------------------------------------------------------------------
# construction, univariate views and JSON input

def pack(ring: PolyRing, exp) -> int:
    """The packed exponent of prod x_i^exp_i (see g2div.polyring);
    OverflowError for an exponent outside 0..2^EXP_BITS - 1."""
    exp = tuple(exp)
    if len(exp) != len(ring.variables):
        raise ValueError("exponent vector does not match the variables")
    key = 0
    for e, s, w in zip(exp, ring._shifts, ring.weights):
        if e < 0 or e >> EXP_BITS:
            raise OverflowError(f"exponent {e} outside 0..2^{EXP_BITS} - 1")
        key += (e << s) + (e * w << ring._top)
    return key


def weighted_poly(ring: PolyRing, terms: dict) -> WeightedPoly:
    """The polynomial {exponent tuple: element, int or Fraction} of ring."""
    F = ring.field
    native = (F._native(F.coerce(c)) for c in terms.values())
    return WeightedPoly._make(ring, {pack(ring, e): c for e, c in zip(terms, native) if c})


def monomial(ring: PolyRing, exp, coeff=1) -> WeightedPoly:
    """coeff * prod x_i^exp_i; OverflowError for an exponent outside a slot."""
    return weighted_poly(ring, {tuple(exp): coeff})


def degree_in(poly: WeightedPoly, name: str) -> int:
    """Ordinary degree in one variable; -1 for the zero polynomial."""
    if poly.is_zero():
        return -1
    s = poly.ring._shifts[poly.ring.index[name]]
    return max((k >> s) & _SLOT_MASK for k in poly._terms)


def coeffs_in(poly: WeightedPoly, name: str) -> list:
    """Coefficients (as WeightedPoly without name) ascending in name."""
    ring = poly.ring
    s = ring._shifts[ring.index[name]]
    (unit,) = ring.var(name)._terms
    buckets: list = [{} for _ in range(degree_in(poly, name) + 1)]
    for k, c in poly._terms.items():
        e = (k >> s) & _SLOT_MASK
        buckets[e][k - e * unit] = c
    return [WeightedPoly._make(ring, b) for b in buckets]


def from_json(ring: PolyRing, obj: dict) -> WeightedPoly:
    """The polynomial of a to_json object, read into ring."""
    if tuple(obj["vars"]) != ring.variables:
        raise MixedFields("variable header mismatch")
    F = ring.field
    out: dict = {}
    for t in obj["terms"]:
        k = pack(ring, t["exps"])
        out[k] = out.get(k, F._native_zero) + F._native(F.from_str(t["coeff"]))
    return ring._finish(out)


# -------------------------------------------------------------------------
# calculus, resultants and reduction

def partial_derivative(poly: WeightedPoly, name: str) -> WeightedPoly:
    """d poly / d name, term by term."""
    ring = poly.ring
    i = ring.index[name]
    F = ring.field
    out: dict = {}
    for e, c in poly.sorted_terms():
        if e[i] == 0:
            continue
        ne = e[:i] + (e[i] - 1,) + e[i + 1:]
        nc = F.add(out.get(ne, F.zero), F.mul(c, F.element(e[i])))
        if F.is_zero(nc):
            out.pop(ne, None)
        else:
            out[ne] = nc
    return weighted_poly(ring, out)


def sylvester_resultant(p: WeightedPoly, q: WeightedPoly, name: str) -> WeightedPoly:
    """Resultant in one variable: Bareiss elimination on the Sylvester matrix
    with p's rows on top, which fixes the sign convention.  0 when p or q is
    zero, 1 when both are nonzero constants."""
    ring = p.ring
    A = coeffs_in(p, name)
    B = coeffs_in(q, name)
    m, n = len(A) - 1, len(B) - 1
    if m < 0 or n < 0:
        return ring.zero()
    if m == 0 and n == 0:
        return ring.one()
    rows = []
    desc_a = list(reversed(A))
    desc_b = list(reversed(B))
    for i in range(n):
        rows.append([ring.zero()] * i + desc_a + [ring.zero()] * (n - 1 - i))
    for i in range(m):
        rows.append([ring.zero()] * i + desc_b + [ring.zero()] * (m - 1 - i))
    return det_bareiss(rows, ring)


def det_bareiss(rows: list, ring: PolyRing) -> WeightedPoly:
    """Fraction-free determinant over the polynomial ring."""
    n = len(rows)
    if n == 0:
        return ring.one()
    M = [list(r) for r in rows]
    sign = 1
    prev = ring.one()
    for k in range(n - 1):
        if M[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not M[i][k].is_zero()), None)
            if swap is None:
                return ring.zero()
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = M[i][j] * M[k][k] - M[i][k] * M[k][j]
                M[i][j] = num.exact_div(prev)
            M[i][k] = ring.zero()
        prev = M[k][k]
    return M[n - 1][n - 1].scale(sign)


def reduce_power(poly: WeightedPoly, name: str, deg: int,
                 replacement: WeightedPoly) -> WeightedPoly:
    """Rewrite name^e as name^(e mod deg) * replacement^(e // deg)."""
    ring = poly.ring
    i = ring.index[name]
    repl_pows: dict = {}
    acc = ring.zero()
    for e, c in poly.sorted_terms():
        q, r = divmod(e[i], deg)
        if q == 0:
            acc = acc + weighted_poly(ring, {e: c})
            continue
        if q not in repl_pows:
            repl_pows[q] = replacement ** q
        ne = e[:i] + (r,) + e[i + 1:]
        acc = acc + weighted_poly(ring, {ne: c}) * repl_pows[q]
    return acc


# -------------------------------------------------------------------------
# rational expressions (numerator/denominator pairs, no gcd machinery)

class RationalPoly:
    """Quotient of two WeightedPolys; cancellation only by exact division."""

    __slots__ = ("num", "den")

    def __init__(self, num: WeightedPoly, den: WeightedPoly = None):
        if den is None:
            den = num.ring.one()
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        self.num = num
        self.den = den

    def _lift(self, other) -> "RationalPoly":
        if isinstance(other, RationalPoly):
            return other
        if isinstance(other, WeightedPoly):
            return RationalPoly(other)
        return RationalPoly(self.num.ring.const(other))

    def __add__(self, other):
        o = self._lift(other)
        if self.den == o.den:
            return RationalPoly(self.num + o.num, self.den)
        return RationalPoly(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalPoly(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        return RationalPoly(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o.num.is_zero():
            raise DivisionByZero("division by zero rational expression")
        return RationalPoly(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return RationalPoly(self.den, self.num) ** (-e)
        return RationalPoly(self.num ** e, self.den ** e)

    def cancel(self) -> "RationalPoly":
        """Try to divide numerator by denominator exactly."""
        if self.num.is_zero():
            return RationalPoly(self.num.ring.zero())
        try:
            return RationalPoly(self.num.exact_div(self.den))
        except InexactDivision:
            return self

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        o = self._lift(other)
        return (self.num * o.den) == (o.num * self.den)

    __hash__ = None

    def weight(self):
        if self.num.is_zero():
            return NEG_INF
        return self.num.weighted_degree() - self.den.weighted_degree()

    def is_homogeneous(self) -> bool:
        return self.num.is_homogeneous() and self.den.is_homogeneous()

    def __repr__(self):
        return f"RationalPoly(({self.num.to_text()}) / ({self.den.to_text()}))"


# -------------------------------------------------------------------------
# tuple-keyed reference for differential tests of the packed WeightedPoly

class RefPoly:
    """{exponent tuple: nonzero FieldElement} with schoolbook algorithms on
    field elements, the representation WeightedPoly had before it packed
    exponents and stored native coefficients."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars: int, terms: dict):
        self.field = field
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if not field.is_zero(c)}

    @staticmethod
    def of(poly: WeightedPoly) -> "RefPoly":
        return RefPoly(poly.ring.field, len(poly.ring.variables), dict(poly.sorted_terms()))

    def const(self, c) -> "RefPoly":
        return RefPoly(self.field, self.nvars, {(0,) * self.nvars: self.field.coerce(c)})

    def __eq__(self, other):
        return self.terms == other.terms

    def __repr__(self):
        return f"RefPoly({self.terms!r})"

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, self.field.zero) + c
        return RefPoly(self.field, self.nvars, out)

    def __neg__(self):
        return RefPoly(self.field, self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, self.field.zero) + ca * cb
        return RefPoly(self.field, self.nvars, out)

    def __pow__(self, k: int) -> "RefPoly":
        out = self.const(1)
        for _ in range(k):
            out = out * self
        return out

    def exact_div(self, g: "RefPoly", weights) -> "RefPoly":
        """Long division by the leading term under (weight, exponent) order,
        rebuilding the remainder at each step."""
        def order(e):
            return (sum(x * w for x, w in zip(e, weights)), e)

        ge = max(g.terms, key=order)
        inv = self.field.inv(g.terms[ge])
        rem, out = self, {}
        while rem.terms:
            re = max(rem.terms, key=order)
            qe = tuple(x - y for x, y in zip(re, ge))
            if min(qe) < 0:
                raise InexactDivision("leading term not divisible")
            out[qe] = rem.terms[re] * inv
            rem = rem - RefPoly(self.field, self.nvars, {qe: out[qe]}) * g
        return RefPoly(self.field, self.nvars, out)

    def evaluate(self, point) -> FieldElement:
        acc = self.field.zero
        for e, c in self.terms.items():
            for v, k in zip(point, e):
                c = c * self.field.pow(v, k)
            acc = acc + c
        return acc

    def coeffs_in(self, i: int) -> list:
        degree = max((e[i] for e in self.terms), default=-1)
        buckets = [dict() for _ in range(degree + 1)]
        for e, c in self.terms.items():
            buckets[e[i]][e[:i] + (0,) + e[i + 1:]] = c
        return [RefPoly(self.field, self.nvars, b) for b in buckets]
