"""Dense univariate polynomials over an exact Field.

Shared by the curve transformations, the branch-point search, and the
Cantor oracle.  Coefficients ascend: UniPoly(F, [c0, c1, c2]) is
c0 + c1*x + c2*x^2.
"""
from __future__ import annotations

from .errors import DivisionByZero, InexactDivision
from .fields import Field, FieldElement


class UniPoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        cs = [field.coerce(c) for c in coeffs]
        while cs and field.is_zero(cs[-1]):
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @staticmethod
    def zero(field: Field) -> "UniPoly":
        return UniPoly(field, [])

    @staticmethod
    def one(field: Field) -> "UniPoly":
        return UniPoly(field, [1])

    @staticmethod
    def x(field: Field) -> "UniPoly":
        return UniPoly(field, [0, 1])

    @staticmethod
    def constant(field: Field, c) -> "UniPoly":
        return UniPoly(field, [c])

    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def lead(self) -> FieldElement:
        if self.is_zero():
            raise DivisionByZero("leading coefficient of zero polynomial")
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> FieldElement:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def __eq__(self, other):
        return (isinstance(other, UniPoly) and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field.key(), tuple(c.value for c in self.coeffs)))

    def __add__(self, other):
        other = self._lift(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.field, [self[i] + other[i] for i in range(n)])

    def __sub__(self, other):
        other = self._lift(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.field, [self[i] - other[i] for i in range(n)])

    def __neg__(self):
        return UniPoly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        other = self._lift(other)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not self.field.is_zero(a):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return UniPoly(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        result = UniPoly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def _lift(self, other) -> "UniPoly":
        if isinstance(other, UniPoly):
            return other
        return UniPoly.constant(self.field, other)

    def scale(self, c) -> "UniPoly":
        c = self.field.coerce(c)
        return UniPoly(self.field, [a * c for a in self.coeffs])

    def shift(self, n: int) -> "UniPoly":
        """Multiply by x^n."""
        if self.is_zero():
            return self
        return UniPoly(self.field, (self.field.zero,) * n + self.coeffs)

    def divmod(self, other: "UniPoly"):
        other = self._lift(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        db = other.degree()
        lead = other.lead()
        inv_lead = None if lead == F.one else F.inv(lead)
        low = other.coeffs[:-1]  # the leading term cancels by construction
        q = [F.zero] * max(len(rem) - db, 1)
        while rem and len(rem) - 1 >= db:
            c = rem.pop()
            if inv_lead is not None:
                c = c * inv_lead
            shift = len(rem) - db
            q[shift] = c
            if not F.is_zero(c):
                for i, bi in enumerate(low):
                    rem[shift + i] = rem[shift + i] - c * bi
            while rem and F.is_zero(rem[-1]):
                rem.pop()
        return UniPoly(F, q), UniPoly(F, rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise InexactDivision("nonzero remainder")
        return q

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.lead()))

    def derivative(self) -> "UniPoly":
        return UniPoly(self.field,
                       [self.coeffs[i] * i for i in range(1, len(self.coeffs))])

    def evaluate(self, x) -> FieldElement:
        x = self.field.coerce(x)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "UniPoly") -> "UniPoly":
        acc = UniPoly.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * inner + UniPoly.constant(self.field, c)
        return acc

    def map_coeffs(self, target_field: Field, fn) -> "UniPoly":
        return UniPoly(target_field, [fn(c) for c in self.coeffs])

    def __repr__(self):
        if self.is_zero():
            return "UniPoly(0)"
        parts = []
        for i in range(self.degree(), -1, -1):
            c = self[i]
            if self.field.is_zero(c):
                continue
            s = self.field.to_str(c)
            parts.append(s if i == 0 else (f"({s})*x^{i}" if i > 1 else f"({s})*x"))
        return "UniPoly(" + " + ".join(parts) + ")"


def gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def xgcd(a: UniPoly, b: UniPoly):
    """Returns (g, s, t) monic with s*a + t*b = g."""
    F = a.field
    r0, r1 = a, b
    s0, s1 = UniPoly.one(F), UniPoly.zero(F)
    t0, t1 = UniPoly.zero(F), UniPoly.one(F)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    c = F.inv(r0.lead())
    return r0.scale(c), s0.scale(c), t0.scale(c)


def resultant(a: UniPoly, b: UniPoly) -> FieldElement:
    """Sylvester-determinant resultant of two univariate polynomials.

    Computed by the Euclidean relation; matches the determinant with the
    a-rows first and coefficients in descending order.
    """
    F = a.field
    if a.is_zero() or b.is_zero():
        return F.zero
    m, n = a.degree(), b.degree()
    if m == 0:
        return F.pow(a.lead(), n)
    if n == 0:
        return F.pow(b.lead(), m)
    r = a % b
    if r.is_zero():
        return F.zero
    lead = F.pow(b.lead(), m - r.degree())
    sign = F.one if (m * n) % 2 == 0 else -F.one
    return sign * lead * resultant(b, r)


def roots_in_field(poly: UniPoly) -> list:
    """All roots of poly in its base field, deterministically sorted.

    Finite fields are scanned exhaustively (desk scale).  Over Q the monic
    rational-root search runs on the cleared-denominator model.
    """
    F = poly.field
    if poly.is_zero():
        raise DivisionByZero("zero polynomial has every root")
    found = []
    if F.order() is not None:
        for x in F.elements():
            if F.is_zero(poly.evaluate(x)):
                found.append(x)
        return found
    # rational roots: substitute x = u/c with c clearing denominators, monic in u
    from fractions import Fraction
    from math import lcm
    if poly.degree() == 0:
        return []
    coeffs = [c.value for c in poly.coeffs]
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    c = lcm(*[f.denominator for f in monic])
    n = len(monic) - 1
    ints = [int(monic[i] * c ** (n - i)) for i in range(n + 1)]  # monic in u = c*x
    if ints[0] == 0:
        found.append(F.zero)
        while ints[0] == 0 and len(ints) > 1:
            ints = ints[1:]
    const = abs(ints[0])
    if const == 0:
        return sorted(set(found), key=F.sort_key)
    divisors = []
    d = 1
    while d * d <= const:
        if const % d == 0:
            divisors += [d, const // d]
        d += 1
    for d in sorted(set(divisors)):
        for u in (d, -d):
            x = F.element(Fraction(u, c))
            if F.is_zero(poly.evaluate(x)):
                found.append(x)
    return sorted(set(found), key=F.sort_key)
