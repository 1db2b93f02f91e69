"""Dense univariate polynomials over an exact Field.

Shared by the curve transformations, the branch-point search, and the
Cantor oracle.  Coefficients ascend: UniPoly(F, [c0, c1, c2]) is
c0 + c1*x + c2*x^2.

xgcd carries one Bezout cofactor, b's, and skips the update after the last
Euclidean step; cantor_add derives the other by exact division only where
it needs it.  Products, quotients and remainders, which cannot end in a
zero coefficient, are built without a stripping pass.

Root finding (powmod, roots_in_field, factors_of_degree) lives in
g2div.roots, loaded on first use; its names resolve here too (PEP 562).
"""
from __future__ import annotations

from .errors import DivisionByZero, InexactDivision
from .fields import Field, FieldElement


class UniPoly:
    """Coefficients are stored as the field's native values (Field._native:
    int for F_p, int or Fraction for Q, the element itself for F_{p^k}), reduced and
    without trailing zeros; arithmetic reduces them by % Field._modulus, and
    coeffs, __getitem__, lead and evaluate turn them back into elements by
    Field._from_native.
    An operand that is not a UniPoly is lifted to a constant polynomial."""

    __slots__ = ("field", "_c")

    def __init__(self, field: Field, coeffs):
        native, coerce = field._native, field.coerce
        cs = [native(coerce(c)) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self._c = tuple(cs)

    @staticmethod
    def _make(field: Field, cs) -> "UniPoly":
        """A polynomial from a list of reduced native values."""
        while cs and not cs[-1]:
            cs.pop()
        return _poly(field, tuple(cs))

    @staticmethod
    def zero(field: Field) -> "UniPoly":
        return _poly(field, ())

    @staticmethod
    def one(field: Field) -> "UniPoly":
        return _poly(field, (field._native_one,))

    @staticmethod
    def x(field: Field) -> "UniPoly":
        return _poly(field, (field._native_zero, field._native_one))

    @staticmethod
    def constant(field: Field, c) -> "UniPoly":
        return UniPoly(field, [c])

    @property
    def coeffs(self) -> tuple:
        return tuple(map(self.field._from_native, self._c))

    def degree(self) -> int:
        return len(self._c) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self._c

    def lead(self) -> FieldElement:
        if not self._c:
            raise DivisionByZero("leading coefficient of zero polynomial")
        return self.field._from_native(self._c[-1])

    def __getitem__(self, i: int) -> FieldElement:
        if 0 <= i < len(self._c):
            return self.field._from_native(self._c[i])
        return self.field.zero

    def __eq__(self, other):
        return (isinstance(other, UniPoly) and self.field is other.field
                and self._c == other._c)

    def __hash__(self):
        return hash((self.field, self._c))

    def __add__(self, other):
        a = self._c
        b = other._c if isinstance(other, UniPoly) else self._lift(other)._c
        if len(a) < len(b):
            a, b = b, a
        m = self.field._modulus
        out = list(a)
        for i, y in enumerate(b):
            out[i] = (out[i] + y) % m
        return UniPoly._make(self.field, out)

    __radd__ = __add__

    def __sub__(self, other):
        a = self._c
        b = other._c if isinstance(other, UniPoly) else self._lift(other)._c
        m = self.field._modulus
        out = [(x - y) % m for x, y in zip(a, b)]
        out += a[len(b):]
        out += [-y % m for y in b[len(a):]]
        return UniPoly._make(self.field, out)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __neg__(self):
        m = self.field._modulus
        return _poly(self.field, tuple([-c % m for c in self._c]))

    def __mul__(self, other):
        a = self._c
        b = other._c if isinstance(other, UniPoly) else self._lift(other)._c
        F = self.field
        if not a or not b:
            return _poly(F, ())
        # sums of products stay unreduced until the end; over a field the
        # top coefficient, a product of two nonzero ones, is nonzero
        out = [F._native_zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        # c % F._modulus for each c; map spares the comprehension's frame
        return _poly(F, tuple(map(F._modulus.__rmod__, out)))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
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
        F = self.field
        c = F._native(F.coerce(c))
        return self._scaled(c) if c else _poly(F, ())

    def _scaled(self, c) -> "UniPoly":
        """self times the nonzero reduced native c."""
        m = self.field._modulus
        return _poly(self.field, tuple([a * c % m for a in self._c]))

    def _divide(self, other):
        """Quotient and remainder as lists of reduced natives, each without
        trailing zeros."""
        b = other._c if isinstance(other, UniPoly) else self._lift(other)._c
        if not b:
            raise DivisionByZero("polynomial division by zero")
        F = self.field
        rem = list(self._c)
        db = len(b) - 1
        if len(rem) <= db:
            return [], rem
        m = F._modulus
        lead = b[-1]
        inv_lead = None if lead == F._native_one else F._invert(lead)
        low = b[:-1]  # the leading term cancels by construction
        q = [F._native_zero] * (len(rem) - db)
        while len(rem) > db:
            c = rem.pop()  # nonzero: rem never ends in a zero
            if inv_lead is not None:
                c = c * inv_lead % m
            shift = len(rem) - db
            q[shift] = c  # the first one is the top, so q ends in no zero
            for i, bi in enumerate(low, shift):
                rem[i] = (rem[i] - c * bi) % m
            while rem and not rem[-1]:
                rem.pop()
        return q, rem

    def divmod(self, other: "UniPoly"):
        q, r = self._divide(other)
        return _poly(self.field, tuple(q)), _poly(self.field, tuple(r))

    def __mod__(self, other):
        return _poly(self.field, tuple(self._divide(other)[1]))

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self._divide(other)
        if r:
            raise InexactDivision("nonzero remainder")
        return _poly(self.field, tuple(q))

    def monic(self) -> "UniPoly":
        if not self._c or self._c[-1] == self.field._native_one:
            return self
        return self._scaled(self.field._invert(self._c[-1]))

    def derivative(self) -> "UniPoly":
        m = self.field._modulus
        return UniPoly._make(self.field, [c * i % m for i, c in enumerate(self._c) if i])

    def evaluate(self, x) -> FieldElement:
        F = self.field
        if not self._c:
            return F.zero
        x = F._native(F.coerce(x))
        m = F._modulus
        acc = self._c[-1]
        for c in reversed(self._c[:-1]):
            acc = (acc * x + c) % m
        return F._from_native(acc)

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


def _poly(field: Field, cs: tuple) -> UniPoly:
    """A polynomial from a tuple of reduced native values whose last entry,
    if any, is nonzero, as in a product, a quotient or a remainder; a sum
    or difference, whose top can cancel, goes through _make."""
    p = object.__new__(UniPoly)
    p.field = field
    p._c = cs
    return p


def gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def xgcd(a: UniPoly, b: UniPoly):
    """(g, t): g = gcd(a, b), monic, and t with s*a + t*b = g for some s.

    Only b's cofactor runs through the Euclidean steps, and not through the
    last one, whose remainder is zero; a caller that needs s takes
    (g - t*b).exact_div(a)."""
    F = a.field
    r0, r1 = a, b
    t0, t1 = UniPoly.zero(F), UniPoly.one(F)
    while r1._c:
        q, r = r0._divide(r1)
        if not r:
            r0, t0 = r1, t1
            break
        r0, r1 = r1, _poly(F, tuple(r))
        t0, t1 = t1, t0 - _poly(F, tuple(q)) * t1
    if not r0._c or r0._c[-1] == F._native_one:
        return r0, t0
    c = F._invert(r0._c[-1])
    return r0._scaled(c), t0._scaled(c)


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


def __getattr__(name):
    if name not in ("powmod", "roots_in_field", "factors_of_degree"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import roots
    return getattr(roots, name)
