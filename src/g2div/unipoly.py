"""Dense univariate polynomials over an exact Field.

Shared by the curve transformations, the branch-point search, and the
Cantor oracle.  Coefficients ascend: UniPoly(F, [c0, c1, c2]) is
c0 + c1*x + c2*x^2.

The arithmetic is a set of list kernels on the field's reduced natives
(_add, _sub, _mul, _divmod, _exact_div, _scale, _monic, _xgcd): UniPoly's
operators, xgcd and gcd wrap them, and cantor_add runs them directly.
xgcd carries one Bezout cofactor, b's, and stops at a unit remainder;
cantor_add derives the other by exact division only where it needs it.

Root finding (powmod, roots_in_field, factors_of_degree) lives in
g2div.roots, loaded on first use; its names resolve here too (PEP 562).
"""
from __future__ import annotations

from .errors import DivisionByZero, InexactDivision
from .fields import Field, FieldElement


class UniPoly:
    """Coefficients are stored as the field's native values (Field._native:
    int for F_p, int or Fraction for Q, the element itself for F_{p^k}), reduced and
    without trailing zeros; the kernels below reduce them by % Field._modulus, and
    coeffs, __getitem__, lead and evaluate turn them back into elements by
    Field._from_native.
    An operand that is not a UniPoly is lifted to a constant polynomial."""

    __slots__ = ("field", "_c")

    def __init__(self, field: Field, coeffs):
        native, coerce = field._native, field.coerce
        self.field = field
        self._c = tuple(_strip([native(coerce(c)) for c in coeffs]))

    @staticmethod
    def _make(field: Field, cs) -> "UniPoly":
        """A polynomial from a list of reduced native values."""
        return _poly(field, _strip(cs))

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

    def _other(self, other) -> tuple:  # other's coefficients, a constant lifted
        return other._c if isinstance(other, UniPoly) else UniPoly.constant(self.field, other)._c

    def __add__(self, other):
        return _poly(self.field, _add(self.field, self._c, self._other(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return _poly(self.field, _sub(self.field, self._c, self._other(other)))

    def __rsub__(self, other):
        return _poly(self.field, _sub(self.field, self._other(other), self._c))

    def __neg__(self):
        return _poly(self.field, _sub(self.field, (), self._c))

    def __mul__(self, other):
        return _poly(self.field, _mul(self.field, self._c, self._other(other)))

    __rmul__ = __mul__

    def scale(self, c) -> "UniPoly":
        F = self.field
        c = F._native(F.coerce(c))
        return _poly(F, _scale(F, self._c, c) if c else ())

    def __mod__(self, other):
        return _poly(self.field, _divmod(self.field, self._c, self._other(other))[1])

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        return _poly(self.field, _exact_div(self.field, self._c, self._other(other)))

    def monic(self) -> "UniPoly":
        c = _monic(self.field, self._c)
        return self if c is self._c else _poly(self.field, c)

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


def _poly(field: Field, cs) -> UniPoly:
    """A polynomial from a sequence of reduced native values whose last
    entry, if any, is nonzero, as every kernel returns."""
    p = object.__new__(UniPoly)
    p.field = field
    p._c = tuple(cs)
    return p


# ---------------------------------------------------------------------------
# list kernels: a and b are sequences of the field F's reduced natives without
# trailing zeros, and so is every result.  Only a sum or difference of equal
# lengths can cancel its top, so only it is stripped; no product or quotient.

def _strip(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _add(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    m = F._modulus
    out = [(x + y) % m for x, y in zip(a, b)]
    if len(a) == len(b):
        return _strip(out)
    out += a[len(b):]
    return out


def _sub(F, a, b):
    m = F._modulus
    out = [(x - y) % m for x, y in zip(a, b)]
    if len(a) == len(b):
        return _strip(out)
    out += a[len(b):]
    out += [-y % m for y in b[len(a):]]
    return out


def _mul(F, a, b):
    if not a or not b:
        return []
    # sums stay unreduced until the end; the top, a product of nonzeros, is nonzero
    out = [F._native_zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    m = F._modulus
    return [c % m for c in out]


def _scale(F, a, c):
    """a times the nonzero reduced native c."""
    m = F._modulus
    return [x * c % m for x in a]


def _monic(F, a):
    """a over its leading coefficient; a itself if that is one or a is zero."""
    if not a or a[-1] == F._native_one:
        return a
    return _scale(F, a, F._invert(a[-1]))


def _divmod(F, a, b):
    """(quotient, remainder) of a by b."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    db = len(b) - 1
    if len(a) <= db:
        return [], a
    rem, m = list(a), F._modulus
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
        _strip(rem)
    return q, rem


def _exact_div(F, a, b):
    q, r = _divmod(F, a, b)
    if r:
        raise InexactDivision("nonzero remainder")
    return q


def _xgcd(F, a, b):
    """(g, t): xgcd's kernel; a nonzero constant remainder is the gcd."""
    r0, r1 = a, b
    t0, t1 = [], [F._native_one]
    while len(r1) > 1:
        q, r = _divmod(F, r0, r1)
        if not r:
            break
        r0, r1 = r1, r
        t0, t1 = t1, _sub(F, t0, _mul(F, q, t1))
    if r1:
        r0, t0 = r1, t1
    if not r0 or r0[-1] == F._native_one:
        return r0, t0
    c = F._invert(r0[-1])
    return _scale(F, r0, c), _scale(F, t0, c)


def gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    F, x, y = a.field, a._c, b._c
    while y:
        x, y = y, _divmod(F, x, y)[1]
    return _poly(F, _monic(F, x))


def xgcd(a: UniPoly, b: UniPoly):
    """(g, t): g = gcd(a, b), monic, and t with s*a + t*b = g for some s.

    Only b's cofactor runs through the Euclidean steps, which stop at the
    first remainder that divides the one before it, a nonzero constant
    without a division; a caller that needs s takes
    (g - t*b).exact_div(a)."""
    g, t = _xgcd(a.field, a._c, b._c)
    return _poly(a.field, g), _poly(a.field, t)


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
