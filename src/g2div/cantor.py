"""Independent ground truth: textbook Cantor arithmetic on genus-2 Jacobians.

Deliberately shares nothing with the coordinate-law module: divisors are
(u, v) polynomial pairs held as natives, addition is classical composition +
reduction, and enumeration is a scan over candidate pairs.  Agreement with
the coordinate laws is evidence, not tautology.

Sign bridge to Mumford coordinates: the line y + b3*x + b5 vanishing on the
support means v(x) = -b3*x - b5.
"""
from __future__ import annotations

from collections import namedtuple

from .curves import CanonicalCurve
from .divisors import NEUTRAL, NONSPECIAL, SPECIAL, MumfordDivisor
from .errors import MixedFields, SerializationError, UnsupportedField
from .fields import Field
from .unipoly import UniPoly, _add, _divmod, _exact_div, _monic, _mul, _poly, _strip, _sub, _xgcd


class CantorDivisor(namedtuple("CantorDivisor", "field u_native v_native")):
    """The natives of u, monic of degree <= 2, and of v, deg v < deg u; u and
    v are UniPolys built on access.  The oracle builds records with _make."""

    __slots__ = ()

    def __new__(cls, u: UniPoly, v: UniPoly):
        if u._c and u._c[-1] != u.field._native_one:
            raise SerializationError("u must be monic")
        return super().__new__(cls, u.field, u._c, v._c)

    def __getnewargs__(self):  # pickles through the constructor
        return self.u, self.v

    u = property(lambda self: _poly(self.field, self.u_native))
    v = property(lambda self: _poly(self.field, self.v_native))

    def degree(self) -> int:
        return len(self.u_native) - 1

    def __repr__(self):
        return f"Cantor(u={self.u!r}, v={self.v!r})"


def neutral_divisor(field: Field) -> CantorDivisor:
    return CantorDivisor._make((field, (field._native_one,), ()))


def cantor_add(a: CantorDivisor, b: CantorDivisor, curve: CanonicalCurve) -> CantorDivisor:
    """Composition then reduction; total on all class representatives.

    Cantor's composition: with d = gcd(u1, u2, v1 + v2) = s1*u1 + s2*u2 +
    s3*(v1 + v2), u = u1*u2/d^2 and v = (s1*u1*v2 + s2*u2*v1 + s3*(v1*v2 +
    f))/d mod u.  Each xgcd carries one cofactor, and the three cases below
    are that formula with the cofactors it does not need cancelled out.  A
    unit d (d = 1, as d is monic) divides nothing.  Every step is one of
    unipoly's list kernels, from the operands' natives to the result's."""
    F = curve.field
    Fa, u1, v1 = a
    Fb, u2, v2 = b
    if Fa is not F or Fb is not F:
        raise MixedFields("divisor/curve field mismatch")
    f = (*reversed(curve.native), F._native_one)
    if u1 == u2:
        # one support, a doubling among them: gcd(u1, u2) = u1 = 0*u1 + 1*u2,
        # and with d = gcd(u1, v1 + v2) = c1*u1 + c2*(v1 + v2) the numerator
        # c1*u1*v1 + c2*(v1*v2 + f) is d*v1 + c2*(f - v1^2)
        d, c2 = _xgcd(F, u1, _add(F, v1, v2))
        h, w = u1, _sub(F, f, _mul(F, v1, v1))
        if len(d) > 1:
            h, w = _exact_div(F, u1, d), _exact_div(F, w, d)
        u = _mul(F, h, h)
        v = _divmod(F, _add(F, v1, _mul(F, c2, w)), u)[1]
    else:
        d1, e2 = _xgcd(F, u1, u2)  # e1*u1 + e2*u2 = d1
        if len(d1) == 1:
            # coprime supports: s3 = 0, and v is the CRT solution of v = v1
            # mod u1, v = v2 mod u2, the same v as (e1*u1*v2 + e2*u2*v1) mod
            # u, which it equals mod u1 and mod u2 and with degree below deg u
            u = _mul(F, u1, u2)
            v = _add(F, v2, _mul(F, u2, _divmod(F, _mul(F, e2, _sub(F, v1, v2)), u1)[1]))
        else:
            # shared support: d = c1*d1 + c2*(v1 + v2), and the numerator is
            # d*v2 + c1*e2*u2*(v1 - v2) + c2*(f - v2^2)
            vs = _add(F, v1, v2)
            d, c2 = _xgcd(F, d1, vs)
            c1 = _exact_div(F, _sub(F, d, _mul(F, c2, vs)), d1)
            h1, h2, w = u1, u2, _sub(F, f, _mul(F, v2, v2))
            if len(d) > 1:
                h1, h2, w = _exact_div(F, u1, d), _exact_div(F, u2, d), _exact_div(F, w, d)
            u = _mul(F, h1, h2)
            t = _mul(F, _mul(F, _mul(F, c1, e2), h2), _sub(F, v1, v2))
            v = _divmod(F, _add(F, _add(F, v2, t), _mul(F, c2, w)), u)[1]
    # reduction
    while len(u) > 3:
        u = _monic(F, _exact_div(F, _sub(F, f, _mul(F, v, v)), u))
        v = _divmod(F, _sub(F, (), v), u)[1]
    return CantorDivisor._make((F, tuple(_monic(F, u)), tuple(v)))


def cantor_neg(a: CantorDivisor) -> CantorDivisor:
    F, u, v = a
    return CantorDivisor._make((F, u, tuple(_divmod(F, _sub(F, (), v), u)[1])))


def cantor_scalar_mul(n: int, a: CantorDivisor, curve: CanonicalCurve) -> CantorDivisor:
    if n < 0:
        return cantor_scalar_mul(-n, cantor_neg(a), curve)
    acc = neutral_divisor(curve.field)
    base = a
    while n:
        if n & 1:
            acc = cantor_add(acc, base, curve)
        base = cantor_add(base, base, curve)
        n >>= 1
    return acc


# ---------------------------------------------------------------------------
# Mumford bridge

def to_mumford(d: CantorDivisor) -> MumfordDivisor:
    """The Mumford divisor, its record built from the record's natives with
    no element."""
    F, u, v = d
    m = F._modulus
    if len(u) == 1:
        return MumfordDivisor.neutral(F)
    v += (F._native_zero,) * (len(u) - 1 - len(v))
    if len(u) == 2:
        return MumfordDivisor._make((F, SPECIAL, (-u[0] % m, v[0])))
    return MumfordDivisor._make((F, NONSPECIAL, (u[1], u[0], -v[1] % m, -v[0] % m)))


def from_mumford(m: MumfordDivisor) -> CantorDivisor:
    F = m.field
    if m.variant == NEUTRAL:
        return neutral_divisor(F)
    mod, one, make = F._modulus, F._native_one, CantorDivisor._make
    if m.variant == SPECIAL:
        x0, y0 = m.native
        return make((F, (-x0 % mod, one), (y0,) if y0 else ()))
    a2, a4, b3, b5 = m.native
    return make((F, (a4, a2, one), tuple(_strip([-b5 % mod, -b3 % mod]))))


# ---------------------------------------------------------------------------
# exhaustive enumeration over small prime fields

def count_points_on_curve(curve: CanonicalCurve, field: Field = None) -> int:
    """#C(F) including the single point at infinity."""
    F = field or curve.field
    if F.order() is None:
        raise UnsupportedField("point counts need a finite field")
    px = curve.px() if F is curve.field else UniPoly(F, [c.value for c in curve.px().coeffs])
    total = 1  # infinity
    for x in F.elements():
        val = px.evaluate(x)
        if F.is_zero(val):
            total += 1
        elif F.is_square(val):
            total += 2
    return total


def jacobian_order_from_zeta(curve: CanonicalCurve) -> int:
    """|Jac| = (N1^2 + N2)/2 - q from point counts over F_q and F_{q^2}."""
    from .fields import GF
    F = curve.field
    q = F.order()
    if q is None:
        raise UnsupportedField("zeta count needs a finite field")
    p = F.characteristic
    if q != p:
        raise UnsupportedField("zeta count implemented for prime fields")
    n1 = count_points_on_curve(curve)
    f2 = GF(p, 2)
    n2 = count_points_on_curve(curve, f2)
    assert (n1 * n1 + n2) % 2 == 0
    return (n1 * n1 + n2) // 2 - q


ENUMERATION_CAP = 31  # the largest p enumerate_jacobian scans


def enumerate_jacobian(curve: CanonicalCurve):
    """Every reduced divisor over F_p (p <= ENUMERATION_CAP) plus the group
    order.

    Scans monic u of degree <= 2 with all compatible v; the count is checked
    against the Hasse-Weil window by the caller/tests.
    """
    F = curve.field
    p = F.order()
    if p is None or p != F.characteristic:
        raise UnsupportedField("enumeration is prime-field only")
    if p > ENUMERATION_CAP:
        raise UnsupportedField(f"p={p} above the desk-scale cap {ENUMERATION_CAP}")
    f = curve.px()
    make = CantorDivisor._make
    out = [neutral_divisor(F)]
    # degree 1: u = x - a, v = c with c^2 = P(a)
    for a in F.elements():
        val = f.evaluate(a)
        for c in F.sqrt(val):
            out.append(make((F, (-a.value % p, 1), (c.value,) if c.value else ())))
    # degree 2: u = x^2 + u1 x + u0, v = v1 x + v0 with u | v^2 - P, on residues
    # mod p: v^2 mod u = (2 v1 v0 - v1^2 u1) x + (v0^2 - v1^2 u0) = P mod u
    for u1 in range(p):
        for u0 in range(p):
            u = (u0, u1, 1)
            r0, r1 = (*_divmod(F, f._c, u)[1], 0, 0)[:2]
            for v1 in range(p):
                w1, w0 = v1 * v1 * u1 + r1, v1 * v1 * u0 + r0
                for v0 in range(p):
                    if (2 * v1 * v0 - w1) % p == 0 and (v0 * v0 - w0) % p == 0:
                        out.append(make((F, u, tuple(_strip([v0, v1])))))
    return out


def brute_force_n_torsion(curve: CanonicalCurve, n: int, elements=None):
    """Members of exact order n, from the full enumeration."""
    if n < 1:
        raise SerializationError("torsion order must be positive")
    if elements is None:
        elements = enumerate_jacobian(curve)
    found = []
    for d in elements:
        if d.degree() == 0:
            if n == 1:
                found.append(d)
            continue
        k = 1
        acc = d
        while acc.degree() != 0 and k <= n:
            acc = cantor_add(acc, d, curve)
            k += 1
        if acc.degree() == 0 and k == n:
            found.append(d)
    return found
