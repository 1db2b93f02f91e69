"""Reduced divisors in Mumford coordinates.

A degree-2 class is stored as (a2, a4, b3, b5): the common zeros of
u(x) = x^2 + a2*x + a4 and y + b3*x + b5 are the divisor's support.  Degree
1 classes keep the supporting point, and the neutral class is a tag.  The
two model equations J8, J10 vanish exactly on valid degree-2 coordinates.
"""
from __future__ import annotations

from collections import namedtuple

from .curves import CanonicalCurve, _dp_of
from .errors import InvolutionPair, MixedFields, OffCurve, SerializationError
from .fields import GF, Field, json_value

NONSPECIAL = "nonspecial"
SPECIAL = "special"
NEUTRAL = "neutral"
_ARITY = {NONSPECIAL: 4, SPECIAL: 2, NEUTRAL: 0}


class MumfordDivisor(namedtuple("MumfordDivisor", "field variant native")):
    """native: the field's reduced natives (see Field._native) of (a2, a4,
    b3, b5) | (x, y) | (), by variant; coords holds them as elements.

    The constructor takes elements, ints or rationals; the group-law kernels
    and the Cantor bridge build the record from natives with _make."""

    __slots__ = ()

    def __new__(cls, field: Field, variant: str, coords: tuple):
        expected = _ARITY.get(variant)
        if expected is None:
            raise SerializationError(f"unknown divisor variant {variant}")
        if len(coords) != expected:
            raise SerializationError("wrong coordinate count")
        native = tuple(map(field._native, map(field.coerce, coords)))
        return super().__new__(cls, field, variant, native)

    @property
    def coords(self) -> tuple:
        return tuple(map(self.field._from_native, self.native))

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def neutral(field: Field) -> "MumfordDivisor":
        return MumfordDivisor(field, NEUTRAL, ())

    @staticmethod
    def special(field: Field, x, y) -> "MumfordDivisor":
        return MumfordDivisor(field, SPECIAL, (x, y))

    @staticmethod
    def nonspecial(field: Field, a2, a4, b3, b5) -> "MumfordDivisor":
        return MumfordDivisor(field, NONSPECIAL, (a2, a4, b3, b5))

    # -- predicates -------------------------------------------------------------
    def is_neutral(self) -> bool:
        return self.variant == NEUTRAL

    def is_special(self) -> bool:
        return self.variant == SPECIAL

    def is_nonspecial(self) -> bool:
        return self.variant == NONSPECIAL

    @property
    def a2(self):
        return self.field._from_native(self.native[0])

    @property
    def a4(self):
        return self.field._from_native(self.native[1])

    @property
    def b3(self):
        return self.field._from_native(self.native[2])

    @property
    def b5(self):
        return self.field._from_native(self.native[3])

    def sort_key(self):
        order = {NEUTRAL: 0, SPECIAL: 1, NONSPECIAL: 2}[self.variant]
        return (order,) + tuple(self.field.sort_key(c) for c in self.coords)

    def __repr__(self):
        F = self.field
        if self.is_neutral():
            return "Divisor(O)"
        if self.is_special():
            return "Divisor(({}, {}) - inf)".format(*map(F.to_str, self.coords))
        return "Divisor(a=({}, {}), b=({}, {}))".format(*map(F.to_str, self.coords))


def negate(d: MumfordDivisor) -> MumfordDivisor:
    """-d: the b-coordinates (y of a single point) negated, on natives."""
    if d.is_neutral():
        return d
    m, c = d.field._modulus, d.native
    if d.is_special():
        return MumfordDivisor._make((d.field, SPECIAL, (c[0], -c[1] % m)))
    return MumfordDivisor._make((d.field, NONSPECIAL, (c[0], c[1], -c[2] % m, -c[3] % m)))


def mumford_from_points(curve: CanonicalCurve, p1, p2) -> MumfordDivisor:
    """Degree-2 divisor through two on-curve points (see _from_native_points)."""
    F = curve.field
    return _from_native_points(curve, *(F._native(F.coerce(v)) for v in (*p1, *p2)))


def _from_native_points(curve: CanonicalCurve, x1, y1, x2, y2) -> MumfordDivisor:
    """The divisor through two points of reduced natives, with one inversion:
    the chord y + b3*x + b5, or at a repeated point (y != 0) the tangent limit
    b3 = -y', b5 = -y + x*y'.  OffCurve for a point off the curve; an
    involution pair (InvolutionPair) the caller builds as Neutral/Special."""
    F = curve.field
    if not (curve._on_curve_native(x1, y1) and curve._on_curve_native(x2, y2)):
        raise OffCurve("input point not on the curve")
    m = F._modulus
    if x1 == x2:
        if y1 != y2 or not y1:
            raise InvolutionPair("points share x with opposite y; class is Neutral or Special")
        dy = _dp_of(x1, curve.native) * F._invert(y1 + y1) % m  # tangent slope
        c = -(x1 + x1), x1 * x1, -dy, dy * x1 - y1
    else:
        c = _chord(x1, y1, x2, y2, F._invert(x1 - x2))
    return MumfordDivisor._make((F, NONSPECIAL, tuple([v % m for v in c])))


def _chord(x1, y1, x2, y2, inv):
    """(a2, a4, b3, b5) of the line y + b3*x + b5 through (x1, y1), (x2, y2)
    for inv = 1/(x1 - x2); plain ring arithmetic (natives here, elements in models)."""
    return -(x1 + x2), x1 * x2, (y2 - y1) * inv, (x2 * y1 - x1 * y2) * inv


def points_from_mumford(d: MumfordDivisor, curve: CanonicalCurve):
    """Support of a degree-2 divisor: ((x1,y1), (x2,y2), field, embedding).

    The points live in the base field when x^2 + a2 x + a4 splits, otherwise
    in its quadratic extension; the embedding (or None) maps base field
    values into the returned field.
    """
    if not d.is_nonspecial():
        raise SerializationError("points_from_mumford needs a degree-2 divisor")
    F = d.field
    coords = d.coords
    a2, a4, b3, b5 = coords
    roots = F.sqrt(a2 * a2 - 4 * a4)
    if roots:
        big, emb, r = F, None, roots[-1]
    else:
        if F.order() is None:
            raise MixedFields("irreducible over Q: no canonical quadratic extension")
        from .extension import embedding
        big = GF(F.characteristic, 2 * getattr(F, "k", 1))
        emb = embedding(F, big)
        a2, a4, b3, b5 = map(emb.embed, coords)
        r = big.sqrt_exact(a2 * a2 - 4 * a4)
    x1 = (-a2 + r) / 2
    x2 = -a2 - x1
    return (x1, -(b3 * x1 + b5)), (x2, -(b3 * x2 + b5)), big, emb


def p_mod_u(a2, a4, lam):
    """(r1, r0) with P = r1*x + r0 mod u = x^2 + a2*x + a4, by Horner's rule
    on P's coefficients lam = (l2, ..., l10); plain ring arithmetic."""
    r1, r0 = 1, lam[0]
    for c in lam[1:]:
        r1, r0 = r0 - a2 * r1, c - a4 * r1
    return r1, r0


def _native_residuals(d: MumfordDivisor, curve: CanonicalCurve):
    """The reduced natives of (J8, J10) at the degree-2 divisor d."""
    F = curve.field
    if d.field is not F:
        raise MixedFields("divisor/curve field mismatch")
    m = F._modulus
    a2, a4, b3, b5 = d.native
    r1, r0 = p_mod_u(a2, a4, curve.native)
    b3sq = b3 * b3
    return (2 * b3 * b5 - a2 * b3sq - r1) % m, (b5 * b5 - a4 * b3sq - r0) % m


def jacobian_residuals(d: MumfordDivisor, curve: CanonicalCurve):
    """Exact values of the two model equations (J8, J10) at the divisor: the
    coefficients of (b3*x + b5)^2 - P mod u."""
    if not d.is_nonspecial():
        raise SerializationError("model residuals are defined for degree-2 divisors")
    return tuple(map(curve.field._from_native, _native_residuals(d, curve)))


def is_on_jacobian(d: MumfordDivisor, curve: CanonicalCurve) -> bool:
    if d.is_neutral():
        return True
    if d.is_special():
        return curve._on_curve_native(*d.native)
    j8, j10 = _native_residuals(d, curve)
    return not (j8 or j10)


# ---------------------------------------------------------------------------
# serialization

def divisor_to_json(d: MumfordDivisor) -> dict:
    F = d.field
    if d.is_neutral():
        return {"type": "neutral"}
    c = list(map(F.to_str, d.coords))
    if d.is_special():
        return {"type": "special", "point": c}
    return {"type": "nonspecial", "alpha": c[:2], "beta": c[2:]}


def divisor_from_json(field: Field, obj: dict) -> MumfordDivisor:
    def elements(key):
        return (field.from_str(s) for s in json_value(obj, key, list[str], 2))

    try:
        t = json_value(obj, "type", str)
        if t == "neutral":
            return MumfordDivisor.neutral(field)
        if t == "special":
            return MumfordDivisor.special(field, *elements("point"))
        if t == "nonspecial":
            return MumfordDivisor.nonspecial(field, *elements("alpha"), *elements("beta"))
    except KeyError as exc:
        raise SerializationError(f"missing divisor key: {exc}") from exc
    raise SerializationError(f"unknown divisor type {t!r}")
