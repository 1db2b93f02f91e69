"""Genus-2 curve models and the reduction of each to the canonical quintic.

The canonical model is -y^2 + x^5 + l2*x^4 + l4*x^3 + l6*x^2 + l8*x + l10
with nonzero quintic discriminant.  Three general shapes reduce to it:

  I    -y^2 + y*Q(x) + P(x), deg Q <= 2, deg P = 5 monic  (y-shift)
  II   -y^2 + Pbar(x), deg Pbar = 6                        (Moebius map)
  III  -y^2 + y*Qbar(x) + Pbar(x), deg Qbar <= 3           (shift, then II)

The Moebius step sends the smallest rational root of Pbar to infinity; over
a finite field "smallest" means least residue order, over Q numeric order.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable

from . import unipoly
from .errors import (
    CharacteristicTooSmall,
    DegenerateCurve,
    NoRationalRoot,
    SerializationError,
    UnsupportedField,
)
from .fields import Field, FieldElement, FieldSpec, GF, QQ, make_field
from .unipoly import UniPoly

LAMBDA_WEIGHTS = (2, 4, 6, 8, 10)


class CanonicalCurve(namedtuple("CanonicalCurve", "field lam")):
    """lam: (l2, l4, l6, l8, l10) as FieldElements."""

    __slots__ = ()

    def __new__(cls, field: Field, lam: tuple):
        if len(lam) != 5:
            raise DegenerateCurve("expected 5 curve coefficients")
        self = super().__new__(cls, field, tuple(map(field.coerce, lam)))
        if field.is_zero(self.discriminant()):
            raise DegenerateCurve("quintic has a repeated root")
        return self

    # -- polynomial views ------------------------------------------------------
    def px(self) -> UniPoly:
        l2, l4, l6, l8, l10 = self.lam
        return UniPoly(self.field, [l10, l8, l6, l4, l2, self.field.one])

    def dpx(self) -> UniPoly:
        return self.px().derivative()

    def p_at(self, x) -> FieldElement:
        return self.px().evaluate(x)

    def dp_at(self, x) -> FieldElement:
        return self.dpx().evaluate(x)

    def discriminant(self) -> FieldElement:
        p = self.px()
        return unipoly.resultant(p, p.derivative())

    def on_curve(self, point) -> bool:
        x, y = point
        x, y = self.field.coerce(x), self.field.coerce(y)
        return y * y == self.p_at(x)

    def branch_points(self) -> list:
        """x-coordinates with y = 0 that lie in the base field, sorted."""
        return unipoly.roots_in_field(self.px())

    def __repr__(self):
        ls = ", ".join(self.field.to_str(c) for c in self.lam)
        return f"CanonicalCurve({self.field.short_name()}; {ls})"


class GeneralCurve(namedtuple("GeneralCurve", "field form nu a b")):
    """Forms I/II/III prior to canonicalization.

    nu: (nu1, nu2, nu3, nu4, nu5, nu6, nu8, nu10) for form I;
    a:  (a0 .. a6) descending for forms II/III;
    b:  (b0 .. b3) descending for form III.
    """

    __slots__ = ()

    def __new__(cls, field: Field, form: str, nu: tuple = None, a: tuple = None,
                b: tuple = None):
        F = field
        if form == "I":
            if nu is None or len(nu) != 8:
                raise DegenerateCurve("form I needs 8 coefficients")
            nu = tuple(map(F.coerce, nu))
        elif form == "II":
            if a is None or len(a) != 7:
                raise DegenerateCurve("form II needs 7 coefficients")
            a = tuple(map(F.coerce, a))
            if F.is_zero(a[0]) and F.is_zero(a[1]):
                raise DegenerateCurve("form II must have degree 5 or 6")
        elif form == "III":
            if a is None or len(a) != 7 or b is None or len(b) != 4:
                raise DegenerateCurve("form III needs 7+4 coefficients")
            a, b = tuple(map(F.coerce, a)), tuple(map(F.coerce, b))
        else:
            raise DegenerateCurve(f"unknown form {form!r}")
        return super().__new__(cls, field, form, nu, a, b)

    def q_poly(self) -> UniPoly:
        """The y-linear part (Q for form I, Qbar for form III)."""
        if self.form == "I":
            n1, _, n3, _, n5, _, _, _ = self.nu
            return UniPoly(self.field, [n5, n3, n1])
        if self.form == "III":
            b0, b1, b2, b3 = self.b
            return UniPoly(self.field, [b3, b2, b1, b0])
        return UniPoly.zero(self.field)

    def p_poly(self) -> UniPoly:
        """The y-free part, ascending coefficients."""
        if self.form == "I":
            _, n2, _, n4, _, n6, n8, n10 = self.nu
            return UniPoly(self.field, [n10, n8, n6, n4, n2, self.field.one])
        return UniPoly(self.field, list(reversed(self.a)))

    def on_curve(self, point) -> bool:
        x, y = point
        F = self.field
        x, y = F.coerce(x), F.coerce(y)
        return y * y == y * self.q_poly().evaluate(x) + self.p_poly().evaluate(x)


class PointMap:
    """Birational point transport with an explicit inverse."""

    def __init__(self, forward: Callable, inverse: Callable, label: str = ""):
        self.forward = forward
        self.inverse = inverse
        self.label = label

    def compose(self, then: "PointMap") -> "PointMap":
        return PointMap(
            lambda pt: then.forward(self.forward(pt)),
            lambda pt: self.inverse(then.inverse(pt)),
            f"{self.label};{then.label}",
        )

    @staticmethod
    def identity() -> "PointMap":
        return PointMap(lambda pt: pt, lambda pt: pt, "id")


def _y_shift_map(q: UniPoly) -> PointMap:
    # on the shifted curve y_new = y_old - Q(x)/2
    def fwd(pt):
        x, y = pt
        return (x, y - q.evaluate(x) / 2)

    def inv(pt):
        x, y = pt
        return (x, y + q.evaluate(x) / 2)

    return PointMap(fwd, inv, "y-shift")


def to_canonical(g: GeneralCurve):
    """Reduce a general model to (CanonicalCurve, PointMap); the map sends
    points of g to points of the canonical curve."""
    F = g.field
    if g.form == "II":
        return _canonicalize_degree6(F, g.p_poly())
    # forms I and III: the shift y -> y - Q(x)/2 leaves -y^2 + P(x) + Q(x)^2/4
    q = g.q_poly()
    quarter = UniPoly(F, [c / 4 for c in (q * q).coeffs])
    delta = g.p_poly() + quarter
    if g.form == "I":
        lam = tuple(delta[4 - i] for i in range(5))
        return CanonicalCurve(F, lam), _y_shift_map(q)
    # form III: shift to form II, then II -> canonical
    if delta.degree() > 6:
        raise DegenerateCurve("Qbar too large: shifted model exceeds degree 6")
    coeffs = [delta[i] for i in range(7)]
    curve2, moebius = _canonicalize_degree6(F, UniPoly(F, coeffs))
    return curve2, _y_shift_map(q).compose(moebius)


def _canonicalize_degree6(F: Field, pbar: UniPoly):
    if pbar.degree() < 5:
        raise DegenerateCurve("degree below 5")
    if pbar.degree() == 5:
        # quintic, generally non-monic: rescale (x, y) -> (a1*x, a1^2*y)
        a1 = pbar.lead()
        lam = tuple(pbar[4 - i] * F.pow(a1, i) for i in range(5))
        curve = CanonicalCurve(F, lam)
        a1_inv = F.inv(a1)

        def fwd(pt):
            x, y = pt
            return (a1 * x, a1 * a1 * y)

        def inv(pt):
            x, y = pt
            return (x * a1_inv, y * a1_inv * a1_inv)

        return curve, PointMap(fwd, inv, "rescale")

    roots = unipoly.roots_in_field(pbar)
    if not roots:
        raise NoRationalRoot("sextic model has no root in the base field")
    e0 = roots[0]  # smallest in the documented element order
    # Taylor coefficients of Pbar about e0 (no factorial divisions)
    shifted = pbar.compose(UniPoly(F, [e0, F.one]))
    c = [shifted[k] for k in range(7)]
    if F.is_zero(c[1]):
        raise DegenerateCurve("repeated root at the moved point")
    A = c[1]  # Pbar'(e0)
    B = (c[2] + c[2]) / 10  # Pbar''(e0)/10
    # quintic in W = X - B: W^5 + sum_{k=2..6} c_k A^(k-2) W^(6-k)
    w_coeffs = [F.zero] * 6
    w_coeffs[5] = F.one
    for k in range(2, 7):
        w_coeffs[6 - k] = w_coeffs[6 - k] + c[k] * F.pow(A, k - 2)
    quintic = UniPoly(F, w_coeffs).compose(UniPoly(F, [-B, F.one]))
    lam = tuple(quintic[4 - i] for i in range(5))
    if not F.is_zero(lam[0]):
        raise DegenerateCurve("internal: x^4 coefficient must cancel")
    curve = CanonicalCurve(F, lam)

    def fwd(pt):
        x, y = pt
        t = x - e0
        if F.is_zero(t):
            raise DegenerateCurve("point at the exceptional locus x = e0")
        X = B + A / t
        Y = y * A * A / F.pow(t, 3)
        return (X, Y)

    def inv(pt):
        X, Y = pt
        w = X - B
        if F.is_zero(w):
            raise DegenerateCurve("point at the exceptional locus X = B")
        x = e0 + A / w
        y = Y * A / F.pow(w, 3)
        return (x, y)

    return curve, PointMap(fwd, inv, "moebius")


def to_canonical_allow_extension(g: GeneralCurve, max_degree: int = 4):
    """Retry to_canonical over F_{p^k}, k <= max_degree, if no rational root.

    Returns (curve, point_map, lifted_general_curve); points must be lifted
    into the extension before transport.
    """
    try:
        curve, pm = to_canonical(g)
        return curve, pm, g
    except NoRationalRoot:
        pass
    if g.field.order() is None:
        raise NoRationalRoot("no rational root over Q; extension retry is finite-field only")
    if g.field.characteristic and g.field.order() != g.field.characteristic:
        raise UnsupportedField("extension retry starts from a prime field")
    p = g.field.characteristic
    for k in range(2, max_degree + 1):
        ext = GF(p, k)
        lift = lambda e: ext.element(e.value)
        kwargs = {"nu": None, "a": None, "b": None}
        if g.nu is not None:
            kwargs["nu"] = tuple(lift(c) for c in g.nu)
        if g.a is not None:
            kwargs["a"] = tuple(lift(c) for c in g.a)
        if g.b is not None:
            kwargs["b"] = tuple(lift(c) for c in g.b)
        lifted = GeneralCurve(ext, g.form, **kwargs)
        try:
            curve, pm = to_canonical(lifted)
            return curve, pm, lifted
        except NoRationalRoot:
            continue
    raise NoRationalRoot(f"no root of the sextic in F_{p}^k for k <= {max_degree}")


# ---------------------------------------------------------------------------
# expansion at infinity

_SERIES_CACHE: dict = {}


def lambda_ring():
    """The weighted ring Q[l2, l4, l6, l8, l10], a polyring.PolyRing."""
    from .polyring import PolyRing  # only the symbolic layer needs polyring
    return PolyRing(QQ(), ("l2", "l4", "l6", "l8", "l10"), LAMBDA_WEIGHTS)


def expand_at_infinity_symbolic(order: int):
    """Coefficients (in Q[lambda]) of the normalized y-series at infinity.

    x = xi^-2 and y = xi^-5 * (sum_j c_j xi^j); returns [c_0 .. c_{order-1}]
    as WeightedPolys, c_0 = 1 and odd entries 0.
    """
    if order in _SERIES_CACHE:
        return _SERIES_CACHE[order]
    from .series import SeriesDomain, TruncatedSeries
    ring = lambda_ring()
    dom = SeriesDomain.for_ring(ring)
    target = [ring.one()] + [ring.zero()] * (order - 1)
    for i, name in enumerate(("l2", "l4", "l6", "l8", "l10")):
        k = 2 * (i + 1)
        if k < order:
            target[k] = ring.var(name)
    series = TruncatedSeries(dom, target, order)
    result = series.sqrt_one_plus().coeffs
    _SERIES_CACHE[order] = result
    return result


class InfinityExpansion(namedtuple("InfinityExpansion", "order y_unit_coeffs")):
    """x = xi^-2, y = xi^-5 * (c_0 + c_1 xi + ... ) with c_0 = 1."""

    __slots__ = ()
    X_POLE = 2
    Y_POLE = 5

    def residual_is_zero(self, curve: "CanonicalCurve") -> bool:
        """y(xi)^2 - P(x(xi)) vanishes through the computed order."""
        F = curve.field
        n = self.order
        sq = [F.zero] * n
        for i, a in enumerate(self.y_unit_coeffs):
            for j, b in enumerate(self.y_unit_coeffs[: n - i]):
                sq[i + j] = sq[i + j] + a * b
        target = [F.zero] * n
        target[0] = F.one
        for i, c in enumerate(curve.lam):
            k = 2 * (i + 1)
            if k < n:
                target[k] = c
        return all(a == b for a, b in zip(sq, target))


def expand_at_infinity(curve: CanonicalCurve, order: int = 12) -> InfinityExpansion:
    if order > 12 or order < 1:
        raise CharacteristicTooSmall("order must lie in 1..12")
    p = curve.field.characteristic
    if p and p <= order:
        raise CharacteristicTooSmall(f"characteristic {p} <= order {order}")
    sym = expand_at_infinity_symbolic(order)
    values = {name: curve.lam[i] for i, name in enumerate(("l2", "l4", "l6", "l8", "l10"))}
    F = curve.field

    def specialize(poly):
        acc = F.zero
        for e, c in poly.terms():
            t = F.element(c.value)
            for idx, ei in enumerate(e):
                if ei:
                    t = t * F.pow(values[poly.ring.variables[idx]], ei)
            acc = acc + t
        return acc

    coeffs = tuple(specialize(c) for c in sym)
    return InfinityExpansion(order, coeffs)


# ---------------------------------------------------------------------------
# serialization

def curve_to_json(c) -> dict:
    F = c.field
    if isinstance(c, CanonicalCurve):
        return {"field": F.spec.to_json(), "form": "canonical",
                "lambda": [F.to_str(v) for v in c.lam]}
    if c.form == "I":
        return {"field": F.spec.to_json(), "form": "I",
                "nu": [F.to_str(v) for v in c.nu]}
    if c.form == "II":
        return {"field": F.spec.to_json(), "form": "II",
                "a": [F.to_str(v) for v in c.a]}
    return {"field": F.spec.to_json(), "form": "III",
            "b": [F.to_str(v) for v in c.b],
            "a": [F.to_str(v) for v in c.a]}


def curve_from_json(obj: dict):
    try:
        F = make_field(FieldSpec.from_json(obj["field"]))
        form = obj["form"]
        if form == "canonical":
            lam = tuple(F.from_str(s) for s in obj["lambda"])
            return CanonicalCurve(F, lam)
        if form == "I":
            return GeneralCurve(F, "I", nu=tuple(F.from_str(s) for s in obj["nu"]))
        if form == "II":
            return GeneralCurve(F, "II", a=tuple(F.from_str(s) for s in obj["a"]))
        if form == "III":
            return GeneralCurve(F, "III",
                                a=tuple(F.from_str(s) for s in obj["a"]),
                                b=tuple(F.from_str(s) for s in obj["b"]))
    except KeyError as exc:
        raise SerializationError(f"missing curve key: {exc}") from exc
    raise SerializationError(f"unknown curve form {form!r}")
