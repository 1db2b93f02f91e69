"""The general curve models and their reduction to the canonical quintic.

Three general shapes reduce to -y^2 + x^5 + l2*x^4 + ... + l10:

  I    -y^2 + y*Q(x) + P(x), deg Q <= 2, deg P = 5 monic  (y-shift)
  II   -y^2 + Pbar(x), deg Pbar = 6                        (Moebius map)
  III  -y^2 + y*Qbar(x) + Pbar(x), deg Qbar <= 3           (shift, then II)

The Moebius step sends the smallest rational root of Pbar to infinity; over
a finite field "smallest" means least residue order, over Q numeric order.
Form I also has an alpha law (add_extended_alpha): grouplaw's alpha law of
the sum with form I's cross-term corrections, which only this module knows.
No verb run on a canonical curve imports this module.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable

from .curves import CanonicalCurve
from .divisors import MumfordDivisor, _chord
from .errors import (
    BranchPointInSupport,
    DegenerateCurve,
    MixedFields,
    NoRationalRoot,
    OffCurve,
    SameDivisor,
    UnsupportedField,
)
from .fields import MAX_EXTENSION_DEGREE, Field, GF
from .roots import roots_in_field
from .unipoly import UniPoly


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

    def __init__(self, forward: Callable, inverse: Callable):
        self.forward = forward
        self.inverse = inverse

    def compose(self, then: "PointMap") -> "PointMap":
        return PointMap(
            lambda pt: then.forward(self.forward(pt)),
            lambda pt: self.inverse(then.inverse(pt)),
        )


def _y_shift_map(q: UniPoly) -> PointMap:
    # on the shifted curve y_new = y_old - Q(x)/2
    def fwd(pt):
        x, y = pt
        return (x, y - q.evaluate(x) / 2)

    def inv(pt):
        x, y = pt
        return (x, y + q.evaluate(x) / 2)

    return PointMap(fwd, inv)


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

        return curve, PointMap(fwd, inv)

    roots = roots_in_field(pbar)
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

    return curve, PointMap(fwd, inv)


def to_canonical_allow_extension(g: GeneralCurve):
    """Retry to_canonical over F_{p^k}, k <= MAX_EXTENSION_DEGREE, if no
    rational root.

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
    for k in range(2, MAX_EXTENSION_DEGREE + 1):
        ext = GF(p, k)
        nu, a, b = (None if cs is None else tuple(ext.element(c.value) for c in cs)
                    for cs in (g.nu, g.a, g.b))
        lifted = GeneralCurve(ext, g.form, nu=nu, a=a, b=b)
        try:
            curve, pm = to_canonical(lifted)
            return curve, pm, lifted
        except NoRationalRoot:
            continue
    raise NoRationalRoot(f"no root of the sextic in F_{p}^k for k <= {MAX_EXTENSION_DEGREE}")


# ---------------------------------------------------------------------------
# extended-curve alpha laws (model with a y*Q(x) cross term, Q != 0)

def _extended_slope(g: GeneralCurve, x, y):
    F = g.field
    q = g.q_poly()
    num = y * q.derivative().evaluate(x) + g.p_poly().derivative().evaluate(x)
    den = y + y - q.evaluate(x)
    if F.is_zero(den):
        raise BranchPointInSupport("vertical tangent on the extended curve")
    return num / den


def _pair_divisor(F, pp) -> MumfordDivisor:
    (x1, y1), (x2, y2) = pp
    if x1 == x2:
        raise SameDivisor("extended law needs distinct x in each pair")
    return MumfordDivisor.nonspecial(F, *_chord(x1, y1, x2, y2, F.inv(x1 - x2)))


def add_extended_alpha(g: GeneralCurve, pp, qq=None):
    """Alpha coordinates of a sum (or double, qq=None) on a form-I curve.

    Only the alpha law is exposed: grouplaw's alpha law of the sum with
    l2 = nu2, plus form I's cross-term corrections nu1*g1 to a2 and (nu1*g2
    + nu3 - (a2_P + a2_Q)*nu1)*g1 to a4."""
    # only this law needs the group law, so curve transform never loads it
    from .grouplaw import _slope_tangent, _sum_alpha, gamma_add, gamma_double
    if g.form != "I":
        raise MixedFields("extended alpha law applies to form I models")
    F = g.field
    for (x, y) in (list(pp) + (list(qq) if qq else [])):
        if not g.on_curve((x, y)):
            raise OffCurve("point not on the extended curve")
    P = _pair_divisor(F, pp)
    if qq is None:
        Q = P
        s1, s2 = (_extended_slope(g, x, y) for x, y in pp)
        gam = gamma_double(P, _slope_tangent(F, pp[0], pp[1], s1, s2))
    else:
        Q = _pair_divisor(F, qq)
        gam = gamma_add(P, Q)
    nu1, nu2, nu3 = g.nu[:3]
    (a2p, a4p), (a2q, a4q) = P.coords[:2], Q.coords[:2]
    a2, a4 = _sum_alpha(a2p, a4p, a2q, a4q, nu2, F.one, gam.g1, gam.g2, gam.g4)
    return (a2 + nu1 * gam.g1,
            a4 + (nu1 * gam.g2 + nu3 - (a2p + a2q) * nu1) * gam.g1)
