"""Truncated power series in one local parameter, and the curve's
expansions at an affine point and at infinity.

A series is a plain coefficient list modulo O(t^n), n its length; the
coefficients are FieldElements or WeightedPolys.  taylor_on_curve expands
y(x) about an affine point.
"""
from __future__ import annotations

from collections import namedtuple

from .curves import LAMBDA_NAMES, LAMBDA_WEIGHTS
from .errors import CharacteristicTooSmall, DivisionByZero
from .fields import QQ


def sqrt_one_plus(t, half):
    """The square root with constant term 1 of the series t, whose constant
    term is 1; half is 1/2 in the coefficient domain."""
    s = [t[0]]
    for k in range(1, len(t)):
        acc = t[k]
        for j in range(1, k):
            acc = acc - s[j] * s[k - j]
        s.append(acc * half)
    return s


def truncated_square(s):
    """The square of the series s, through the length of s."""
    return [sum((s[i] * s[k - i] for i in range(1, k + 1)), s[0] * s[k])
            for k in range(len(s))]


def taylor_on_curve(field, px_coeffs, x0, y0, order: int):
    """Taylor coefficients of (x(t), y(t)) = (x0 + t, sqrt(P(x0+t))) at a
    non-branch point (x0, y0), chosen so y(0) = y0.

    px_coeffs: ascending coefficients of P.  Returns the y-series
    coefficient list of length `order`.
    """
    if field.is_zero(y0):
        raise DivisionByZero("Taylor expansion at a branch point")
    # P(x0 + t) through t^(order-1) by Horner: acc <- acc * (x0 + t) + c
    acc = [field.zero] * order
    for c in reversed(px_coeffs):
        acc = [x0 * acc[0] + c] + [x0 * acc[k] + acc[k - 1] for k in range(1, order)]
    # y = y0 * sqrt(P(x0+t)/y0^2), whose constant term P(x0)/y0^2 is 1
    y0sq_inv = field.inv(y0 * y0)
    t = [field.one] + [a * y0sq_inv for a in acc[1:]]
    root = sqrt_one_plus(t, field.inv(field.element(2)))
    return [c * y0 for c in root]


# ---------------------------------------------------------------------------
# expansion at infinity

_SERIES_CACHE: dict = {}


def lambda_ring():
    """The weighted ring Q[l2, l4, l6, l8, l10], a polyring.PolyRing."""
    from .polyring import PolyRing  # only the symbolic layer needs polyring
    return PolyRing(QQ(), LAMBDA_NAMES, LAMBDA_WEIGHTS)


def _one_plus_lambda(one, zero, lam, order: int) -> list:
    """P(x)/x^5 = 1 + l2 xi^2 + l4 xi^4 + ... + l10 xi^10 at x = xi^-2,
    through xi^(order-1)."""
    t = [one] + [zero] * (order - 1)
    for i, c in enumerate(lam):
        if 2 * (i + 1) < order:
            t[2 * (i + 1)] = c
    return t


def expand_at_infinity_symbolic(order: int):
    """Coefficients (in Q[lambda]) of the normalized y-series at infinity.

    x = xi^-2 and y = xi^-5 * (sum_j c_j xi^j); returns [c_0 .. c_{order-1}]
    as WeightedPolys, c_0 = 1 and odd entries 0.
    """
    if order not in _SERIES_CACHE:
        ring = lambda_ring()
        lam = [ring.var(name) for name in LAMBDA_NAMES]
        half = ring.field.inv(ring.field.element(2))
        _SERIES_CACHE[order] = sqrt_one_plus(
            _one_plus_lambda(ring.one(), ring.zero(), lam, order), half)
    return _SERIES_CACHE[order]


class InfinityExpansion(namedtuple("InfinityExpansion", "order y_unit_coeffs")):
    """x = xi^-2, y = xi^-5 * (c_0 + c_1 xi + ... ) with c_0 = 1."""

    __slots__ = ()
    X_POLE = 2
    Y_POLE = 5

    def residual_is_zero(self, curve) -> bool:
        """y(xi)^2 - P(x(xi)) vanishes through the computed order."""
        F = curve.field
        target = _one_plus_lambda(F.one, F.zero, curve.lam, self.order)
        return all(a == b for a, b in zip(truncated_square(self.y_unit_coeffs), target))


def expand_at_infinity(curve, order: int = 12) -> InfinityExpansion:
    """The y-series of a CanonicalCurve at infinity through xi^(order-1)."""
    if order > 12 or order < 1:
        raise CharacteristicTooSmall("order must lie in 1..12")
    F = curve.field
    t = _one_plus_lambda(F.one, F.zero, curve.lam, order)
    return InfinityExpansion(order, tuple(sqrt_one_plus(t, F.inv(F.element(2)))))
