"""Truncated power series in one local parameter, and the expansion of the
canonical curve at infinity.

Coefficients are either FieldElements or WeightedPolys; the series is a
plain coefficient list modulo O(t^order).  taylor_on_curve expands y(x)
about an affine point; the confluent doubling in grouplaw computes the
first three of those coefficients in closed form instead.
"""
from __future__ import annotations

from collections import namedtuple

from .errors import CharacteristicTooSmall, DivisionByZero
from .fields import QQ

LAMBDA_WEIGHTS = (2, 4, 6, 8, 10)


class SeriesDomain:
    """Adapter giving series code a uniform view on its coefficient domain."""

    def __init__(self, zero, one, int_div):
        self.zero = zero
        self.one = one
        self.int_div = int_div  # divide a coefficient by a small positive int

    @staticmethod
    def for_field(field):
        def int_div(c, n):
            d = field.element(n)
            if field.is_zero(d):
                raise CharacteristicTooSmall(f"division by {n} in characteristic {field.characteristic}")
            return c / d
        return SeriesDomain(field.zero, field.one, int_div)

    @staticmethod
    def for_ring(ring):
        def int_div(c, n):
            d = ring.field.element(n)
            if ring.field.is_zero(d):
                raise CharacteristicTooSmall(f"division by {n} in characteristic {ring.field.characteristic}")
            return c.scale(ring.field.inv(d))
        return SeriesDomain(ring.zero(), ring.one(), int_div)


class TruncatedSeries:
    __slots__ = ("domain", "order", "coeffs")

    def __init__(self, domain: SeriesDomain, coeffs, order: int):
        cs = list(coeffs)[:order]
        cs += [domain.zero] * (order - len(cs))
        self.domain = domain
        self.order = order
        self.coeffs = cs

    @staticmethod
    def constant(domain, c, order):
        return TruncatedSeries(domain, [c], order)

    def __add__(self, other):
        n = min(self.order, other.order)
        return TruncatedSeries(self.domain,
                               [a + b for a, b in zip(self.coeffs[:n], other.coeffs[:n])], n)

    def __sub__(self, other):
        n = min(self.order, other.order)
        return TruncatedSeries(self.domain,
                               [a - b for a, b in zip(self.coeffs[:n], other.coeffs[:n])], n)

    def __neg__(self):
        return TruncatedSeries(self.domain, [-a for a in self.coeffs], self.order)

    def __mul__(self, other):
        n = min(self.order, other.order)
        out = [self.domain.zero] * n
        for i, a in enumerate(self.coeffs[:n]):
            for j, b in enumerate(other.coeffs[: n - i]):
                out[i + j] = out[i + j] + a * b
        return TruncatedSeries(self.domain, out, n)

    def scale(self, c):
        return TruncatedSeries(self.domain, [a * c for a in self.coeffs], self.order)

    def sqrt_one_plus(self) -> "TruncatedSeries":
        """Square root of a series with constant term 1, normalized to lead 1."""
        t = self.coeffs
        s = [self.domain.one] + [self.domain.zero] * (self.order - 1)
        for k in range(1, self.order):
            acc = t[k]
            for j in range(1, k):
                acc = acc - s[j] * s[k - j]
            s[k] = self.domain.int_div(acc, 2)
        return TruncatedSeries(self.domain, s, self.order)

    def __eq__(self, other):
        n = min(self.order, other.order)
        return all(bool(a == b) for a, b in zip(self.coeffs[:n], other.coeffs[:n]))

    __hash__ = None

    def __repr__(self):
        return f"Series({self.coeffs}, O(t^{self.order}))"


def taylor_on_curve(field, px_coeffs, x0, y0, order: int):
    """Taylor coefficients of (x(t), y(t)) = (x0 + t, sqrt(P(x0+t))) at a
    non-branch point (x0, y0), chosen so y(0) = y0.

    px_coeffs: ascending coefficients of P.  Returns the y-series
    coefficient list of length `order`.
    """
    if field.is_zero(y0):
        raise DivisionByZero("Taylor expansion at a branch point")
    dom = SeriesDomain.for_field(field)
    # P(x0 + t) as a truncated series
    xt = TruncatedSeries(dom, [x0, field.one], order)
    acc = TruncatedSeries.constant(dom, field.zero, order)
    for c in reversed(px_coeffs):
        acc = acc * xt + TruncatedSeries.constant(dom, c, order)
    # y = y0 * sqrt(P(x0+t)/y0^2)
    y0sq_inv = field.inv(y0 * y0)
    normalized = acc.scale(y0sq_inv)
    root = normalized.sqrt_one_plus()
    return [c * y0 for c in root.coeffs]


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

    def residual_is_zero(self, curve) -> bool:
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


def expand_at_infinity(curve, order: int = 12) -> InfinityExpansion:
    """The y-series of a CanonicalCurve at infinity through xi^(order-1)."""
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
