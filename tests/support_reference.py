"""The published n = 3 x/y-support system, transcribed by hand.

g2div derives its support systems by putting the support into the Mumford
system; these builders are the independent reference the derivation must
equal: X = 16 * x_support and Y = y_support.  Plain ring arithmetic, so
they run on the generators of any ring with x1, x2 (and y1, y2).
"""
from g2div.curves import _dp_of, _p_of
from g2div.fields import Field


def t_quotient(x1, x2, xi, lam):
    """T(x_i) = (P(x1) - P(x2) - P'(x_i)(x1-x2)) / (x1-x2)^2, a weight-6
    polynomial by the order-2 vanishing at x1 = x2."""
    num = _p_of(x1, lam) - _p_of(x2, lam) - _dp_of(xi, lam) * (x1 - x2)
    return num.exact_div((x1 - x2) * (x1 - x2))


def three_torsion_y_poly(x1, y1, x2, y2, lam):
    """The y1*y2-bearing 3-torsion equation (weight 28, uniform)."""
    p1, p2 = _p_of(x1, lam), _p_of(x2, lam)
    dp1, dp2 = _dp_of(x1, lam), _dp_of(x2, lam)
    quarter = _int_fraction(x1.ring.field, 1, 4)
    return (y1 * y2 * (dp1 * p2 + dp2 * p1)
            + (x1 - x2) * (dp1 * dp1 * p2 - dp2 * dp2 * p1) * quarter
            - p1 * p2 * (dp1 + dp2 + (x1 - x2) ** 4))


def _int_fraction(F: Field, num: int, den: int):
    """num/den in F; den is 2 or 4, a unit in every characteristic a
    FieldSpec admits."""
    return F.element(num) / F.element(den)


def three_torsion_x_poly(x1, x2, lam):
    """The weight-40 symmetric polynomial in (x1, x2) cutting out 3-torsion
    supports, assembled with exact divisions by (x1 - x2)."""
    F, l2 = x1.ring.field, lam[0]
    dx = x1 - x2
    p1, p2 = _p_of(x1, lam), _p_of(x2, lam)
    dp1, dp2 = _dp_of(x1, lam), _dp_of(x2, lam)
    t1p, t2p = t_quotient(x1, x2, x1, lam), t_quotient(x1, x2, x2, lam)
    quarter = _int_fraction(F, 1, 4)
    half = _int_fraction(F, 1, 2)
    threq = _int_fraction(F, 3, 4)
    q8 = (p1 - p2).exact_div(dx)
    term1 = -(p2 * p2 * dp1 * t1p * t1p + p1 * p1 * dp2 * t2p * t2p) * quarter
    term2 = ((p2 ** 3) * t1p * t1p - (p1 ** 3) * t2p * t2p).exact_div(dx) * half
    term3 = -(q8 ** 5) * quarter
    term4 = (p2 * p2 * t1p + p1 * p1 * t2p).exact_div(dx) * (q8 * q8) * threq
    term5 = -(p1 * p2) * ((p2 * dp1 - p1 * dp2).exact_div(dx)) * ((t1p + t2p).exact_div(dx))
    term6 = p1 * p2 * (-6 * p1 * p2 + x1 * p2 * dp1 + x2 * p1 * dp2
                       + (p2 * dp1 + p1 * dp2) * (2 * x1 + 2 * x2 + l2))
    return term1 + term2 + term3 + term4 + term5 + term6
