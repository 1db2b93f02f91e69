"""Explicit addition and duplication in Mumford coordinates.

The engine is the weight-6 interpolating function x^3 + g1*y + g2*x^2 +
g4*x + g6 through the two support pairs (weight-5 y + g1*x^2 + g3*x + g5
when the sum degenerates to a single point).  _interpolation is its one
transcription: gamma_add and the addition kernel read it at the
differences P - Q, gamma_double and torsion's division polynomials at the
tangent direction (_tangent), the limit of those differences as the two
supports merge.  _gammas back-substitutes g2, g4, g6 and _sum_alpha is the
alpha law of the sum, each written once for the gammas, torsion's division
polynomials and the form-I law in models.  Every branch below carries a tag
so oracle tests can prove each one is exercised:

  neutral, inverse, add_points, add_special, generic, double,
  double_to_special, add_to_special, support_overlap.

The dispatch order guarantees each later branch's preconditions: neutral
operands, then inverse pairs, then equal operands, then the generic solve
(_add_generic, _double_generic on native values), which also returns the
special sum, and only where that declines, shared support or a branch
point.  Shared support takes two closed-form rules: P plus a point q above
a root of u_P is the other point of P when q = -p1 for the point p1 of P
there, and otherwise the weight-5 function y + b3*x + b5 + g1*u(x) tangent
to the curve at p1; two degree-2 divisors sharing an x add as (P + q1) + q2
for the points of Q above the shared x and above the other root of u_Q.
Every branch, a sum with a single point included, computes on the
operands' natives; add_special and add_points wrap the same code.
scalar_mul runs the two generic kernels directly and falls back to the
dispatchers for everything they decline.  The kernels compute the weight-6
function in Harley's form: solved for y it is the cubic y = V(x) = v_P +
u_P*s with v = -(b3*x + b5) and s = s1*x + s0, s1 = -1/g1.  The addition
takes s = (v_Q - v_P)/u_P mod u_Q and declines when the supports share an
x (r = res(u_P, u_Q) = 0); the doubling takes s = k/(2v) mod u for k =
(P(x) - v^2)/u and declines when a branch point lies in the support (r =
res(u, v) = y1*y2 = 0).  A repeated point 2S doubles in the kernel.  Each
kernel writes s as (s1n*x + s0n)/r' with no division, r' = r for a sum and
2r for a double; _compose inverts r'*s1n once, by Field._invert on a native
value, so that inversion is the only zero test, and u' and v' = -(V mod u')
follow in one straight-line pass.  When s1 = 0 the sum is special: V is the
weight-5 function v_P + s0*u_P (s0 = -g1), and _compose inverts r' instead
and returns the fifth point of P(x) - V^2 as a single-point MumfordDivisor.
add_to_special and double_to_special are checks over the two kernels.
"""
from __future__ import annotations

from collections import namedtuple

from .curves import CanonicalCurve, _dp_of
from .divisors import (NONSPECIAL, SPECIAL, MumfordDivisor, _from_native_points, is_on_jacobian,
                       mumford_from_points, negate)
from .errors import (
    BranchPointInSupport,
    ConditionViolated,
    DivisionByZero,
    GammaUndefined,
    MixedFields,
    OffCurve,
    QInSupport,
    SingularInterpolation,
    SupportOverlap,
)


# coefficients of the weight-6 interpolating function
GammaR6 = namedtuple("GammaR6", "g1 g2 g4 g6")
# directional derivatives of the Mumford coordinates under x1+x2 flow;
# a2p = -2 and a4p = -a2 are the a-part of the tangent direction that
# _interpolation reads, so gamma_double passes the record as it is
TangentData = namedtuple("TangentData", "a2p a4p b3p b5p")


# The helpers below are plain ring arithmetic on coordinate tuples, so the
# public functions run them on field elements (MumfordDivisor.coords) and
# the dispatchers on the field's native values (MumfordDivisor.native).

def _check_degree2(F, *divisors):
    """MixedFields unless each divisor is a degree-2 class over the field F."""
    for D in divisors:
        if D.field is not F or not D.is_nonspecial():
            raise MixedFields("operand must be a degree-2 divisor over the operation's field")


def _difference(pc, qc):
    """(dA2, dA4, dB3, dB5): the coordinates of P less those of Q."""
    a2p, a4p, b3p, b5p = pc
    a2q, a4q, b3q, b5q = qc
    return a2p - a2q, a4p - a4q, b3p - b3q, b5p - b5q


def _interpolation(a2, a4, dA2, dA4, dB3, dB5):
    """(det, r, s0n) of the weight-6 function through the support with
    alpha (a2, a4) and a second one displaced from it by (dA2, dA4, dB3,
    dB5).  Plain ring arithmetic: the kernels, the gammas and torsion's
    division polynomials share this one transcription.

    A sum P + Q passes Q's alpha and the differences P - Q: det is the
    gamma matrix's determinant, r = res(u_P, u_Q) is zero exactly on a
    shared x, det*g1 = -r, det*(g2 - a2_P) = s0n, and z - dA2*x = r/u_P
    mod u_Q gives Harley's s = (det*x + s0n)/r.  A double passes D's alpha
    and the tangent direction (-2, -a2, b3', b5'), the limit of P - Q as
    the supports merge: det = 2*b5' - a2*b3' and -r = a2^2 - 4*a4."""
    z = dA4 - a2 * dA2
    return dA4 * dB3 - dB5 * dA2, dA4 * z + a4 * dA2 * dA2, z * dB5 + a4 * dA2 * dB3


def _gammas(a2, a4, b3, b5, det, g1, s0n):
    """det*(g1, g2, g4, g6) from det*g1 and the _interpolation values det,
    s0n at the support (a2, a4, b3, b5): det*g2 = a2*det + s0n, and g4, g6
    back-substituted through the support."""
    g2 = a2 * det + s0n
    return (g1, g2, a2 * g2 + b3 * g1 - (a2 * a2 - a4) * det,
            a4 * g2 + b5 * g1 - a2 * a4 * det)


def _gamma_r6(F, dc, det, r, s0n) -> GammaR6:
    """The gammas from the _interpolation values at the support with
    coordinates dc, det != 0: g1 = -r/det."""
    inv = F.inv(det)
    return GammaR6(*(g * inv for g in _gammas(*dc, det, -r, s0n)))


def _sum_alpha(a2p, a4p, a2q, a4q, l2, det, g1, g2, g4):
    """det^2*(a2, a4) of P + Q on the canonical curve from the gammas over
    det, g_i/det: a2 = 2*g2 - g1^2 - e1 and a4 = 2*g4 + g2^2 - l2*g1^2 -
    e1*a2 - a2p*a2q - a4p - a4q for e1 = a2p + a2q.  The one alpha
    law of a sum: the n = 3 and n = 4 division polynomials read it at
    P = Q = D, and models adds form I's cross term to it."""
    e1, g1sq = a2p + a2q, g1 * g1
    A2 = det * (g2 + g2 - e1 * det) - g1sq
    A4 = det * (g4 + g4 - (a2p * a2q + a4p + a4q) * det) - e1 * A2 + g2 * g2 - l2 * g1sq
    return A2, A4


def gamma_add(P: MumfordDivisor, Q: MumfordDivisor) -> GammaR6:
    """Interpolation coefficients of two degree-2 divisors over one field
    (else MixedFields); raises SingularInterpolation when det = 0 (the sum
    is special, or the supports overlap)."""
    F = P.field
    _check_degree2(F, P, Q)
    pc, qc = P.coords, Q.coords
    det, r, s0n = _interpolation(qc[0], qc[1], *_difference(pc, qc))
    if F.is_zero(det):
        raise SingularInterpolation("gamma matrix singular")
    return _gamma_r6(F, pc, det, r, s0n)


def _tangent(a2, a4, b3, b5, l2, l4, l6, l8):
    """(N, 2N*b3', 2N*b5') of the support: N = y1*y2 = b3^2*a4 - a2*b3*b5 +
    b5^2 and the tangent direction's b-part from the symmetric difference
    quotients of P', scaled by 2N so that no division is left.

    Plain ring arithmetic, so field elements and weighted polynomials both
    go through this one transcription; h = a2^2 - a4 and 4*l2 are shared."""
    n = b3 * (b3 * a4 - a2 * b5) + b5 * b5
    h = a2 * a2 - a4
    four_l2 = 4 * l2
    A = a4 * (5 * h - four_l2 * a2 + 3 * l4) - l8
    B = a2 * (5 * (a4 - h) - 3 * l4) + four_l2 * h + 2 * l6
    C = a4 * (a4 * (four_l2 - 5 * a2) - 2 * l6) + l8 * a2
    return n, b3 * A + b5 * B, -(b3 * (C + n + n) + b5 * A)


def tangent_data(curve: CanonicalCurve, D: MumfordDivisor) -> TangentData:
    """Derivative coordinates in closed Mumford form.

    _tangent's (N, 2N*b3', 2N*b5') over 2N; equals the pointwise slope
    formulas wherever the support has distinct x and no branch point.
    Computed on native values; D must be a degree-2 divisor over the curve's
    field (else MixedFields)."""
    _check_degree2(curve.field, D)
    F = curve.field
    m = F._modulus
    n, num3, num5 = _tangent(*D.native, *curve.native[:4])
    n %= m
    if not n:
        raise BranchPointInSupport("branch point in support: slopes undefined")
    inv2n = F._invert(n + n)
    return TangentData(F.element(-2), *map(F._from_native, (
        -D.native[0] % m, num3 * inv2n % m, num5 * inv2n % m)))


def _slope_tangent(F, p1, p2, s1, s2) -> TangentData:
    """Tangent data from the slopes s1, s2 at two support points, x1 != x2."""
    (x1, y1), (x2, y2) = p1, p2
    dx = x1 - x2
    b3p = -(s1 - s2) / dx
    b5p = (s1 * x2 - s2 * x1) / dx + (y1 - y2) / dx
    return TangentData(F.element(-2), x1 + x2, b3p, b5p)


def gamma_double(Q: MumfordDivisor, tang: TangentData) -> GammaR6:
    """Duplication coefficients of a degree-2 divisor (else MixedFields):
    gamma_add's interpolation in its tangent limit, tang = (-2, -a2, b3',
    b5').  Raises GammaUndefined when det = 0 (2Q is special)."""
    F = Q.field
    _check_degree2(F, Q)
    qc = Q.coords
    det, r, s0n = _interpolation(qc[0], qc[1], *tang)
    if F.is_zero(det):
        raise GammaUndefined("duplication denominator vanishes: 2Q is special")
    return _gamma_r6(F, qc, det, r, s0n)


def _compose(F, l2, pc, a2q, dA2, dA4, r, s1n, s0n):
    """The last step of both generic kernels, on native values: P + Q from
    the cubic y = V(x) = v_P + s*u_P through both supports, s = (s1n*x +
    s0n)/r; dA2, dA4 are u_P's coefficients less u_Q's (0 for a double).

    r, s1n and s0n are reduced on entry, so the inversion and every later
    product start from reduced values.  Returns None when r is zero.  With w
    = 1/(r*s1n), the products 1/s1n = r*w (left unreduced), iota = 1/s1 =
    r^2*w, sigma = s0/s1 = s0n*r*w and s1 = s1n^2*w give
    u' = (V^2 - P(x))/(s1^2*u_P*u_Q), the monic quotient x^2 + (2*sigma +
    dA2 - iota^2)*x + dA4 + sigma*(2*a2_P + sigma) - 2*iota*b3_P -
    iota^2*(l2 - a2_P) - a2_Q*u1', and v' = -(V mod u') from u_P mod u' =
    d1*x + d0; the result is the reduced native (a2, a4, b3, b5).  When s1n
    is zero, V is the weight-5 function v_P + s0*u_P, s0 = s0n/r, and the
    sum is the single point (x, -V(x)) at the fifth root x = s0^2 - l2 +
    a2_P + a2_Q of P(x) - V^2, returned as a MumfordDivisor built from its
    natives."""
    m = F._modulus
    a2, a4, b3, b5 = pc
    r, s1n, s0n = r % m, s1n % m, s0n % m
    try:
        w = F._invert(r * s1n)
    except DivisionByZero:
        try:
            s0 = s0n * F._invert(r) % m
        except DivisionByZero:
            return None
        x = (s0 * s0 - l2 + a2 + a2q) % m
        return MumfordDivisor._make((F, SPECIAL, (x, (b3 * x + b5 - s0 * (x * (x + a2) + a4)) % m)))
    inv_s1n = r * w
    inv_s1, sig, s1 = r * inv_s1n % m, s0n * inv_s1n % m, s1n * s1n * w % m
    i2 = inv_s1 * inv_s1
    u1 = (sig + sig + dA2 - i2) % m
    u0 = (dA4 + sig * (a2 + a2 + sig) - inv_s1 * (b3 + b3) - i2 * (l2 - a2) - u1 * a2q) % m
    d1, d0 = a2 - u1, a4 - u0
    return u1, u0, (s1 * (d0 + d1 * (sig - u1)) - b3) % m, (s1 * (sig * d0 - d1 * u0) - b5) % m


def _add_generic(F, l2, pc, qc):
    """The generic sum of two degree-2 divisors given as reduced native
    coordinate tuples (see Field._native), with one field inversion.

    Returns the reduced native (a2, a4, b3, b5) of the sum, the single
    point as a MumfordDivisor when the sum is special (s1 = 0), or None when
    the supports share an x (r = 0, the same u-polynomial included).
    _interpolation gives r = res(u_P, u_Q) and r*s = (v_Q - v_P)*(r/u_P) mod
    u_Q = det*x + s0n, so s1n = det; _compose does the rest."""
    diff = _difference(pc, qc)
    det, r, s0n = _interpolation(qc[0], qc[1], *diff)
    return _compose(F, l2, pc, qc[0], diff[0], diff[1], r, det, s0n)


def _double_generic(F, lam, c):
    """The generic double of a degree-2 divisor given as a reduced native
    coordinate tuple, with one field inversion; lam = the curve's natives.

    Returns the reduced native (a2, a4, b3, b5) of the double, the single
    point as a MumfordDivisor when the double is special (s1 = 0), or None
    when a branch point lies in the support (r = y1*y2 = 0); a repeated
    point doubles here like any other support.
    s = k/(2v) mod u for k = (P(x) - v^2)/u, whose remainder mod u is
    k1*x + k0 below, and b3*x + i0 = r/v mod u for r = res(u, v) = a4*b3^2 -
    b5*i0 (= _tangent's N); so 2r*s = k*(b3*x + i0) mod u, and _compose does the
    rest."""
    l2, l4, l6, _, _ = lam
    a2, a4, b3, b5 = c
    b3sq, a2sq, l2a2 = b3 * b3, a2 * a2, l2 * a2
    i0 = a2 * b3 - b5
    m, a4x2 = a4 + l2a2, a4 + a4
    k1 = l4 + 3 * a2sq - m - m
    k0 = a2 * (a4x2 + a4x2 - l4 - a2sq + l2a2) + l6 - b3sq - l2 * a4x2
    r = a4 * b3sq - b5 * i0
    zero = F._native_zero
    return _compose(F, l2, c, a2, zero, zero, r + r, k0 * b3 - k1 * b5, k0 * i0 - a4 * (k1 * b3))


def _add_point_weight5(curve: CanonicalCurve, pc, xq, g1):
    """The native P + q by the weight-5 function y + b3*x + b5 + g1*u(x) through
    P's support (native pc) and q = (xq, yq), xq and g1 natives: the quintic
    P(x) - (g1*x^2 + g3*x + g5)^2 has the roots of u_P, xq and the sum's x."""
    m, lam = curve.field._modulus, curve.native
    a2, a4, b3, b5 = pc
    g3, g5 = b3 + g1 * a2, b5 + g1 * a4
    s = xq + lam[0] - g1 * g1
    a2s = (s - a2) % m
    a4s = (a2 * a2 - a4 + (xq - a2) * s + lam[1] - 2 * g1 * g3) % m
    return a2s, a4s, (g1 * a2s - g3) % m, (g1 * a4s - g5) % m


def _add_special(curve: CanonicalCurve, pc, xq, yq):
    """The native P + q of a degree-2 P (native pc) and a point q = (xq, yq) of
    natives, by the weight-5 limit g1 = -(yq + b3*xq + b5)/u_P(xq); OffCurve
    for q off the curve, None for q above a root of u_P."""
    if not curve._on_curve_native(xq, yq):
        raise OffCurve("point not on the curve")
    F = curve.field
    a2, a4, b3, b5 = pc
    try:
        inv = F._invert(xq * (xq + a2) + a4)
    except DivisionByZero:
        return None
    return _add_point_weight5(curve, pc, xq, -(yq + xq * b3 + b5) * inv % F._modulus)


def _add_point_in_support(curve: CanonicalCurve, pc, xq, yq) -> MumfordDivisor:
    """P + q for a degree-2 P (native pc) and a point q = (xq, yq) of
    reduced natives above a root of u_P, where _add_special declines; p1 is
    the point of P above xq, x2 the other root.

    q = -p1 (a branch point included) leaves the other point of P.  q = p1
    takes the weight-5 function tangent to the curve at p1, to third order
    when P = 2*p1 (x2 = xq)."""
    F, lam, m = curve.field, curve.native, curve.field._modulus
    a2, _, b3, b5 = pc
    x2 = -(a2 + xq) % m
    if not (yq - b3 * xq - b5) % m:
        return MumfordDivisor._make((F, SPECIAL, (x2, -(b3 * x2 + b5) % m)))
    if xq != x2:  # g1 = -(P'(xq)/(2*yq) + b3)/(xq - x2)
        num, den = _dp_of(xq, lam) + 2 * yq * b3, 2 * yq * (xq - x2)
    else:  # g1 = -(P''(xq)/2 - b3^2)/(2*yq)
        num, den = ((10 * xq + 6 * lam[0]) * xq + 3 * lam[1]) * xq + lam[2] - b3 * b3, 2 * yq
    g1 = -num * F._invert(den) % m
    return MumfordDivisor._make((F, NONSPECIAL, _add_point_weight5(curve, pc, xq, g1)))


def _add_overlapping(curve: CanonicalCurve, pc, qc) -> MumfordDivisor:
    """P + Q for degree-2 divisors (natives pc, qc) whose supports share an
    x, Q != +-P: (P + q1) + q2 for the points q1, q2 of Q above the shared
    x0 and above the other root of u_Q.  x0 is the common root of the two
    u's, or where the two lines meet when the u's agree."""
    F = curve.field
    m = F._modulus
    dA2, dA4, dB3, dB5 = _difference(pc, qc)
    a2, _, b3, b5 = qc
    x0 = -(dA4 * F._invert(dA2) if dA2 % m else dB5 * F._invert(dB3)) % m  # dA2 = 0: the same u
    x1 = -(a2 + x0) % m
    R = _add_point_in_support(curve, pc, x0, -(b3 * x0 + b5) % m)
    return add_traced(R, MumfordDivisor._make((F, SPECIAL, (x1, -(b3 * x1 + b5) % m))), curve)[0]


# ---------------------------------------------------------------------------
# kernels

def add_points(curve: CanonicalCurve, p1, p2) -> MumfordDivisor:
    """Sum of two degree-1 classes: the two-point Mumford construction, which
    raises InvolutionPair for a pair in involution (the sum is Neutral)."""
    return mumford_from_points(curve, p1, p2)


def add_special(P: MumfordDivisor, q_point, curve: CanonicalCurve) -> MumfordDivisor:
    """Degree-2 plus degree-1 via the weight-5 interpolation limit; OffCurve
    for a point off the curve, QInSupport for one above a root of u_P."""
    _check_degree2(curve.field, P)
    F = curve.field
    s = _add_special(curve, P.native, *(F._native(F.coerce(v)) for v in q_point))
    if s is None:
        raise QInSupport("point lies in the support of P or -P")
    return MumfordDivisor._make((F, NONSPECIAL, s))


def add_to_special(P: MumfordDivisor, Q: MumfordDivisor, curve: CanonicalCurve) -> MumfordDivisor:
    """The branch where the sum of two degree-2 classes is a single point:
    the generic addition kernel's sum when its s1 is zero.

    Raises ConditionViolated when the gamma matrix is regular (the sum is
    not special) and SupportOverlap when the supports share an x."""
    _check_degree2(curve.field, P, Q)
    F = curve.field
    pc, qc = P.native, Q.native
    dA2, dA4, dB3, dB5 = _difference(pc, qc)
    det, r, s0n = _interpolation(qc[0], qc[1], dA2, dA4, dB3, dB5)
    if det % F._modulus:
        raise ConditionViolated("sum is not special: use the generic addition")
    s = _compose(F, curve.native[0], pc, qc[0], dA2, dA4, r, det, s0n)
    if s is None:
        raise SupportOverlap("supports share an x: not an add_to_special instance")
    return s


def double_to_special(Q: MumfordDivisor, curve: CanonicalCurve) -> MumfordDivisor:
    """Duplication landing on a single point, 2Q ~ (x, y) - inf: the generic
    doubling kernel's double when its s1 is zero."""
    _check_degree2(curve.field, Q)
    s = _double_generic(curve.field, curve.native, Q.native)
    if s is None:
        raise BranchPointInSupport("branch point in support: slopes undefined")
    if type(s) is tuple:
        raise ConditionViolated("2Q is not special: use the generic doubling")
    return s


# ---------------------------------------------------------------------------
# dispatchers

def add_traced(P: MumfordDivisor, Q: MumfordDivisor, curve: CanonicalCurve):
    """Total addition on natives; returns (reduced divisor, branch tag).  A
    single point off the curve raises OffCurve; add checks degree-2 operands."""
    F = curve.field
    if P.field is not F or Q.field is not F:
        raise MixedFields("divisor/curve field mismatch")
    if P.is_neutral():
        return Q, "neutral"
    if Q.is_neutral():
        return P, "neutral"
    m = F._modulus
    if P.is_special() and Q.is_special():
        (xp, yp), (xq, yq) = P.native, Q.native
        if xp == xq and not (yp + yq) % m:
            return MumfordDivisor.neutral(F), "inverse"
        return _from_native_points(curve, xp, yp, xq, yq), "add_points"
    if P.is_special() or Q.is_special():
        if P.is_special():
            P, Q = Q, P
        s = _add_special(curve, P.native, *Q.native)
        if s is None:
            return _add_point_in_support(curve, P.native, *Q.native), "support_overlap"
        return MumfordDivisor._make((F, NONSPECIAL, s)), "add_special"
    # both degree 2
    pc, qc = P.native, Q.native
    if pc == qc:
        return double_traced(P, curve)
    if pc[0] == qc[0] and pc[1] == qc[1] and not ((pc[2] + qc[2]) % m or (pc[3] + qc[3]) % m):
        return MumfordDivisor.neutral(F), "inverse"
    s = _add_generic(F, curve.native[0], pc, qc)
    if s is None:
        return _add_overlapping(curve, pc, qc), "support_overlap"
    if type(s) is tuple:
        return MumfordDivisor._make((F, NONSPECIAL, s)), "generic"
    return s, "add_to_special"


def double_traced(Q: MumfordDivisor, curve: CanonicalCurve):
    """Total duplication on natives; returns (reduced divisor, branch tag).  A
    single point off the curve raises OffCurve; double checks a degree-2 one."""
    F = curve.field
    if Q.field is not F:
        raise MixedFields("divisor/curve field mismatch")
    if Q.is_neutral():
        return Q, "neutral"
    if Q.is_special():
        x, y = Q.native
        if not y:
            return MumfordDivisor.neutral(F), "double"
        return _from_native_points(curve, x, y, x, y), "double"
    s = _double_generic(F, curve.native, Q.native)
    if type(s) is tuple:
        return MumfordDivisor._make((F, NONSPECIAL, s)), "double"
    if s is not None:
        return s, "double_to_special"
    # _double_generic declined: a branch point in the support, two or one
    if not (Q.native[2] or Q.native[3]):
        return MumfordDivisor.neutral(F), "double"
    # exactly one branch point, at x = -b5/b3: 2Q ~ 2*(the other point)
    a2, _, b3, b5 = Q.native
    x = (b5 * F._invert(b3) - a2) % F._modulus
    y = -(b3 * x + b5) % F._modulus
    return _from_native_points(curve, x, y, x, y), "double"


def _check_operands(curve: CanonicalCurve, *divisors):
    """MixedFields for a divisor over another field, OffCurve for one off
    the Jacobian."""
    for D in divisors:
        if D.field is not curve.field:
            raise MixedFields("divisor/curve field mismatch")
        if not is_on_jacobian(D, curve):
            raise OffCurve("divisor not on the Jacobian")


def add(P: MumfordDivisor, Q: MumfordDivisor, curve: CanonicalCurve) -> MumfordDivisor:
    """P + Q; an operand off the Jacobian raises OffCurve."""
    _check_operands(curve, P, Q)
    return add_traced(P, Q, curve)[0]


def double(Q: MumfordDivisor, curve: CanonicalCurve) -> MumfordDivisor:
    """2Q; an operand off the Jacobian raises OffCurve."""
    _check_operands(curve, Q)
    return double_traced(Q, curve)[0]


WNAF_WIDTH = 4


def _wnaf(n: int) -> list:
    """Width-WNAF_WIDTH non-adjacent form of n, least significant digit first.

    Every nonzero digit is odd with |d| < 2^(WNAF_WIDTH-1), at least
    WNAF_WIDTH - 1 zeros follow it, and sum(d * 2^i) = n; the last digit of
    a nonempty recoding is nonzero.  A negative n recodes to negated digits.
    Each run of zero digits is taken in one step, its length the number of
    trailing zero bits of n."""
    full, half = 1 << WNAF_WIDTH, 1 << (WNAF_WIDTH - 1)
    digits = []
    while n:
        zeros = (n & -n).bit_length() - 1
        digits += [0] * zeros
        n >>= zeros
        d = n & (full - 1)
        if d >= half:
            d -= full
        digits.append(d)
        n = (n - d) >> 1
    return digits


def scalar_mul(n: int, D: MumfordDivisor, curve: CanonicalCurve) -> MumfordDivisor:
    """n*D by a signed-window ladder over the width-4 NAF of n.

    D is checked once: a field other than the curve's raises MixedFields and
    a divisor off the Jacobian raises OffCurve, for every n.  The ladder
    precomputes the odd multiples D, 3D, ... up to the largest digit used and
    keeps every degree-2 intermediate as a native coordinate tuple, run
    through _add_generic and _double_generic directly.  A special sum or
    double comes back from them as a MumfordDivisor; it and any neutral
    intermediate, and whatever the kernels decline (a shared x, a branch
    point in the support), go through add_traced/double_traced.  A degree-2
    divisor's native tuple is its record's native field, so the ladder
    enters and leaves without converting a coordinate."""
    _check_operands(curve, D)
    F = curve.field
    digits = _wnaf(n)
    if not digits:
        return MumfordDivisor.neutral(F)
    lam = curve.native
    l2, m = lam[0], F._modulus

    # x, y below are native tuples (degree 2) or MumfordDivisors (otherwise);
    # a kernel returns a nonempty tuple or a MumfordDivisor, both true, or
    # None where it declines, so "kernel(...) or fallback" picks the fallback
    # exactly there
    def wrap(x):
        return MumfordDivisor._make((F, NONSPECIAL, x)) if type(x) is tuple else x

    def unwrap(R):
        return R.native if R.is_nonspecial() else R

    def dbl(x):  # the fallback where _double_generic cannot take x or declines
        return unwrap(double_traced(wrap(x), curve)[0])

    def add_(x, y):  # the fallback where _add_generic cannot take x, y or declines
        return unwrap(add_traced(wrap(x), wrap(y), curve)[0])

    odd = [unwrap(D)]  # odd[i] = (2i + 1) * D
    top = max(map(abs, digits))
    if top > 1:
        x = odd[0]
        twice = type(x) is tuple and _double_generic(F, lam, x) or dbl(x)
        while len(odd) <= top // 2:
            x = odd[-1]
            odd.append(type(x) is tuple and type(twice) is tuple
                       and _add_generic(F, l2, x, twice) or add_(x, twice))
    multiple = {}  # digit d -> d*D
    for i, x in enumerate(odd):
        multiple[2 * i + 1] = x
        multiple[-2 * i - 1] = ((x[0], x[1], -x[2] % m, -x[3] % m) if type(x) is tuple
                                else negate(x))
    acc = multiple[digits[-1]]
    for d in reversed(digits[:-1]):
        acc = type(acc) is tuple and _double_generic(F, lam, acc) or dbl(acc)
        if d:
            x = multiple[d]
            acc = (type(acc) is tuple and type(x) is tuple
                   and _add_generic(F, l2, acc, x) or add_(acc, x))
    return wrap(acc)
