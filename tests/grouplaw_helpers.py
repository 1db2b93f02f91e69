"""Group-law cross-check helpers that only the tests use."""
from g2div.curves import CanonicalCurve
from g2div.divisors import MumfordDivisor
from g2div.errors import BranchPointInSupport, SameDivisor
from g2div.grouplaw import TangentData, _slope_tangent


def addition_system(P: MumfordDivisor, Q: MumfordDivisor):
    """The 4x4 linear system for (g6, g4, g2, g1): rows*(gammas) + consts = 0."""
    F = P.field
    rows = []
    consts = []
    for D in (P, Q):
        a2, a4, b3, b5 = D.coords
        rows.append((F.one, F.zero, -a4, -b5))
        rows.append((F.zero, F.one, -a2, -b3))
        consts.append(a2 * a4)
        consts.append(a2 * a2 - a4)
    return rows, consts


def tangent_data_from_points(curve: CanonicalCurve, p1, p2) -> TangentData:
    """Slope-based tangent data, the pointwise cross-check of tangent_data."""
    F = curve.field
    (x1, y1), (x2, y2) = p1, p2
    if F.is_zero(y1) or F.is_zero(y2):
        raise BranchPointInSupport("slope undefined at a branch point")
    if x1 == x2:
        raise SameDivisor("pointwise tangent data needs x1 != x2")
    s1 = curve.dp_at(x1) / (y1 + y1)
    s2 = curve.dp_at(x2) / (y2 + y2)
    return _slope_tangent(F, p1, p2, s1, s2)
