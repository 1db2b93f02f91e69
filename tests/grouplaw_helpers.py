"""Group-law cross-check helpers that only the tests use."""
from conftest import pullback
from g2div.curves import CanonicalCurve
from g2div.divisors import MumfordDivisor, points_from_mumford
from g2div.errors import BranchPointInSupport, SameDivisor, SerializationError
from g2div.grouplaw import TangentData, _slope_tangent, double_traced


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


def du_derivative(d: MumfordDivisor, direction: str, curve: CanonicalCurve):
    """(d a2/du, d a4/du) along the first-kind flow u1 or u3.

    Chain rule through dx_i/du entries; needs distinct x-support away from
    branch points.
    """
    if direction not in ("u1", "u3"):
        raise SerializationError("direction must be 'u1' or 'u3'")
    (x1, y1), (x2, y2), big, emb = points_from_mumford(d, curve)
    if x1 == x2:
        raise SameDivisor("flow derivative needs x1 != x2")
    if big.is_zero(y1) or big.is_zero(y2):
        raise BranchPointInSupport("flow derivative undefined at a branch point")
    dx = x1 - x2
    if direction == "u1":
        dx1 = (-2 * y1) / dx
        dx2 = (2 * y2) / dx
    else:
        dx1 = (2 * x2 * y1) / dx
        dx2 = (-2 * x1 * y2) / dx
    da2 = -(dx1 + dx2)
    da4 = x2 * dx1 + x1 * dx2
    if emb is not None:
        da2 = pullback(emb, da2)
        da4 = pullback(emb, da4)
    return da2, da4


def torsion_branch_classification(D: MumfordDivisor, curve: CanonicalCurve) -> str:
    """Which 4-torsion residual branch applies, from the doubled divisor."""
    doubled, _ = double_traced(D, curve)
    return "special" if doubled.is_special() else "nonspecial"
