"""Torsion criteria and division polynomials for n = 2, 3, 4.

The criteria come from comparing k-fold and (k+1)-fold multiples: for odd
n = 2k+1 the a-coordinates of (k+1)D and kD agree; for even n = 2k the
k-fold multiple is 2-torsion (b-coordinates vanish, or the single support
point has y = 0).  Substituting the duplication coefficients turns these
into polynomial conditions on (a2, a4, b3, b5), the Mumford division
polynomials.  Both systems rest on grouplaw's duplication pieces (_tangent,
_interpolation, _gammas) and its alpha law of a sum (_sum_alpha) at
P = Q = D: n = 3 is alpha(D) - alpha(2D), and n = 4's non-special branch
is the weight-6 function x^3 + g2*x^2 + g4*x + g6 reduced mod u_2D.

Denominators are cleared by powers of E = 2N*(2*b5' - a2*b3'), N = y1*y2,
and on the special n = 4 branch (E = 0) by 1024*N^5; all need N != 0.  One
plain-ring transcription builds each system.  `divpoly emit` runs it on the
generators of a ring over Q whose curve coefficients are generators too
(formal), or of the ring of the coordinates alone over a curve's field with
its own coefficients (concrete); the residuals (`torsion check`, the
searches' filter) run it on a divisor's native values, divided by the factor.
The x/y-support systems are the emitted Mumford systems with the support
of D substituted in (_support_system): no second transcription.

The finite-field searches run in the curve's own field: they scan every
alpha (a2, a4), solve the model equations for the betas above it with two
square roots, and keep the divisors on which the residuals vanish.
"""
from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from math import gcd, isqrt

from .curves import LAMBDA_NAMES, LAMBDA_WEIGHTS, CanonicalCurve, _p_of
from .divisors import MumfordDivisor, p_mod_u
from .errors import (
    CharacteristicTooSmall,
    DegenerateCurve,
    DivisionByZero,
    GammaUndefined,
    SerializationError,
    UnsupportedField,
)
from .fields import GF, Field, QQ, is_prime
from .grouplaw import (
    _check_operands,
    _gammas,
    _interpolation,
    _sum_alpha,
    _tangent,
    double_traced,
    scalar_mul,
)

# the coordinates of each system with their Sato weights; the formal rings
# append the curve coefficients LAMBDA_NAMES
MUMFORD_COORDS = ("a2", "a4", "b3", "b5"), (2, 4, 3, 5)
XY_COORDS = ("x1", "y1", "x2", "y2"), (2, 5, 2, 5)
X_COORDS = ("x1", "x2"), (2, 2)


# coords is "mumford" or "xy"; polys are WeightedPolys aligned with names
DivisionPolySet = namedtuple("DivisionPolySet", "n coords names polys")


# ---------------------------------------------------------------------------
# order tests

def _prime_divisors(n: int) -> list:
    """The distinct primes dividing n >= 1, ascending: trial division below
    2^8, then Pollard-Brent rho on each cofactor that is_prime, tested once
    per cofactor, finds composite."""
    primes = set()
    for ell in range(2, 256):
        while n % ell == 0:
            primes.add(ell)
            n //= ell
    todo = [n] if n > 1 else []
    while todo:
        m = todo.pop()
        if is_prime(m):
            primes.add(m)
        else:
            d = _rho_factor(m)
            todo += [d, m // d]
    return sorted(primes)


def _rho_factor(n: int) -> int:
    """A proper factor of a composite n with no prime factor below 2^8, in
    about the square root of its least prime factor steps: Brent's cycle
    search on x -> x^2 + c from x = 2, with fixed seeds c = 1, 2, ..."""
    for c in range(1, n):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = gcd(x - y, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g


def _good_prime(curve: CanonicalCurve) -> int:
    """The least odd prime l != 5 at which the curve over Q has good
    reduction: its coefficients are l-integral and reduce to a curve over F_l."""
    ell = 3
    while True:
        if ell != 5 and is_prime(ell):
            try:
                CanonicalCurve(GF(ell), curve.native)
                return ell
            except (DivisionByZero, DegenerateCurve):
                pass
        ell += 2


def is_torsion(D: MumfordDivisor, n: int, curve: CanonicalCurve) -> bool:
    """Exact order n.

    D has exact order n when nD = 0 and (n/l)D != 0 for each prime l | n,
    so the test takes 1 + omega(n) scalar multiplications.  Over F_q no order
    exceeds #J(F_q) <= (1 + sqrt q)^4 <= (2 + isqrt q)^4, so a larger n takes
    none; over Q the same holds with q = _good_prime(curve), as reduction at
    an odd prime of good reduction is injective on torsion (N. Katz, Invent.
    Math. 62, 1981).  Else, once nD = 0, n is factored by _prime_divisors."""
    if n < 1:
        raise SerializationError("torsion order must be positive")
    q = curve.field.order() or _good_prime(curve)
    if n > (2 + isqrt(q)) ** 4:
        _check_operands(curve, D)
        return False
    if scalar_mul(n, D, curve).variant != "neutral":
        return False
    return all(scalar_mul(n // ell, D, curve).variant != "neutral"
               for ell in _prime_divisors(n))


def two_torsion_divisors(curve: CanonicalCurve) -> list:
    """All 2-torsion classes rational over the base field, F_q or Q.

    Single branch points give degree-1 classes; unordered pairs of distinct
    branch points, and each quadratic factor w of P irreducible over the
    base field, give degree-2 classes u = (x - e1)(x - e2) or u = w with
    vanishing b-coordinates.  Over a splitting field the count is
    C(5,2) + 5 = 15."""
    from .roots import factors_of_degree
    F = curve.field
    bps = curve.branch_points()
    out = [MumfordDivisor.special(F, b, 0) for b in bps]
    for b1, b2 in combinations(bps, 2):
        out.append(MumfordDivisor.nonspecial(F, -(b1 + b2), b1 * b2, 0, 0))
    for w in factors_of_degree(curve.px(), 2):
        out.append(MumfordDivisor.nonspecial(F, w[1], w[0], 0, 0))
    return sorted(out, key=lambda d: d.sort_key())


# ---------------------------------------------------------------------------
# numeric residual systems

def _native_duplication(D: MumfordDivisor, curve: CanonicalCurve):
    """(c, d): the native values c = (a2, a4, b3, b5, l2, l4, l6, l8) of the
    degree-2 divisor D and its duplication data d, each entry reduced once.
    A branch point in the support (N = 0) leaves the gammas undefined."""
    m = curve.field._modulus
    c = D.native + curve.native[:4]
    d = {k: v % m for k, v in _duplication_data(*c).items()}
    if not d["N"]:
        raise GammaUndefined("duplication degenerate: branch point in support")
    return c, d


def three_torsion_mumford_residuals(D: MumfordDivisor, curve: CanonicalCurve):
    """alpha(D) - alpha(2D): the residuals of 3*a2 = 2*g2 - g1^2 and the
    companion a4 relation, both zero exactly on 3-torsion divisors (2D ~ -D).

    Distinct-support divisors evaluate the emitted n = 3 system and divide by
    its clearing factor E^2 (E = 0: 2D is special).  Repeated-support
    divisors (possible over small finite fields) fall outside the gamma
    solve and are compared through double_traced."""
    F = curve.field
    if not D.is_nonspecial():
        raise GammaUndefined("3-torsion residuals need a degree-2 divisor")
    m = F._modulus
    a2, a4 = D.native[:2]
    if not (a2 * a2 - 4 * a4) % m:
        doubled, _ = double_traced(D, curve)
        if not doubled.is_nonspecial():
            raise GammaUndefined("doubling left the degree-2 locus")
        d2 = doubled.native
        return F._from_native((a2 - d2[0]) % m), F._from_native((a4 - d2[1]) % m)
    c, d = _native_duplication(D, curve)
    if not d["E"]:
        raise GammaUndefined("duplication denominator vanishes: 2D is special")
    inv = F._invert(d["E"] ** 2)
    return tuple(F._from_native(r * inv % m) for r in _three_torsion_mumford_polys(c, d))


def four_torsion_residuals(D: MumfordDivisor, curve: CanonicalCurve):
    """(branch, residuals): branch "nonspecial" checks the two vanishing
    b-coordinate conditions of 2D; branch "special" checks y_{2D} = 0.

    Distinct-support divisors evaluate the emitted n = 4 system: the first
    two entries over E^4 when E != 0, which is g1*(b3, b5) of 2D with g1 the
    duplication gamma of gamma_double, the third over 1024*N^5 when 2D is
    special (E = 0, N != 0), which is y(2D) exactly.  Repeated-support
    divisors (degenerate for those formulas) read (b3, b5) or y of 2D off
    double_traced."""
    if not D.is_nonspecial():
        raise GammaUndefined("4-torsion residuals need a degree-2 divisor")
    F = curve.field
    m = F._modulus
    a2, a4 = D.native[:2]
    if not (a2 * a2 - 4 * a4) % m:
        doubled, _ = double_traced(D, curve)
        if doubled.is_neutral():
            raise GammaUndefined("2D is neutral: D is 2-torsion, not order 4")
        dc = doubled.coords
        return ("special", dc[1:]) if doubled.is_special() else ("nonspecial", dc[2:])
    c, d = _native_duplication(D, curve)
    d1, d2, dspec = _four_torsion_mumford_polys(c, d)
    if not d["E"]:
        return "special", (F._from_native(dspec * F._invert(1024 * d["N"] ** 5) % m),)
    inv = F._invert(d["E"] ** 4)
    return "nonspecial", (F._from_native(d1 * inv % m), F._from_native(d2 * inv % m))


# ---------------------------------------------------------------------------
# symbolic division polynomials

def _ring(coords, field: Field = None) -> PolyRing:
    """The ring of coords over field, or (field None) over Q with the curve
    coefficients as five more generators."""
    from .polyring import PolyRing  # not loaded by the residuals and order tests
    names, weights = coords
    if field is None:
        return PolyRing(QQ(), names + LAMBDA_NAMES, weights + LAMBDA_WEIGHTS)
    return PolyRing(field, names, weights)


def _duplication_data(a2, a4, b3, b5, l2, l4, l6, l8) -> dict:
    """N (= y1 y2), E, b3p = 2N*b3', b5p = 2N*b5' and the numerators g1..g6
    of the duplication gammas over E: _interpolation at D's alpha and the
    tangent direction with its b-part scaled by 2N (_tangent), so E = det =
    2N*(2 b5' - a2 b3') and g1 = -2N*r, then _gammas.  Plain ring arithmetic,
    so the emitted polynomials and the residuals share this transcription."""
    N, b3p, b5p = _tangent(a2, a4, b3, b5, l2, l4, l6, l8)
    E, r, s0n = _interpolation(a2, a4, -2, -a2, b3p, b5p)
    g1, g2, g4, g6 = _gammas(a2, a4, b3, b5, E, -r * (N + N), s0n)
    return {"N": N, "E": E, "b3p": b3p, "b5p": b5p, "g1": g1, "g2": g2, "g4": g4, "g6": g6}


def _three_torsion_mumford_polys(c, d):
    """The n = 3 system at c = (a2, a4, b3, b5, l2, l4, l6, l8) with d =
    _duplication_data(*c): alpha(D) - alpha(2D) times E^2, with E^2*alpha(2D)
    the alpha law of the sum D + D."""
    a2, a4, E = c[0], c[1], d["E"]
    A2, A4 = _sum_alpha(a2, a4, a2, a4, c[4], E, d["g1"], d["g2"], d["g4"])
    E2 = E * E
    return a2 * E2 - A2, a4 * E2 - A4


def _four_torsion_mumford_polys(c, d):
    """The n = 4 system at c with d = _duplication_data(*c): the two
    vanishing-b conditions on 2D times E^4, and y_{2D} times 1024*N^5.

    The first two are -E^4 times the weight-6 function x^3 + g2*x^2 + g4*x +
    g6 reduced mod u_2D, with E^2*alpha(2D) = (A2, A4) from the alpha law."""
    a2, a4, b3, b5, l2 = c[:5]
    N, E, g2, g4, g6 = d["N"], d["E"], d["g2"], d["g4"], d["g6"]
    A2, A4 = _sum_alpha(a2, a4, a2, a4, l2, E, d["g1"], g2, g4)
    E2 = E * E
    d1 = E * (g2 * A2 + E * A4 - g4 * E2) - A2 * A2
    d2 = E * (g2 * A4 - g6 * E2) - A2 * A4
    # special branch: y_{2D} = 0 with the tangency gammas, cleared by 1024*N^5
    b3p = d["b3p"]                                  # beta3' * 2N
    N2_16 = 16 * N * N
    x_num = (2 * a2 - l2) * N2_16 + b3p * b3p       # X * 16 N^2
    g3_num = 4 * N * b3 + a2 * b3p                  # gamma3 * 4N
    g5_num = 4 * N * b5 + a4 * b3p                  # gamma5 * 4N
    dspec = (b3p * x_num + g3_num * N2_16) * x_num + g5_num * (N2_16 * N2_16)
    return d1, d2, dspec


def _coordinates(coords, curve):
    """(generators, lam): the coordinates and curve coefficients of the
    formal ring (curve None), or the coordinates over the curve's field and
    lam = curve.lam."""
    g = _ring(coords, None if curve is None else curve.field).gens()
    lam = tuple(g[v] for v in LAMBDA_NAMES) if curve is None else curve.lam
    return [g[v] for v in coords[0]], lam


# per n, the names of the Mumford and of the support system, and the exact
# powers of d = x1 - x2 over Q: one per Mumford condition in support
# coordinates, then one for X
MUMFORD_NAMES = {3: ("a2_relation", "a4_relation"),
                 4: ("b3_vanishing", "b5_vanishing", "y2d_vanishing")}
XY_NAMES = {3: ("x_support", "y_support"), 4: ("x_support", "y_support", "y2d_support")}
D_POWERS = {3: (4, 6, 4), 4: (10, 10, 6, 10)}


def _mumford_system(n: int, curve) -> DivisionPolySet:
    mumford, lam = _coordinates(MUMFORD_COORDS, curve)
    c = (*mumford, *lam[:4])
    build = _three_torsion_mumford_polys if n == 3 else _four_torsion_mumford_polys
    return DivisionPolySet(n, "mumford", MUMFORD_NAMES[n], build(c, _duplication_data(*c)))


def _support_system(n: int, curve) -> DivisionPolySet:
    """The Mumford system of n at the support (x1, y1), (x2, y2) of D: a2 =
    -(x1 + x2), a4 = x1*x2, d*b3 = y2 - y1 and d*b5 = x2*y1 - x1*y2 (v(x_i) =
    -y_i), cleared by d^B, reduced by y_i^2 = P(x_i) and divided by its power
    of d.  Non-special conditions land in the form A + y1*y2*B, the special
    one in y1*C + y2*C'; X = (A1*B2 - A2*B1)/d^k, with n = 3's published scale."""
    (x1, y1, x2, y2), lam = _coordinates(XY_COORDS, curve)
    d, *ks, kx = x1 - x2, *D_POWERS[n]
    support = {"a2": -(x1 + x2), "a4": x1 * x2, "b3": y2 - y1, "b5": x2 * y1 - x1 * y2}
    squares = {"y1": _p_of(x1, lam), "y2": _p_of(x2, lam)}
    conds = [f.compose(support, d, ("b3", "b5")).reduce_squares(squares).exact_div(d ** k)
             for f, k in zip(emit_division_polynomials(n, "mumford", curve).polys, ks)]
    # A + y1*y2*B at y1 = y2 = 0 and at 1 is A and A + B, in the ring of (x1, x2)
    (u1, u2), _ = _coordinates(X_COORDS, curve)
    A1, A2, AB1, AB2 = (f.compose({"x1": u1, "y1": y, "x2": u2, "y2": y})
                        for y in (0, 1) for f in conds[:2])
    X = (A1 * (AB2 - A2) - A2 * (AB1 - A1)).exact_div((u1 - u2) ** kx)
    one = X.ring.field.one
    polys = (X.scale(one / 16), conds[0].scale(-one / 4)) if n == 3 else (X, *conds[::2])
    return DivisionPolySet(n, "xy", XY_NAMES[n], polys)


_FORMAL_CACHE: dict = {}


def emit_division_polynomials(n: int, coords: str, curve: CanonicalCurve = None) -> DivisionPolySet:
    """Division polynomials with formal (curve=None) or concrete coefficients:
    one transcription, run on the curve coefficients as generators over Q or
    on the curve's own coefficients in its field."""
    if n not in (3, 4):
        raise SerializationError("division polynomials are emitted for n in {3, 4}")
    if coords not in ("mumford", "xy"):
        raise SerializationError("coords must be 'mumford' or 'xy'")
    build = _support_system if coords == "xy" else _mumford_system
    if curve is not None:
        if 0 < curve.field.characteristic <= 5:
            raise CharacteristicTooSmall("division polynomials need characteristic 0 or > 5")
        return build(n, curve)
    key = (n, coords)
    if key not in _FORMAL_CACHE:
        result = build(n, None)
        if not all(poly.is_homogeneous() for poly in result.polys):
            raise SerializationError("internal: emitted polynomial is not weight-homogeneous")
        _FORMAL_CACHE[key] = result
    return _FORMAL_CACHE[key]


# ---------------------------------------------------------------------------
# torsion search over finite fields

def _divisors_above(curve: CanonicalCurve, a2, a4) -> list:
    """The degree-2 divisors over the curve's field with alpha (a2, a4).

    With P = r1*x + r0 mod u = x^2 + a2*x + a4, the model equations
    J8 = J10 = 0 read 2*b3*b5 - a2*b3^2 = r1 and b5^2 - a4*b3^2 = r0.  So
    t = b3^2 solves (a2^2 - 4*a4)*t^2 + (2*a2*r1 - 4*r0)*t + r1^2 = 0, a
    linear equation when u is a square, and b5 = (r1 + a2*t) / (2*b3);
    b3 = 0 needs r1 = 0 and b5^2 = r0."""
    F = curve.field
    r1, r0 = p_mod_u(a2, a4, curve.lam)
    A = a2 * a2 - 4 * a4
    B = 2 * a2 * r1 - 4 * r0
    C = r1 * r1
    if not F.is_zero(A):
        ts = [(s - B) / (2 * A) for s in F.sqrt(B * B - 4 * A * C)]
    else:  # u = (x - x0)^2 and B = -4*P(x0): a branch point x0 has no divisor
        ts = [] if F.is_zero(B) else [-C / B]
    out = []
    for t in ts:
        if F.is_zero(t):
            out.extend(MumfordDivisor.nonspecial(F, a2, a4, F.zero, b5) for b5 in F.sqrt(r0))
        else:
            out.extend(MumfordDivisor.nonspecial(F, a2, a4, b3, (r1 + a2 * t) / (2 * b3))
                       for b3 in F.sqrt(t))
    return out


SEARCH_CAP = 100_000  # the most alphas _search scans: F_{17^2} (83,521) takes about 40 s


def _search(curve: CanonicalCurve, n: int, residuals) -> list:
    """The classes of exact order n among the degree-2 divisors over the
    curve's field whose Mumford residuals vanish, sorted.

    Every alpha (a2, a4) in F_q^2 is scanned and its betas solved by
    _divisors_above, so no extension field is built.  Divisors with
    y1*y2 = 0 and degree-1 classes are skipped: L(4*inf) = <1, x, x^2>, so
    no such class has order 3 or 4.  A field with q^2 above SEARCH_CAP is
    refused before the scan."""
    F = curve.field
    q = F.order()
    if q is None:
        raise UnsupportedField("torsion search needs a finite field")
    if q * q > SEARCH_CAP:
        raise UnsupportedField(f"the O(q^2) alpha scan over {F} exceeds the search cap"
                               f" of {SEARCH_CAP} alphas")
    out = []
    for a2 in F.elements():
        for a4 in F.elements():
            for D in _divisors_above(curve, a2, a4):
                try:
                    res = residuals(D, curve)
                except GammaUndefined:
                    continue
                if all(F.is_zero(r) for r in res) and is_torsion(D, n, curve):
                    out.append(D)
    return sorted(out, key=MumfordDivisor.sort_key)


def find_three_torsion(curve: CanonicalCurve) -> list:
    """All 3-torsion divisor classes with base-field Mumford coordinates.

    Keeps the divisors on which the emitted n = 3 Mumford system (the
    a-coordinates of D against those of 2D) vanishes and certifies every hit
    by exact order check."""
    return _search(curve, 3, three_torsion_mumford_residuals)


def find_four_torsion(curve: CanonicalCurve) -> list:
    """All exact-order-4 classes with base-field Mumford coordinates: the
    divisors whose 2D is 2-torsion by the emitted n = 4 system, certified by
    order."""
    return _search(curve, 4, lambda D, c: four_torsion_residuals(D, c)[1])


def find_n_torsion(curve: CanonicalCurve, n: int) -> list:
    if n == 2:
        return two_torsion_divisors(curve)
    if n == 3:
        return find_three_torsion(curve)
    if n == 4:
        return find_four_torsion(curve)
    raise SerializationError("torsion search covers n in {2, 3, 4}")
