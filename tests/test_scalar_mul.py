"""scalar_mul: the signed-window ladder against the Cantor oracle.

Multiples n in -20..40 and two 64-bit scalars must agree with Cantor over
F_7 and F_13 (every divisor of one curve each), F_9 and F_{31^2} (seeded
samples plus degenerate bases), and Q (|n| <= 8).  The bases include the
neutral divisor, points, 2-torsion divisors, repeated-point divisors and
divisors whose double is a single point, so that the generic kernels both
decline (a shared x, a branch point in the support) and return single-point
sums and doubles, each checked against the Cantor oracle.
"""
import random

import pytest

from conftest import random_divisor
from g2div import grouplaw
from g2div.cantor import cantor_add, cantor_neg, cantor_scalar_mul, enumerate_jacobian
from g2div.cantor import from_mumford, to_mumford
from g2div.curves import CanonicalCurve
from g2div.divisors import MumfordDivisor, mumford_from_points, points_from_mumford
from g2div.errors import DegenerateCurve, MixedFields, OffCurve
from g2div.fields import GF, QQ
from g2div.grouplaw import WNAF_WIDTH, _wnaf, double_traced, scalar_mul
from g2div.torsion import two_torsion_divisors
from g2div.unipoly import UniPoly, resultant

SMALL_N = range(-20, 41)


def _multiples(D, curve, ns):
    """{n: n*D} for n in ns, by repeated Cantor addition."""
    c, neg = from_mumford(D), from_mumford(MumfordDivisor.neutral(curve.field))
    pos = [neg]
    for _ in range(max(ns)):
        pos.append(cantor_add(pos[-1], c, curve))
    return {n: to_mumford(pos[n] if n >= 0 else cantor_neg(pos[-n])) for n in ns}


def _check(curve, bases, ns, rng):
    for D in bases:
        want = _multiples(D, curve, ns)
        for n in ns:
            assert scalar_mul(n, D, curve) == want[n], (n, D)
    for D in rng.sample(bases, 2):
        for _ in range(2):
            n = rng.getrandbits(64) * rng.choice((1, -1))
            assert scalar_mul(n, D, curve) == to_mumford(cantor_scalar_mul(n, from_mumford(D), curve))


def _declined(monkeypatch):
    """Record the operands on which the generic kernels return None or a
    single-point divisor, with what they returned."""
    seen = {"add": [], "double": []}
    add_generic, double_generic = grouplaw._add_generic, grouplaw._double_generic

    def add_spy(F, l2, pc, qc):
        s = add_generic(F, l2, pc, qc)
        if type(s) is not tuple:
            seen["add"].append((pc, qc, s))
        return s

    def double_spy(F, lam, c):
        s = double_generic(F, lam, c)
        if type(s) is not tuple:
            seen["double"].append((c, s))
        return s

    monkeypatch.setattr(grouplaw, "_add_generic", add_spy)
    monkeypatch.setattr(grouplaw, "_double_generic", double_spy)
    return seen


def _reasons(seen, curve):
    """Why each recorded operand was declined or summed to a single point,
    found from its support points and the Cantor oracle rather than from the
    kernels' own tests: a branch point or a shared x must be declined, and a
    single point must be Cantor's sum."""
    F = curve.field
    reasons = set()
    for c, s in seen["double"]:
        D = MumfordDivisor.nonspecial(F, *c)
        (x1, y1), (x2, y2), big, _ = points_from_mumford(D, curve)
        zero_y = big.is_zero(y1) + big.is_zero(y2)
        if zero_y:
            assert s is None, D
            reasons.add("two branch points" if zero_y == 2 else "one branch point")
        else:
            want = to_mumford(cantor_add(from_mumford(D), from_mumford(D), curve))
            assert want.is_special() and s == want, D
            reasons.add("special double of a repeated point" if x1 == x2 else "special double")
    for pc, qc, s in seen["add"]:
        P, Q = (MumfordDivisor.nonspecial(F, *x) for x in (pc, qc))
        u = [UniPoly(F, [D.a4, D.a2, F.one]) for D in (P, Q)]
        if F.is_zero(resultant(*u)):
            assert s is None, (P, Q)
            reasons.add("shared x")
        else:
            want = to_mumford(cantor_add(from_mumford(P), from_mumford(Q), curve))
            assert want.is_special() and s == want, (P, Q)
            reasons.add("special sum")
    return reasons


ALL_REASONS = {"two branch points", "one branch point", "special double",
               "special double of a repeated point", "shared x", "special sum"}


def test_scalar_mul_matches_cantor_on_every_divisor(monkeypatch):
    seen_reasons = set()
    for p, lam in ((7, (4, 0, 6, 3, 0)),  # x(x-1)(x-2)(x-3)(x-4): five rational branch points
                   (13, (1, 2, 3, 4, 5))):
        curve = CanonicalCurve(GF(p), lam)
        bases = sorted((to_mumford(d) for d in enumerate_jacobian(curve)),
                       key=lambda d: d.sort_key())
        seen = _declined(monkeypatch)
        _check(curve, bases, SMALL_N, random.Random(p))
        seen_reasons |= _reasons(seen, curve)
    assert seen_reasons == ALL_REASONS


def _curve(F, rng):
    while True:
        try:
            return CanonicalCurve(F, tuple(F.from_coeffs([rng.randrange(F.p) for _ in range(F.k)])
                                           for _ in range(5)))
        except DegenerateCurve:
            continue


@pytest.mark.parametrize("p, k, n_sample", [(3, 2, 12), (31, 2, 6)])
def test_scalar_mul_matches_cantor_on_extension_fields(p, k, n_sample):
    rng = random.Random(p * 10 + k)
    F = GF(p, k)
    curve = _curve(F, rng)
    pts = [(x, y) for x in F.elements() for y in F.sqrt(curve.p_at(x))]
    O = MumfordDivisor.neutral(F)
    bases = [O] + [MumfordDivisor.special(F, *pt) for pt in rng.sample(pts, 3)]
    bases += two_torsion_divisors(curve)
    bases += [mumford_from_points(curve, pt, pt) for pt in rng.sample(pts, 3) if not F.is_zero(pt[1])]
    # seeded sums of a two-point divisor and a point: rational and
    # irreducible supports
    for _ in range(n_sample):
        p1, p2 = rng.sample(pts, 2)
        if p1[0] != p2[0]:
            bases.append(grouplaw.add(mumford_from_points(curve, p1, p2),
                                      MumfordDivisor.special(F, *rng.choice(pts)), curve))
    # a divisor whose double is a single point
    special_double = None
    while special_double is None:
        p1, p2 = rng.sample(pts, 2)
        if p1[0] != p2[0]:
            D = mumford_from_points(curve, p1, p2)
            if double_traced(D, curve)[1] == "double_to_special":
                special_double = D
    bases.append(special_double)
    _check(curve, bases, SMALL_N, rng)


def test_scalar_mul_over_q_small_multiples():
    curve = CanonicalCurve(QQ(), (0, 0, 0, -1, 1))  # y^2 = x^5 - x + 1
    bases = [MumfordDivisor.neutral(QQ()), MumfordDivisor.special(QQ(), 0, 1),
             mumford_from_points(curve, (0, 1), (1, 1)),
             mumford_from_points(curve, (0, 1), (0, 1)),
             mumford_from_points(curve, (1, 1), (-1, -1))]
    for D in bases:
        want = _multiples(D, curve, range(-8, 9))
        for n in range(-8, 9):
            assert scalar_mul(n, D, curve) == want[n], (n, D)


def _wnaf_bitwise(n):
    """The width-WNAF_WIDTH NAF by its definition, one bit per loop turn."""
    full, half = 1 << WNAF_WIDTH, 1 << (WNAF_WIDTH - 1)
    digits = []
    while n:
        d = 0
        if n & 1:
            d = n & (full - 1)
            if d >= half:
                d -= full
            n -= d
        digits.append(d)
        n >>= 1
    return digits


def test_wnaf_recoding():
    rng = random.Random(4)
    half = 1 << (WNAF_WIDTH - 1)
    edges = [0, 1, -1]
    for k in range(1, 130):
        edges += [s * ((1 << k) + t) for s in (1, -1) for t in (1, -1)]
    randoms = [rng.getrandbits(256) * rng.choice((1, -1)) for _ in range(200)]
    for n in list(range(-300, 301)) + edges + randoms:
        digits = _wnaf(n)
        assert digits == _wnaf_bitwise(n), n
        assert sum(d << i for i, d in enumerate(digits)) == n
        assert all(d % 2 == 1 and abs(d) < half for d in digits if d)
        # at least WNAF_WIDTH - 1 zeros after each nonzero digit
        nonzero = [i for i, d in enumerate(digits) if d]
        assert all(j - i >= WNAF_WIDTH for i, j in zip(nonzero, nonzero[1:])), n
        assert not digits or digits[-1]


def test_torsion_multiples_cost_no_more_than_double_and_add(c1009, rng, monkeypatch):
    # is_torsion multiplies by 2, 3 and 4: as many doubles and generic adds
    # as double-and-add needs, with no odd multiple beyond 3D precomputed
    calls = []
    for name in ("_add_generic", "_double_generic"):
        kernel = getattr(grouplaw, name)
        monkeypatch.setattr(grouplaw, name,
                            lambda *a, kernel=kernel, name=name: calls.append(name) or kernel(*a))
    D = random_divisor(c1009, rng)
    for n, adds, doubles in ((2, 0, 1), (3, 1, 1), (4, 0, 2)):
        calls.clear()
        scalar_mul(n, D, c1009)
        assert (calls.count("_add_generic"), calls.count("_double_generic")) == (adds, doubles)


def test_scalar_mul_rejects_foreign_field_even_for_zero():
    curve = CanonicalCurve(GF(11), (0, 0, 0, 0, 1))
    for D in (MumfordDivisor.neutral(GF(7)), MumfordDivisor.special(GF(7), 6, 0),
              MumfordDivisor.nonspecial(GF(7, 2), 1, 2, 3, 4)):
        for n in (0, 1, 5, -3):
            with pytest.raises(MixedFields):
                scalar_mul(n, D, curve)


def test_scalar_mul_rejects_divisor_off_the_jacobian():
    F = GF(7)
    curve = CanonicalCurve(F, (0, 0, 0, 0, 1))
    for D in (MumfordDivisor.nonspecial(F, 1, 2, 3, 4), MumfordDivisor.special(F, 1, 1)):
        for n in (0, 1, 5, -3):
            with pytest.raises(OffCurve):
                scalar_mul(n, D, curve)
