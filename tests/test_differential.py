"""Differential tests of the group-law dispatchers against the Cantor oracle.

The generic add and double run on each field's native values: ints for
F_p, Fractions for Q, field elements for F_{p^k}.  Seeded mixed-branch
operations over F_7, F_13, F_9, F_27 and F_49 must agree with cantor_add and
run every branch tag on both kinds of field; 128-bit multiples over
F_{2^40-87} and small multiples over Q must agree with cantor_scalar_mul.
The two generic kernels, run on natives over F_{2^40-87}, F_1009, F_{31^2},
F_{7^2} and F_{3^3}, must agree with cantor_add wherever they return a sum,
a single-point one included, and decline exactly on a shared x or a branch
point in the support.
"""
import random
import time

import pytest

from g2div.cantor import cantor_add, cantor_neg, cantor_scalar_mul, from_mumford, to_mumford
from g2div.curves import CanonicalCurve
from g2div.divisors import MumfordDivisor, mumford_from_points, negate
from g2div.errors import DegenerateCurve
from g2div.extension import ExtensionField
from g2div.fields import GF, QQ
from g2div.grouplaw import _add_generic, _double_generic
from g2div.grouplaw import add_traced, double_traced, scalar_mul
from g2div.unipoly import UniPoly, resultant

TAGS = {"neutral", "inverse", "add_points", "add_special", "generic", "double",
        "double_to_special", "add_to_special", "support_overlap"}


def _elem(F, rng):
    if isinstance(F, ExtensionField):
        return F.from_coeffs([rng.randrange(F.p) for _ in range(F.k)])
    return F.element(rng.randrange(F.p))


def _curve(F, rng):
    while True:
        try:
            return CanonicalCurve(F, tuple(_elem(F, rng) for _ in range(5)))
        except DegenerateCurve:
            continue


def _cantor(how, P, Q, curve):
    Q = P if how == "double" else Q
    return to_mumford(cantor_add(from_mumford(P), from_mumford(Q), curve))


def _ops(curve, rng, n_random):
    """Seeded (how, P, Q) operations: random operands of every shape, plus
    constructions for the branches random pairs rarely reach."""
    F = curve.field
    pts = [(x, y) for x in F.elements() for y in F.sqrt(curve.p_at(x))]
    O = MumfordDivisor.neutral(F)

    def point():
        return rng.choice(pts)

    def divisor():
        while True:
            p1, p2 = point(), point()
            if p1[0] != p2[0] or (p1 == p2 and not F.is_zero(p1[1])):
                return mumford_from_points(curve, p1, p2)

    def operand():
        r = rng.random()
        if r < 0.05:
            return O
        if r < 0.25:
            return MumfordDivisor.special(F, *point())
        return divisor()

    ops = []
    for _ in range(n_random):
        if rng.random() < 0.3:
            ops.append(("double", operand(), None))
        else:
            ops.append(("add", operand(), operand()))
    for _ in range(5):
        D = divisor()
        ops.append(("add", D, negate(D)))
        ops.append(("add", D, D))
        # two supports sharing an x (the same point or its involute)
        p1, p2, p3 = point(), point(), point()
        if len({p1[0], p2[0], p3[0]}) == 3:
            q1 = p1 if rng.random() < 0.5 else (p1[0], -p1[1])
            ops.append(("add", mumford_from_points(curve, p1, p2), mumford_from_points(curve, q1, p3)))
        # P = S - D, so P + D is the single point S
        S = MumfordDivisor.special(F, *point())
        P = to_mumford(cantor_add(from_mumford(S), cantor_neg(from_mumford(D)), curve))
        if P.is_nonspecial():
            ops.append(("add", P, D))
    # a doubling that lands on a single point, from a scan of support pairs
    for i, p1 in enumerate(pts):
        D = next((mumford_from_points(curve, p1, p2) for p2 in pts[i + 1:]
                  if p2[0] != p1[0] and _cantor("double", mumford_from_points(curve, p1, p2),
                                                None, curve).is_special()), None)
        if D is not None:
            ops.append(("double", D, None))
            break
    return ops


def test_dispatchers_match_cantor_on_prime_and_extension_fields():
    start = time.perf_counter()
    rng = random.Random(20241018)
    hit = {"prime": set(), "extension": set()}
    for p, k, n_random in ((7, 1, 300), (13, 1, 300), (3, 2, 200), (3, 3, 200), (7, 2, 200)):
        F = GF(p, k)
        kind = "extension" if k > 1 else "prime"
        for _ in range(2):
            curve = _curve(F, rng)
            for how, P, Q in _ops(curve, rng, n_random):
                if how == "add":
                    got, tag = add_traced(P, Q, curve)
                else:
                    got, tag = double_traced(P, curve)
                assert got == _cantor(how, P, Q, curve), (F, how, P, Q, tag)
                hit[kind].add(tag)
    assert hit["prime"] == TAGS
    assert hit["extension"] == TAGS
    assert time.perf_counter() - start < 20


def _kernel_inputs(curve, rng, n):
    """(divisor, its support points) for random distinct-x divisors and
    repeated points 2S, and (P, Q) pairs of them: random pairs, pairs that
    share a support point or its involute, and pairs P = S - D, D whose sum
    is the single point S."""
    F = curve.field
    divisors, pairs = [], []

    def point():
        while True:
            x = _elem(F, rng)
            roots = F.sqrt(curve.p_at(x))
            if roots:
                return x, rng.choice(roots)

    while len(divisors) < n:
        p1, p2, p3 = point(), point(), point()
        if len({p1[0], p2[0], p3[0]}) < 3:
            continue
        D = mumford_from_points(curve, p1, p2)
        divisors.append((D, (p1, p2)))
        if not F.is_zero(p1[1]):
            divisors.append((mumford_from_points(curve, p1, p1), (p1,)))
        q1 = p1 if rng.random() < 0.5 else (p1[0], -p1[1])
        pairs.append((D, mumford_from_points(curve, q1, p3)))
        S = MumfordDivisor.special(F, *p3)
        P = to_mumford(cantor_add(from_mumford(S), cantor_neg(from_mumford(D)), curve))
        if P.is_nonspecial():
            pairs.append((P, D))
    for _ in range(n):
        (P, _), (Q, _) = rng.sample(divisors, 2)
        pairs.append((P, Q))
    # supports holding one or two rational branch points
    branch = [(e, F.zero) for e in curve.branch_points()]
    for b in branch:
        q = next(q for q in iter(point, None) if q[0] != b[0])
        divisors.append((mumford_from_points(curve, b, q), (b, q)))
    if len(branch) > 1:
        divisors.append((mumford_from_points(curve, *branch[:2]), tuple(branch[:2])))
    return divisors, pairs


@pytest.mark.parametrize("p, k", [(2 ** 40 - 87, 1), (1009, 1), (31, 2), (7, 2), (3, 3)])
def test_generic_kernels_match_cantor_on_natives(p, k):
    rng = random.Random(p + k)
    F = GF(p, k)
    curve = _curve(F, rng)
    lam = curve.native
    divisors, pairs = _kernel_inputs(curve, rng, 40)

    def wrap(s):  # a native tuple, or a single-point MumfordDivisor
        return MumfordDivisor.nonspecial(F, *s) if type(s) is tuple else s

    ran = {"add": 0, "repeated": 0, "special sum": 0}
    for D, pts in divisors:
        got = _double_generic(F, lam, D.native)
        assert (got is None) == any(F.is_zero(y) for _, y in pts), D
        if got is not None:
            assert wrap(got) == _cantor("double", D, None, curve), D
            ran["repeated"] += len(pts) == 1
    for P, Q in pairs:
        if P == Q or P == negate(Q):
            continue
        got = _add_generic(F, lam[0], P.native, Q.native)
        shared_x = F.is_zero(resultant(*(UniPoly(F, [D.a4, D.a2, F.one]) for D in (P, Q))))
        assert (got is None) == shared_x, (P, Q)
        if got is not None:
            assert wrap(got) == _cantor("add", P, Q, curve), (P, Q)
            ran["add"] += 1
            ran["special sum"] += type(got) is not tuple
    assert all(ran.values()), ran


def test_scalar_mul_p40_matches_cantor():
    rng = random.Random(40)
    F = GF(2 ** 40 - 87)
    curve = _curve(F, rng)
    for _ in range(3):
        while True:
            x1, x2 = _elem(F, rng), _elem(F, rng)
            r1, r2 = F.sqrt(curve.p_at(x1)), F.sqrt(curve.p_at(x2))
            if r1 and r2 and x1 != x2:
                break
        D = mumford_from_points(curve, (x1, r1[0]), (x2, r2[-1]))
        n = rng.getrandbits(128) | (1 << 127)
        want = to_mumford(cantor_scalar_mul(n, from_mumford(D), curve))
        assert scalar_mul(n, D, curve) == want


def test_scalar_mul_over_q_matches_cantor():
    curve = CanonicalCurve(QQ(), (0, 0, 0, -1, 1))  # y^2 = x^5 - x + 1
    D = mumford_from_points(curve, (0, 1), (1, 1))
    for n in range(6):
        assert scalar_mul(n, D, curve) == to_mumford(cantor_scalar_mul(n, from_mumford(D), curve))
