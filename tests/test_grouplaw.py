import random

import pytest

from conftest import random_divisor, random_point
from grouplaw_helpers import addition_system, tangent_data_from_points
from polyring_helpers import RationalPoly, coeffs_in, degree_in
from g2div.cantor import (
    cantor_add,
    cantor_neg,
    cantor_scalar_mul,
    enumerate_jacobian,
    from_mumford,
    to_mumford,
)
from g2div.curves import CanonicalCurve
from g2div.divisors import (
    MumfordDivisor,
    is_on_jacobian,
    mumford_from_points,
    negate,
    points_from_mumford,
)
from g2div.errors import (
    BranchPointInSupport,
    ConditionViolated,
    DegenerateCurve,
    InvolutionPair,
    MixedFields,
    OffCurve,
    QInSupport,
    SingularInterpolation,
    SupportOverlap,
)
from g2div.fields import GF, QQ
from g2div.grouplaw import (
    TangentData,
    add,
    add_points,
    add_special,
    add_to_special,
    add_traced,
    double,
    double_to_special,
    double_traced,
    gamma_add,
    gamma_double,
    scalar_mul,
    tangent_data,
)
from g2div.models import GeneralCurve, add_extended_alpha, to_canonical
from g2div.polyring import PolyRing
from g2div.series import taylor_on_curve, truncated_square
from g2div.unipoly import UniPoly, resultant

ADD_RING_VARS = ("a2p", "a4p", "b3p", "b5p", "a2q", "a4q", "b3q", "b5q",
                 "l2", "l4", "l6", "l8", "l10")
ADD_RING_WEIGHTS = (2, 4, 3, 5, 2, 4, 3, 5, 2, 4, 6, 8, 10)


def test_add_inverse_is_neutral(c1009, rng):
    for _ in range(50):
        D = random_divisor(c1009, rng)
        got, tag = add_traced(D, negate(D), c1009)
        assert got.is_neutral() and tag == "inverse"


def test_add_neutral_identity(c1009, rng):
    O = MumfordDivisor.neutral(c1009.field)
    for _ in range(50):
        D = random_divisor(c1009, rng)
        assert add(D, O, c1009) == D
        assert add(O, D, c1009) == D


def test_add_points_example(c7, f7):
    D = add_points(c7, (f7.element(0), f7.element(1)), (f7.element(1), f7.element(3)))
    assert [c.value for c in D.coords] == [6, 0, 5, 6]
    with pytest.raises(InvolutionPair):
        add_points(c7, (f7.element(0), f7.element(1)), (f7.element(0), f7.element(6)))


def test_add_special_oracle(c1009, rng):
    for _ in range(100):
        P = random_divisor(c1009, rng)
        q = random_point(c1009, rng)
        try:
            got = add_special(P, q, c1009)
        except QInSupport:
            continue
        S = MumfordDivisor.special(c1009.field, *q)
        expect = to_mumford(cantor_add(from_mumford(P), from_mumford(S), c1009))
        assert got == expect


def test_add_special_q_in_support(c7, f7):
    P = mumford_from_points(c7, (f7.element(0), f7.element(1)), (f7.element(1), f7.element(3)))
    with pytest.raises(QInSupport):
        add_special(P, (f7.element(0), f7.element(1)), c7)
    with pytest.raises(QInSupport):
        add_special(P, (f7.element(0), f7.element(6)), c7)  # involute also collides


def test_generic_add_oracle(c1009, rng):
    for _ in range(300):
        P, Q = random_divisor(c1009, rng), random_divisor(c1009, rng)
        got, tag = add_traced(P, Q, c1009)
        expect = to_mumford(cantor_add(from_mumford(P), from_mumford(Q), c1009))
        assert got == expect
        assert is_on_jacobian(got, c1009)


def test_double_oracle(c1009, rng):
    for _ in range(200):
        D = random_divisor(c1009, rng)
        got, tag = double_traced(D, c1009)
        expect = to_mumford(cantor_add(from_mumford(D), from_mumford(D), c1009))
        assert got == expect


def test_double_two_torsion_neutral():
    c = CanonicalCurve(GF(11), (0, 0, 0, 0, 1))
    F = GF(11)
    D = MumfordDivisor.nonspecial(F, -(F.element(2) + F.element(6)), F.element(12), 0, 0)
    assert double(D, c).is_neutral()
    assert double(MumfordDivisor.special(F, 2, 0), c).is_neutral()


def test_double_repeated_point_confluent(c1009, rng):
    # divisors 2*(x,y) double correctly, in the doubling kernel
    for _ in range(100):
        pt = random_point(c1009, rng, nonzero_y=True)
        D = mumford_from_points(c1009, pt, pt)
        got, tag = double_traced(D, c1009)
        expect = to_mumford(cantor_add(from_mumford(D), from_mumford(D), c1009))
        assert got == expect


@pytest.mark.parametrize("p, k", [(7, 1), (3, 2), (13, 1)])
def test_confluent_doubling_closed_form(p, k):
    # 2*S for every affine S with y != 0 on seeded curves, characteristic 3
    # included: the series y(t) at S squares to P(x + t) through t^3, and
    # the double, from the kernel or the special doubling, matches Cantor
    F = GF(p, k)
    tags = set()
    for seed in range(6):
        curve = _seeded_curve(F, seed)
        for x in F.elements():
            for y in F.sqrt(curve.p_at(x)):
                if F.is_zero(y):
                    continue
                series = taylor_on_curve(F, curve.px().coeffs, x, y, 4)
                shifted = curve.px().compose(UniPoly(F, [x, F.one]))
                assert truncated_square(series) == [shifted[j] for j in range(4)]
                D = mumford_from_points(curve, (x, y), (x, y))
                got, tag = double_traced(D, curve)
                assert got == to_mumford(cantor_add(from_mumford(D), from_mumford(D), curve))
                tags.add(tag)
    assert tags == {"double", "double_to_special"}


def test_support_overlap_paths(c1009, rng):
    F = c1009.field
    for _ in range(100):
        a = random_point(c1009, rng, nonzero_y=True)
        s = random_point(c1009, rng, nonzero_y=True)
        b = random_point(c1009, rng, nonzero_y=True)
        if len({a[0], s[0], b[0]}) != 3:
            continue
        P = mumford_from_points(c1009, a, s)
        Q = mumford_from_points(c1009, b, s)
        got, tag = add_traced(P, Q, c1009)
        assert tag == "support_overlap"
        expect = to_mumford(cantor_add(from_mumford(P), from_mumford(Q), c1009))
        assert got == expect
        # crossing with the involute cancels the shared point
        Qi = mumford_from_points(c1009, b, (s[0], -s[1]))
        got2, tag2 = add_traced(P, Qi, c1009)
        expect2 = to_mumford(cantor_add(from_mumford(P), from_mumford(Qi), c1009))
        assert got2 == expect2


def _seeded_curve(F, seed):
    rng = random.Random(seed)
    elems = list(F.elements())
    while True:
        try:
            return CanonicalCurve(F, tuple(rng.choice(elems) for _ in range(5)))
        except DegenerateCurve:
            continue


def _rational_support_divisors(curve):
    """The neutral class, every point and every degree-2 divisor whose
    support is rational."""
    F = curve.field
    pts = [(x, y) for x in F.elements() for y in F.sqrt(curve.p_at(x))]
    out = [MumfordDivisor.neutral(F)] + [MumfordDivisor.special(F, *pt) for pt in pts]
    for i, p1 in enumerate(pts):
        for p2 in pts[i:]:
            if p1[0] != p2[0] or (p1 == p2 and not F.is_zero(p1[1])):
                out.append(mumford_from_points(curve, p1, p2))
    return out


@pytest.mark.parametrize("p, k, seed", [(7, 1, 0), (7, 1, 2), (13, 1, 1), (13, 1, 4), (3, 2, 0)])
def test_overlap_rules_match_cantor(p, k, seed):
    # every support_overlap pair and every double with exactly one branch
    # point in the support, over the whole Jacobian of a prime field and
    # over every rational-support divisor of F_9
    F = GF(p, k)
    curve = _seeded_curve(F, seed)
    if k == 1:
        ds = [to_mumford(d) for d in enumerate_jacobian(curve)]
    else:
        ds = _rational_support_divisors(curve)
    overlaps = one_branch = 0
    for P in ds:
        if P.is_nonspecial():
            a2, a4, b3, b5 = P.coords
            y1y2 = b3 * b3 * a4 - a2 * b3 * b5 + b5 * b5
            if F.is_zero(y1y2) and not (F.is_zero(b3) and F.is_zero(b5)):
                one_branch += 1
                assert double_traced(P, curve)[0] == to_mumford(
                    cantor_add(from_mumford(P), from_mumford(P), curve))
        for Q in ds:
            got, tag = add_traced(P, Q, curve)
            if tag == "support_overlap":
                overlaps += 1
                expect = to_mumford(cantor_add(from_mumford(P), from_mumford(Q), curve))
                assert got == expect, (P, Q)
    assert overlaps > 0 and one_branch > 0


def test_mixed_beta_same_u(c1009, rng):
    # same u-polynomial, betas neither equal nor opposite
    F = c1009.field
    for _ in range(60):
        p1 = random_point(c1009, rng, nonzero_y=True)
        p2 = random_point(c1009, rng, nonzero_y=True)
        if p1[0] == p2[0]:
            continue
        P = mumford_from_points(c1009, p1, p2)
        Q = mumford_from_points(c1009, p1, (p2[0], -p2[1]))
        got, tag = add_traced(P, Q, c1009)
        expect = to_mumford(cantor_add(from_mumford(P), from_mumford(Q), c1009))
        assert got == expect


def test_add_to_special_oracle_constructed(c7, f7):
    # P = S - D reduced, Q = D: the sum recovers the special class S
    S = MumfordDivisor.special(f7, 5, 2)
    rng = random.Random(4)
    hits = 0
    for _ in range(200):
        D = random_divisor(c7, rng)
        P = to_mumford(cantor_add(from_mumford(S), cantor_neg(from_mumford(D)), c7))
        if not P.is_nonspecial() or P == D or P == negate(D):
            continue
        got, tag = add_traced(P, D, c7)
        if tag != "add_to_special":
            continue  # overlapping support takes the peel path
        assert got == S
        assert add_to_special(P, D, c7) == S
        hits += 1
    assert hits > 20


def test_add_to_special_condition_violated(c1009, rng):
    for _ in range(20):
        P, Q = random_divisor(c1009, rng), random_divisor(c1009, rng)
        if P.coords[:2] == Q.coords[:2]:
            continue
        try:
            gamma_add(P, Q)
        except SingularInterpolation:
            continue
        with pytest.raises(ConditionViolated):
            add_to_special(P, Q, c1009)


@pytest.mark.parametrize("p, lam", [(7, (4, 0, 6, 3, 0)), (13, (1, 2, 3, 4, 5))])
def test_add_to_special_refuses_shared_x(p, lam):
    # every pair of the Jacobian whose supports share an x, Q != +-P: the
    # special-sum branch raises instead of returning a divisor
    curve = CanonicalCurve(GF(p), lam)
    F = curve.field
    els = [D for D in map(to_mumford, enumerate_jacobian(curve)) if D.is_nonspecial()]
    us = {D: UniPoly(F, [D.a4, D.a2, F.one]) for D in els}
    checked = 0
    for P in els:
        for Q in els:
            if Q == P or Q == negate(P) or not F.is_zero(resultant(us[P], us[Q])):
                continue
            with pytest.raises((SupportOverlap, ConditionViolated)):
                add_to_special(P, Q, curve)
            checked += 1
    assert checked > 200


def test_special_branches_reject_foreign_and_degree1_divisors(c7, f7):
    # tangent_data, add_to_special, double_to_special and add_special's
    # first operand take degree-2 divisors over the curve's field only;
    # gamma_add and gamma_double take degree-2 divisors over one field
    rng = random.Random(11)
    D = random_divisor(c7, rng)
    tang = TangentData(f7.element(-2), -D.a2, f7.one, f7.one)
    c11 = CanonicalCurve(GF(11), (1, 0, 3, 0, 7))
    bad = [random_divisor(c11, rng), MumfordDivisor.special(f7, 0, 1), MumfordDivisor.neutral(f7),
           MumfordDivisor.nonspecial(GF(7, 2), 1, 2, 3, 4)]
    for B in bad:
        for call in (lambda: tangent_data(c7, B), lambda: double_to_special(B, c7),
                     lambda: add_to_special(B, D, c7), lambda: add_to_special(D, B, c7),
                     lambda: add_special(B, (0, 1), c7), lambda: gamma_add(B, D),
                     lambda: gamma_add(D, B), lambda: gamma_double(B, tang)):
            with pytest.raises(MixedFields):
                call()


def test_public_add_and_double_reject_off_jacobian(c1009, rng):
    # a degree-2 divisor one b5 off the model raises from the public
    # dispatchers with either operand order and beside the neutral class;
    # the traced dispatchers stay unchecked and return it as given
    F = c1009.field
    D = random_divisor(c1009, rng)
    a2, a4, b3, b5 = D.coords
    off = MumfordDivisor.nonspecial(F, a2, a4, b3, b5 + 1)
    assert not is_on_jacobian(off, c1009)
    O = MumfordDivisor.neutral(F)
    for call in (lambda: add(off, D, c1009), lambda: add(D, off, c1009),
                 lambda: add(off, O, c1009), lambda: add(O, off, c1009),
                 lambda: double(off, c1009)):
        with pytest.raises(OffCurve):
            call()
    assert add_traced(off, O, c1009) == (off, "neutral")
    assert add(D, O, c1009) == D and double(O, c1009) == O


def test_traced_dispatchers_reject_an_off_curve_point(c1009, rng):
    # a single point is checked in every branch that takes one, on natives:
    # beside a degree-2 divisor (either order), beside another point, and
    # doubled; the public add_special and mumford_from_points keep theirs
    F = c1009.field
    D = random_divisor(c1009, rng)
    x, y = random_point(c1009, rng, nonzero_y=True)
    off = MumfordDivisor.special(F, x, y + 1)
    S = MumfordDivisor.special(F, *random_point(c1009, rng))
    for call in (lambda: add_traced(D, off, c1009), lambda: add_traced(off, D, c1009),
                 lambda: add_traced(off, S, c1009), lambda: add_traced(S, off, c1009),
                 lambda: double_traced(off, c1009), lambda: add_special(D, (x, y + 1), c1009),
                 lambda: mumford_from_points(c1009, (x, y + 1), (x, y + 1))):
        with pytest.raises(OffCurve):
            call()


def test_section44_consistency(c7):
    # the gamma matrix is singular exactly when the weight-5 condition holds
    from g2div.cantor import enumerate_jacobian
    F = c7.field
    els = [to_mumford(d) for d in enumerate_jacobian(c7)]
    nonspecial = [d for d in els if d.is_nonspecial()]
    for P in nonspecial[:20]:
        for Q in nonspecial:
            if P.coords[:2] == Q.coords[:2]:
                continue
            dA2, dA4 = P.a2 - Q.a2, P.a4 - Q.a4
            dB3, dB5 = P.b3 - Q.b3, P.b5 - Q.b5
            singular = F.is_zero(dA4 * dB3 - dB5 * dA2)
            cond = F.is_zero(dB3 * dA4 - dB5 * dA2)  # cross-multiplied gamma1 condition
            assert singular == cond


def test_addition_system_matrix_shape(c7, f7):
    P = MumfordDivisor.nonspecial(f7, 6, 0, 5, 6)
    Q = MumfordDivisor.nonspecial(f7, 1, 2, 3, 4)
    rows, consts = addition_system(P, Q)
    assert rows[0] == (f7.one, f7.zero, -P.a4, -P.b5)
    assert rows[1] == (f7.zero, f7.one, -P.a2, -P.b3)
    assert rows[2] == (f7.one, f7.zero, -Q.a4, -Q.b5)
    assert rows[3] == (f7.zero, f7.one, -Q.a2, -Q.b3)
    assert consts[0] == P.a2 * P.a4 and consts[1] == P.a2 * P.a2 - P.a4


def _gamma_curves(c1009):
    # F_1009 and F_{31^2}, whose x-coordinates random_point draws from the
    # whole field
    return c1009, CanonicalCurve(GF(31, 2), (1, 2, 3, 4, 5))


def test_gamma_solves_addition_system(c1009, rng):
    for curve in _gamma_curves(c1009):
        F = curve.field
        solved = 0
        for _ in range(50):
            P, Q = random_divisor(curve, rng), random_divisor(curve, rng)
            try:
                gam = gamma_add(P, Q)
            except SingularInterpolation:
                continue
            rows, consts = addition_system(P, Q)
            vec = (gam.g6, gam.g4, gam.g2, gam.g1)
            for row, const in zip(rows, consts):
                acc = F.zero
                for r, v in zip(row, vec):
                    acc = acc + r * v
                assert F.is_zero(acc + const)
            solved += 1
        assert solved > 40


def test_interpolant_vanishes_on_supports(c1009, rng):
    # R6 = x^3 + g1 y + g2 x^2 + g4 x + g6 vanishes on both supports
    for curve in _gamma_curves(c1009):
        checked = 0
        for _ in range(50):
            P, Q = random_divisor(curve, rng), random_divisor(curve, rng)
            try:
                gam = gamma_add(P, Q)
            except SingularInterpolation:
                continue
            for D in (P, Q):
                (p1, p2, big, emb) = points_from_mumford(D, curve)
                g = [big.coerce(v if emb is None else emb.embed(v)) for v in gam]
                for (x, y) in (p1, p2):
                    assert big.is_zero(x ** 3 + g[0] * y + g[1] * x * x + g[2] * x + g[3])
            checked += 1
        assert checked > 40


def test_duplication_gamma_coordinate_form(c1009, rng):
    # coordinate solution for (g6, g4, g2, g1) against the Mumford solve;
    # the g6 correction entry needs the opposite sign of the printed one
    # (deriving g6 = a4*g2 + b5*g1 - a2*a4 in coordinates gives
    # +x1*x2*(s1-s2)/2 - (x2*y1 - x1*y2); the other three entries match as
    # printed, and the defining linear system pins the sign)
    for curve in _gamma_curves(c1009):
        F = curve.field
        half = F.one / F.element(2)
        checked = 0
        for _ in range(100):
            p1 = random_point(curve, rng, nonzero_y=True)
            p2 = random_point(curve, rng, nonzero_y=True)
            if p1[0] == p2[0]:
                continue
            D = mumford_from_points(curve, p1, p2)
            tang = tangent_data(curve, D)
            den = tang.b5p + tang.b5p - D.a2 * tang.b3p
            if F.is_zero(den):
                continue
            gam = gamma_double(D, tang)
            (x1, y1), (x2, y2) = p1, p2
            s1 = curve.dp_at(x1) / (y1 + y1)
            s2 = curve.dp_at(x2) / (y2 + y2)
            base = [-half * x1 * x2 * (x1 + x2), 3 * x1 * x2, -3 * half * (x1 + x2), F.zero]
            denom = (s1 + s2) * (x1 - x2) - 2 * (y1 - y2)
            factor = (x1 - x2) * (x1 - x2) / denom
            corr = [half * x1 * x2 * (s1 - s2) - (x2 * y1 - x1 * y2),
                    -(x2 * s1 - x1 * s2),
                    half * (s1 - s2),
                    -(x1 - x2)]
            expect = [b + factor * c for b, c in zip(base, corr)]
            assert [gam.g6, gam.g4, gam.g2, gam.g1] == expect
            # the printed g6 sign variant disagrees whenever the correction is nonzero
            printed_g6 = base[0] + factor * (-corr[0])
            if not F.is_zero(corr[0]):
                assert gam.g6 != printed_g6
            checked += 1
        assert checked > 50


def test_tangent_closed_forms_match_slopes(c1009, rng):
    # tangent_data runs on native values: ints over F_p, elements over F_{p^k}
    for curve in (c1009, CanonicalCurve(GF(31, 2), (1, 2, 3, 4, 5))):
        F = curve.field
        for _ in range(100):
            D = random_divisor(curve, rng)
            (p1, p2, big, emb) = points_from_mumford(D, curve)
            if emb is not None:
                continue
            if p1[0] == p2[0] or F.is_zero(p1[1]) or F.is_zero(p2[1]):
                continue
            t1 = tangent_data(curve, D)
            t2 = tangent_data_from_points(curve, p1, p2)
            assert t1 == t2


def test_double_to_special_instances(c7):
    # enumerate F7: every divisor whose double is special must satisfy the
    # tangency condition and the explicit point formulas; every other one is
    # refused, with BranchPointInSupport when N = y1*y2 = 0 (tangent_data
    # too) and ConditionViolated when 2D is not special
    from g2div.cantor import enumerate_jacobian
    F = c7.field
    found = refused_n0 = refused_regular = 0
    for d in enumerate_jacobian(c7):
        m = to_mumford(d)
        if not m.is_nonspecial():
            continue
        n = m.b3 * m.b3 * m.a4 - m.a2 * m.b3 * m.b5 + m.b5 * m.b5
        if F.is_zero(n):
            for refused in (lambda: double_to_special(m, c7), lambda: tangent_data(c7, m)):
                with pytest.raises(BranchPointInSupport):
                    refused()
            refused_n0 += 1
            continue
        expect = to_mumford(cantor_add(d, d, c7))
        if not expect.is_special():
            with pytest.raises(ConditionViolated):
                double_to_special(m, c7)
            refused_regular += 1
            continue
        got = double_to_special(m, c7)
        assert got == expect
        tang = tangent_data(c7, m)
        assert F.is_zero(tang.b5p + tang.b5p - m.a2 * tang.b3p)
        found += 1
    assert found > 0 and refused_n0 > 0 and refused_regular > 0


def test_scalar_mul_basics(c1009, rng):
    D = random_divisor(c1009, rng)
    assert scalar_mul(0, D, c1009).is_neutral()
    assert scalar_mul(1, D, c1009) == D
    assert scalar_mul(-1, D, c1009) == negate(D)


def test_scalar_mul_oracle_small_fields(rng):
    for p, lam in ((7, (0, 0, 0, 0, 1)), (11, (0, 0, 0, 0, 1)), (13, (0, 0, 0, 1, 3))):
        curve = CanonicalCurve(GF(p), lam)
        for _ in range(10):
            D = random_divisor(curve, rng)
            cd = from_mumford(D)
            for n in range(21):
                assert scalar_mul(n, D, curve) == to_mumford(cantor_scalar_mul(n, cd, curve))


def test_group_axioms_sampled(c1009, rng):
    O = MumfordDivisor.neutral(c1009.field)
    for _ in range(150):
        P, Q, R = (random_divisor(c1009, rng) for _ in range(3))
        assert add(P, Q, c1009) == add(Q, P, c1009)
        assert add(add(P, Q, c1009), R, c1009) == add(P, add(Q, R, c1009), c1009)
        assert add(P, O, c1009) == P
        assert add(P, negate(P), c1009).is_neutral()


class TestSymbolicHomogeneity:
    def _formal_add(self):
        # numerators tracked over explicit powers of the 2x2 determinant
        ring = PolyRing(QQ(), ADD_RING_VARS, ADD_RING_WEIGHTS)
        g = ring.gens()
        dA2 = g["a2p"] - g["a2q"]
        dA4 = g["a4p"] - g["a4q"]
        dB3 = g["b3p"] - g["b3q"]
        dB5 = g["b5p"] - g["b5q"]
        det = dA4 * dB3 - dB5 * dA2
        v1 = g["a2p"] * g["a4p"] - g["a2q"] * g["a4q"]
        v2 = g["a2p"] * g["a2p"] - g["a2q"] * g["a2q"] - g["a4p"] + g["a4q"]
        g2n = dB3 * v1 - dB5 * v2                       # gamma2 * det
        g1n = dA4 * v2 - dA2 * v1                       # gamma1 * det
        g6n = g["a4p"] * g2n + g["b5p"] * g1n - g["a2p"] * g["a4p"] * det
        g4n = g["a2p"] * g2n + g["b3p"] * g1n - (g["a2p"] ** 2 - g["a4p"]) * det
        det2 = det * det
        sn = 2 * g2n * det - g1n * g1n                  # (2 g2 - g1^2) * det^2
        a2sn = (-g["a2p"] - g["a2q"]) * det2 + sn       # a2_sum * det^2
        a4sn = ((-g["a4p"] - g["a4q"] + g["a2p"] ** 2 + g["a2p"] * g["a2q"]
                 + g["a2q"] ** 2) * det2 - (g["a2p"] + g["a2q"]) * sn
                + 2 * g4n * det + g2n * g2n - g["l2"] * g1n * g1n)
        det3 = det2 * det
        bracket3 = a2sn * a2sn - a4sn * det2 - g2n * a2sn * det + g4n * det3
        bracket5 = a2sn * a4sn - g2n * a4sn * det + g6n * det3
        return {
            "g1": RationalPoly(g1n, det),
            "g2": RationalPoly(g2n, det),
            "g4": RationalPoly(g4n, det),
            "g6": RationalPoly(g6n, det),
            "a2s": RationalPoly(a2sn, det2),
            "a4s": RationalPoly(a4sn, det2),
            "b3s": RationalPoly(-bracket3, det3 * g1n),
            "b5s": RationalPoly(-bracket5, det3 * g1n),
        }

    def test_addition_weights(self):
        comp = self._formal_add()
        expected = {"g1": 1, "g2": 2, "g4": 4, "g6": 6,
                    "a2s": 2, "a4s": 4, "b3s": 3, "b5s": 5}
        for name, w in expected.items():
            expr = comp[name]
            assert expr.is_homogeneous(), name
            assert expr.weight() == w, (name, expr.weight())

    def test_duplication_gamma_weights(self):
        ring = PolyRing(QQ(), ("a2", "a4", "b3", "b5", "l2", "l4", "l6", "l8", "l10"),
                        (2, 4, 3, 5, 2, 4, 6, 8, 10))
        g = {v: RationalPoly(ring.var(v)) for v in ring.variables}
        a2, a4, b3, b5 = g["a2"], g["a4"], g["b3"], g["b5"]
        l2, l4, l6, l8 = g["l2"], g["l4"], g["l6"], g["l8"]
        N = b3 * b3 * a4 - a2 * b3 * b5 + b5 * b5
        A = a4 * (5 * (a2 * a2 - a4) - 4 * l2 * a2 + 3 * l4) - l8
        B = 5 * (2 * a2 * a4 - a2 ** 3) + 4 * l2 * (a2 * a2 - a4) - 3 * l4 * a2 + 2 * l6
        C = a4 * a4 * (4 * l2 - 5 * a2) - 2 * l6 * a4 + l8 * a2
        b3p = (b3 * A + b5 * B) / (2 * N)
        b5p = -(b3 * C + b5 * A) / (2 * N) - b3
        den = 2 * b5p - a2 * b3p
        g1 = (a2 * a2 - 4 * a4) / den
        g2 = (3 * a2 * b5p - (a2 * a2 + 2 * a4) * b3p) / den
        for expr, w in ((b3p, 1), (b5p, 3), (g1, 1), (g2, 2)):
            assert expr.is_homogeneous() and expr.weight() == w

    def test_alpha_extraction_rederivation(self):
        # coefficients of x^5 and x^4 in the squared interpolant minus
        # g1^2 * P(x) match the triple product of the u-polynomials, with the
        # closed-form a-coordinates of the sum
        ring = PolyRing(QQ(),
                        ("x", "g1", "g2", "g4", "g6", "a2p", "a4p", "a2q", "a4q",
                         "l2", "l4", "l6", "l8", "l10"),
                        (2, 1, 2, 4, 6, 2, 4, 2, 4, 2, 4, 6, 8, 10))
        v = ring.gens()
        x = v["x"]
        cube = x ** 3 + v["g2"] * x * x + v["g4"] * x + v["g6"]
        px = (x ** 5 + v["l2"] * x ** 4 + v["l4"] * x ** 3 + v["l6"] * x ** 2
              + v["l8"] * x + v["l10"])
        lhs = cube * cube - v["g1"] * v["g1"] * px
        s = 2 * v["g2"] - v["g1"] * v["g1"]
        a2s = -v["a2p"] - v["a2q"] + s
        a4s = (-v["a4p"] - v["a4q"] + v["a2p"] ** 2 + v["a2p"] * v["a2q"] + v["a2q"] ** 2
               - (v["a2p"] + v["a2q"]) * s + 2 * v["g4"] + v["g2"] ** 2
               - v["l2"] * v["g1"] ** 2)
        rhs = ((x * x + v["a2p"] * x + v["a4p"]) * (x * x + v["a2q"] * x + v["a4q"])
               * (x * x + a2s * x + a4s))
        diff = lhs - rhs
        for power in (5, 4):
            coeff = coeffs_in(diff, "x")[power] if degree_in(diff, "x") >= power else None
            assert coeff is None or coeff.is_zero(), power


class TestExtendedAlpha:
    def _sample_pair(self, g, rng):
        F = g.field
        two = F.element(2)
        pts = []
        while len(pts) < 2:
            x = F.element(rng.randrange(F.order()))
            qv, pv = g.q_poly().evaluate(x), g.p_poly().evaluate(x)
            roots = F.sqrt(qv * qv + F.element(4) * pv)
            if not roots:
                continue
            y = (qv + roots[rng.randrange(len(roots))]) / two
            if F.is_zero(y + y - qv):
                continue  # branch point of the extended model
            if pts and pts[0][0] == x:
                continue
            pts.append((x, y))
        return tuple(pts)

    def test_zero_corrections_match_canonical(self, rng):
        F = GF(1009)
        nu = tuple(F.element(v) for v in (0, 3, 0, 1, 0, 4, 2, 6))  # nu_odd = 0
        g = GeneralCurve(F, "I", nu=nu)
        can, _ = to_canonical(g)
        for _ in range(30):
            pp = self._sample_pair(g, rng)
            qq = self._sample_pair(g, rng)
            if {pp[0][0], pp[1][0]} & {qq[0][0], qq[1][0]}:
                continue
            a2s, a4s = add_extended_alpha(g, pp, qq)
            P = mumford_from_points(can, *pp)
            Q = mumford_from_points(can, *qq)
            got, tag = add_traced(P, Q, can)
            if not got.is_nonspecial():
                continue
            assert (a2s, a4s) == (got.a2, got.a4)

    def test_matches_canonicalized_addition(self, rng):
        F = GF(1009)
        while True:
            nu = tuple(F.element(rng.randrange(1009)) for _ in range(8))
            try:
                g = GeneralCurve(F, "I", nu=nu)
                can, pm = to_canonical(g)
                break
            except Exception:
                continue
        checked = 0
        for _ in range(200):
            pp = self._sample_pair(g, rng)
            qq = self._sample_pair(g, rng)
            if {pp[0][0], pp[1][0]} & {qq[0][0], qq[1][0]}:
                continue
            a2s, a4s = add_extended_alpha(g, pp, qq)
            P = mumford_from_points(can, pm.forward(pp[0]), pm.forward(pp[1]))
            Q = mumford_from_points(can, pm.forward(qq[0]), pm.forward(qq[1]))
            got, _ = add_traced(P, Q, can)
            if not got.is_nonspecial():
                continue
            assert (a2s, a4s) == (got.a2, got.a4)
            checked += 1
            # doubling law
            try:
                a2d, a4d = add_extended_alpha(g, pp)
            except Exception:
                continue
            gotd, _ = double_traced(P, can)
            if gotd.is_nonspecial():
                assert (a2d, a4d) == (gotd.a2, gotd.a4)
        assert checked > 100

    def test_extended_symbolic_homogeneity(self):
        ring = PolyRing(QQ(), ADD_RING_VARS + ("n1", "n2", "n3"),
                        ADD_RING_WEIGHTS + (1, 2, 3))
        g = ring.gens()
        dA2 = g["a2p"] - g["a2q"]
        dA4 = g["a4p"] - g["a4q"]
        dB3 = g["b3p"] - g["b3q"]
        dB5 = g["b5p"] - g["b5q"]
        det = dA4 * dB3 - dB5 * dA2
        v1 = g["a2p"] * g["a4p"] - g["a2q"] * g["a4q"]
        v2 = g["a2p"] * g["a2p"] - g["a2q"] * g["a2q"] - g["a4p"] + g["a4q"]
        g2n = dB3 * v1 - dB5 * v2
        g1n = dA4 * v2 - dA2 * v1
        g4n = g["a2p"] * g2n + g["b3p"] * g1n - (g["a2p"] ** 2 - g["a4p"]) * det
        det2 = det * det
        sn = 2 * g2n * det - g1n * g1n + g["n1"] * g1n * det
        a2sn = (-g["a2p"] - g["a2q"]) * det2 + sn
        a4sn = ((-g["a4p"] - g["a4q"] + g["a2p"] ** 2 + g["a2p"] * g["a2q"]
                 + g["a2q"] ** 2) * det2 - (g["a2p"] + g["a2q"]) * sn
                + 2 * g4n * det + g2n * g2n
                + (g["n1"] * g2n - g["n2"] * g1n + g["n3"] * det) * g1n)
        a2s = RationalPoly(a2sn, det2)
        a4s = RationalPoly(a4sn, det2)
        assert a2s.is_homogeneous() and a2s.weight() == 2
        assert a4s.is_homogeneous() and a4s.weight() == 4


def test_all_outputs_on_model(c1009, rng):
    for _ in range(100):
        P, Q = random_divisor(c1009, rng), random_divisor(c1009, rng)
        for D in (add(P, Q, c1009), double(P, c1009), scalar_mul(7, P, c1009)):
            assert is_on_jacobian(D, c1009)


def test_scalar_ladders_mixed_shapes(c1009, rng):
    # ladders starting from special and repeated-support divisors walk every
    # dispatch combination; compare against the oracle at each rung
    from g2div.cantor import cantor_add, from_mumford, neutral_divisor
    F = c1009.field
    starts = []
    for _ in range(6):
        starts.append(MumfordDivisor.special(F, *random_point(c1009, rng, nonzero_y=True)))
        pt = random_point(c1009, rng, nonzero_y=True)
        starts.append(mumford_from_points(c1009, pt, pt))
    for D in starts:
        acc = neutral_divisor(F)
        cd = from_mumford(D)
        for n in range(0, 16):
            assert scalar_mul(n, D, c1009) == to_mumford(acc), (D, n)
            acc = cantor_add(acc, cd, c1009)
