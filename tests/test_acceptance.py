"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
report.  Every tolerance here is exact (the whole library is exact
arithmetic); the runtime budgets are asserted with the stated bounds.
"""
import random
import time
from fractions import Fraction

import pytest

from conftest import random_divisor, random_point
from grouplaw_helpers import torsion_branch_classification
from polyring_helpers import RationalPoly, reduce_power, sylvester_resultant, x_pair_ring
from support_reference import _int_fraction, three_torsion_x_poly
from g2div.cantor import (
    brute_force_n_torsion,
    cantor_add,
    cantor_neg,
    enumerate_jacobian,
    from_mumford,
    to_mumford,
)
from g2div.curves import LAMBDA_NAMES, CanonicalCurve, _dp_of, _p_of
from g2div.divisors import MumfordDivisor, mumford_from_points, negate
from g2div.errors import DegenerateCurve
from g2div.fields import GF, QQ
from g2div.grouplaw import (
    add_special,
    add_traced,
    double_traced,
    scalar_mul,
)
from g2div.models import GeneralCurve, add_extended_alpha, to_canonical
from g2div.polyring import PolyRing
from g2div.series import expand_at_infinity_symbolic, truncated_square
from g2div.torsion import (
    emit_division_polynomials,
    find_four_torsion,
    find_three_torsion,
    four_torsion_residuals,
    is_torsion,
    two_torsion_divisors,
)

THREE_TORSION_BATTERY = {
    7: ((0, 0, 0, 0, 1), (0, 0, 0, 1, 2), (1, 1, 1, 0, 2)),
    11: ((0, 0, 0, 0, 1), (0, 0, 0, 1, 2)),
    13: ((0, 0, 0, 0, 1), (1, 1, 1, 2, 4), (0, 0, 0, 1, 3)),
}
FOUR_TORSION_BATTERY = {
    7: ((0, 0, 0, 0, 1), (0, 0, 0, 3, 3), (0, 0, 0, 1, 0)),
    11: ((0, 0, 0, 0, 1), (0, 0, 0, 1, 1)),
    13: ((0, 0, 0, 0, 1), (1, 1, 1, 0, 2), (0, 0, 0, 1, 5)),
}


def report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_c01_oracle_equivalence_exhaustive_f7():
    t0 = time.monotonic()
    curve = CanonicalCurve(GF(7), (0, 0, 0, 0, 1))
    els = enumerate_jacobian(curve)
    assert len(els) < 178  # Weil bound for q = 7
    mums = [to_mumford(d) for d in els]
    for ca, ma in zip(els, mums):
        for cb, mb in zip(els, mums):
            expect = to_mumford(cantor_add(ca, cb, curve))
            got, _ = add_traced(ma, mb, curve)
            assert got == expect, (ma, mb)
        dexpect = to_mumford(cantor_add(ca, ca, curve))
        dgot, _ = double_traced(ma, curve)
        assert dgot == dexpect, ma
    # scalar ladder on every element
    for ca, ma in zip(els, mums):
        acc = from_mumford(MumfordDivisor.neutral(curve.field))
        for n in range(0, 8):
            assert scalar_mul(n, ma, curve) == to_mumford(acc)
            acc = cantor_add(acc, ca, curve)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(1, f"all {len(els)}^2 adds + doubles + scalar ladders match Cantor "
              f"exhaustively over F7 ({elapsed:.1f}s < 60s)")


def _sample_double_to_special(curve, rng, want):
    """Divisors whose doubles are single points, by tangency-condition scan."""
    F = curve.field
    q = F.order()
    out = []
    while len(out) < want:
        x1 = F.element(rng.randrange(q))
        r1 = F.sqrt(curve.p_at(x1))
        if not r1 or F.is_zero(r1[0]):
            continue
        y1 = r1[rng.randrange(len(r1))]
        s1 = curve.dp_at(x1) / (y1 + y1)
        for x2v in range(q):
            x2 = F.element(x2v)
            if x2 == x1:
                continue
            r2 = F.sqrt(curve.p_at(x2))
            if not r2 or F.is_zero(r2[0]):
                continue
            for y2 in r2:
                s2 = curve.dp_at(x2) / (y2 + y2)
                if F.is_zero((s1 + s2) / 2 - (y1 - y2) / (x1 - x2)):
                    out.append(mumford_from_points(curve, (x1, y1), (x2, y2)))
                    if len(out) >= want:
                        return out
    return out


def test_c02_oracle_equivalence_randomized_f1009():
    t0 = time.monotonic()
    rng = random.Random(1009)
    curve = CanonicalCurve(GF(1009), (1, 2, 3, 4, 5))
    F = curve.field
    tags = {k: 0 for k in ("generic", "add_special", "add_points", "double",
                           "add_to_special", "double_to_special", "inverse", "neutral")}
    tags["support_overlap"] = 0

    def record(P, Q):
        got, tag = add_traced(P, Q, curve)
        expect = to_mumford(cantor_add(from_mumford(P), from_mumford(Q), curve))
        assert got == expect, (P, Q, tag)
        tags[tag] = tags.get(tag, 0) + 1

    # the bulk sweep: >= 10^4 random pairs, plus doubles
    for i in range(10_000):
        P, Q = random_divisor(curve, rng), random_divisor(curve, rng)
        record(P, Q)
        dgot, dtag = double_traced(P, curve)
        dexpect = to_mumford(cantor_add(from_mumford(P), from_mumford(P), curve))
        assert dgot == dexpect
        tags[dtag] = tags.get(dtag, 0) + 1
    # directed degenerate-branch constructions (each cross-checked)
    O = MumfordDivisor.neutral(F)
    for _ in range(110):
        D = random_divisor(curve, rng)
        got, tag = add_traced(D, O, curve)
        assert got == D
        tags[tag] += 1
        record(D, negate(D))
    for _ in range(110):
        p1 = random_point(curve, rng, nonzero_y=True)
        p2 = random_point(curve, rng, nonzero_y=True)
        if p1[0] == p2[0]:
            continue
        record(MumfordDivisor.special(F, *p1), MumfordDivisor.special(F, *p2))
        record(random_divisor(curve, rng), MumfordDivisor.special(F, *p1))
    # sums landing on a single point: P = S - D, Q = D
    hits = 0
    while hits < 110:
        S = MumfordDivisor.special(F, *random_point(curve, rng, nonzero_y=True))
        D = random_divisor(curve, rng)
        P = to_mumford(cantor_add(from_mumford(S), cantor_neg(from_mumford(D)), curve))
        if not P.is_nonspecial():
            continue
        got, tag = add_traced(P, D, curve)
        expect = to_mumford(cantor_add(from_mumford(P), from_mumford(D), curve))
        assert got == expect
        tags[tag] = tags.get(tag, 0) + 1
        if tag == "add_to_special":
            assert got == S
            hits += 1
    # doubles landing on a single point, by tangency scan
    for D in _sample_double_to_special(curve, rng, 110):
        dgot, dtag = double_traced(D, curve)
        dexpect = to_mumford(cantor_add(from_mumford(D), from_mumford(D), curve))
        assert dgot == dexpect
        tags[dtag] = tags.get(dtag, 0) + 1
    elapsed = time.monotonic() - t0
    required = ("generic", "add_special", "add_points", "double",
                "add_to_special", "double_to_special", "inverse", "neutral")
    coverage = ", ".join(f"{k}={tags[k]}" for k in required)
    for k in required:
        assert tags[k] >= 100, (k, tags[k])
    assert elapsed < 300.0
    report(2, f"10^4+ random pairs over F1009 match Cantor; branch coverage "
              f"[{coverage}] all >= 100 ({elapsed:.1f}s < 300s)")


def test_c03_jacobian_model_symbolic_identity():
    t0 = time.monotonic()
    ring = PolyRing(QQ(), ("x1", "y1", "x2", "y2", "l2", "l4", "l6", "l8", "l10"),
                    (2, 5, 2, 5, 2, 4, 6, 8, 10))
    g = ring.gens()
    x1, y1, x2, y2 = g["x1"], g["y1"], g["x2"], g["y2"]
    lam = [g["l2"], g["l4"], g["l6"], g["l8"], g["l10"]]

    def p_of(x):
        return (x ** 5 + lam[0] * x ** 4 + lam[1] * x ** 3 + lam[2] * x ** 2
                + lam[3] * x + lam[4])

    dx = RationalPoly(x1 - x2)
    a2 = RationalPoly(-(x1 + x2))
    a4 = RationalPoly(x1 * x2)
    b3 = RationalPoly(-(y1 - y2)) / dx
    b5 = RationalPoly(x2 * y1 - x1 * y2) / dx
    bracket = (b3 * b3 + a2 ** 3 - 4 * a2 * a4 + lam[0] * (2 * a4 - a2 * a2)
               + lam[1] * a2 - lam[2])
    j8 = 2 * b3 * b5 - a2 * a2 * a4 - a4 * a4 + lam[1] * a4 - lam[3] - a2 * bracket
    j10 = b5 * b5 - 2 * a2 * a4 * a4 + lam[0] * a4 * a4 - lam[4] - a4 * bracket
    for name, expr in (("J8", j8), ("J10", j10)):
        num = reduce_power(reduce_power(expr.num, "y1", 2, p_of(x1)), "y2", 2, p_of(x2))
        assert num.is_zero(), name
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(3, f"J8, J10 vanish identically on the coordinate substitution "
              f"modulo both curve relations ({elapsed:.2f}s < 10s)")


def test_c04_series_expansion_printed_coefficients():
    sym = expand_at_infinity_symbolic(12)
    ring = sym[0].ring
    g = ring.gens()
    l2, l4, l6, l8, l10 = (g[k] for k in ("l2", "l4", "l6", "l8", "l10"))
    half = Fraction(1, 2)
    printed = {
        0: ring.one(),
        2: l2 * half,
        4: (l4 - l2 ** 2 * Fraction(1, 4)) * half,
        6: (l6 - l2 * l4 * half + l2 ** 3 * Fraction(1, 8)) * half,
        10: (l10 - l2 * l8 * half - l4 * l6 * half + l2 ** 2 * l6 * Fraction(3, 8)
             + l2 * l4 ** 2 * Fraction(3, 8) - l2 ** 3 * l4 * Fraction(5, 16)
             + l2 ** 5 * Fraction(7, 128)) * half,
    }
    for k, expect in printed.items():
        assert sym[k] == expect, k
    for k in (1, 3, 5, 7, 9, 11):
        assert sym[k].is_zero()
    # xi^8: the printed bracket has -1/2*l4^2 where the defining identity
    # y^2 = P(x) forces -1/4*l4^2 (all other xi^8 terms as printed); assert
    # the corrected value and record the discrepancy rather than hiding it
    corrected = (l8 - l2 * l6 * half - l4 ** 2 * Fraction(1, 4)
                 + l2 ** 2 * l4 * Fraction(3, 8) - l2 ** 4 * Fraction(5, 64)) * half
    misprint = (l8 - l2 * l6 * half - l4 ** 2 * half
                + l2 ** 2 * l4 * Fraction(3, 8) - l2 ** 4 * Fraction(5, 64)) * half
    assert sym[8] == corrected
    assert not (sym[8] == misprint)
    # the defining identity, the stated oracle for this expansion
    target = [ring.one()] + [ring.zero()] * 11
    for i, name in enumerate(("l2", "l4", "l6", "l8", "l10")):
        target[2 * (i + 1)] = ring.var(name)
    assert all((a - b).is_zero() for a, b in zip(truncated_square(sym), target))
    report(4, "series coefficients through xi^10 match the printed values "
              "(NOTE: the xi^8 l4^2 term is -1/4, not the printed -1/2; forced "
              "by the defining identity y^2 = P(x), which holds exactly)")


def test_c05_division_polynomial_weights():
    g = x_pair_ring().gens()
    X = three_torsion_x_poly(g["x1"], g["x2"], tuple(g[v] for v in LAMBDA_NAMES))
    assert X.is_homogeneous() and X.weighted_degree() == 40
    m3 = emit_division_polynomials(3, "mumford")
    m4 = emit_division_polynomials(4, "mumford")
    weights3 = [p.weighted_degree() for p in m3.polys]
    weights4 = [p.weighted_degree() for p in m4.polys]
    assert all(p.is_homogeneous() for p in m3.polys + m4.polys)
    xy3 = emit_division_polynomials(3, "xy")
    assert all(p.is_homogeneous() for p in xy3.polys)
    report(5, f"X is weight-40 homogeneous; Mumford systems homogeneous with "
              f"weights {weights3} and {weights4}")


def test_c06_three_torsion_completeness():
    t0 = time.monotonic()
    total = 0
    for p, lams in THREE_TORSION_BATTERY.items():
        for lam in lams:
            curve = CanonicalCurve(GF(p), lam)
            mine = find_three_torsion(curve)
            oracle = sorted((to_mumford(d) for d in
                             brute_force_n_torsion(curve, 3, enumerate_jacobian(curve))),
                            key=lambda d: d.sort_key())
            assert [d.sort_key() for d in mine] == [d.sort_key() for d in oracle], (p, lam)
            total += len(mine)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    assert total > 0  # the battery contains curves with nonempty sets
    report(6, f"3-torsion sets equal the oracle's exact-order-3 sets on all "
              f"{sum(len(v) for v in THREE_TORSION_BATTERY.values())} curves, "
              f"{total} divisors total ({elapsed:.1f}s < 120s)")


def test_c07_four_torsion_completeness_and_branch_split():
    t0 = time.monotonic()
    total = 0
    branch_counts = {"nonspecial": 0, "special": 0}
    for p, lams in FOUR_TORSION_BATTERY.items():
        for lam in lams:
            F = GF(p)
            curve = CanonicalCurve(F, lam)
            mine = find_four_torsion(curve)
            oracle = sorted((to_mumford(d) for d in
                             brute_force_n_torsion(curve, 4, enumerate_jacobian(curve))),
                            key=lambda d: d.sort_key())
            assert [d.sort_key() for d in mine] == [d.sort_key() for d in oracle], (p, lam)
            for d in mine:
                # exact order 4
                assert scalar_mul(4, d, curve).is_neutral()
                assert not scalar_mul(2, d, curve).is_neutral()
                # exactly one residual branch applies, matching 2D's shape
                branch, res = four_torsion_residuals(d, curve)
                assert all(F.is_zero(r) for r in res)
                assert branch == torsion_branch_classification(d, curve)
                branch_counts[branch] += 1
            total += len(mine)
    elapsed = time.monotonic() - t0
    assert total > 0 and branch_counts["nonspecial"] > 0 and branch_counts["special"] > 0
    assert elapsed < 120.0
    report(7, f"4-torsion sets equal the oracle; branch split consistent on "
              f"100% of {total} divisors (non-special 2D: {branch_counts['nonspecial']}, "
              f"special 2D: {branch_counts['special']}) ({elapsed:.1f}s < 120s)")


def test_c08_two_torsion_count_f11():
    curve = CanonicalCurve(GF(11), (0, 0, 0, 0, 1))
    assert len(curve.branch_points()) == 5  # the quintic splits
    tt = two_torsion_divisors(curve)
    ns = [d for d in tt if d.is_nonspecial()]
    sp = [d for d in tt if d.is_special()]
    assert len(tt) == 15 and len(ns) == 10 and len(sp) == 5
    for d in tt:
        assert is_torsion(d, 2, curve)
    report(8, "exactly 15 = 10 non-special + 5 special 2-torsion divisors over "
              "F11 with the split quintic")


def test_c09_elimination_reproduces_x_polynomial():
    t0 = time.monotonic()
    ring = PolyRing(QQ(), ("z", "x1", "x2", "l2", "l4", "l6", "l8", "l10"),
                    (10, 2, 2, 2, 4, 6, 8, 10))
    g = ring.gens()
    z, x1, x2, l2 = g["z"], g["x1"], g["x2"], g["l2"]
    lam = tuple(g[v] for v in LAMBDA_NAMES)
    p1, p2 = _p_of(x1, lam), _p_of(x2, lam)
    dp1, dp2 = _dp_of(x1, lam), _dp_of(x2, lam)
    quarter = _int_fraction(ring.field, 1, 4)
    # the two torsion equations with z standing for the y1*y2 product; the
    # lambda2 reading of the smudged display is validated by the outcome
    eq1 = (z * (dp1 * p2 + dp2 * p1)
           + (x1 - x2) * (dp1 * dp1 * p2 - dp2 * dp2 * p1) * quarter
           - p1 * p2 * (dp1 + dp2 + (x1 - x2) ** 4))
    eq2 = (z * (6 * p1 * p2 - x1 * dp1 * p2 - x2 * dp2 * p1)
           - (x1 - x2) * (x2 * dp1 * dp1 * p2 - x1 * dp2 * dp2 * p1) * quarter
           + p1 * p2 * (x1 * dp1 - 3 * p1 + x2 * dp2 - 3 * p2
                        - (2 * x1 + 2 * x2 + l2) * (x1 - x2) ** 4))
    res = sylvester_resultant(eq1, eq2, "z")
    quot = res.exact_div((x1 - x2) ** 4)
    # equality up to a nonzero constant; the constant here is exactly -1
    assert quot == three_torsion_x_poly(x1, x2, lam).scale(-1)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(9, f"resultant elimination of y1*y2, after cancelling (x1-x2)^4, "
              f"equals -1 * X; validates the T-polynomial typo resolution "
              f"({elapsed:.1f}s < 300s)")


def _form_samples(form, rng):
    F = GF(1009)
    while True:
        try:
            if form == "I":
                g = GeneralCurve(F, "I", nu=tuple(F.element(rng.randrange(1009))
                                                  for _ in range(8)))
            elif form == "II":
                g = GeneralCurve(F, "II", a=tuple(F.element(rng.randrange(1009))
                                                  for _ in range(7)))
            else:
                g = GeneralCurve(F, "III",
                                 a=tuple(F.element(rng.randrange(1009)) for _ in range(7)),
                                 b=tuple(F.element(rng.randrange(1009)) for _ in range(4)))
            canonical, pm = to_canonical(g)
            return g, canonical, pm
        except Exception:
            continue


def _points_on_general(g, rng, want):
    F = g.field
    two = F.element(2)
    out = []
    while len(out) < want:
        x = F.element(rng.randrange(F.order()))
        qv, pv = g.q_poly().evaluate(x), g.p_poly().evaluate(x)
        roots = F.sqrt(qv * qv + F.element(4) * pv)
        if not roots:
            continue
        y = (qv + roots[rng.randrange(len(roots))]) / two
        out.append((x, y))
    return out


def test_c10_general_model_round_trips():
    rng = random.Random(77)
    for form in ("I", "II", "III"):
        g, canonical, pm = _form_samples(form, rng)
        transported = 0
        while transported < 1000:
            (pt,) = _points_on_general(g, rng, 1)
            assert g.on_curve(pt)
            try:
                image = pm.forward(pt)
            except DegenerateCurve:
                continue  # exceptional locus of the Moebius step
            assert canonical.on_curve(image)
            assert pm.inverse(image) == pt
            transported += 1
    report(10, "10^3 random points per form I/II/III transport onto the "
               "canonical curve and return exactly under the inverse maps")


def test_c11_extended_alpha_matches_canonicalized_addition():
    rng = random.Random(2027)
    F = GF(1009)
    while True:
        nu = tuple(F.element(rng.randrange(1009)) for _ in range(8))
        if F.is_zero(nu[0]) and F.is_zero(nu[2]) and F.is_zero(nu[4]):
            continue
        try:
            g = GeneralCurve(F, "I", nu=nu)
            canonical, pm = to_canonical(g)
            break
        except DegenerateCurve:
            continue
    checked_add = checked_dbl = 0
    while checked_add < 1000 or checked_dbl < 1000:
        pts = _points_on_general(g, rng, 4)
        pp, qq = (pts[0], pts[1]), (pts[2], pts[3])
        xs = {pp[0][0], pp[1][0], qq[0][0], qq[1][0]}
        if len(xs) != 4:
            continue
        try:
            a2s, a4s = add_extended_alpha(g, pp, qq)
        except Exception:
            continue
        P = mumford_from_points(canonical, pm.forward(pp[0]), pm.forward(pp[1]))
        Q = mumford_from_points(canonical, pm.forward(qq[0]), pm.forward(qq[1]))
        got, _ = add_traced(P, Q, canonical)
        if not got.is_nonspecial():
            continue
        if checked_add < 1000:
            assert (a2s, a4s) == (got.a2, got.a4)
            checked_add += 1
        if checked_dbl < 1000:
            try:
                a2d, a4d = add_extended_alpha(g, pp)
            except Exception:
                continue
            gotd, _ = double_traced(P, canonical)
            if gotd.is_nonspecial():
                assert (a2d, a4d) == (gotd.a2, gotd.a4)
                checked_dbl += 1
    report(11, f"extended-curve alpha addition ({checked_add} sums, "
               f"{checked_dbl} doublings) equals the canonicalized result "
               f"exactly over F1009")


def test_c12_group_axioms_from_coordinate_laws():
    t0 = time.monotonic()
    rng = random.Random(4096)
    curve = CanonicalCurve(GF(1009), (1, 2, 3, 4, 5))
    O = MumfordDivisor.neutral(curve.field)
    failures = 0
    for _ in range(10_000):
        P, Q, R = (random_divisor(curve, rng) for _ in range(3))
        pq, _ = add_traced(P, Q, curve)
        qp, _ = add_traced(Q, P, curve)
        if pq != qp:
            failures += 1
        left, _ = add_traced(pq, R, curve)
        qr, _ = add_traced(Q, R, curve)
        right, _ = add_traced(P, qr, curve)
        if left != right:
            failures += 1
        if add_traced(P, O, curve)[0] != P:
            failures += 1
        if not add_traced(P, negate(P), curve)[0].is_neutral():
            failures += 1
    elapsed = time.monotonic() - t0
    assert failures == 0
    report(12, f"commutativity/associativity/identity/inverse on 10^4 random "
               f"triples over F1009, zero failures ({elapsed:.1f}s)")
