import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from conftest import random_divisor, random_point
from grouplaw_helpers import torsion_branch_classification
from polyring_helpers import mumford_ring, sylvester_resultant, x_pair_ring, xy_ring
from support_reference import _int_fraction, t_quotient, three_torsion_x_poly, three_torsion_y_poly
from g2div import cli, torsion
from g2div.cantor import (
    brute_force_n_torsion,
    cantor_add,
    cantor_scalar_mul,
    enumerate_jacobian,
    from_mumford,
    to_mumford,
)
from g2div.curves import LAMBDA_NAMES, CanonicalCurve, _dp_of, _p_of, curve_from_json, curve_to_json
from g2div.divisors import (
    MumfordDivisor,
    divisor_from_json,
    divisor_to_json,
    is_on_jacobian,
    mumford_from_points,
    negate,
    p_mod_u,
    points_from_mumford,
)
from g2div.errors import (
    CharacteristicTooSmall,
    DegenerateCurve,
    GammaUndefined,
    InexactDivision,
    OffCurve,
    SerializationError,
    UnsupportedField,
)
from g2div.fields import GF, QQ, is_prime
from g2div.grouplaw import double_traced, gamma_double, scalar_mul, tangent_data
from g2div.polyring import PolyRing
from g2div.torsion import (
    emit_division_polynomials,
    find_four_torsion,
    find_n_torsion,
    find_three_torsion,
    four_torsion_residuals,
    is_torsion,
    three_torsion_mumford_residuals,
    two_torsion_divisors,
    _divisors_above,
    _prime_divisors,
)
from g2div.roots import roots_in_field
from g2div.unipoly import UniPoly

# curves frozen after an oracle scan: each (p, lam) has nonempty exact-order
# sets for the annotated n
THREE_TORSION_CURVES = ((7, (0, 0, 0, 1, 2)), (7, (1, 1, 1, 0, 2)),
                        (11, (0, 0, 0, 1, 2)), (13, (1, 1, 1, 2, 4)),
                        (13, (0, 0, 0, 1, 3)))
FOUR_TORSION_CURVES = ((7, (0, 0, 0, 3, 3)), (7, (0, 0, 0, 1, 0)),
                       (11, (0, 0, 0, 1, 1)), (13, (1, 1, 1, 0, 2)))


def _cantor_order(d, curve):
    acc, k = d, 1
    while acc.degree() != 0:
        acc = cantor_add(acc, d, curve)
        k += 1
    return k


def _omega(n):
    return sum(1 for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p)))


class TestIsTorsion:
    def test_branch_point_is_two_torsion(self, c7, f7):
        assert is_torsion(MumfordDivisor.special(f7, 6, 0), 2, c7)

    def test_neutral_fails_exact_order(self, c7, f7):
        O = MumfordDivisor.neutral(f7)
        for n in (2, 3, 4):
            assert not is_torsion(O, n, c7)
            assert scalar_mul(n, O, c7).is_neutral()

    def test_matches_oracle_orders(self, c7):
        els = enumerate_jacobian(c7)
        for n in (2, 5, 10):
            expected = {to_mumford(d).sort_key() for d in brute_force_n_torsion(c7, n, els)}
            got = {to_mumford(d).sort_key() for d in els
                   if is_torsion(to_mumford(d), n, c7)}
            assert got == expected

    @pytest.mark.parametrize("lam", ((0, 0, 0, 0, 1), (0, 0, 0, 1, 2)))
    def test_prime_cofactor_test_matches_cantor_orders(self, lam, monkeypatch):
        import g2div.torsion as torsion_mod
        curve = CanonicalCurve(GF(7), lam)
        calls = [0]

        def counting(n, D, c):
            calls[0] += 1
            return scalar_mul(n, D, c)

        monkeypatch.setattr(torsion_mod, "scalar_mul", counting)
        for d in enumerate_jacobian(curve):
            order, m = _cantor_order(d, curve), to_mumford(d)
            for n in range(1, 61):
                calls[0] = 0
                assert is_torsion(m, n, curve) == (order == n), (m, n)
                assert calls[0] <= 1 + _omega(n)
                if order == n:
                    assert calls[0] == 1 + _omega(n)
                assert scalar_mul(n, m, curve).is_neutral() == (n % order == 0)


class TestTwoTorsion:
    def test_split_field_count(self):
        c = CanonicalCurve(GF(11), (0, 0, 0, 0, 1))
        tt = two_torsion_divisors(c)
        assert len(tt) == 15
        assert sum(1 for d in tt if d.is_special()) == 5
        assert sum(1 for d in tt if d.is_nonspecial()) == 10
        for d in tt:
            assert is_torsion(d, 2, c)

    def test_rational_field(self):
        c = CanonicalCurve(QQ(), (0, 0, 0, 0, 1))
        tt = two_torsion_divisors(c)
        assert len(tt) == 1 and tt[0].is_special()
        assert tt[0].coords[0].value == Fraction(-1)

    def test_f7_single_branch(self, c7):
        tt = two_torsion_divisors(c7)
        assert len(tt) == 1 and tt[0].coords[0].value == 6

    def test_matches_oracle(self):
        for p, lam in ((7, (1, 1, 1, 0, 2)), (11, (0, 0, 0, 0, 1)), (13, (0, 0, 0, 1, 5))):
            c = CanonicalCurve(GF(p), lam)
            got = {d.sort_key() for d in two_torsion_divisors(c)}
            oracle = {to_mumford(d).sort_key()
                      for d in brute_force_n_torsion(c, 2, enumerate_jacobian(c))}
            assert got == oracle


def seeded_curves(count, primes, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = rng.choice(primes)
        try:
            out.append(CanonicalCurve(GF(p), tuple(rng.randrange(p) for _ in range(5))))
        except DegenerateCurve:
            pass
    return out


def irreducible_support(d):
    return d.is_nonspecial() and not roots_in_field(UniPoly(d.field, [d.a4, d.a2, 1]))


class TestTwoTorsionQuadraticFactors:
    """u = w for a quadratic factor w of P irreducible over the base field."""

    def test_matches_oracle_on_seeded_curves(self):
        curves = [CanonicalCurve(GF(7), (1, 4, 4, 1, 2))] + seeded_curves(32, (7, 11, 13), 2)
        with_quadratic = 0
        for c in curves:
            got = two_torsion_divisors(c)
            oracle = {to_mumford(d).sort_key()
                      for d in brute_force_n_torsion(c, 2, enumerate_jacobian(c))}
            assert {d.sort_key() for d in got} == oracle, c
            with_quadratic += any(map(irreducible_support, got))
        assert with_quadratic >= 5

    # (lam, classes whose u is irreducible over F_49): over F_7, P factors as
    # 1 + 4, 2 + 3 and 1 + 4, and the quartics split into two quadratics
    @pytest.mark.parametrize("lam, quadratic", (((0, 0, 0, 0, 1), 2), ((1, 4, 4, 1, 2), 0),
                                                ((0, 0, 0, 1, 2), 2)))
    def test_cli_ext2_matches_divisor_scan(self, lam, quadratic, tmp_path, capsys):
        """Over F_49 a reduced D has D = -D exactly when v = 0 and u | P, so a
        scan of the monic u of degree 1 and 2 is a brute force of J[2]."""
        F = GF(7, 2)
        P = CanonicalCurve(F, tuple(F.element(c) for c in lam)).px()
        want = [MumfordDivisor.special(F, e, 0) for e in F.elements()
                if F.is_zero(P.evaluate(e))]
        want += [MumfordDivisor.nonspecial(F, a, b, 0, 0) for a in F.elements()
                 for b in F.elements() if (P % UniPoly(F, [b, a, 1])).is_zero()]
        f = tmp_path / "c.json"
        f.write_text(json.dumps(curve_to_json(CanonicalCurve(GF(7), lam))))
        assert cli.main(["torsion", "find", "--n", "2", "--curve", str(f), "--ext", "2"]) == 0
        got = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert got == [divisor_to_json(d) for d in sorted(want, key=lambda d: d.sort_key())]
        assert sum(map(irreducible_support, want)) == quadratic


def _x_pair():
    """x1, x2 and lam, the generators of the formal x-pair ring."""
    g = x_pair_ring().gens()
    return g["x1"], g["x2"], tuple(g[v] for v in LAMBDA_NAMES)


class TestTQuotient:
    def test_weight_and_polynomiality(self):
        x1, x2, lam = _x_pair()
        for xi in (x1, x2):
            t = t_quotient(x1, x2, xi, lam)
            assert t.is_homogeneous() and t.weighted_degree() == 6

    def test_second_representation(self):
        # the expanded display, with its x3 occurrences read as x2
        x1, x2, lam = _x_pair()
        l2, l4, l6 = lam[:3]
        t1 = t_quotient(x1, x2, x1, lam)
        alt = (x1 ** 4 + x1 ** 3 * x2 + x1 ** 2 * x2 ** 2 + x1 * x2 ** 3 + x2 ** 4
               - 5 * x1 ** 4
               + l2 * (x1 ** 3 + x1 ** 2 * x2 + x1 * x2 ** 2 + x2 ** 3 - 4 * x1 ** 3)
               + l4 * (x1 ** 2 + x1 * x2 + x2 ** 2 - 3 * x1 ** 2)
               + l6 * (x1 + x2 - 2 * x1)).exact_div(x1 - x2)
        assert t1 == alt


class TestXYPolynomials:
    def test_x_weight_40_homogeneous(self):
        X = three_torsion_x_poly(*_x_pair())
        assert X.is_homogeneous() and X.weighted_degree() == 40

    def test_x_symmetric(self):
        x1, x2, lam = _x_pair()
        assert three_torsion_x_poly(x2, x1, lam) == three_torsion_x_poly(x1, x2, lam)

    def test_y_uniform_weight(self):
        g = xy_ring().gens()
        Y = three_torsion_y_poly(g["x1"], g["y1"], g["x2"], g["y2"],
                                 tuple(g[v] for v in LAMBDA_NAMES))
        assert Y.is_homogeneous() and Y.weighted_degree() == 28

    def test_elimination_reproduces_x(self):
        # eliminate the y1*y2 product from the two support equations modulo
        # the curve relations; cancelling (x1-x2)^4 recovers the transcribed
        # x-polynomial up to a constant (here exactly -1)
        ring = PolyRing(QQ(), ("z", "x1", "x2", "l2", "l4", "l6", "l8", "l10"),
                        (10, 2, 2, 2, 4, 6, 8, 10))
        g = ring.gens()
        z, x1, x2, l2 = g["z"], g["x1"], g["x2"], g["l2"]
        lam = tuple(g[v] for v in LAMBDA_NAMES)
        p1, p2 = _p_of(x1, lam), _p_of(x2, lam)
        dp1, dp2 = _dp_of(x1, lam), _dp_of(x2, lam)
        quarter = _int_fraction(ring.field, 1, 4)
        eq1 = (z * (dp1 * p2 + dp2 * p1)
               + (x1 - x2) * (dp1 * dp1 * p2 - dp2 * dp2 * p1) * quarter
               - p1 * p2 * (dp1 + dp2 + (x1 - x2) ** 4))
        eq2 = (z * (6 * p1 * p2 - x1 * dp1 * p2 - x2 * dp2 * p1)
               - (x1 - x2) * (x2 * dp1 * dp1 * p2 - x1 * dp2 * dp2 * p1) * quarter
               + p1 * p2 * (x1 * dp1 - 3 * p1 + x2 * dp2 - 3 * p2
                            - (2 * x1 + 2 * x2 + l2) * (x1 - x2) ** 4))
        assert eq1.is_homogeneous() and eq1.weighted_degree() == 28
        assert eq2.is_homogeneous() and eq2.weighted_degree() == 30
        res = sylvester_resultant(eq1, eq2, "z")
        quot = res.exact_div((x1 - x2) ** 4)
        assert quot == three_torsion_x_poly(x1, x2, lam).scale(-1)

    def test_vanishing_on_torsion_supports(self):
        F, lam = GF(13), (0, 0, 0, 1, 3)
        c = CanonicalCurve(F, lam)
        xpoly, ypoly = emit_division_polynomials(3, "xy", c).polys
        found = find_three_torsion(c)
        assert found
        # supports conjugate over F_13 are checked on the curve lifted to F_169
        big = GF(13, 2)
        bx = emit_division_polynomials(3, "xy", CanonicalCurve(big, lam)).polys[0]
        for d in found:
            (p1, p2, wf, e2) = points_from_mumford(d, c)
            if e2 is None:
                assert F.is_zero(xpoly.evaluate({"x1": p1[0], "x2": p2[0]}))
                assert F.is_zero(ypoly.evaluate(
                    {"x1": p1[0], "y1": p1[1], "x2": p2[0], "y2": p2[1]}))
            else:
                assert wf.is_zero(bx.evaluate({"x1": p1[0], "x2": p2[0]}))


def _point_values(poly, p1, p2):
    """The values of poly's coordinates at the support points p1, p2."""
    pt = {"x1": p1[0], "y1": p1[1], "x2": p2[0], "y2": p2[1]}
    return {v: pt[v] for v in poly.ring.variables if v in pt}


def _y_exponents(poly):
    """The (y1, y2) exponent pairs of poly's terms, in the xy ring."""
    return {(e[1], e[3]) for e, _ in poly.sorted_terms()}


class TestSupportSystems:
    """The x/y-support systems are the Mumford systems with the support put
    in (a2 = -(x1 + x2), a4 = x1*x2, d*b3 = y2 - y1, d*b5 = x2*y1 - x1*y2),
    reduced by y_i^2 = P(x_i) and divided by a fixed power of d = x1 - x2."""

    @pytest.mark.parametrize("name", [None, "c7", "c49", "p127_three_branch_points"])
    def test_three_equals_the_hand_transcription(self, name):
        # the published scale makes the emitted pair the transcription itself:
        # (A1*B2 - A2*B1)/d^4 is 16 X and a2_relation/d^4 is -4 Y, formally and
        # over F_7, F_{7^2} and GF(2^127 - 1)
        curve = None if name is None else curve_from_json(
            json.loads((DATA / f"{name}.json").read_text()))
        x_support, y_support = emit_division_polynomials(3, "xy", curve).polys
        (x1, x2), lam = torsion._coordinates(torsion.X_COORDS, curve)
        assert x_support.to_json() == three_torsion_x_poly(x1, x2, lam).to_json()
        xy, lam = torsion._coordinates(torsion.XY_COORDS, curve)
        assert y_support.to_json() == three_torsion_y_poly(*xy, lam).to_json()

    @pytest.mark.parametrize("n", (3, 4))
    def test_d_powers_are_exact_and_largest(self, n):
        # over Q each condition in support coordinates is divisible by d^k for
        # its constant k and not by d^(k+1); X by its constant, not one more
        g = xy_ring().gens()
        x1, y1, x2, y2 = (g[v] for v in ("x1", "y1", "x2", "y2"))
        lam = tuple(g[v] for v in LAMBDA_NAMES)
        d = x1 - x2
        support = {"a2": -(x1 + x2), "a4": x1 * x2, "b3": y2 - y1, "b5": x2 * y1 - x1 * y2}
        squares = {"y1": _p_of(x1, lam), "y2": _p_of(x2, lam)}
        *ks, kx = torsion.D_POWERS[n]
        mumford = emit_division_polynomials(n, "mumford").polys
        assert len(ks) == len(mumford)
        for f, k in zip(mumford, ks):
            q = f.compose(support, d, ("b3", "b5")).reduce_squares(squares).exact_div(d ** k)
            with pytest.raises(InexactDivision):
                q.exact_div(d)
        X = emit_division_polynomials(n, "xy").polys[0]  # X/d^kx, exact, or emission raises
        gx = X.ring.gens()
        with pytest.raises(InexactDivision):
            X.exact_div(gx["x1"] - gx["x2"])

    def test_four_x4_symmetric_and_the_forms(self):
        # names and weights: TestEmission.test_four_xy_names_and_weights
        ds = emit_division_polynomials(4, "xy")
        X4, yb3, y2d = ds.polys
        assert X4.ring.variables[:2] == ("x1", "x2")  # y-free
        assert all(p.is_homogeneous() for p in ds.polys)
        assert [p.num_terms() for p in ds.polys] == [51107, 7795, 13726]
        # X4 is symmetric in (x1, x2); b3 lands in A + y1*y2*B, y2d in y1*C + y2*C'
        terms = dict(X4.sorted_terms())
        assert {(e[1], e[0], *e[2:]): c for e, c in terms.items()} == terms
        assert _y_exponents(yb3) == {(0, 0), (1, 1)}
        assert _y_exponents(y2d) == {(1, 0), (0, 1)}
        assert _y_exponents(emit_division_polynomials(3, "xy").polys[1]) == {(0, 0), (1, 1)}

    @pytest.mark.parametrize("name", ["c7", "p127_four_torsion"])
    def test_four_concrete_is_the_specialized_formal(self, name):
        # the fixed d-powers keep each concrete system the formal one with the
        # curve's coefficients put in
        curve = curve_from_json(json.loads((DATA / f"{name}.json").read_text()))
        formal = emit_division_polynomials(4, "xy").polys
        for f, c in zip(formal, emit_division_polynomials(4, "xy", curve).polys):
            assert dict(c.sorted_terms()) == _specialized(f, curve)

    def test_four_xy_vanishes_on_split_four_torsion(self):
        # every exact-order-4 class with split support: the xy conditions of
        # its branch (X4 and b3 when 2D is non-special, y2d when special)
        # vanish at its points
        seen = {"nonspecial": 0, "special": 0}
        for p, lam in FOUR_TORSION_CURVES:
            F = GF(p)
            c = CanonicalCurve(F, lam)
            X4, yb3, y2d = emit_division_polynomials(4, "xy", c).polys
            for d in map(to_mumford, brute_force_n_torsion(c, 4, enumerate_jacobian(c))):
                p1, p2, _, emb = points_from_mumford(d, c)
                if emb is not None or p1[0] == p2[0]:
                    continue
                branch = torsion_branch_classification(d, c)
                for poly in (X4, yb3) if branch == "nonspecial" else (y2d,):
                    assert F.is_zero(poly.evaluate(_point_values(poly, p1, p2)))
                seen[branch] += 1
        assert seen["nonspecial"] and seen["special"], seen


def _specialized(formal, curve):
    """The formal polynomial with the curve's coefficients put in for its
    trailing lambda generators, as {coordinate exponents: element}."""
    F = curve.field
    k = len(formal.ring.variables) - len(LAMBDA_NAMES)
    out, monomials = {}, {}  # each lambda monomial's value, computed once
    for e, c in formal.sorted_terms():
        if e[k:] not in monomials:
            v = F.one
            for lam, power in zip(curve.lam, e[k:]):
                v = v * F.pow(lam, power)
            monomials[e[k:]] = v
        out[e[:k]] = out.get(e[:k], F.zero) + F.coerce(c.value) * monomials[e[k:]]
    return {e: v for e, v in out.items() if not F.is_zero(v)}


class TestConcreteEmission:
    @pytest.mark.parametrize("field", [GF(1009), GF(31, 2), GF(2 ** 127 - 1), QQ()],
                             ids=["F1009", "F31^2", "F2^127-1", "Q"])
    def test_equals_specialized_formal_system(self, rng, field):
        if field.order() is None:
            draw = lambda: Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3)))
        else:
            draw = lambda: field._element_at(rng.randrange(field.order()))
        curve = None
        while curve is None:
            try:
                curve = CanonicalCurve(field, tuple(draw() for _ in range(5)))
            except DegenerateCurve:
                pass
        for n, coords in ((3, "mumford"), (4, "mumford"), (3, "xy")):
            formal = emit_division_polynomials(n, coords)
            concrete = emit_division_polynomials(n, coords, curve)
            assert concrete.names == formal.names
            for f, c in zip(formal.polys, concrete.polys):
                k = len(f.ring.variables) - len(LAMBDA_NAMES)
                assert c.ring.field is field
                assert c.ring.variables == f.ring.variables[:k]
                assert c.ring.weights == f.ring.weights[:k]
                assert dict(c.sorted_terms()) == _specialized(f, curve)


class TestMumfordResiduals:
    @pytest.mark.parametrize("p,lam", THREE_TORSION_CURVES)
    def test_zero_exactly_on_three_torsion(self, p, lam):
        F = GF(p)
        c = CanonicalCurve(F, lam)
        els = enumerate_jacobian(c)
        order3 = {to_mumford(d).sort_key() for d in brute_force_n_torsion(c, 3, els)}
        for d in els:
            m = to_mumford(d)
            if not m.is_nonspecial():
                continue
            try:
                r1, r2 = three_torsion_mumford_residuals(m, c)
            except GammaUndefined:
                assert m.sort_key() not in order3
                continue
            zero = F.is_zero(r1) and F.is_zero(r2)
            assert zero == (m.sort_key() in order3), m

    def test_residual_weights_symbolic(self):
        ds = emit_division_polynomials(3, "mumford")
        assert [p.weighted_degree() for p in ds.polys] == [28, 30]
        assert all(p.is_homogeneous() for p in ds.polys)

    def test_model_equations_homogeneous(self):
        # J8 and J10 are weight-8 and weight-10 homogeneous
        ring = mumford_ring()
        g = ring.gens()
        a2, a4, b3, b5 = g["a2"], g["a4"], g["b3"], g["b5"]
        l2, l4, l6, l8, l10 = g["l2"], g["l4"], g["l6"], g["l8"], g["l10"]
        bracket = (b3 * b3 + a2 ** 3 - 4 * a2 * a4 + l2 * (2 * a4 - a2 * a2)
                   + l4 * a2 - l6)
        j8 = 2 * b3 * b5 - a2 * a2 * a4 - a4 * a4 + l4 * a4 - l8 - a2 * bracket
        j10 = b5 * b5 - 2 * a2 * a4 * a4 + l2 * a4 * a4 - l10 - a4 * bracket
        assert j8.is_homogeneous() and j8.weighted_degree() == 8
        assert j10.is_homogeneous() and j10.weighted_degree() == 10
        # jacobian_residuals: the coefficients of (b3*x + b5)^2 - P mod u
        r1, r0 = p_mod_u(a2, a4, (l2, l4, l6, l8, l10))
        assert 2 * b3 * b5 - a2 * b3 * b3 - r1 == j8
        assert b5 * b5 - a4 * b3 * b3 - r0 == j10

    def test_double_to_special_output_weight(self):
        # x_{2Q} = 2*a2 + g1^2 - l2 with g1 = b3'/2 is weight-2 homogeneous
        from g2div.torsion import MUMFORD_COORDS, _duplication_data
        g = mumford_ring().gens()
        d = _duplication_data(*(g[v] for v in MUMFORD_COORDS[0] + LAMBDA_NAMES[:4]))
        N, b3p = d["N"], d["b3p"]
        # x * 16*N^2 as a polynomial (g1 = b3p/(4N))
        x_num = (2 * g["a2"] - g["l2"]) * (16 * N * N) + b3p * b3p
        assert x_num.is_homogeneous()
        assert x_num.weighted_degree() == 22  # weight 2 over the weight-20 denominator 16*N^2

    def test_four_torsion_weights_symbolic(self):
        ds = emit_division_polynomials(4, "mumford")
        assert [p.weighted_degree() for p in ds.polys] == [56, 58, 55]
        assert all(p.is_homogeneous() for p in ds.polys)

    def test_cleared_system_vanishes_on_torsion(self):
        F = GF(13)
        c3 = CanonicalCurve(F, (1, 1, 1, 2, 4))
        m3 = emit_division_polynomials(3, "mumford", c3)
        for d in find_three_torsion(c3):
            vals = {"a2": d.a2, "a4": d.a4, "b3": d.b3, "b5": d.b5}
            assert all(F.is_zero(p.evaluate(vals)) for p in m3.polys)
        c4 = CanonicalCurve(F, (1, 1, 1, 0, 2))
        m4 = emit_division_polynomials(4, "mumford", c4)
        for d in find_four_torsion(c4):
            vals = {"a2": d.a2, "a4": d.a4, "b3": d.b3, "b5": d.b5}
            branch, _ = four_torsion_residuals(d, c4)
            if branch == "nonspecial":
                assert F.is_zero(m4.polys[0].evaluate(vals))
                assert F.is_zero(m4.polys[1].evaluate(vals))
            else:
                assert F.is_zero(m4.polys[2].evaluate(vals))

    def test_four_system_nonzero_on_three_torsion(self):
        F = GF(13)
        c = CanonicalCurve(F, (1, 1, 1, 2, 4))
        m4 = emit_division_polynomials(4, "mumford", c)
        d = find_three_torsion(c)[0]
        vals = {"a2": d.a2, "a4": d.a4, "b3": d.b3, "b5": d.b5}
        assert any(not F.is_zero(p.evaluate(vals)) for p in m4.polys[:2])

    def test_random_nontorsion_nonzero(self, c1009, rng):
        F = c1009.field
        for _ in range(50):
            d = random_divisor(c1009, rng)
            try:
                r1, r2 = three_torsion_mumford_residuals(d, c1009)
            except GammaUndefined:
                continue
            if F.is_zero(r1) and F.is_zero(r2):
                assert is_torsion(d, 3, c1009)  # sampling certainty

    def test_three_residuals_pinned_off_torsion(self, c1009, rng):
        # the residuals are alpha(D) - alpha(2D) by value, not only at their zeros
        F = c1009.field
        nonzero = 0
        for _ in range(80):
            d = random_divisor(c1009, rng)
            doubled, tag = double_traced(d, c1009)
            if tag != "double":
                continue
            try:
                r1, r2 = three_torsion_mumford_residuals(d, c1009)
            except GammaUndefined:
                continue  # a branch point in the support
            assert (r1, r2) == (d.a2 - doubled.a2, d.a4 - doubled.a4)
            nonzero += not (F.is_zero(r1) and F.is_zero(r2))
        assert nonzero > 60

    def test_three_residuals_sign_on_repeated_support(self):
        # a repeated support, doubled in the kernel, also returns
        # alpha(D) - alpha(2D), on every repeated-support divisor of this J(F_7)
        c = CanonicalCurve(GF(7), (4, 2, 5, 2, 6))
        F = c.field
        seen = 0
        for m in map(to_mumford, enumerate_jacobian(c)):
            if not m.is_nonspecial() or not F.is_zero(m.a2 * m.a2 - 4 * m.a4):
                continue
            doubled, _ = double_traced(m, c)
            if not doubled.is_nonspecial():
                with pytest.raises(GammaUndefined):
                    three_torsion_mumford_residuals(m, c)
                continue
            seen += 1
            assert three_torsion_mumford_residuals(m, c) == (m.a2 - doubled.a2, m.a4 - doubled.a4)
        assert seen >= 4
        D = MumfordDivisor.nonspecial(F, 3, 4, 5, 0)
        assert double_traced(D, c)[0].coords == (6, 6, 6, 4)
        assert three_torsion_mumford_residuals(D, c) == (4, 5)

    def test_special_four_residual_is_y_of_double(self, c1009, rng):
        # on the double-to-special branch the residual is the y of the point 2D
        F = c1009.field
        found = 0
        while found < 3:
            p1 = random_point(c1009, rng, nonzero_y=True)
            for xv in range(F.order()):
                x2 = F.element(xv)
                if x2 == p1[0]:
                    continue
                for y2 in F.sqrt(c1009.p_at(x2)):
                    if F.is_zero(y2):
                        continue
                    d = mumford_from_points(c1009, p1, (x2, y2))
                    doubled, tag = double_traced(d, c1009)
                    if tag == "double_to_special":
                        assert four_torsion_residuals(d, c1009) == ("special", (doubled.coords[1],))
                        found += 1

    def test_four_residuals_scale_against_double(self):
        # on a distinct support the non-special residuals are g1*(b3, b5) of
        # 2D, g1 the duplication gamma; on a repeated support they are (b3, b5)
        # of 2D; the special residual is y(2D) on both: every divisor of J(F_13)
        c = CanonicalCurve(GF(13), (1, 1, 1, 2, 4))
        F = c.field
        seen = set()
        for m in map(to_mumford, enumerate_jacobian(c)):
            if not m.is_nonspecial():
                continue
            try:
                branch, res = four_torsion_residuals(m, c)
            except GammaUndefined:
                continue  # a branch point in the support
            doubled = double_traced(m, c)[0]
            repeated = F.is_zero(m.a2 * m.a2 - 4 * m.a4)
            if branch == "special":
                assert res == (doubled.coords[1],)
            else:
                g1 = F.one if repeated else gamma_double(m, tangent_data(c, m)).g1
                assert res == (g1 * doubled.coords[2], g1 * doubled.coords[3])
            seen.add((branch, repeated))
        assert seen == set(product(("nonspecial", "special"), (False, True)))

    def test_residuals_iff_xy_system(self):
        # {Mumford residuals = 0} <-> {X = Y = 0 on the support}
        F = GF(13)
        c = CanonicalCurve(F, (0, 0, 0, 1, 3))
        ds = emit_division_polynomials(3, "xy", c)
        xpoly, ypoly = ds.polys
        rng = random.Random(2)
        checked = 0
        for _ in range(400):
            d = random_divisor(c, rng)
            (p1, p2, wf, emb) = points_from_mumford(d, c)
            if emb is not None or p1[0] == p2[0]:
                continue
            try:
                r1, r2 = three_torsion_mumford_residuals(d, c)
            except GammaUndefined:
                continue
            lhs = F.is_zero(r1) and F.is_zero(r2)
            rhs = (F.is_zero(xpoly.evaluate({"x1": p1[0], "x2": p2[0]}))
                   and F.is_zero(ypoly.evaluate({"x1": p1[0], "y1": p1[1],
                                                 "x2": p2[0], "y2": p2[1]})))
            assert lhs == rhs
            checked += 1
        assert checked > 200
        # n = 4, per branch of four_torsion_residuals: X4 and the b3 condition
        # when 2D is non-special, y2d when it is special, on every divisor with
        # split support over F_13 of a curve that has both branches, each
        # with vanishing and nonvanishing residuals
        c = CanonicalCurve(F, (3, 6, 7, 7, 5))
        X4, yb3, y2d = emit_division_polynomials(4, "xy", c).polys
        seen = dict.fromkeys(product(("nonspecial", "special"), (False, True)), 0)
        for d in (d for a2 in F.elements() for a4 in F.elements()
                  for d in _divisors_above(c, a2, a4)):
            p1, p2, _, emb = points_from_mumford(d, c)
            if emb is not None or p1[0] == p2[0]:
                continue
            try:
                branch, res = four_torsion_residuals(d, c)
            except GammaUndefined:
                continue
            lhs = all(F.is_zero(r) for r in res)
            rhs = all(F.is_zero(p.evaluate(_point_values(p, p1, p2)))
                      for p in ((X4, yb3) if branch == "nonspecial" else (y2d,)))
            assert lhs == rhs
            seen[branch, lhs] += 1
        assert all(seen.values()), seen


def _weight5_tangent_curve():
    """A curve over Q with divisors whose double is special: P is
    g^2 + (x - 1)^2 (x - 3)^2 (x + 2) for g = x^2/2 - x + 2, so y + g(x)
    vanishes twice at each point of D = (1, -g(1)) + (3, -g(3)) and once at
    (-2, -g(-2)), and 2D is a single point.  Returns (curve, the rational
    points above x = 1, 3, -2)."""
    Q = QQ()
    g = UniPoly(Q, [2, -1, Fraction(1, 2)])
    f = UniPoly(Q, [-1, 1]) * UniPoly(Q, [-3, 1])
    P = g * g + f * f * UniPoly(Q, [2, 1])
    c = CanonicalCurve(Q, tuple(P[k] for k in (4, 3, 2, 1, 0)))
    pts = []
    for x in map(Q.element, (1, 3, -2)):
        y = g.evaluate(x)
        pts += [(x, y), (x, -y)]
    return c, pts


def _agreement_divisors(which):
    if which == "GF(13)":
        c = CanonicalCurve(GF(13), (1, 1, 1, 2, 4))
        return c, [m for m in map(to_mumford, enumerate_jacobian(c)) if m.is_nonspecial()]
    if which == "GF(7, 2)":
        F = GF(7, 2)
        c = CanonicalCurve(F, (F.from_str("1,1"), 0, F.from_str("3,0"), 1, F.from_str("0,2")))
        return c, [d for a2 in F.elements() for a4 in F.elements()
                   for d in _divisors_above(c, a2, a4)]
    c, pts = _weight5_tangent_curve()
    return c, [mumford_from_points(c, p1, p2) for p1, p2 in combinations(pts, 2)
               if p1[0] != p2[0]]


class TestResidualsMatchEmission:
    """Each residual times its clearing factor (E^2 for n = 3, E^4 for the
    n = 4 non-special branch, 1024*N^5 when 2D is special) is the emitted
    system evaluated at D, with E = 2N*(2*b5' - a2*b3') from tangent_data."""

    @pytest.mark.parametrize("which", ["GF(13)", "GF(7, 2)", "QQ"])
    def test_residuals_times_factor_equal_emitted(self, which):
        c, ds = _agreement_divisors(which)
        F = c.field
        m3 = emit_division_polynomials(3, "mumford", c).polys
        m4 = emit_division_polynomials(4, "mumford", c).polys
        hits = {"nonspecial": 0, "special": 0}
        for D in ds:
            a2, a4, b3, b5 = D.coords
            N = b3 * b3 * a4 - a2 * b3 * b5 + b5 * b5
            if F.is_zero(a2 * a2 - 4 * a4) or F.is_zero(N):
                continue  # a repeated support, or no duplication gammas
            tang = tangent_data(c, D)
            E = 2 * N * (2 * tang.b5p - a2 * tang.b3p)
            branch = "special" if F.is_zero(E) else "nonspecial"
            if hits[branch] >= 12:
                continue
            hits[branch] += 1
            vals = {"a2": a2, "a4": a4, "b3": b3, "b5": b5}
            got4, res4 = four_torsion_residuals(D, c)
            assert got4 == branch
            if branch == "special":
                assert [r * 1024 * N ** 5 for r in res4] == [m4[2].evaluate(vals)]
                with pytest.raises(GammaUndefined):
                    three_torsion_mumford_residuals(D, c)
            else:
                assert [r * E ** 4 for r in res4] == [p.evaluate(vals) for p in m4[:2]]
                assert ([r * E ** 2 for r in three_torsion_mumford_residuals(D, c)]
                        == [p.evaluate(vals) for p in m3])
        assert hits["nonspecial"] >= 6 and hits["special"] >= 2, hits


class TestFindTorsion:
    @pytest.mark.parametrize("p,lam", THREE_TORSION_CURVES)
    def test_three_torsion_completeness(self, p, lam):
        c = CanonicalCurve(GF(p), lam)
        mine = find_three_torsion(c)
        oracle = sorted((to_mumford(d) for d in
                         brute_force_n_torsion(c, 3, enumerate_jacobian(c))),
                        key=lambda d: d.sort_key())
        assert [d.sort_key() for d in mine] == [d.sort_key() for d in oracle]
        assert mine  # the frozen curves have nonempty sets
        for d in mine:
            assert d.is_nonspecial()
            assert scalar_mul(3, d, c).is_neutral()

    @pytest.mark.parametrize("p,lam", FOUR_TORSION_CURVES)
    def test_four_torsion_completeness_and_branches(self, p, lam):
        F = GF(p)
        c = CanonicalCurve(F, lam)
        mine = find_four_torsion(c)
        oracle = sorted((to_mumford(d) for d in
                         brute_force_n_torsion(c, 4, enumerate_jacobian(c))),
                        key=lambda d: d.sort_key())
        assert [d.sort_key() for d in mine] == [d.sort_key() for d in oracle]
        assert mine
        for d in mine:
            assert d.is_nonspecial()
            assert scalar_mul(4, d, c).is_neutral()
            assert not scalar_mul(2, d, c).is_neutral()
            branch, res = four_torsion_residuals(d, c)
            assert all(F.is_zero(r) for r in res)
            assert branch == torsion_branch_classification(d, c)
            doubled, _ = double_traced(d, c)
            assert is_torsion(doubled, 2, c)

    def test_closure_under_negation(self):
        c = CanonicalCurve(GF(13), (0, 0, 0, 1, 3))
        found = find_three_torsion(c)
        keys = {d.sort_key() for d in found}
        assert {negate(d).sort_key() for d in found} == keys
        c4 = CanonicalCurve(GF(7), (0, 0, 0, 1, 0))
        found4 = find_four_torsion(c4)
        assert {negate(d).sort_key() for d in found4} == {d.sort_key() for d in found4}

    def test_empty_sets_match_oracle(self):
        # x^5 + 1 over F7 has group order 50: no 3- or 4-torsion
        c = CanonicalCurve(GF(7), (0, 0, 0, 0, 1))
        assert find_three_torsion(c) == []
        assert find_four_torsion(c) == []
        els = enumerate_jacobian(c)
        assert brute_force_n_torsion(c, 3, els) == []
        assert brute_force_n_torsion(c, 4, els) == []

    def test_characteristic_three_matches_oracle(self):
        """The searches divide by nothing, so characteristic 3 needs no guard:
        on the first 30 nondegenerate curves over F_3 they find the brute
        force's divisors.  The emitted polynomials keep theirs."""
        curves = []
        for lam in product(range(3), repeat=5):
            try:
                curves.append(CanonicalCurve(GF(3), lam))
            except DegenerateCurve:
                continue
            if len(curves) == 30:
                break
        found = 0
        for c in curves:
            els = enumerate_jacobian(c)
            for n, search in ((3, find_three_torsion), (4, find_four_torsion)):
                oracle = sorted(to_mumford(d).sort_key() for d in brute_force_n_torsion(c, n, els))
                assert [d.sort_key() for d in search(c)] == oracle, (n, c.lam)
                found += len(oracle) if n == 3 else 0
        assert found == 16
        with pytest.raises(CharacteristicTooSmall):
            emit_division_polynomials(3, "mumford", curves[0])

    def test_find_n_dispatch(self, c7):
        assert find_n_torsion(c7, 2) == two_torsion_divisors(c7)
        with pytest.raises(SerializationError):
            find_n_torsion(c7, 5)


def test_search_cap_refuses_large_fields_at_once(c7, monkeypatch, capsys):
    calls = (["--n", "3", "--ext", "4", "--curve", str(DATA / "c7.json")],  # 7^8 alphas
             ["--n", "3", "--curve", str(DATA / "p127_three_torsion.json")])
    for argv in calls:
        start = time.perf_counter()
        assert cli.main(["torsion", "find", *argv]) == 1
        assert time.perf_counter() - start < 1
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "unsupported-field" and "O(q^2)" in out["detail"], out
    # the cap is on q^2: F_7 has 49 alphas
    monkeypatch.setattr(torsion, "SEARCH_CAP", 49)
    brute = sorted(map(to_mumford, brute_force_n_torsion(c7, 3)), key=MumfordDivisor.sort_key)
    assert find_three_torsion(c7) == brute
    monkeypatch.setattr(torsion, "SEARCH_CAP", 48)
    with pytest.raises(UnsupportedField):
        find_four_torsion(c7)


class TestEmission:
    def test_four_xy_names_and_weights(self):
        ds = emit_division_polynomials(4, "xy")
        assert ds.names == ("x_support", "y_support", "y2d_support")
        assert [p.weighted_degree() for p in ds.polys] == [92, 60, 65]
        k = -len(LAMBDA_NAMES)
        assert [(p.ring.variables[:k], p.ring.weights[:k]) for p in ds.polys] == [
            (("x1", "x2"), (2, 2))] + [(("x1", "y1", "x2", "y2"), (2, 5, 2, 5))] * 2

    def test_bad_n_rejected(self):
        with pytest.raises(SerializationError):
            emit_division_polynomials(5, "mumford")

    def test_formal_sets_cached_and_named(self):
        a = emit_division_polynomials(3, "xy")
        b = emit_division_polynomials(3, "xy")
        assert a is b
        assert a.names == ("x_support", "y_support")
        assert emit_division_polynomials(4, "mumford").names == (
            "b3_vanishing", "b5_vanishing", "y2d_vanishing")


# ---------------------------------------------------------------------------
# constructed torsion: curves over GF(2^127 - 1), Q and F_{(2^61 - 1)^2}, each
# built around a divisor of known order 3 or 4 by tests/torsion_construction.py

DATA = Path(__file__).parent / "data"
CONSTRUCTION = Path(__file__).parent / "torsion_construction.py"
NAMES = (("three", 3), ("four", 4))
PREFIXES = ("p127", "q", "p61sq")
FIXTURES = [(prefix, name, n) for prefix in PREFIXES for name, n in NAMES]
FIXTURE_FIELDS = {"p127": GF(2 ** 127 - 1), "q": QQ(),
                  "p61sq": GF(2 ** 61 - 1, 2, modulus=(2 ** 61 - 4, 0, 1))}


def _fixture(prefix, name):
    curve = curve_from_json(json.loads((DATA / f"{prefix}_{name}_torsion.json").read_text()))
    d = divisor_from_json(curve.field, json.loads((DATA / f"{prefix}_{name}_torsion_d.json").read_text()))
    return curve, d


def _residuals(d, n, curve):
    if n == 3:
        return three_torsion_mumford_residuals(d, curve)
    branch, res = four_torsion_residuals(d, curve)
    assert branch == "nonspecial"  # 2D = (w, 0) has two support points
    return res


@pytest.fixture(scope="module")
def rebuilt(tmp_path_factory):
    out = tmp_path_factory.mktemp("torsion_data")
    subprocess.run([sys.executable, str(CONSTRUCTION), str(out)], check=True)
    return out


class _RebuildsItsFiles:
    PREFIX = None

    def test_generator_rebuilds_the_files(self, rebuilt):
        for name, _ in NAMES:
            for f in (f"{self.PREFIX}_{name}_torsion.json", f"{self.PREFIX}_{name}_torsion_d.json"):
                assert (rebuilt / f).read_bytes() == (DATA / f).read_bytes(), f


class TestP127ConstructedTorsion(_RebuildsItsFiles):
    PREFIX = "p127"


class TestQConstructedTorsion(_RebuildsItsFiles):
    PREFIX = "q"


class TestP61sqConstructedTorsion(_RebuildsItsFiles):
    PREFIX = "p61sq"


class TestConstructedTorsion:
    def test_construction_loads_no_g2div_module(self, tmp_path):
        # g2div is importable in the child, and running the generator loads none of it
        code = ("import runpy, sys; sys.argv = sys.argv[1:]; runpy.run_path(sys.argv[0], run_name='__main__');"
                " print(sorted(m for m in sys.modules if m.partition('.')[0] == 'g2div'))")
        src = str(Path(__file__).parent.parent / "src")
        out = subprocess.run([sys.executable, "-c", code, str(CONSTRUCTION), str(tmp_path)], check=True,
                             capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}).stdout
        assert out == "[]\n"
        assert len(list(tmp_path.iterdir())) == 4 * len(PREFIXES)

    @pytest.mark.parametrize("prefix,name,n", FIXTURES)
    def test_residuals_vanish_on_the_known_class(self, prefix, name, n):
        curve, d = _fixture(prefix, name)
        F = curve.field
        assert F is FIXTURE_FIELDS[prefix] and d.is_nonspecial()
        if F is QQ():
            assert any(type(c) is Fraction for c in d.native)  # a non-integral coordinate
        assert is_on_jacobian(d, curve)
        assert is_torsion(d, n, curve)
        assert all(F.is_zero(r) for r in _residuals(d, n, curve))
        # the Cantor oracle agrees on the order and on 2D
        c = from_mumford(d)
        assert cantor_scalar_mul(n, c, curve).u.degree() == 0
        twice = to_mumford(cantor_scalar_mul(2, c, curve))
        assert double_traced(d, curve)[0] == twice
        if n == 3:
            assert twice == negate(d)
        else:  # 2D = (w, 0): b = 0 and w divides P
            a2, a4, b3, b5 = twice.coords
            assert F.is_zero(b3) and F.is_zero(b5)
            assert all(F.is_zero(r) for r in p_mod_u(a2, a4, curve.lam))

    def test_four_xy_system_vanishes_on_the_split_support(self):
        # u of the known order-4 class splits over GF(2^127 - 1) and 2D is
        # non-special, so X4 and the b3 condition vanish at its two points
        curve, d = _fixture("p127", "four")
        p1, p2, _, emb = points_from_mumford(d, curve)
        assert emb is None and p1[0] != p2[0]
        X4, yb3, _ = emit_division_polynomials(4, "xy", curve).polys
        assert all(curve.field.is_zero(p.evaluate(_point_values(p, p1, p2))) for p in (X4, yb3))

    @pytest.mark.parametrize("prefix,name,n", FIXTURES)
    def test_torsion_check_and_mul_verbs(self, prefix, name, n, capsys):
        files = ["--curve", str(DATA / f"{prefix}_{name}_torsion.json")]
        d = str(DATA / f"{prefix}_{name}_torsion_d.json")
        assert cli.main(["torsion", "check", "--n", str(n), *files, "--divisor", d]) == 0
        out = json.loads(capsys.readouterr().out)
        zero = "0,0" if prefix == "p61sq" else "0"
        assert out["is_torsion"] is True and out["residuals"] == [zero, zero]
        assert cli.main(["jac", "mul", str(n), d, *files]) == 0
        assert json.loads(capsys.readouterr().out) == {"type": "neutral"}

    @pytest.mark.parametrize("prefix,name,n", [f for f in FIXTURES if f[0] != "q"])
    def test_residuals_do_not_vanish_off_torsion(self, prefix, name, n):
        curve, _ = _fixture(prefix, name)
        F = curve.field
        rng = random.Random(127 + n)
        for _ in range(8):
            d = random_divisor(curve, rng)
            assert not is_torsion(d, n, curve)
            assert not all(F.is_zero(r) for r in _residuals(d, n, curve))


# ---------------------------------------------------------------------------
# an n with two prime factors above 10^6: is_torsion factors n once nD = 0,
# testing primality only as the cofactor shrinks, and an n past the
# Hasse-Weil bound (over Q, at a prime of good reduction) takes no scalar
# multiplication

BIG_PRIMES = (1000003, 1000033)


def test_prime_divisors_tests_each_cofactor_once(monkeypatch):
    calls = [0]

    def counted(n):
        calls[0] += 1
        return is_prime(n)

    monkeypatch.setattr(torsion, "is_prime", counted)
    p, q = BIG_PRIMES
    cases = {25 * p * q: [5, p, q], 3 * p * q: [3, p, q], 4 * 27 * p: [2, 3, p],
             2 ** 10: [2], p: [p], 1: []}
    for n, primes in cases.items():
        calls[0] = 0
        assert _prime_divisors(n) == primes
        # once up front, then once per prime divided out
        assert calls[0] <= 1 + len(primes), (n, calls[0])


def test_is_torsion_past_the_hasse_weil_bound(monkeypatch):
    curve = curve_from_json(json.loads((DATA / "c7.json").read_text()))
    d = divisor_from_json(curve.field, json.loads((DATA / "c7_d1.json").read_text()))
    assert is_torsion(d, 25, curve)
    assert (2 + 2) ** 4 < 25 * BIG_PRIMES[0] * BIG_PRIMES[1]  # (2 + isqrt 7)^4
    ladders = [0]

    def counted(*args):
        ladders[0] += 1
        return scalar_mul(*args)

    monkeypatch.setattr(torsion, "scalar_mul", counted)
    for n in (25 * BIG_PRIMES[0] * BIG_PRIMES[1], 25 * (2 ** 40 - 87) * (2 ** 40 + 15)):
        assert not is_torsion(d, n, curve)
    assert ladders[0] == 0
    off = MumfordDivisor.nonspecial(curve.field, 1, 1, 1, 1)
    assert not is_on_jacobian(off, curve)
    with pytest.raises(OffCurve):
        is_torsion(off, 25 * BIG_PRIMES[0] * BIG_PRIMES[1], curve)


@pytest.mark.parametrize("name,n", NAMES)
def test_is_torsion_with_large_prime_factors_over_q(name, n, monkeypatch):
    # over Q no order exceeds #J(F_l) at the least odd prime l != 5 of good
    # reduction, l = 7 for both fixtures, so an n past (2 + isqrt 7)^4 takes
    # no scalar multiplication however large its prime factors; n = 3 with
    # the 64-bit pair is 1020847100762815382531810846895035660643
    curve, d = _fixture("q", name)
    assert torsion._good_prime(curve) == 7 and is_torsion(d, n, curve)
    ladders = [0]

    def counted(*args):
        ladders[0] += 1
        return scalar_mul(*args)

    monkeypatch.setattr(torsion, "scalar_mul", counted)
    for p, q in (BIG_PRIMES, (1000000007, 1000000009), (2 ** 64 - 59, 2 ** 64 - 83)):
        t0 = time.perf_counter()
        assert not is_torsion(d, n * p * q, curve)
        assert time.perf_counter() - t0 < 1.0, (p, q)
    assert ladders[0] == 0


@pytest.mark.parametrize("lam,ell", [((0, 0, 0, 0, 1), 3), ((0, 0, 0, 0, 3), 7),
                                     ((0, 0, 0, 0, Fraction(1, 3)), 7), ((0, 0, 0, 0, 21), 11),
                                     ((0, 0, 0, 0, Fraction(3, 7)), 11)])
def test_good_prime_skips_bad_reduction(lam, ell):
    # x^5 + 3 is x^5 mod 3 and x^5 + 21 also mod 7; 1/3 and 3/7 are not 3- and
    # 7-integral; 5 is excluded
    assert torsion._good_prime(CanonicalCurve(QQ(), lam)) == ell


def _trial_division_primes(n):
    primes, ell = [], 2
    while ell * ell <= n:
        if n % ell == 0:
            primes.append(ell)
            while n % ell == 0:
                n //= ell
        ell += 1
    return primes + [n] if n > 1 else primes


def test_prime_divisors_match_trial_division():
    for n in range(1, 10 ** 4):
        assert _prime_divisors(n) == _trial_division_primes(n), n
    # rho's cofactors just past the trial-division bound 2^8: products,
    # squares and cubes of primes from 257 to 400
    mid = [ell for ell in range(257, 400) if is_prime(ell)]
    for p, q in combinations(mid, 2):
        for n in (p * q, p * p, p ** 3 * q, 255 * p * q * q):
            assert _prime_divisors(n) == _trial_division_primes(n), n
    large = (1000003, 1000033, 1000000007, 1000000009, 2 ** 31 - 1, 2 ** 61 - 1)
    for p, q in combinations(large, 2):
        for k, small in ((1, []), (2 ** 5 * 3 * 7 ** 3, [2, 3, 7])):
            assert _prime_divisors(k * p * q) == sorted(small + [p, q]), (k, p, q)
    assert _prime_divisors(1000003 * 1000033 * 1000037) == [1000003, 1000033, 1000037]
