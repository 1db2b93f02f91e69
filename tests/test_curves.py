import pickle
import random
from fractions import Fraction

import pytest

from g2div.curves import CanonicalCurve, curve_from_json, curve_to_json
from g2div.errors import CharacteristicTooSmall, DegenerateCurve, NoRationalRoot
from g2div.fields import GF, QQ
from g2div.models import GeneralCurve, to_canonical, to_canonical_allow_extension
from g2div.series import (
    expand_at_infinity,
    expand_at_infinity_symbolic,
    truncated_square,
)
from g2div.unipoly import UniPoly


def test_discriminant_values():
    Q = QQ()
    assert CanonicalCurve(Q, (0, 0, 0, 0, 1)).discriminant().value == 3125
    with pytest.raises(DegenerateCurve):
        CanonicalCurve(Q, (0, 0, 0, 0, 0))  # x^5 has a quintuple root
    assert CanonicalCurve(GF(11), (0, 0, 0, 0, 1)).discriminant().value == 3125 % 11 == 1


def test_branch_points():
    assert [b.value for b in CanonicalCurve(GF(11), (0, 0, 0, 0, 1)).branch_points()] == [2, 6, 7, 8, 10]
    assert [b.value for b in CanonicalCurve(GF(7), (0, 0, 0, 0, 1)).branch_points()] == [6]
    assert [b.value for b in CanonicalCurve(QQ(), (0, 0, 0, 0, 1)).branch_points()] == [Fraction(-1)]


def test_branch_points_are_y0_locus():
    c = CanonicalCurve(GF(13), (1, 1, 1, 2, 4))
    bset = {b.value for b in c.branch_points()}
    for x in c.field.elements():
        assert (x.value in bset) == c.field.is_zero(c.p_at(x))


def test_curve_natives_built_once_and_pickled_by_lam():
    # native holds the coefficients as the field's reduced natives (an
    # integral rational as its int); the constructor, equality, hashing and
    # pickling all go by (field, lam)
    for F, lam in ((GF(1009), (1, 2, 3, 4, 5)), (QQ(), (Fraction(1, 2), 0, -3, 4, 5)),
                   (GF(7, 2), (0, 0, 0, 1, 3))):
        c = CanonicalCurve(F, lam)
        assert c.native == tuple(map(F._native, c.lam))
        assert [type(v) for v in c.native] == [type(F._native(v)) for v in c.lam]
        assert c.px() == UniPoly(F, [*reversed(lam), 1])
        back = pickle.loads(pickle.dumps(c))
        assert back == c and hash(back) == hash(c) and back.native == c.native
        assert back.field is F and type(back) is CanonicalCurve
        assert CanonicalCurve(F, c.lam) == c and len({c, back, CanonicalCurve(F, lam)}) == 1
        assert c != CanonicalCurve(F, (*c.lam[:4], c.lam[4] + 1))


def test_on_curve():
    c = CanonicalCurve(GF(7), (0, 0, 0, 0, 1))
    F = c.field
    assert c.on_curve((F.element(0), F.element(1)))
    assert c.on_curve((F.element(6), F.element(0)))
    assert not c.on_curve((F.element(2), F.element(1)))


class TestSeriesExpansion:
    def test_printed_coefficients(self):
        sym = expand_at_infinity_symbolic(12)
        ring = sym[0].ring
        g = ring.gens()
        l2, l4, l6, l8, l10 = (g[k] for k in ("l2", "l4", "l6", "l8", "l10"))
        half = Fraction(1, 2)
        assert sym[0] == ring.one()
        assert all(sym[k].is_zero() for k in (1, 3, 5, 7, 9, 11))
        assert sym[2] == l2 * half
        assert sym[4] == (l4 - l2 ** 2 * Fraction(1, 4)) * half
        assert sym[6] == (l6 - l2 * l4 * half + l2 ** 3 * Fraction(1, 8)) * half
        assert sym[10] == (l10 - l2 * l8 * half - l4 * l6 * half
                           + l2 ** 2 * l6 * Fraction(3, 8) + l2 * l4 ** 2 * Fraction(3, 8)
                           - l2 ** 3 * l4 * Fraction(5, 16) + l2 ** 5 * Fraction(7, 128)) * half

    def test_xi8_coefficient_against_defining_identity(self):
        # the l4^2 term must be -1/4 inside the bracket: forced by S^2 = 1 + ...
        # (the printed -1/2 variant fails the defining identity)
        sym = expand_at_infinity_symbolic(12)
        ring = sym[0].ring
        g = ring.gens()
        l2, l4, l6, l8 = (g[k] for k in ("l2", "l4", "l6", "l8"))
        half = Fraction(1, 2)
        corrected = (l8 - l2 * l6 * half - l4 ** 2 * Fraction(1, 4)
                     + l2 ** 2 * l4 * Fraction(3, 8) - l2 ** 4 * Fraction(5, 64)) * half
        misprint = (l8 - l2 * l6 * half - l4 ** 2 * half
                    + l2 ** 2 * l4 * Fraction(3, 8) - l2 ** 4 * Fraction(5, 64)) * half
        assert sym[8] == corrected
        assert not (sym[8] == misprint)

    def test_defining_identity(self):
        sym = expand_at_infinity_symbolic(12)
        ring = sym[0].ring
        target = [ring.one()] + [ring.zero()] * 11
        for i, name in enumerate(("l2", "l4", "l6", "l8", "l10")):
            target[2 * (i + 1)] = ring.var(name)
        assert all((a - b).is_zero() for a, b in zip(truncated_square(sym), target))

    def test_specialization_and_char_guard(self):
        c = CanonicalCurve(GF(1009), (2, 0, 0, 0, 1))
        exp = expand_at_infinity(c, 12)
        assert exp.y_unit_coeffs[2] == c.field.element(1)  # l2/2 = 2/2
        assert exp.residual_is_zero(c)
        # the recurrence divides by 2 only, so small characteristics expand too
        for small in (GF(7), GF(3)):
            c = CanonicalCurve(small, (1, 1, 2, 0, 1))
            assert expand_at_infinity(c, 12).residual_is_zero(c)
        for order in (0, 13):
            with pytest.raises(CharacteristicTooSmall):
                expand_at_infinity(c, order)

    @pytest.mark.parametrize("field", [GF(1009), GF(31, 2), QQ(), GF(2 ** 127 - 1)],
                             ids=["F1009", "F31^2", "Q", "F2^127-1"])
    def test_concrete_residual_many_curves(self, rng, field):
        if field.order() is None:
            draw = lambda: Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3)))
        else:
            draw = lambda: field._element_at(rng.randrange(field.order()))
        for _ in range(20):
            try:
                c = CanonicalCurve(field, tuple(draw() for _ in range(5)))
            except DegenerateCurve:
                continue
            assert expand_at_infinity(c, 12).residual_is_zero(c)


class TestFormI:
    def test_lambda_corrections(self):
        F = GF(1009)
        rng = random.Random(8)
        nu = tuple(F.element(rng.randrange(1009)) for _ in range(8))
        g = GeneralCurve(F, "I", nu=nu)
        can, _ = to_canonical(g)
        n1, n2, n3, n4, n5, n6, n8, n10 = nu
        four, two = F.element(4), F.element(2)
        assert can.lam[0] == n2 + n1 * n1 / four
        assert can.lam[1] == n4 + n1 * n3 / two
        assert can.lam[2] == n6 + n1 * n5 / two + n3 * n3 / four
        assert can.lam[3] == n8 + n3 * n5 / two
        assert can.lam[4] == n10 + n5 * n5 / four

    def test_zero_shift_is_identity_on_lambda(self):
        F = GF(31)
        nu = tuple(F.element(v) for v in (0, 3, 0, 1, 0, 4, 2, 6))
        can, pm = to_canonical(GeneralCurve(F, "I", nu=nu))
        assert [c.value for c in can.lam] == [3, 1, 4, 2, 6]
        pt = (F.element(1), F.element(3))
        if GeneralCurve(F, "I", nu=nu).on_curve(pt):
            assert pm.forward(pt) == pt

    def test_round_trip_points(self, rng):
        F = GF(1009)
        nu = tuple(F.element(rng.randrange(1009)) for _ in range(8))
        g = GeneralCurve(F, "I", nu=nu)
        can, pm = to_canonical(g)
        two = F.element(2)
        checked = 0
        for xv in range(1009):
            x = F.element(xv)
            qv, pv = g.q_poly().evaluate(x), g.p_poly().evaluate(x)
            roots = F.sqrt(qv * qv + F.element(4) * pv)
            if not roots:
                continue
            y = (qv + roots[0]) / two
            assert g.on_curve((x, y))
            image = pm.forward((x, y))
            assert can.on_curve(image)
            assert pm.inverse(image) == (x, y)
            checked += 1
            if checked >= 300:
                break
        assert checked >= 300


class TestFormII:
    def _sample_curve(self, F):
        # Pbar = x(x-1)(x-2)(x-3)(x-4)(x-5)
        pb = UniPoly.one(F)
        for k in range(6):
            pb = pb * UniPoly(F, [-k, 1])
        return GeneralCurve(F, "II", a=tuple(pb[6 - i] for i in range(7)))

    def test_moebius_round_trip(self):
        F = GF(1009)
        g = self._sample_curve(F)
        can, pm = to_canonical(g)
        assert can.field.is_zero(can.lam[0])  # x^4 coefficient cancels by design
        checked = 0
        for xv in range(1, 1009):
            x = F.element(xv)
            roots = F.sqrt(g.p_poly().evaluate(x))
            if not roots:
                continue
            y = roots[-1]
            image = pm.forward((x, y))
            assert can.on_curve(image)
            assert pm.inverse(image) == (x, y)
            checked += 1
        assert checked > 400

    def test_rational_example_smallest_root(self):
        Q = QQ()
        g = self._sample_curve(Q)
        can, pm = to_canonical(g)
        assert can.field == Q  # e0 = 0 exists; degree-5 model produced

    def test_no_rational_root_raises_then_extension(self):
        F = GF(7)
        # x^6 + 1 has no root mod 7 (nonzero sixth powers are all 1)
        coeffs = [1, 0, 0, 0, 0, 0, 1]
        vals = {(x ** 6 + 1) % 7 for x in range(7)}
        assert 0 not in vals
        g = GeneralCurve(F, "II", a=tuple(F.element(c) for c in coeffs))
        with pytest.raises(NoRationalRoot):
            to_canonical(g)
        can, pm, lifted = to_canonical_allow_extension(g)
        assert can.field.order() > 7
        # transported points from the lifted model land on the canonical curve
        big = can.field
        checked = 0
        for e in big.elements():
            roots = big.sqrt(lifted.p_poly().evaluate(e))
            if not roots:
                continue
            pt = (e, roots[0])
            try:
                image = pm.forward(pt)
            except DegenerateCurve:
                continue  # exceptional locus
            assert can.on_curve(image)
            checked += 1
        assert checked > 20

    def test_degree5_nonmonic_rescale(self):
        F = GF(11)
        # a0 = 0, a1 = 3: y^2 = 3x^5 + x + 1
        g = GeneralCurve(F, "II", a=tuple(F.element(c) for c in (0, 3, 0, 0, 0, 1, 1)))
        can, pm = to_canonical(g)
        for xv in range(11):
            x = F.element(xv)
            roots = F.sqrt(g.p_poly().evaluate(x))
            for y in roots:
                image = pm.forward((x, y))
                assert can.on_curve(image)
                assert pm.inverse(image) == (x, y)


class TestFormIII:
    def test_composite_round_trip(self, rng):
        F = GF(1009)
        while True:
            a = tuple(F.element(rng.randrange(1009)) for _ in range(7))
            b = tuple(F.element(rng.randrange(1009)) for _ in range(4))
            g = GeneralCurve(F, "III", a=a, b=b)
            try:
                can, pm = to_canonical(g)
                break
            except (NoRationalRoot, DegenerateCurve):
                continue
        two = F.element(2)
        checked = 0
        for xv in range(1009):
            x = F.element(xv)
            qv, pv = g.q_poly().evaluate(x), g.p_poly().evaluate(x)
            roots = F.sqrt(qv * qv + F.element(4) * pv)
            if not roots:
                continue
            y = (qv + roots[0]) / two
            try:
                image = pm.forward((x, y))
            except DegenerateCurve:
                continue
            assert can.on_curve(image)
            assert pm.inverse(image) == (x, y)
            checked += 1
        assert checked > 300

    def test_matches_shift_then_moebius(self, rng):
        # composing III -> II -> canonical equals the direct composite
        F = GF(101)
        while True:
            a = tuple(F.element(rng.randrange(101)) for _ in range(7))
            b = tuple(F.element(rng.randrange(101)) for _ in range(4))
            g3 = GeneralCurve(F, "III", a=a, b=b)
            try:
                can3, pm3 = to_canonical(g3)
                break
            except (NoRationalRoot, DegenerateCurve):
                continue
        # manual: shift by Qbar/2 to form II, then transform
        q = g3.q_poly()
        quarter = UniPoly(F, [c / 4 for c in (q * q).coeffs])
        delta = g3.p_poly() + quarter
        g2 = GeneralCurve(F, "II", a=tuple(delta[6 - i] for i in range(7)))
        can2, pm2 = to_canonical(g2)
        assert can2 == can3
        two = F.element(2)
        for xv in range(101):
            x = F.element(xv)
            qv, pv = g3.q_poly().evaluate(x), g3.p_poly().evaluate(x)
            roots = F.sqrt(qv * qv + F.element(4) * pv)
            if not roots:
                continue
            y = (qv + roots[0]) / two
            shifted = (x, y - q.evaluate(x) / two)
            try:
                assert pm3.forward((x, y)) == pm2.forward(shifted)
            except DegenerateCurve:
                pass


def test_curve_json_round_trip():
    c = CanonicalCurve(GF(11), (0, 0, 0, 0, 1))
    assert curve_from_json(curve_to_json(c)) == c
    F = GF(13)
    g = GeneralCurve(F, "I", nu=tuple(F.element(i) for i in (1, 2, 3, 4, 5, 6, 0, 1)))
    assert curve_from_json(curve_to_json(g)) == g
