"""UniPoly, the Cantor oracle and the group law's single-point branches
compute on native values end to end.

Over F_p the natives are ints, so between a divisor's Mumford coordinates
and the coordinates of the sum the oracle builds no FieldElement: the
polynomial constants, monic, xgcd's normalization, the curve's natives and
the Mumford bridge stay native, and to_mumford's record holds natives too.
CantorDivisor holds its coefficients' natives, so the oracle builds no
UniPoly there either.  add_traced's sums with a single point build no
FieldElement.
"""
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import random_point
from g2div import cantor, unipoly
from g2div.cantor import cantor_add, cantor_neg, from_mumford, to_mumford
from g2div.curves import CanonicalCurve
from g2div.divisors import MumfordDivisor, mumford_from_points
from g2div.grouplaw import add_traced, double_traced
from g2div.extension import ExtensionField
from g2div.fields import GF, QQ, Field, FieldElement, FieldSpec
from g2div.unipoly import UniPoly, gcd, xgcd
from test_op_counts import CountingPrimeField


@contextmanager
def counting_elements():
    """Counts FieldElement constructions inside the block."""
    built = [0]
    init = FieldElement.__init__

    def counted(self, field, value):
        built[0] += 1
        init(self, field, value)

    FieldElement.__init__ = counted
    try:
        yield built
    finally:
        FieldElement.__init__ = init


@contextmanager
def counting_polys():
    """Counts UniPoly constructions inside the block: the constructor and
    _poly, which every other way of making one calls, in each module that
    holds it."""
    built = [0]
    init, make = UniPoly.__init__, unipoly._poly

    def counted_init(self, field, coeffs):
        built[0] += 1
        init(self, field, coeffs)

    def counted_make(field, cs):
        built[0] += 1
        return make(field, cs)

    holders = [m for m in (unipoly, cantor) if getattr(m, "_poly", None) is make]
    UniPoly.__init__ = counted_init
    for m in holders:
        m._poly = counted_make
    try:
        yield built
    finally:
        UniPoly.__init__ = init
        for m in holders:
            m._poly = make


def _f1009_inputs():
    """A curve over GF(1009) and four points with distinct x and y != 0."""
    F = GF(1009)
    curve = CanonicalCurve(F, (1, 2, 3, 4, 5))
    rng = random.Random(1009)
    pts = []
    while len(pts) < 4:
        p = random_point(curve, rng, nonzero_y=True)
        if all(p[0] != q[0] for q in pts):
            pts.append(p)
    return curve, pts


def test_oracle_builds_no_element_between_coordinates():
    curve, (p1, p2, p3, p4) = _f1009_inputs()
    D = mumford_from_points(curve, p1, p2)
    pairs = {"generic": (D, mumford_from_points(curve, p3, p4)),
             "double": (D, D),
             "shared factor": (D, mumford_from_points(curve, p1, p3))}
    for how, (a, b) in pairs.items():
        with counting_elements() as built:
            s = cantor_add(from_mumford(a), from_mumford(b), curve)
        assert built[0] == 0, how
        with counting_elements() as built:
            m = to_mumford(s)
        assert built[0] == 0, how
        assert how == "double" or m.is_nonspecial()
    F = curve.field
    for m in (MumfordDivisor.special(F, *p1), MumfordDivisor.neutral(F)):
        c = from_mumford(m)
        with counting_elements() as built:
            assert to_mumford(c) == m
        assert built[0] == 0


def test_oracle_sweep_check_builds_no_polynomial():
    # oracle-sweep's check of one operation over F_1009, on every kind of
    # operand it meets, runs on the records' natives from end to end
    curve, (p1, p2, p3, p4) = _f1009_inputs()
    F = curve.field
    D = mumford_from_points(curve, p1, p2)
    S, O = MumfordDivisor.special(F, *p3), MumfordDivisor.neutral(F)
    pairs = [(D, mumford_from_points(curve, p3, p4)), (D, D), (D, mumford_from_points(curve, p1, p3)),
             (D, mumford_from_points(curve, (p1[0], -p1[1]), p3)), (D, S), (S, S),
             (S, MumfordDivisor.special(F, *p4)), (D, O), (O, O)]
    with counting_polys() as built, counting_elements() as elements:
        sums = [to_mumford(cantor_add(from_mumford(a), from_mumford(b), curve)) for a, b in pairs]
        negs = [cantor_neg(from_mumford(a)) for a, _ in pairs]
    assert built[0] == 0 and elements[0] == 0
    assert sums == [add_traced(a, b, curve)[0] for a, b in pairs]
    with counting_polys() as built:
        negs[0].u, negs[0].v, UniPoly(F, [1, 2]), UniPoly.one(F)
    assert built[0] == 4  # the counter sees the record's UniPolys built on access


def test_single_point_branches_build_no_element():
    # add_traced's add_special, support_overlap and add_points branches and
    # double_traced's single-point branch run on the operands' natives over
    # F_p, the off-curve check of a single point included
    curve, (p1, p2, p3, p4) = _f1009_inputs()
    F = curve.field

    def S(pt):
        return MumfordDivisor.special(F, *pt)

    P, twice = mumford_from_points(curve, p1, p2), mumford_from_points(curve, p1, p1)
    cases = [("add_special", P, S(p3)), ("add_special", S(p4), P),
             ("support_overlap", P, S(p1)), ("support_overlap", P, S((p1[0], -p1[1]))),
             ("support_overlap", twice, S(p1)),
             ("support_overlap", P, mumford_from_points(curve, p1, p3)),
             ("support_overlap", P, mumford_from_points(curve, (p1[0], -p1[1]), p3)),
             ("add_points", S(p1), S(p3)), ("add_points", S(p1), S(p1))]
    for tag, a, b in cases:
        with counting_elements() as built:
            got = add_traced(a, b, curve)
        assert built[0] == 0 and got[1] == tag, (tag, a, b)
        assert got[0] == to_mumford(cantor_add(from_mumford(a), from_mumford(b), curve))
    with counting_elements() as built:
        got = double_traced(S(p1), curve)
    assert built[0] == 0 and got == (add_traced(S(p1), S(p1), curve)[0], "double")


def test_polynomial_constants_gcd_and_monic_build_no_element():
    # over Q the native inverse is a Fraction (or an int), so the
    # normalizations stay native there too
    for F in (GF(1009), QQ()):
        a = UniPoly(F, [3, 5, 7, 11])
        b = UniPoly(F, [2, 1]) * UniPoly(F, [6, 0, 4])
        with counting_elements() as built:
            UniPoly.one(F), UniPoly.zero(F), UniPoly.x(F)
            gcd(a * b, b * b), xgcd(a, b)
            a % b, b % a
            a.monic(), b.monic()
        assert built[0] == 0, F


FIELDS = [GF(1009), QQ(), GF(31, 2)]


@pytest.mark.parametrize("F", FIELDS, ids=lambda f: f.short_name())
def test_native_constants_match_coerced(F):
    for fast, slow in ((UniPoly.one(F), UniPoly(F, [1])), (UniPoly.zero(F), UniPoly(F, [])),
                       (UniPoly.x(F), UniPoly(F, [0, 1]))):
        assert fast._c == slow._c
        assert [type(c) for c in fast._c] == [type(c) for c in slow._c]


def _rand_elem(F, rng):
    if F.order() is None:
        return F.element(Fraction(rng.randrange(-30, 31), rng.randrange(1, 12)))
    return F._element_at(rng.randrange(F.order()))


@pytest.mark.parametrize("F", FIELDS, ids=lambda f: f.short_name())
def test_monic_matches_scaling_by_inverse_lead(F):
    rng = random.Random(50)
    for _ in range(50):
        p = UniPoly(F, [_rand_elem(F, rng) for _ in range(rng.randrange(1, 7))])
        if p.is_zero():
            assert p.monic() is p
            continue
        m = p.monic()
        assert m == p.scale(F.inv(p.lead()))
        assert m.lead() == F.one and m.monic() is m
        assert not any(isinstance(c, float) for c in m._c)


def test_every_field_sets_native_one():
    assert not hasattr(Field, "_native_one")
    built = [GF(7), GF(1009), GF(3, 3), GF(31, 2), QQ(), FieldSpec("prime", p=13).build(),
             FieldSpec("rational").build(), GF(7, 2).spec.build(),
             CountingPrimeField(FieldSpec("prime", p=11))]
    for F in built:
        assert "_native_one" in vars(F), F
        assert F.coerce(F._native_one) == F.one


def test_chord_inverts_once(monkeypatch):
    F = GF(31, 2)
    curve = CanonicalCurve(F, (1, 2, 3, 4, 5))
    rng = random.Random(31)
    p1 = random_point(curve, rng)
    p2 = random_point(curve, rng)
    while p2[0] == p1[0]:
        p2 = random_point(curve, rng)
    want = mumford_from_points(curve, p1, p2)
    calls = [0]
    inv = ExtensionField.inv

    def counted(self, a):
        calls[0] += 1
        return inv(self, a)

    monkeypatch.setattr(ExtensionField, "inv", counted)
    assert mumford_from_points(curve, p1, p2) == want
    assert calls[0] == 1
    x1, y1 = p1
    x2, y2 = p2
    assert want.b3 == -(y1 - y2) / (x1 - x2)
    assert want.b5 == (x2 * y1 - x1 * y2) / (x1 - x2)
