import random
from fractions import Fraction

import pytest

from polyring_helpers import (
    RationalPoly,
    RefPoly,
    coeffs_in,
    degree_in,
    det_bareiss,
    from_json,
    monomial,
    partial_derivative,
    reduce_power,
    sylvester_resultant,
    weighted_poly,
)
from g2div.errors import InexactDivision, MixedFields
from g2div.fields import GF, QQ
from g2div.polyring import EXP_BITS, NEG_INF, PolyRing
from g2div.series import sqrt_one_plus, truncated_square


@pytest.fixture
def xy7():
    return PolyRing(GF(7), ("x1", "x2"), (2, 2))


def rand_poly(ring, rng, max_deg=3, coeff_range=7):
    acc = ring.zero()
    nvars = len(ring.variables)
    for _ in range(rng.randrange(1, 7)):
        exp = tuple(rng.randrange(max_deg + 1) for _ in range(nvars))
        acc = acc + monomial(ring, exp, rng.randrange(coeff_range))
    return acc


def test_product_difference_of_squares(xy7):
    g = xy7.gens()
    x1, x2 = g["x1"], g["x2"]
    assert (x1 - x2) * (x1 + x2) == x1 ** 2 - x2 ** 2


def test_exact_divide_difference_quotient(xy7):
    g = xy7.gens()
    x1, x2 = g["x1"], g["x2"]
    q = (x1 ** 5 - x2 ** 5).exact_div(x1 - x2)
    assert q.weighted_degree() == 8 and q.is_homogeneous()
    assert q * (x1 - x2) == x1 ** 5 - x2 ** 5


def test_exact_divide_rejects_nondivisor(xy7):
    g = xy7.gens()
    x1, x2 = g["x1"], g["x2"]
    with pytest.raises(InexactDivision):
        (x1 ** 2 + x2).exact_div(x1 - x2)


def test_ring_axioms_random():
    ring = PolyRing(GF(11), ("a", "b"), (1, 2))
    rng = random.Random(17)
    for _ in range(200):
        p, q, r = (rand_poly(ring, rng, coeff_range=11) for _ in range(3))
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        if not q.is_zero():
            assert (p * q).exact_div(q) == p


def test_weighted_degree_examples():
    ring = PolyRing(QQ(), ("x", "a2", "a4"), (2, 2, 4))
    g = ring.gens()
    r4 = g["x"] ** 2 + g["a2"] * g["x"] + g["a4"]
    assert r4.weighted_degree() == 4 and r4.is_homogeneous()
    assert ring.zero().weighted_degree() == NEG_INF
    lam_ring = PolyRing(QQ(), ("x", "l2", "l4", "l6", "l8", "l10"), (2, 2, 4, 6, 8, 10))
    gg = lam_ring.gens()
    x = gg["x"]
    px = (x ** 5 + gg["l2"] * x ** 4 + gg["l4"] * x ** 3 + gg["l6"] * x ** 2
          + gg["l8"] * x + gg["l10"])
    assert px.weighted_degree() == 10 and px.is_homogeneous()


def test_partial_derivative():
    ring = PolyRing(QQ(), ("x", "y"), (2, 5))
    g = ring.gens()
    x, y = g["x"], g["y"]
    assert partial_derivative(x ** 3, "x") == 3 * x ** 2
    # d_{x1,x2} on symmetric functions: a4 = x1 x2 -> x1 + x2, a2 = -(x1+x2) -> -2
    pair = PolyRing(QQ(), ("x1", "x2"), (2, 2))
    gp = pair.gens()
    x1, x2 = gp["x1"], gp["x2"]
    a4 = x1 * x2
    d = partial_derivative(a4, "x1") + partial_derivative(a4, "x2")
    assert d == x1 + x2
    a2 = -(x1 + x2)
    d2 = partial_derivative(a2, "x1") + partial_derivative(a2, "x2")
    assert d2 == pair.const(-2)


def test_derivative_linear_and_leibniz():
    ring = PolyRing(GF(13), ("u", "v"), (1, 1))
    rng = random.Random(23)
    for _ in range(100):
        p, q = rand_poly(ring, rng, coeff_range=13), rand_poly(ring, rng, coeff_range=13)
        dp = partial_derivative(p, "u")
        dq = partial_derivative(q, "u")
        assert partial_derivative(p + q, "u") == dp + dq
        assert partial_derivative(p * q, "u") == dp * q + p * dq


def test_resultant_linear_convention():
    ring = PolyRing(QQ(), ("x", "a", "b"), (2, 2, 2))
    x, a, b = ring.var("x"), ring.var("a"), ring.var("b")
    assert sylvester_resultant(x - a, x - b, "x") == a - b


def test_resultant_common_root_f7():
    ring = PolyRing(GF(7), ("x",), (2,))
    x = ring.var("x")
    assert sylvester_resultant(x ** 2 - 2, x - 3, "x").is_zero()  # 3^2 = 2 mod 7
    assert not sylvester_resultant(x ** 2 - 3, x - 3, "x").is_zero()


def test_resultant_vanishes_iff_common_factor():
    # oracle: brute-force gcd via factored construction
    ring = PolyRing(GF(11), ("v", "t"), (1, 1))
    v, t = ring.var("v"), ring.var("t")
    rng = random.Random(37)
    for _ in range(60):
        roots_p = [rng.randrange(11) for _ in range(rng.randrange(1, 3))]
        roots_q = [rng.randrange(11) for _ in range(rng.randrange(1, 3))]
        p = ring.one()
        for r in roots_p:
            p = p * (v - ring.const(r) * t)
        q = ring.one()
        for r in roots_q:
            q = q * (v - ring.const(r) * t)
        share = bool(set(roots_p) & set(roots_q))
        assert sylvester_resultant(p, q, "v").is_zero() == share


def test_evaluate():
    ring = PolyRing(GF(13), ("x", "y"), (2, 5))
    g = ring.gens()
    p = g["x"] ** 3 + 2 * g["y"]
    F = GF(13)
    assert p.evaluate({"x": F.element(2), "y": F.element(3)}) == F.element(8 + 6)


def test_reduce_power():
    ring = PolyRing(QQ(), ("x", "y"), (2, 5))
    g = ring.gens()
    x, y = g["x"], g["y"]
    p = y ** 3 + y ** 2 * x + y + 1
    repl = x ** 5 + 1  # stand-in curve relation y^2 = x^5 + 1
    red = reduce_power(p, "y", 2, repl)
    assert degree_in(red, "y") <= 1
    assert red == y * (x ** 5 + 1) + x * (x ** 5 + 1) + y + 1


def test_det_bareiss_matches_cofactor():
    ring = PolyRing(GF(7), ("t",), (1,))
    t = ring.var("t")
    rows = [[t + 1, ring.const(2)], [ring.const(3), t]]
    det = det_bareiss(rows, ring)
    assert det == (t + 1) * t - ring.const(6)


def test_rational_poly_cancel():
    ring = PolyRing(QQ(), ("x1", "x2"), (2, 2))
    g = ring.gens()
    x1, x2 = g["x1"], g["x2"]
    r = RationalPoly(x1 ** 2 - x2 ** 2, x1 - x2)
    assert r.cancel().num == x1 + x2
    assert (r - RationalPoly(x1 + x2)).is_zero()
    assert r.weight() == 2 and r.is_homogeneous()


def test_poly_json_round_trip():
    ring = PolyRing(QQ(), ("x1", "x2"), (2, 2))
    g = ring.gens()
    p = g["x1"] ** 3 - Fraction(1, 2) * g["x2"]
    assert from_json(ring, p.to_json()) == p


def test_text_emitter():
    ring = PolyRing(QQ(), ("x", "y"), (2, 5))
    g = ring.gens()
    text = (g["x"] ** 2 - g["y"]).to_text()
    assert "x^2" in text and "y" in text


def test_series_sqrt_and_mul():
    ring = PolyRing(QQ(), ("l2",), (2,))
    target = [ring.one(), ring.zero(), ring.var("l2")] + [ring.zero()] * 5
    r = sqrt_one_plus(target, Fraction(1, 2))
    assert len(r) == 8
    assert all((a - b).is_zero() for a, b in zip(truncated_square(r), target))


# ---------------------------------------------------------------------------
# the packed, native-coefficient WeightedPoly against the tuple-keyed RefPoly

DIFF_FIELDS = {"Q": QQ(), "F7": GF(7), "F3^2": GF(3, 2)}


def diff_coeff(F, rng):
    """A random coefficient, zero included; over Q a third are non-integral."""
    if F.order() is None:
        return F.element(Fraction(rng.randrange(-9, 10), rng.choice((1, 1, 2, 3, 4))))
    return rng.choice(list(F.elements()))


def diff_poly(ring, rng, terms=6, max_deg=3):
    acc = ring.zero()
    for _ in range(rng.randrange(terms + 1)):
        exp = tuple(rng.randrange(max_deg + 1) for _ in ring.variables)
        acc = acc + monomial(ring, exp, diff_coeff(ring.field, rng))
    return acc


@pytest.fixture(params=sorted(DIFF_FIELDS))
def xyz(request):
    return PolyRing(DIFF_FIELDS[request.param], ("x", "y", "z"), (2, 3, 5))


def test_native_arithmetic_matches_reference(xyz):
    rng = random.Random(101)
    F = xyz.field
    for _ in range(60):
        a, b = diff_poly(xyz, rng), diff_poly(xyz, rng)
        ra, rb = RefPoly.of(a), RefPoly.of(b)
        c = diff_coeff(F, rng)
        k = rng.randrange(4)
        assert RefPoly.of(a + b) == ra + rb
        assert RefPoly.of(a - b) == ra - rb
        assert RefPoly.of(-a) == -ra
        assert RefPoly.of(a * b) == ra * rb
        assert RefPoly.of(a ** k) == ra ** k
        assert RefPoly.of(a * c) == ra.const(c) * ra
        assert RefPoly.of(k - a) == ra.const(k) - ra and RefPoly.of(a - c) == ra - ra.const(c)
        assert RefPoly.of(a.scale(c)) == ra.const(c) * ra
        assert a * b == b * a and (a + b) - b == a


def test_native_exact_div_matches_reference(xyz):
    rng = random.Random(103)
    for _ in range(40):
        q, g = diff_poly(xyz, rng), diff_poly(xyz, rng)
        if g.is_zero():
            continue
        f = q * g
        assert f.exact_div(g) == q
        assert RefPoly.of(f).exact_div(RefPoly.of(g), xyz.weights) == RefPoly.of(q)
        if g.weighted_degree() > 0:
            # f + 1 is 1 mod g, so g does not divide it
            with pytest.raises(InexactDivision):
                (f + 1).exact_div(g)
            with pytest.raises(InexactDivision):
                RefPoly.of(f + 1).exact_div(RefPoly.of(g), xyz.weights)


def test_native_substitute_evaluate_coeffs_in(xyz):
    rng = random.Random(109)
    F = xyz.field
    for _ in range(30):
        p = diff_poly(xyz, rng)
        ref = RefPoly.of(p)
        point = [diff_coeff(F, rng) for _ in range(3)]
        assert p.evaluate(dict(zip(xyz.variables, point))) == ref.evaluate(point)
        for i, name in enumerate(xyz.variables):
            coeffs = coeffs_in(p, name)
            assert [RefPoly.of(c) for c in coeffs] == ref.coeffs_in(i)
            # rebuilt from its exponent tuples, each equals itself term for term
            assert all(c == weighted_poly(xyz, dict(c.sorted_terms())) for c in coeffs + [p])


def test_native_json_round_trip_and_order(xyz):
    rng = random.Random(127)
    F = xyz.field
    for _ in range(30):
        p = diff_poly(xyz, rng)
        obj = p.to_json()
        assert from_json(xyz, obj) == p
        ref = RefPoly.of(p).terms
        order = sorted(ref, key=lambda e: (sum(a * w for a, w in zip(e, xyz.weights)), e),
                       reverse=True)
        assert obj["terms"] == [{"exps": list(e), "coeff": F.to_str(ref[e])} for e in order]
        assert [e for e, _ in p.sorted_terms()] == order
        w = {sum(a * b for a, b in zip(e, xyz.weights)) for e in ref}
        assert p.is_homogeneous() == (len(w) <= 1)
        assert p.weighted_degree() == (max(w) if w else NEG_INF)


def test_exponent_overflow_raises():
    ring = PolyRing(GF(7), ("x", "y"), (2, 3))
    x, y = ring.var("x"), ring.var("y")
    top = 2 ** EXP_BITS - 1
    assert degree_in(monomial(ring, (top, 1)), "x") == top
    assert degree_in(x ** top * y, "x") == top
    with pytest.raises(OverflowError):
        monomial(ring, (top + 1, 0))
    with pytest.raises(OverflowError):
        x ** (top + 1)
    with pytest.raises(OverflowError):
        x ** 2 ** (EXP_BITS - 1) * x ** 2 ** (EXP_BITS - 1)
    with pytest.raises(OverflowError):  # a slot that fills must not carry into y
        (x ** top + y) * (x + 1)
    with pytest.raises(OverflowError):
        monomial(ring, (-1, 0))
    with pytest.raises(InexactDivision):  # a negative slot
        (x * y ** 2).exact_div(x ** 2 * y)


def test_separately_built_equal_rings_do_not_mix():
    # rings compare by identity: two rings built alike are still two rings
    R, S = (PolyRing(GF(7), ("x1", "x2"), (2, 2)) for _ in range(2))
    a, b = R.var("x1"), S.var("x1")
    for op in (lambda: a + b, lambda: a * b, lambda: a == b):
        with pytest.raises(MixedFields):
            op()
    assert R != S and R == R and a == R.var("x1")


def test_eq_against_field_scalars():
    R = PolyRing(GF(7), ("x",), (1,))
    assert R.one() == GF(7).one and R.one() == 1 and R.one() == Fraction(8, 1)
    assert R.const(3) == GF(7).element(3) and R.const(3) != GF(7).element(4)
    assert (R.one() == Fraction(1, 7)) is False
    assert R.var("x") != 1 and R.zero() == 0
    with pytest.raises(MixedFields):
        R.one() == GF(11).one
    Q = PolyRing(QQ(), ("x",), (1,))
    assert Q.const(Fraction(1, 2)) == Fraction(1, 2) and Q.const(Fraction(1, 2)) == QQ().element(Fraction(2, 4))
