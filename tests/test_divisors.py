import json
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import random_divisor
from grouplaw_helpers import du_derivative
from polyring_helpers import RationalPoly, reduce_power
from g2div.curves import CanonicalCurve, curve_from_json
from g2div.divisors import (
    MumfordDivisor,
    divisor_from_json,
    divisor_to_json,
    jacobian_residuals,
    mumford_from_points,
    negate,
    points_from_mumford,
)
from g2div.errors import InvolutionPair, OffCurve
from g2div.fields import GF, QQ, FieldElement
from g2div.grouplaw import _double_generic, add, double_traced
from g2div.polyring import PolyRing


def test_mumford_from_points_frozen_example(c7, f7):
    D = mumford_from_points(c7, (f7.element(0), f7.element(1)), (f7.element(1), f7.element(3)))
    assert [c.value for c in D.coords] == [6, 0, 5, 6]
    j8, j10 = jacobian_residuals(D, c7)
    assert f7.is_zero(j8) and f7.is_zero(j10)


def test_mumford_branch_point_pair(c7, f7):
    # (6,0) + (0,1): b3 = 6^{-1} = 6
    D = mumford_from_points(c7, (f7.element(6), f7.element(0)), (f7.element(0), f7.element(1)))
    assert D.b3.value == 6


def test_involution_pair_rejected(c7, f7):
    with pytest.raises(InvolutionPair):
        mumford_from_points(c7, (f7.element(0), f7.element(1)), (f7.element(0), f7.element(6)))
    with pytest.raises(InvolutionPair):
        # repeated branch point is its own involute
        mumford_from_points(c7, (f7.element(6), f7.element(0)), (f7.element(6), f7.element(0)))


def test_off_curve_rejected(c7, f7):
    with pytest.raises(OffCurve):
        mumford_from_points(c7, (f7.element(2), f7.element(1)), (f7.element(0), f7.element(1)))


def test_repeated_point_tangent_limit(c7, f7):
    pt = (f7.element(1), f7.element(3))
    D = mumford_from_points(c7, pt, pt)
    # b3 = -P'(1)/(2*3) with P' = 5x^4
    assert D.b3 == -c7.dp_at(pt[0]) / (f7.element(6))
    j8, j10 = jacobian_residuals(D, c7)
    assert f7.is_zero(j8) and f7.is_zero(j10)


def test_points_round_trip(c1009, rng):
    for _ in range(200):
        D = random_divisor(c1009, rng)
        (p1, p2, big, emb) = points_from_mumford(D, c1009)
        assert emb is None
        assert mumford_from_points(c1009, p1, p2) == D


def test_points_from_irreducible_u(c7, f7):
    D = MumfordDivisor.nonspecial(f7, 0, 1, 0, 0)  # u = x^2 + 1 irreducible mod 7
    (p1, p2, big, emb) = points_from_mumford(D, c7)
    assert big.order() == 49 and emb is not None
    assert big.is_zero(p1[0] * p1[0] + big.one)
    assert p2[0] == big.frobenius(p1[0])


def test_quadratic_roots_rational():
    Q = QQ()
    c = CanonicalCurve(Q, (0, 0, 0, 0, 1))
    D = MumfordDivisor.nonspecial(Q, 0, -1, 0, -1)  # x^2 - 1; y = 1 at both
    (p1, p2, big, emb) = points_from_mumford(D, c)
    assert {p1[0].value, p2[0].value} == {1, -1}


def test_negate(c7, f7):
    D = MumfordDivisor.nonspecial(f7, 6, 0, 5, 6)
    assert [c.value for c in negate(D).coords] == [6, 0, 2, 1]
    S = MumfordDivisor.special(f7, 6, 0)
    assert negate(S) == S
    O = MumfordDivisor.neutral(f7)
    assert negate(O) == O
    assert negate(negate(D)) == D


def test_negate_fixed_points_are_two_torsion(c1009, rng):
    for _ in range(100):
        D = random_divisor(c1009, rng)
        fixed = negate(D) == D
        assert fixed == (c1009.field.is_zero(D.b3) and c1009.field.is_zero(D.b5))


def test_jacobian_residuals_zero_tuple_example():
    F = GF(7)
    c = CanonicalCurve(F, (0, 0, 0, 0, 1))
    D = MumfordDivisor.nonspecial(F, 0, 0, 0, 0)
    j8, j10 = jacobian_residuals(D, c)
    assert j8.value == 0 and j10 == F.element(-1)


def test_random_offmodel_tuples_fail(c1009, rng):
    F = c1009.field
    hits = 0
    for _ in range(300):
        D = MumfordDivisor.nonspecial(F, *(F.element(rng.randrange(1009)) for _ in range(4)))
        j8, j10 = jacobian_residuals(D, c1009)
        if F.is_zero(j8) and F.is_zero(j10):
            hits += 1
    assert hits <= 3  # random 4-tuples are almost never on the model


def test_jacobian_model_symbolic_identity():
    # substituting the two-point coordinate formulas into J8, J10 and reducing
    # modulo the curve relations yields zero
    ring = PolyRing(QQ(), ("x1", "y1", "x2", "y2", "l2", "l4", "l6", "l8", "l10"),
                    (2, 5, 2, 5, 2, 4, 6, 8, 10))
    g = ring.gens()
    x1, y1, x2, y2 = g["x1"], g["y1"], g["x2"], g["y2"]
    lam = [g["l2"], g["l4"], g["l6"], g["l8"], g["l10"]]

    def p_of(x):
        return x ** 5 + lam[0] * x ** 4 + lam[1] * x ** 3 + lam[2] * x ** 2 + lam[3] * x + lam[4]

    dx = RationalPoly(x1 - x2)
    a2 = RationalPoly(-(x1 + x2))
    a4 = RationalPoly(x1 * x2)
    b3 = RationalPoly(-(y1 - y2)) / dx
    b5 = RationalPoly(x2 * y1 - x1 * y2) / dx
    bracket = (b3 * b3 + a2 ** 3 - 4 * a2 * a4
               + lam[0] * (2 * a4 - a2 * a2) + lam[1] * a2 - lam[2])
    j8 = 2 * b3 * b5 - a2 * a2 * a4 - a4 * a4 + lam[1] * a4 - lam[3] - a2 * bracket
    j10 = b5 * b5 - 2 * a2 * a4 * a4 + lam[0] * a4 * a4 - lam[4] - a4 * bracket
    for expr in (j8, j10):
        num = expr.num
        num = reduce_power(num, "y1", 2, p_of(x1))
        num = reduce_power(num, "y2", 2, p_of(x2))
        assert num.is_zero()


def test_du_derivative_identities(c1009, rng):
    F = c1009.field
    for _ in range(100):
        D = random_divisor(c1009, rng)
        if F.is_zero(D.b3 * D.b3 * D.a4 - D.a2 * D.b3 * D.b5 + D.b5 * D.b5):
            continue  # branch point in support
        da2, da4 = du_derivative(D, "u1", c1009)
        assert da2 == -2 * D.b3
        assert da4 == -2 * D.b5


def test_du_derivative_numeric_example(c7, f7):
    D = mumford_from_points(c7, (f7.element(0), f7.element(1)), (f7.element(1), f7.element(3)))
    da2, da4 = du_derivative(D, "u1", c7)
    assert da2.value == 4  # -2*5 mod 7
    # u3 direction from the chain rule entries
    da2_3, da4_3 = du_derivative(D, "u3", c7)
    (p1, p2, _, _) = points_from_mumford(D, c7)
    (x1, y1), (x2, y2) = p1, p2
    dx = x1 - x2
    assert da2_3 == -((2 * x2 * y1) / dx + (-2 * x1 * y2) / dx)


def test_divisor_json_round_trip(f7):
    for d in (MumfordDivisor.neutral(f7),
              MumfordDivisor.special(f7, 6, 0),
              MumfordDivisor.nonspecial(f7, 6, 0, 5, 6)):
        assert divisor_from_json(f7, divisor_to_json(d)) == d


def test_irreducible_support_reuses_one_embedding():
    F = GF(13, 2)
    curve = CanonicalCurve(F, (1, 2, 3, 4, 5))
    rng = random.Random(11)
    while True:
        D = add(random_divisor(curve, rng), random_divisor(curve, rng), curve)
        if D.is_nonspecial() and not F.sqrt(D.a2 * D.a2 - 4 * D.a4):
            break
    first, second = points_from_mumford(D, curve), points_from_mumford(D, curve)
    assert first[3] is not None and first[3] is second[3]
    assert first == second


# ---------------------------------------------------------------------------
# the record stores the field's reduced natives; coords builds elements

DATA = Path(__file__).parent / "data"


def _doubles():
    """(D, K) over GF(7), GF(7, 2) and Q: K = 2D, a record the doubling
    kernel built from natives.  Over Q, D is the 3-torsion fixture, whose
    b3 = 3/2 is not an integer."""
    out = []
    for F in (GF(7), GF(7, 2)):
        curve = CanonicalCurve(F, (1, 2, 3, 4, 5))
        rng = random.Random(7)
        while True:
            D = random_divisor(curve, rng)
            s = _double_generic(F, curve.native, D.native)
            if type(s) is tuple:
                break
        out.append((D, double_traced(D, curve)[0]))
    curve = curve_from_json(json.loads((DATA / "q_three_torsion.json").read_text()))
    D = divisor_from_json(QQ(), json.loads((DATA / "q_three_torsion_d.json").read_text()))
    out.append((D, double_traced(D, curve)[0]))
    return out


def test_record_holds_reduced_natives():
    cases = _doubles()
    for D, K in cases:
        F = D.field
        for R in (D, K):
            assert R.coords == (R.a2, R.a4, R.b3, R.b5)
            assert all(type(c) is FieldElement and c.field is F for c in R.coords)
            assert R.native == tuple(map(F._native, R.coords))
            if F is GF(7):
                assert type(R.native[0]) is int and all(0 <= c < 7 for c in R.native)
            elif F is QQ():
                assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in R.native)
            else:
                assert R.native == R.coords  # over F_{p^k} a native is its element
    D = cases[-1][0]
    assert D.native[2] == Fraction(3, 2) and type(D.native[0]) is int


def test_element_built_record_equals_kernel_built():
    for _, K in _doubles():
        F = K.field
        built = [MumfordDivisor.nonspecial(F, *K.coords),
                 MumfordDivisor.nonspecial(F, *map(F.from_str, map(F.to_str, K.coords))),
                 MumfordDivisor(F, "nonspecial", K.native)]
        if F is GF(7):  # unreduced ints
            built.append(MumfordDivisor.nonspecial(F, *(c - 14 for c in K.native)))
        if F is QQ():  # integral coordinates as Fractions
            built.append(MumfordDivisor.nonspecial(F, *map(Fraction, K.native)))
        for B in built:
            assert B == K and hash(B) == hash(K) and len({B, K}) == 1


def test_records_pickle_hash_and_compare_over_three_fields():
    for D, K in _doubles():
        F = D.field
        x = F.element(Fraction(1, 3)) if F is QQ() else F.element(3)
        for R in (D, K, negate(K), MumfordDivisor.special(F, x, 2), MumfordDivisor.neutral(F)):
            back = pickle.loads(pickle.dumps(R))
            assert back == R and hash(back) == hash(R) and type(back) is MumfordDivisor
            assert back.field is F and back.native == R.native
            assert [type(c) for c in back.native] == [type(c) for c in R.native]
            assert divisor_from_json(F, divisor_to_json(R)) == R
