import json
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import random_divisor, random_point
from g2div.cantor import (
    CantorDivisor,
    brute_force_n_torsion,
    cantor_add,
    cantor_neg,
    cantor_scalar_mul,
    count_points_on_curve,
    enumerate_jacobian,
    from_mumford,
    jacobian_order_from_zeta,
    neutral_divisor,
    to_mumford,
)
from g2div.curves import CanonicalCurve, curve_from_json
from g2div.divisors import MumfordDivisor, divisor_from_json
from g2div.errors import DegenerateCurve, SerializationError, UnsupportedField
from g2div.fields import GF, QQ
from g2div.unipoly import UniPoly


def is_valid(d: CantorDivisor, curve: CanonicalCurve) -> bool:
    """Mumford compatibility: u | v^2 - P and deg v < deg u (or v = 0)."""
    if d.u.degree() > 2:
        return False
    if d.v.degree() >= max(d.u.degree(), 1) and not d.v.is_zero():
        return False
    return ((d.v * d.v - curve.px()) % d.u).is_zero()


@pytest.fixture(scope="module")
def jac7():
    curve = CanonicalCurve(GF(7), (0, 0, 0, 0, 1))
    return curve, enumerate_jacobian(curve)


def test_enumeration_within_weil_bound(jac7):
    curve, els = jac7
    n = len(els)
    assert (7 ** 0.5 - 1) ** 4 <= n <= (7 ** 0.5 + 1) ** 4
    assert sum(1 for d in els if d.degree() == 0) == 1
    assert all(is_valid(d, curve) for d in els)


def test_order_matches_zeta(jac7):
    curve, els = jac7
    assert len(els) == jacobian_order_from_zeta(curve) == 50
    for lam in ((1, 1, 1, 0, 2), (0, 0, 0, 1, 0)):
        c = CanonicalCurve(GF(7), lam)
        assert len(enumerate_jacobian(c)) == jacobian_order_from_zeta(c)


def test_point_count_includes_infinity():
    curve = CanonicalCurve(GF(7), (0, 0, 0, 0, 1))
    affine = sum(1 for x in GF(7).elements() for y in GF(7).elements()
                 if curve.on_curve((x, y)))
    assert count_points_on_curve(curve) == affine + 1


def test_group_axioms_exhaustive(jac7):
    # full 50x50 addition table, then every axiom on every triple by lookup
    curve, els = jac7
    n = len(els)
    index = {d: i for i, d in enumerate(els)}
    O = index[neutral_divisor(curve.field)]
    table = [[0] * n for _ in range(n)]
    for i, a in enumerate(els):
        for j, b in enumerate(els):
            s = cantor_add(a, b, curve)
            assert is_valid(s, curve)
            table[i][j] = index[s]
    for i in range(n):
        assert table[i][O] == i and table[O][i] == i
        assert index[cantor_neg(els[i])] in [j for j in range(n) if table[i][j] == O]
        for j in range(n):
            assert table[i][j] == table[j][i]
    for i in range(n):
        ti = table[i]
        for j in range(n):
            tij = table[ti[j]]
            tj = table[j]
            for k in range(n):
                assert tij[k] == ti[tj[k]]


def test_scalar_mul_matches_iteration(jac7):
    curve, els = jac7
    d = els[7]
    acc = neutral_divisor(curve.field)
    for n in range(12):
        assert cantor_scalar_mul(n, d, curve) == acc
        acc = cantor_add(acc, d, curve)


def test_mumford_bridge_bijection(jac7):
    curve, els = jac7
    seen = set()
    for d in els:
        m = to_mumford(d)
        assert from_mumford(m) == d
        seen.add(m.sort_key())
    assert len(seen) == len(els)


def test_bridge_sign_convention(jac7):
    # v(x) = -b3 x - b5: the line through the support
    curve, els = jac7
    for d in els:
        if d.degree() != 2:
            continue
        m = to_mumford(d)
        assert d.v[1] == -m.b3 and d.v[0] == -m.b5


def test_brute_force_torsion_counts(jac7):
    curve, els = jac7
    assert len(brute_force_n_torsion(curve, 1, els)) == 1
    t2 = brute_force_n_torsion(curve, 2, els)
    assert len(t2) == 1  # single rational branch point over F7
    t5 = brute_force_n_torsion(curve, 5, els)
    assert len(t5) == 4
    assert len(brute_force_n_torsion(curve, 3, els)) == 0  # 3 does not divide 50


def test_two_torsion_splitting_field_count():
    # P splits over F11: fifteen 2-torsion classes
    curve = CanonicalCurve(GF(11), (0, 0, 0, 0, 1))
    els = enumerate_jacobian(curve)
    assert len(brute_force_n_torsion(curve, 2, els)) == 15


def test_enumeration_cap():
    with pytest.raises(UnsupportedField):
        enumerate_jacobian(CanonicalCurve(GF(37), (0, 0, 0, 0, 1)))


def test_matches_coordinate_law_on_random_f1009(c1009, rng):
    # the oracle agrees with the coordinate laws (sampled; the exhaustive
    # version is the acceptance suite's first criterion)
    from g2div.grouplaw import add
    for _ in range(50):
        P, Q = random_divisor(c1009, rng), random_divisor(c1009, rng)
        lhs = add(P, Q, c1009)
        rhs = to_mumford(cantor_add(from_mumford(P), from_mumford(Q), c1009))
        assert lhs == rhs


def scan_with_unipoly(curve):
    """enumerate_jacobian's loops with every candidate built and tested as
    UniPolys: (v^2 - P) mod u == 0."""
    F = curve.field
    f = curve.px()
    out = [neutral_divisor(F)]
    for a in F.elements():
        for c in F.sqrt(f.evaluate(a)):
            out.append(CantorDivisor(UniPoly(F, [-a, 1]), UniPoly(F, [c])))
    for u1 in F.elements():
        for u0 in F.elements():
            u = UniPoly(F, [u0, u1, 1])
            for v1 in F.elements():
                for v0 in F.elements():
                    v = UniPoly(F, [v0, v1])
                    if ((v * v - f) % u).is_zero():
                        out.append(CantorDivisor(u, v))
    return out


def test_native_scan_matches_unipoly_scan():
    rng = random.Random(41)
    checked = 0
    while checked < 7:
        p = rng.choice((3, 7, 11))
        try:
            curve = CanonicalCurve(GF(p), tuple(rng.randrange(p) for _ in range(5)))
        except DegenerateCurve:
            continue
        els = enumerate_jacobian(curve)
        assert els == scan_with_unipoly(curve)  # same divisors in the same order
        assert all(is_valid(d, curve) for d in els)
        checked += 1


# ---------------------------------------------------------------------------
# the record: (field, u natives, v natives), u and v built on access

DATA = Path(__file__).parent / "data"


def seeded_divisors(curve, seed, count=30):
    """Mumford divisors over the curve's finite field: degree 2 from two
    points, single points and the neutral class."""
    rng, F = random.Random(seed), curve.field
    out = [MumfordDivisor.neutral(F)]
    while len(out) < count:
        out.append(random_divisor(curve, rng) if len(out) % 3 else
                   MumfordDivisor.special(F, *random_point(curve, rng)))
    return out


def q_divisors():
    """The Q fixtures' divisors and their multiples, with non-integral
    coordinates, and the neutral class."""
    out = []
    for name in ("three", "four"):
        curve = curve_from_json(json.loads((DATA / f"q_{name}_torsion.json").read_text()))
        d = divisor_from_json(QQ(), json.loads((DATA / f"q_{name}_torsion_d.json").read_text()))
        c = from_mumford(d)
        out += [(curve, to_mumford(cantor_scalar_mul(n, c, curve))) for n in range(5)]
    return out


def test_bridge_round_trip_beyond_f7():
    # over F_7 test_mumford_bridge_bijection round-trips every divisor
    for q, lam, seed in ((7, 2, 72), (3, 3, 33)):
        c = CanonicalCurve(GF(q, lam), (1, 2, 0, 1, 1))
        for m in seeded_divisors(c, seed):
            d = from_mumford(m)
            assert to_mumford(d) == m and from_mumford(to_mumford(d)) == d
    ms = q_divisors()
    assert any(type(x) is Fraction for _, m in ms for x in m.native)
    for _, m in ms:
        assert to_mumford(from_mumford(m)) == m


def test_record_holds_natives():
    F = GF(7)
    d = from_mumford(MumfordDivisor.nonspecial(F, 6, 0, 5, 6))
    assert d == (F, (0, 6, 1), (1, 2)) and d.degree() == 2
    assert d.u == UniPoly(F, [0, 6, 1]) and d.v == UniPoly(F, [1, 2])
    assert d != (d.u, d.v)  # the items are natives, not the two UniPolys
    assert CantorDivisor(d.u, d.v) == d
    assert from_mumford(MumfordDivisor.special(F, 3, 0)) == (F, (4, 1), ())
    assert neutral_divisor(F) == (F, (1,), ()) and neutral_divisor(F).degree() == 0


def test_constructor_rejects_non_monic_u():
    for F in (GF(7), GF(7, 2), QQ()):
        with pytest.raises(SerializationError):
            CantorDivisor(UniPoly(F, [1, 2]), UniPoly.zero(F))
        with pytest.raises(SerializationError):
            CantorDivisor(UniPoly(F, [3, 1, 5]), UniPoly(F, [1]))


def test_record_pickles(jac7):
    curve, els = jac7
    c49 = CanonicalCurve(GF(7, 2), (1, 2, 0, 1, 1))
    ds = els + [from_mumford(m) for m in seeded_divisors(c49, 49, 10)]
    ds += [from_mumford(m) for _, m in q_divisors()]
    for d in ds:
        back = pickle.loads(pickle.dumps(d))
        assert back == d and hash(back) == hash(d) and type(back) is CantorDivisor
        assert back.field is d.field
