"""Seeded property tests of the torsion checks on constructed curves.

Each example is a curve built around a divisor D of known order n = 3 or 4
by tests/torsion_construction.py, over F_p (p from 7 to 2^127 - 1), F_{p^2}
or Q; a singular curve is redrawn.  derandomize=True makes every run draw
the same examples.
"""
import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_divisor
from torsion_construction import (CONSTRUCTIONS, IntsModP, QuadraticExtension, Rationals,
                                   curve_json, divisor_json)
from g2div import cli
from g2div.cantor import brute_force_n_torsion, cantor_scalar_mul, from_mumford, to_mumford
from g2div.curves import curve_from_json
from g2div.divisors import MumfordDivisor, divisor_from_json, is_on_jacobian, negate, points_from_mumford
from g2div.errors import DegenerateCurve, GammaUndefined
from g2div.fields import is_prime
from g2div.grouplaw import add
from g2div.torsion import (emit_division_polynomials, find_n_torsion, four_torsion_residuals,
                           is_torsion, three_torsion_mumford_residuals)

SEEDED = settings(derandomize=True, deadline=None, database=None)


def _next_prime(x):
    while not is_prime(x):
        x += 1
    return x


def primes(top):
    """A prime from 7 to the prime top: either end, or the next prime after a
    number of a drawn bit length, which top bounds."""
    drawn = (st.integers(3, top.bit_length())
             .flatmap(lambda b: st.integers(max(7, 2 ** (b - 1)), 2 ** b - 1))
             .map(_next_prime))
    return st.sampled_from((7, top)) | drawn


ARITHMETICS = {
    "prime": primes(2 ** 127 - 1).map(IntsModP),
    "extension": primes(2 ** 61 - 1).map(QuadraticExtension),
    "rational": st.just(Rationals()),
}


def fields(*kinds):
    return st.sampled_from(kinds).flatmap(ARITHMETICS.get)


@st.composite
def constructions(draw, arithmetic=fields("extension", "prime", "rational"), ns=(3, 4), variant=None):
    """(A, construction, curve, D): D of order n on a nonsingular curve."""
    A = draw(arithmetic)
    n = draw(st.sampled_from(ns))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    while True:
        c = CONSTRUCTIONS[n](A, rng, variant)
        try:
            curve = curve_from_json(curve_json(A, c))
        except DegenerateCurve:  # P has a repeated root
            continue
        return A, c, curve, divisor_from_json(curve.field, divisor_json(A, c))


def _residuals(d, n, curve):
    return three_torsion_mumford_residuals(d, curve) if n == 3 else four_torsion_residuals(d, curve)[1]


def _branch_point_in_support(d):
    # y1*y2 = (b3*x1 + b5)(b3*x2 + b5) = b3^2*a4 - a2*b3*b5 + b5^2
    a2, a4, b3, b5 = d.coords
    return d.field.is_zero(b3 * b3 * a4 - a2 * b3 * b5 + b5 * b5)


@settings(SEEDED, max_examples=60)
@given(constructions())
def test_constructed_divisor_has_order_n(case):
    _, c, curve, D = case
    F, n = curve.field, c.n
    assert is_on_jacobian(D, curve) and is_torsion(D, n, curve)
    try:
        assert all(F.is_zero(r) for r in _residuals(D, n, curve))
        assert n == 3 or four_torsion_residuals(D, curve)[0] == "nonspecial"
    except GammaUndefined:
        assert _branch_point_in_support(D)
    C = from_mumford(D)
    assert cantor_scalar_mul(n, C, curve).u.degree() == 0
    twice = to_mumford(cantor_scalar_mul(2, C, curve))
    if n == 3:
        assert twice == negate(D)
    else:  # 2D = (w, 0)
        assert twice.is_nonspecial() and F.is_zero(twice.b3) and F.is_zero(twice.b5)


@settings(SEEDED, max_examples=15)
@given(constructions())
def test_torsion_check_verb(case):
    A, c, curve, D = case
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        curve_file, divisor_file = Path(tmp, "curve.json"), Path(tmp, "divisor.json")
        curve_file.write_text(json.dumps(curve_json(A, c)))
        divisor_file.write_text(json.dumps(divisor_json(A, c)))
        with contextlib.redirect_stdout(out):
            assert cli.main(["torsion", "check", "--n", str(c.n), "--curve", str(curve_file),
                             "--divisor", str(divisor_file)]) == 0
    got = json.loads(out.getvalue())
    assert got["is_torsion"] is True
    if got["residuals"] == GammaUndefined.code:
        assert _branch_point_in_support(D)
    else:
        assert got["residuals"] == [curve.field.to_str(curve.field.zero)] * 2


@settings(SEEDED, max_examples=6)
@given(constructions(arithmetic=ARITHMETICS["prime"], variant="split"))
def test_xy_system_vanishes_on_the_split_support(case):
    # concrete n = 4 xy takes up to 0.3 s at 127 bits, hence prime fields only
    _, c, curve, D = case
    assume(not _branch_point_in_support(D))
    p1, p2, _, emb = points_from_mumford(D, curve)
    assert emb is None and p1[0] != p2[0]
    point = {"x1": p1[0], "y1": p1[1], "x2": p2[0], "y2": p2[1]}
    # n = 4: X4 and the b3 condition, since 2D = (w, 0) is non-special
    polys = emit_division_polynomials(c.n, "xy", curve).polys[:2]
    for poly in polys:
        assert curve.field.is_zero(poly.evaluate({v: point[v] for v in poly.ring.variables}))


@settings(SEEDED, max_examples=30)
@given(constructions(ns=(3,), variant="branch"))
def test_branch_point_plus_three_torsion_has_order_six(case):
    A, c, curve, D = case
    F = curve.field
    T = MumfordDivisor.special(F, F.from_str(A.str(c.e)), 0)
    assert is_torsion(T, 2, curve)
    assert is_torsion(add(T, D, curve), 6, curve)


@settings(SEEDED, max_examples=6)
@given(constructions(arithmetic=st.sampled_from([7, 11, 13]).map(IntsModP)))
def test_search_equals_the_brute_force(case):
    _, c, curve, D = case
    found = find_n_torsion(curve, c.n)
    assert D in found
    assert found == sorted(map(to_mumford, brute_force_n_torsion(curve, c.n)), key=MumfordDivisor.sort_key)


@settings(SEEDED, max_examples=6)
@given(constructions(arithmetic=st.sampled_from([p for p in range(17, 62) if is_prime(p)]).map(IntsModP)))
def test_search_finds_the_constructed_divisor(case):
    _, c, curve, D = case
    assert D in find_n_torsion(curve, c.n)


@settings(SEEDED, max_examples=20)
@given(constructions(arithmetic=fields("prime", "extension")),
       st.integers(0, 2 ** 32 - 1))
def test_residuals_do_not_vanish_off_torsion(case, seed):
    _, c, curve, _ = case
    d = random_divisor(curve, random.Random(seed))
    assume(cantor_scalar_mul(c.n, from_mumford(d), curve).u.degree() != 0)
    assert not is_torsion(d, c.n, curve)
    try:
        residuals = _residuals(d, c.n, curve)
    except GammaUndefined:
        assume(False)
    assert not all(curve.field.is_zero(r) for r in residuals)
