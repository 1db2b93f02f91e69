"""Seeded property tests of unipoly's list kernels and the Cantor oracle on them.

Each fused kernel equals its unfused composition, and each rewritten one
the schoolbook operation on field elements, over F_p (p from 7 to
2^127 - 1), F_{7^2}, F_{3^3} and Q.  cantor_add, which runs the kernels,
still equals the group law on every kind of sum, and over F_p it still
builds no UniPoly and no field element.  derandomize=True makes every run
draw the same examples.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_point
from test_element_free import counting_elements, counting_polys
from g2div.cantor import cantor_add, cantor_neg, from_mumford, to_mumford
from g2div.curves import CanonicalCurve
from g2div.divisors import MumfordDivisor, mumford_from_points, negate
from g2div.errors import DegenerateCurve, InexactDivision
from g2div.fields import GF, QQ
from g2div.grouplaw import add, scalar_mul
from g2div.roots import powmod
from g2div.unipoly import (UniPoly, _add, _exact_div, _mul, _rem, _strip, _sub, _submul,
                           _xgcd)

SEEDED = settings(derandomize=True, deadline=None, database=None)

PRIMES = (7, 31, 1009, 2 ** 61 - 1, 2 ** 127 - 1)
FIELDS = st.sampled_from([GF(p) for p in PRIMES] + [GF(7, 2), GF(3, 3), QQ()])


def _element(F):
    if F.order() is None:
        return st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9)).map(F.element)
    return (st.just(0) | st.integers(0, F.order() - 1)).map(F._element_at)


def _natives(F, max_len=7):
    """A kernel operand: reduced natives without trailing zeros."""
    return st.lists(_element(F), max_size=max_len).map(lambda es: _strip([F._native(e) for e in es]))


@st.composite
def operands(draw, n, max_len=7):
    """(F, a, b, ...): n kernel operands over one drawn field."""
    F = draw(FIELDS)
    return (F, *(draw(_natives(F, max_len)) for _ in range(n)))


# schoolbook references on field elements, which share no code with the kernels

def _els(F, a):
    return [F._from_native(x) for x in a]


def _nat(F, es):
    return _strip([F._native(e) for e in es])


def _ref_add(F, a, b, sign=1):
    a, b = _els(F, a), _els(F, b)
    n = max(len(a), len(b))
    a, b = a + [F.zero] * (n - len(a)), b + [F.zero] * (n - len(b))
    return _nat(F, [x + y if sign > 0 else x - y for x, y in zip(a, b)])


def _ref_mul(F, a, b):
    out = [F.zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(_els(F, a)):
        for j, y in enumerate(_els(F, b)):
            out[i + j] = out[i + j] + x * y
    return _nat(F, out)


def _ref_divmod(F, a, b):
    r, d = _els(F, a), _els(F, b)
    q = [F.zero] * max(len(a) - len(b) + 1, 0)
    inv = F.inv(d[-1])
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + len(d) - 1] * inv
        for i, y in enumerate(d):
            r[k + i] = r[k + i] - q[k] * y
    return _nat(F, q), _nat(F, r[:len(d) - 1])


def _ref_xgcd(F, a, b):
    """The textbook extended Euclid, to a zero remainder, made monic."""
    r0, r1, t0, t1 = a, b, [], [F._native_one]
    while r1:
        q, r = _ref_divmod(F, r0, r1)
        r0, r1, t0, t1 = r1, r, t1, _ref_add(F, t0, _ref_mul(F, q, t1), -1)
    if not r0:
        return r0, t0
    c = F._native(F.inv(F._from_native(r0[-1])))
    return _ref_mul(F, r0, [c]), _ref_mul(F, t0, [c])


@settings(SEEDED, max_examples=120)
@given(operands(3))
def test_sums_and_products_match_the_schoolbook(case):
    F, a, b, c = case
    assert _add(F, a, b) == _ref_add(F, a, b)
    assert _sub(F, a, b) == _ref_add(F, a, b, -1)
    assert _mul(F, a, b) == _ref_mul(F, a, b)
    # the fused a - b*c is its unfused composition
    assert _submul(F, a, b, c) == _sub(F, a, _mul(F, b, c)) == _ref_add(F, a, _ref_mul(F, b, c), -1)


@settings(SEEDED, max_examples=120)
@given(operands(2))
def test_remainder_is_the_long_division(case):
    F, a, b = case
    if not b:
        return
    q = []
    r = _rem(F, a, b, q)
    assert (q, r) == _ref_divmod(F, a, b)
    assert r == _ref_divmod(F, a, b)[1] and _rem(F, a, b) == r
    # the negated remainder of Cantor's reduction: -a mod b is -(a mod b)
    m = F._modulus
    assert [-c % m for c in r] == _rem(F, _sub(F, (), a), b)
    assert _exact_div(F, _mul(F, a, b), b) == a
    if r:
        with pytest.raises(InexactDivision):
            _exact_div(F, a, b)


@settings(SEEDED, max_examples=120)
@given(operands(3, max_len=5))
def test_xgcd_matches_the_full_euclid(case):
    # the kernel's fused Euclidean steps and unit scaling give the gcd and
    # cofactor of the textbook loop, also where the operands share a factor
    F, a, b, common = case
    if len(common) > 1:
        a, b = _mul(F, a, common), _mul(F, b, common)
    if not a and not b:
        return
    g, t = _xgcd(F, a, b)
    assert (list(g), t) == _ref_xgcd(F, a, b)
    if a:  # t*b = g mod a
        assert _rem(F, _sub(F, g, _mul(F, t, b)), a) == []


@settings(SEEDED, max_examples=40)
@given(operands(2, max_len=6), st.integers(0, 10 ** 40))
def test_powmod_runs_on_the_kernels(case, e):
    # repeated squaring on _mul and _rem equals it on UniPoly's operators
    # and builds one UniPoly, the result
    F, base, m = case
    if not m:
        return
    base, mod = UniPoly._make(F, list(base)), UniPoly._make(F, list(m))
    if F.order() is None:
        e %= 40  # over Q the coefficients grow with e
    want, b, k = UniPoly.one(F) % mod, base % mod, e
    while k:
        if k & 1:
            want = want * b % mod
        b, k = b * b % mod, k >> 1
    with counting_polys() as built:
        got = powmod(base, e, mod)
    assert got == want and built[0] == 1


# ---------------------------------------------------------------------------
# the Cantor oracle on the kernels

def _curve(F, rng):
    while True:
        try:
            return CanonicalCurve(F, tuple(F._element_at(rng.randrange(F.order())) for _ in range(5)))
        except DegenerateCurve:
            continue


def _sums(curve, rng):
    """One sum of each kind: coprime supports, a doubling, a shared point, a
    point and its involute, a single point, an inverse, the neutral."""
    F = curve.field

    def points(n):
        while True:
            pts = [random_point(curve, rng) for _ in range(n)]
            if len({x for x, _ in pts}) == n:
                return pts

    p1, p2, p3, p4 = points(4)
    D = mumford_from_points(curve, p1, p2)
    return {"coprime": (D, mumford_from_points(curve, p3, p4)), "double": (D, D),
            "shared": (D, mumford_from_points(curve, p1, p3)),
            "involute": (D, mumford_from_points(curve, (p1[0], -p1[1]), p3)),
            "point": (D, MumfordDivisor.special(F, *p3)), "inverse": (D, negate(D)),
            "neutral": (D, MumfordDivisor.neutral(F))}


@settings(SEEDED, max_examples=25)
@given(st.sampled_from([GF(31), GF(1009), GF(2 ** 61 - 1), GF(7, 2), GF(3, 3)]), st.integers(0, 2 ** 32 - 1))
def test_cantor_add_equals_the_group_law(F, seed):
    rng = random.Random(seed)
    curve = _curve(F, rng)
    for how, (P, Q) in _sums(curve, rng).items():
        a, b = from_mumford(P), from_mumford(Q)
        with counting_polys() as built, counting_elements() as elements:
            got = to_mumford(cantor_add(a, b, curve))
            neg = cantor_neg(a)
        assert got == add(P, Q, curve), how
        assert neg == from_mumford(negate(P))
        assert neg.v_native == tuple(_rem(F, _sub(F, (), a.v_native), a.u_native))
        if F.order() == F.characteristic:  # over F_p the oracle builds nothing
            assert built[0] == 0 and elements[0] == 0, how


@settings(SEEDED, max_examples=20)
@given(st.integers(-4, 6), st.integers(-4, 6))
def test_cantor_add_equals_the_group_law_over_q(k, m):
    # multiples of D = {(0, 1), (1, 1)} on y^2 = x^5 - x + 1, whose
    # coordinates are fractions past the first few
    curve = CanonicalCurve(QQ(), (0, 0, 0, -1, 1))
    D = mumford_from_points(curve, (0, 1), (1, 1))
    P, Q = scalar_mul(k, D, curve), scalar_mul(m, D, curve)
    assert to_mumford(cantor_add(from_mumford(P), from_mumford(Q), curve)) == add(P, Q, curve)
