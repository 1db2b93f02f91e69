import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyring_helpers import sylvester_resultant
from g2div.errors import InexactDivision
from g2div.fields import GF, QQ
from g2div.polyring import PolyRing
from g2div.roots import roots_in_field
from g2div.unipoly import UniPoly, _rem, gcd, resultant, xgcd

F7 = GF(7)

# one field per kind of native coefficient: int (F_7), the element itself
# (F_9, F_{31^2}) and Fraction (Q)
NATIVE_FIELDS = [GF(7), GF(3, 2), GF(31, 2), QQ()]


def poly7(coeffs):
    return UniPoly(F7, coeffs)


def elem(field, n):
    """A field element from an integer; every fifth n gives zero."""
    if n % 5 == 0:
        return field.zero
    if field.order() is None:
        return field.element(Fraction(n % 41 - 20, 1 + n % 7))
    if getattr(field, "k", 1) > 1:
        return field.from_coeffs([n // field.p ** i for i in range(field.k)])
    return field.element(n)


def divmod_poly(a, b):
    """(q, r) with a = q*b + r, from the _rem kernel and the quotient it
    hands back."""
    q = []
    r = _rem(a.field, a._c, b._c, q)
    return UniPoly._make(a.field, q), UniPoly._make(a.field, r)


def rand_poly(field, rng, max_len):
    return UniPoly(field, [elem(field, rng.randrange(10 ** 6))
                           for _ in range(rng.randrange(1, max_len))])


@pytest.mark.parametrize("field", NATIVE_FIELDS, ids=lambda f: f.short_name())
def test_divmod_invariant(field):
    rng = random.Random(13)
    for _ in range(200):
        a = rand_poly(field, rng, 8)
        b = rand_poly(field, rng, 5)
        if b.is_zero():
            continue
        q, r = divmod_poly(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree() < b.degree()


def test_exact_div_raises():
    with pytest.raises(InexactDivision):
        poly7([1, 0, 1]).exact_div(poly7([1, 1]))


@pytest.mark.parametrize("field", NATIVE_FIELDS, ids=lambda f: f.short_name())
def test_gcd_and_xgcd(field):
    rng = random.Random(29)
    common = UniPoly(field, [elem(field, 7), 1])  # gives some pairs a gcd of degree > 0
    for i in range(120):
        a = rand_poly(field, rng, 6)
        b = rand_poly(field, rng, 6)
        if i % 3 == 0:
            a, b = a * common, b * common
        elif i % 10 == 1:  # a nonzero constant on either side
            a = UniPoly.constant(field, elem(field, i))
        elif i % 10 == 2:
            b = UniPoly.constant(field, elem(field, i))
        if a.is_zero() or b.is_zero():
            continue
        g, t = xgcd(a, b)
        s = (g - t * b).exact_div(a)  # raises InexactDivision unless a divides it
        assert s * a + t * b == g
        assert g == gcd(a, b)
        assert g.lead() == field.one
        if i % 3 == 0:
            assert (g % common).is_zero()
        assert (a % g).is_zero() and (b % g).is_zero()


def full_euclid(a, b):
    """Textbook extended Euclid on UniPoly operators, every step run until
    the remainder is zero: (g, t) with g = gcd(a, b) monic and t b's cofactor."""
    F = a.field
    r0, r1, t0, t1 = a, b, UniPoly.zero(F), UniPoly.one(F)
    while not r1.is_zero():
        q, r = divmod_poly(r0, r1)
        r0, r1, t0, t1 = r1, r, t1, t0 - q * t1
    c = F.inv(r0.lead())
    return r0.scale(c), t0.scale(c)


@pytest.mark.parametrize("field", [GF(1009), GF(7, 2), QQ()], ids=lambda f: f.short_name())
def test_xgcd_kernel_matches_full_euclid(field):
    # the kernel stops at a nonzero constant remainder, a step before the
    # textbook loop, with the same gcd and cofactor: on coprime pairs, pairs
    # with a common factor and pairs with a constant or zero operand
    rng = random.Random(2024)
    kinds = {"coprime": 0, "common": 0, "constant": 0}
    for i in range(200):
        a = rand_poly(field, rng, 7)
        b = rand_poly(field, rng, 6)
        if i % 4 == 0:
            common = UniPoly(field, [elem(field, rng.randrange(10 ** 6)) for _ in range(2)] + [1])
            a, b = a * common, b * common
        elif i % 4 == 1:
            b = UniPoly.constant(field, elem(field, rng.randrange(1, 10 ** 6)))
            if i % 8 == 1:
                a, b = b, a
        if a.is_zero() and b.is_zero():
            continue
        g, t = xgcd(a, b)
        assert (g, t) == full_euclid(a, b), (a, b)
        if not a.is_zero():
            assert (g - t * b).exact_div(a) * a + t * b == g
        kinds["constant" if min(a.degree(), b.degree()) <= 0
              else "coprime" if g.degree() == 0 else "common"] += 1
    assert min(kinds.values()) >= 30, kinds


def test_resultant_discriminant_value():
    Q = QQ()
    p = UniPoly(Q, [1, 0, 0, 0, 0, 1])  # x^5 + 1
    assert resultant(p, p.derivative()).value == 3125


def test_resultant_shared_root():
    a = poly7([-2, 0, 1])  # x^2 - 2 = (x-3)(x-4) mod 7
    b = poly7([-3, 1])
    assert F7.is_zero(resultant(a, b))
    assert not F7.is_zero(resultant(a, poly7([-1, 1])))


@pytest.mark.parametrize("field", [GF(1009), QQ()], ids=["F1009", "Q"])
def test_resultant_matches_sylvester_determinant(field):
    """resultant against the Bareiss determinant of the Sylvester matrix with
    a's rows on top, on seeded pairs of degree 0 to 5: random pairs, pairs
    built with a common factor (resultant 0), and pairs with deg a * deg b
    odd, where the order of the rows sets the sign."""
    rng = random.Random(1009)
    ring = PolyRing(field, ("x",), (1,))
    x = ring.var("x")

    def draw(degree):
        cs = [elem(field, rng.randrange(1000)) for _ in range(degree)]
        lead = field.zero
        while field.is_zero(lead):
            lead = elem(field, rng.randrange(1000))
        return UniPoly(field, cs + [lead])

    def in_ring(u):
        return sum((c * x ** i for i, c in enumerate(u.coeffs)), ring.zero())

    shared = odd = 0
    for i in range(200):
        da, db = rng.randrange(6), rng.randrange(6)
        if i % 4 == 0 and da and db:
            f = draw(rng.randrange(1, min(da, db) + 1))
            a, b = draw(da - f.degree()) * f, draw(db - f.degree()) * f
        else:
            a, b = draw(da), draw(db)
        want = sylvester_resultant(in_ring(a), in_ring(b), "x")
        got = resultant(a, b)
        assert want == got, (a, b)
        if i % 4 == 0 and da and db:
            shared += 1
            assert field.is_zero(got)
        if da * db % 2:
            odd += 1
            assert resultant(b, a) == -got
    assert shared >= 20 and odd >= 30


def test_roots_in_finite_field():
    p = poly7([1, 0, 0, 0, 0, 1])  # x^5 + 1
    assert [r.value for r in roots_in_field(p)] == [6]
    p11 = UniPoly(GF(11), [1, 0, 0, 0, 0, 1])
    assert [r.value for r in roots_in_field(p11)] == [2, 6, 7, 8, 10]


def test_roots_over_q():
    Q = QQ()
    # (x - 2)(x + 3)(2x - 1): non-monic with a fractional root
    p = UniPoly(Q, [1, 1]).scale(1)
    p = (UniPoly(Q, [-2, 1]) * UniPoly(Q, [3, 1]) * UniPoly(Q, [-1, 2]))
    roots = sorted(r.value for r in roots_in_field(p))
    assert roots == [Fraction(-3), Fraction(1, 2), Fraction(2)]
    # repeated zero roots
    pz = UniPoly(Q, [0, 0, 1]) * UniPoly(Q, [-5, 1])
    assert sorted(r.value for r in roots_in_field(pz)) == [0, 5]
    assert roots_in_field(UniPoly(Q, [3])) == []


def test_compose():
    x = UniPoly.x(F7)
    p = x * x + 1
    assert p.compose(x + 2) == (x + 2) * (x + 2) + 1


@pytest.mark.parametrize("field", NATIVE_FIELDS, ids=lambda f: f.short_name())
@settings(max_examples=150)
@given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=6),
       st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=6))
def test_mul_commutes_and_degree(field, ca, cb):
    a = UniPoly(field, [elem(field, n) for n in ca])
    b = UniPoly(field, [elem(field, n) for n in cb])
    assert a * b == b * a
    if not a.is_zero() and not b.is_zero():
        assert (a * b).degree() == a.degree() + b.degree()
        # the schoolbook product, coefficient by coefficient on elements
        for k in range(a.degree() + b.degree() + 1):
            want = field.zero
            for i in range(k + 1):
                want = want + a[i] * b[k - i]
            assert (a * b)[k] == want
    else:
        assert (a * b).is_zero()


@pytest.mark.parametrize("field", NATIVE_FIELDS, ids=lambda f: f.short_name())
def test_reflected_add_and_sub(field):
    rng = random.Random(11)
    for _ in range(40):
        p = rand_poly(field, rng, 6)
        n = rng.randrange(-50, 50)
        for c in (n, field.element(n), elem(field, rng.randrange(10 ** 6))):
            const = UniPoly.constant(field, c)
            assert isinstance(c + p, UniPoly) and isinstance(c - p, UniPoly)
            assert c + p == p + c == const + p
            assert c - p == const - p == -(p - c)

