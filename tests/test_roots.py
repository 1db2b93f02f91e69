"""Root finding (Rabin's gcd with x^q - x, Cantor-Zassenhaus splitting)
against a whole-field scan over F_q and against rational-root trial division
over Q, and the entry points that must not enumerate a field."""
import json
import random
import time
from fractions import Fraction
from math import isqrt, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pullback
from g2div import cantor, cli, extension, fields
from g2div.curves import CanonicalCurve
from g2div.divisors import MumfordDivisor, mumford_from_points, points_from_mumford
from g2div.errors import DivisionByZero
from g2div.extension import ExtensionField, FieldEmbedding
from g2div.fields import GF, Field, PrimeField
from g2div.models import GeneralCurve, to_canonical
from g2div.rational import RationalField
from g2div.roots import factors_of_degree, roots_in_field
from g2div.torsion import find_n_torsion
from g2div.unipoly import UniPoly

P61 = 2 ** 61 - 1
P127 = 2 ** 127 - 1
P127_CURVE = Path(__file__).parent / "data" / "p127_three_branch_points.json"

ROOT_FIELDS = [GF(7), GF(1009), GF(3, 2), GF(3, 3), GF(31, 2), GF(13, 4)]
QQ = fields.QQ()


def scan_roots(poly):
    """Every root of poly by evaluation at each element, in elements() order."""
    F = poly.field
    return [x for x in F.elements() if F.is_zero(poly.evaluate(x))]


def rand_elem(F, rng):
    if isinstance(F, ExtensionField):
        return F.from_coeffs([rng.randrange(F.p) for _ in range(F.k)])
    return F.element(rng.randrange(F.p))


def linear_product(F, roots):
    f = UniPoly.one(F)
    for r in roots:
        f = f * UniPoly(F, [-r, 1])
    return f


def seeded_polys(F, rng):
    """(poly, expected roots or None) covering the cases the splitter must get
    right; None leaves the answer to the scan."""
    q = F.order()
    nr = next(z for z in map(F._element_at, range(1, q)) if F.pow(z, (q - 1) // 2) != F.one)
    subfield = [F.element(c) for c in range(F.p)]
    out = [(UniPoly(F, [5]), [])]
    for _ in range(4):  # dense, mostly few roots
        out.append((UniPoly(F, [rand_elem(F, rng) for _ in range(rng.randrange(2, 9))] + [1]), None))
    for _ in range(2):  # no roots: two distinct irreducible quadratics x^2 - nr*c^2
        c = rand_elem(F, rng)
        while F.is_zero(c) or c * c == F.one:
            c = rand_elem(F, rng)
        out.append((UniPoly(F, [-nr, 0, 1]) * UniPoly(F, [-nr * c * c, 0, 1]), []))
    for _ in range(2):  # repeated roots
        a, b = rand_elem(F, rng), rand_elem(F, rng)
        f = linear_product(F, [a, a, b, b, b]) * UniPoly(F, [-nr, 0, 1])
        out.append((f, sorted({a, b}, key=F.sort_key)))
    # roots all in F_p: inside F_{p^k}, k even, every one of them is a square
    for n in (2, 3, min(6, F.p)):
        roots = rng.sample(subfield, n)
        out.append((linear_product(F, roots), sorted(roots, key=F.sort_key)))
    roots = [F.zero] + rng.sample(subfield[1:], min(3, F.p - 1))
    out.append((linear_product(F, roots).scale(rand_elem(F, rng) or F.one),
                sorted(roots, key=F.sort_key)))
    return out


@pytest.mark.parametrize("F", ROOT_FIELDS, ids=lambda f: f.short_name())
def test_roots_match_scan(F):
    rng = random.Random(20261018 + F.order())
    cases = seeded_polys(F, rng)
    if F.order() > 10 ** 4:
        # the scan costs about a second per polynomial over F_{13^4}
        cases = [c for c in cases if c[1] is not None][::2] + cases[1:2]
    for f, expected in cases:
        got = roots_in_field(f)
        assert got == scan_roots(f), f
        if expected is not None:
            assert got == expected, f


@pytest.mark.parametrize("F", [GF(3), GF(7), GF(3, 2)], ids=lambda f: f.short_name())
def test_every_pair_of_irreducible_quadratics_splits(F):
    # for q <= 9 the Weil bound does not promise a shift c with w1(-c) and
    # w2(-c) of different quadratic character, so check each pair directly
    els = list(F.elements())
    irreducible = [w for w in (UniPoly(F, [b, a, 1]) for a in els for b in els)
                   if not roots_in_field(w)]
    for i, w1 in enumerate(irreducible):
        for w2 in irreducible[i + 1:]:
            assert any(bool(F.sqrt(w1.evaluate(-c))) != bool(F.sqrt(w2.evaluate(-c)))
                       for c in els), (w1, w2)
            f = w1 * w2 * UniPoly(F, [1, 1])
            assert sorted(factors_of_degree(f, 2), key=repr) == sorted([w1, w2], key=repr)


@pytest.mark.parametrize("F", ROOT_FIELDS + [QQ], ids=lambda f: f.short_name())
def test_zero_polynomial_raises(F):
    with pytest.raises(DivisionByZero):
        roots_in_field(UniPoly.zero(F))


# ---------------------------------------------------------------------------
# over Q: the large-prime factorization against rational-root trial division

def trial_division_roots(poly):
    """Every rational root of poly, sorted by sort_key: the rational-root
    search on the monic model in u = c*x, c clearing the denominators, with
    every divisor of the constant term found by trial division up to its
    square root (roots_in_field over Q before the large-prime method)."""
    F = poly.field
    found = []
    if poly.degree() == 0:
        return []
    coeffs = [Fraction(c.value) for c in poly.coeffs]  # an int / int is a float
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    c = lcm(*[f.denominator for f in monic])
    n = len(monic) - 1
    ints = [int(monic[i] * c ** (n - i)) for i in range(n + 1)]  # monic in u = c*x
    if ints[0] == 0:
        found.append(F.zero)
        while ints[0] == 0 and len(ints) > 1:
            ints = ints[1:]
    const = abs(ints[0])
    if const == 0:
        return sorted(set(found), key=F.sort_key)
    divisors = []
    d = 1
    while d * d <= const:
        if const % d == 0:
            divisors += [d, const // d]
        d += 1
    for d in sorted(set(divisors)):
        for u in (d, -d):
            x = F.element(Fraction(u, c))
            if F.is_zero(poly.evaluate(x)):
                found.append(x)
    return sorted(set(found), key=F.sort_key)


@st.composite
def rational_products(draw):
    """(f, quadratics): f = s * prod(x - r_i) * prod(x^2 + b_j*x + c_j) with
    small rational r_i, integer b_j, c_j and each list's head repeated."""
    def repeated(items):
        return items + items[:draw(st.integers(0, len(items)))]

    roots = repeated(draw(st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 2)),
                                   max_size=2)))
    quads = repeated(draw(st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
                                   max_size=2)))
    s = draw(st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)) | st.just(Fraction(-3, 7)))
    f = UniPoly.constant(QQ, s)
    for r in roots:
        f = f * UniPoly(QQ, [-r, 1])
    for b, c in quads:
        f = f * UniPoly(QQ, [c, b, 1])
    return f, quads


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(rational_products())
def test_rational_factors_match_trial_division(case):
    f, quads = case
    assert roots_in_field(f) == trial_division_roots(f), f
    irreducible = {UniPoly(QQ, [c, b, 1]) for b, c in quads
                   if b * b - 4 * c < 0 or isqrt(b * b - 4 * c) ** 2 != b * b - 4 * c}
    got = factors_of_degree(f.monic(), 2)
    assert len(got) == len(set(got)) and set(got) == irreducible, f


def test_large_rational_coefficients():
    # cleared constant terms near 10^20 and 10^30: trial division would need
    # about 10^10 and 10^15 steps
    x = UniPoly.x(QQ)
    f = (x - 10 ** 20) * UniPoly(QQ, [1, 0, 0, 0, 1])
    assert _timed(roots_in_field, f) == [QQ.element(10 ** 20)]
    assert factors_of_degree(f, 2) == []
    w = UniPoly(QQ, [10 ** 30 + 7, 0, 1])
    g = w * UniPoly(QQ, [1, 1, 0, 1])
    assert _timed(factors_of_degree, g, 2) == [w]
    assert roots_in_field(g) == []


def test_embedding_root_is_least_scanned_root():
    for small, big in ((GF(3, 2), GF(3, 4)), (GF(13, 2), GF(13, 4))):
        modulus = UniPoly(big, small.modulus)
        assert FieldEmbedding(small, big)._basis[1] == scan_roots(modulus)[0]


def _refuse(self):
    raise AssertionError("whole-field scan")


def _irreducible_support_divisor(curve, rng):
    """A degree-2 divisor whose support is a pair of conjugate points over the
    quadratic extension."""
    F = curve.field
    big = GF(F.characteristic, 2 * getattr(F, "k", 1))
    emb = extension.embedding(F, big)
    bcurve = CanonicalCurve(big, tuple(emb.embed(c) for c in curve.lam))
    q = F.order()
    while True:
        x1 = rand_elem(big, rng)
        x2 = big.pow(x1, q)
        ys = big.sqrt(bcurve.p_at(x1)) if x1 != x2 else ()
        if ys and not big.is_zero(ys[0]):
            D = mumford_from_points(bcurve, (x1, ys[0]), (x2, big.pow(ys[0], q)))
            return MumfordDivisor.nonspecial(F, *(pullback(emb, c) for c in D.coords))


def test_no_entry_point_enumerates_a_field(monkeypatch):
    rng = random.Random(7)
    c1009 = CanonicalCurve(GF(1009), (1, 2, 3, 4, 5))
    c31 = CanonicalCurve(GF(31, 2), (0, 0, 0, 1, 3))
    divisors = [_irreducible_support_divisor(c, rng) for c in (c1009, c31)]
    # the same checks run unguarded first, for the expected values
    a = GF(31, 2).from_coeffs([4, 9])
    sextic = GeneralCurve(GF(31), "II", a=(3, 0, 1, 0, 0, 7, 20))  # root x = 1
    want = (c1009.branch_points(), c31.branch_points(), to_canonical(sextic)[0])

    for cls in (Field, RationalField, PrimeField, ExtensionField):
        monkeypatch.setattr(cls, "elements", _refuse)
    monkeypatch.setattr(extension, "_EMBEDDING_CACHE", {})
    for F in (GF(31, 2), GF(1009, 2), GF(31, 4)):
        monkeypatch.setattr(F, "_nonresidue", None)

    t = GF(13, 4).from_coeffs([0, 1])
    assert roots_in_field(linear_product(GF(13, 4), [GF(13, 4).one, t])) == [GF(13, 4).one, t]
    assert (c1009.branch_points(), c31.branch_points(), to_canonical(sextic)[0]) == want
    emb = FieldEmbedding(GF(13, 2), GF(13, 4))
    assert UniPoly(GF(13, 4), GF(13, 2).modulus).evaluate(emb._basis[1]) == 0
    assert GF(31, 2).sqrt(a * a) == tuple(sorted((a, -a), key=GF(31, 2).sort_key))
    for D, curve in zip(divisors, (c1009, c31)):
        (x1, y1), (x2, y2), big, _ = points_from_mumford(D, curve)
        assert x1 != x2 and big.k == 2 * getattr(curve.field, "k", 1)


def test_torsion_search_walks_no_extension_field(monkeypatch):
    # every 3- and 4-torsion class on this curve has a support conjugate over
    # F_49; the search must reach them through their Mumford coordinates
    curve = CanonicalCurve(GF(7), (0, 1, 0, 1, 3))
    els = cantor.enumerate_jacobian(curve)
    want = {n: sorted(cantor.to_mumford(d).sort_key()
                      for d in cantor.brute_force_n_torsion(curve, n, els)) for n in (3, 4)}
    monkeypatch.setattr(ExtensionField, "elements", _refuse)
    for n in (3, 4):
        found = find_n_torsion(curve, n)
        assert len(found) == 2 and [d.sort_key() for d in found] == want[n]
        assert not any(GF(7).sqrt(d.coords[0] ** 2 - 4 * d.coords[1]) for d in found)


# ---------------------------------------------------------------------------
# cryptographic-size primes: each entry point runs in well under a second

def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    assert time.perf_counter() - t0 < 1.0, fn.__name__
    return out


def test_non_residue_of_p127_squared_is_found():
    # the first p elements (the prime subfield) are squares; the search
    # used to skip them with islice, which refuses p > sys.maxsize
    F = GF(P127, 2)
    z = _timed(F._non_residue)
    e = (F.order() - 1) // 2
    assert F.pow(z, e) == -F.one and z.value[1] == 1
    assert all(F.pow(F.from_coeffs([c, 1]), e) == F.one for c in range(z.value[0]))


@pytest.mark.parametrize("p", [P61, P127], ids=["p61", "p127"])
def test_large_prime_entry_points(p, monkeypatch):
    F = GF(p)
    # P = (x - 1)(x - 2)(x - 3)(x^2 + 1); x^2 + 1 is irreducible for p = 3 mod 4
    curve = CanonicalCurve(F, (-6, 12, -12, 11, -6))
    assert [b.value for b in _timed(curve.branch_points)] == [1, 2, 3]
    assert len(_timed(find_n_torsion, curve, 2)) == 7  # 3 points, 3 pairs, u = x^2 + 1
    big = GF(p, 2)
    # roots in F_p inside F_{p^2}: shifts drawn from F_p alone would need O(p) tries
    subfield_roots = [big.element(c) for c in (1, 2, 3, p - 1)]
    assert _timed(roots_in_field, linear_product(big, subfield_roots)) == subfield_roots
    a = big.from_coeffs([123456789, p - 987654321])
    assert _timed(big.sqrt, a * a) == tuple(sorted((a, -a), key=big.sort_key))
    D = _irreducible_support_divisor(curve, random.Random(p))
    monkeypatch.setattr(big, "_nonresidue", None)  # found again, inside the timing
    (x1, y1), (x2, y2), got_big, _ = _timed(points_from_mumford, D, curve)
    assert got_big is big and x2 == big.pow(x1, p) and y2 == big.pow(y1, p)
    assert y1 * y1 == CanonicalCurve(big, tuple(big.element(c.value) for c in curve.lam)).p_at(x1)


def test_cli_two_torsion_over_p127(capsys):
    code = _timed(cli.main, ["torsion", "find", "--n", "2", "--curve", str(P127_CURVE)])
    lines = [json.loads(s) for s in capsys.readouterr().out.splitlines()]
    assert code == 0
    assert [d["point"] for d in lines if d["type"] == "special"] == [["1", "0"], ["2", "0"], ["3", "0"]]
    # P = (x-1)(x-2)(x-3)(x^2+1): three pairs of branch points and u = x^2 + 1
    assert [d["alpha"] for d in lines if d["type"] == "nonspecial"] == [
        ["0", "1"], [str(P127 - 5), "6"], [str(P127 - 4), "3"], [str(P127 - 3), "2"]]
    assert len(lines) == 7
