import builtins
import copy
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pullback
from g2div import fields
from g2div.errors import (DivisionByZero, G2DivError, MixedFields, NoSquareRoot,
                          SerializationError, UnsupportedField)
from g2div.extension import ExtensionField, FieldEmbedding, find_irreducible, is_irreducible_mod_p
from g2div.fields import GF, QQ, FieldSpec, is_prime
from g2div.unipoly import UniPoly

FIELDS = [QQ(), GF(7), GF(11), GF(1009), GF(7, 2), GF(13, 2), GF(7, 4)]


def _sample(field, rng):
    q = field.order()
    if q is None:
        return field.element(Fraction(rng.randrange(-50, 51), rng.randrange(1, 20)))
    if hasattr(field, "k") and field.k > 1:
        return field.from_coeffs([rng.randrange(field.p) for _ in range(field.k)])
    return field.element(rng.randrange(q))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.short_name())
def test_field_axioms_bulk(field):
    # associativity, distributivity, inverses on >= 10^4 random triples
    rng = random.Random(99)
    one = field.one
    for _ in range(10_000):
        a, b, c = (_sample(field, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == field.zero
        if not field.is_zero(a):
            assert a * (one / a) == one


def test_inverse_example_f7(f7):
    assert (f7.element(3) ** -1).value == 5


def test_rational_arithmetic():
    Q = QQ()
    assert Q.element(Fraction(1, 2)) + Q.element(Fraction(1, 3)) == Q.element(Fraction(5, 6))


def test_sqrt_f7_both_roots(f7):
    # exhaustive search of squares mod 7: only 3 and 4 square to 2
    expected = sorted(x.value for x in f7.elements() if (x * x).value == 2)
    roots = f7.sqrt(f7.element(2))
    assert [r.value for r in roots] == expected == [3, 4]


def test_sqrt_matches_exhaustive_search(monkeypatch):
    # GF(17) and GF(41) run Tonelli-Shanks with s = 4 and 3; GF(13, 3) is odd
    # degree with q = 1 mod 4, so its non-residue is GF(13)'s least.  Where q
    # = 3 mod 4 (7, 11, 19, 1019 and 7^3) a nonzero element, square or not,
    # costs a single pow.  Where q = 1 mod 4 a nonzero non-square costs the
    # one pow a^((t-1)/2), and a square that pow plus one per Tonelli-Shanks
    # step, at most s - 1 of them, with no separate z^t.  sqrt runs on
    # natives, so its powers are the three-argument pow that fields.py calls
    # (the built-in one on ints, an element's own over F_{p^k}).
    pows = []

    def counted(v, e, m):
        pows.append((v, e))
        return builtins.pow(v, e, m)

    monkeypatch.setattr(fields, "pow", counted, raising=False)
    for field in (GF(7), GF(11), GF(13), GF(17), GF(19), GF(41), GF(1019), GF(7, 2),
                  GF(7, 3), GF(13, 3)):
        q = field.order()
        s, t = 0, q - 1
        while t % 2 == 0:
            s, t = s + 1, t // 2
        field._non_residue()  # warm the cache, whose scan takes pows of its own
        squares = {}
        for x in field.elements():
            squares.setdefault((x * x).value, []).append(x)
        for a in field.elements():
            pows.clear()
            roots = field.sqrt(a)
            if field.is_zero(a):
                assert pows == []
            elif q % 4 == 3:
                assert len(pows) == 1
            else:
                assert pows[0] == (field._native(a), (t - 1) // 2)
                assert len(pows) <= (s if roots else 1)
            expected = sorted(squares.get(a.value, []), key=field.sort_key)
            assert list(roots) == expected
            assert field.is_square(a) == bool(roots)
            for r in roots:
                assert r * r == a


def test_prime_field_sqrt_on_natives():
    # every a of GF(13), GF(17) (s = 4) and GF(1009) against an exhaustive
    # search, and random inputs over GF(2^127 - 1) (q = 3 mod 4) and GF(2^40
    # - 87) (q = 1 mod 4) against Euler's criterion; the roots are elements
    # of the field, sorted, and square to a
    for field in (GF(13), GF(17), GF(1009)):
        squares = {}
        for x in field.elements():
            squares.setdefault((x * x).value, []).append(x)
        for a in field.elements():
            assert list(field.sqrt(a)) == sorted(squares.get(a.value, []), key=field.sort_key)
    rng = random.Random(127)
    for p in (2 ** 127 - 1, 2 ** 40 - 87):
        field = GF(p)
        for _ in range(300):
            v = rng.randrange(p)
            a, x = field.element(v), field.element(rng.randrange(1, p))
            roots = field.sqrt(a)
            assert bool(roots) == (v == 0 or pow(v, (p - 1) // 2, p) == 1)
            assert all(r * r == a and r.field is field for r in roots)
            assert list(roots) == sorted(roots, key=field.sort_key)
            assert field.sqrt(x * x) == tuple(sorted({x, -x}, key=field.sort_key))
    # over F_{p^k} the natives are elements, whose three-argument pow takes
    # only the field's own modulus
    E = GF(7, 2)
    e = E.from_coeffs([2, 3])
    assert pow(e, 5, E._modulus) == e ** 5
    with pytest.raises(TypeError):
        pow(e, 5, 7)


def test_extension_sqrt_with_cached_non_residue():
    # the roots of a square are +-a whichever non-residue Tonelli-Shanks
    # uses; the cached one is the first that a scan of elements() finds
    rng = random.Random(20241018)
    for field in (GF(7), GF(1009), GF(13, 3), GF(31, 2), GF(13, 4)):
        q = field.order()
        first = next(z for z in field.elements()
                     if not field.is_zero(z) and field.pow(z, (q - 1) // 2) != field.one)
        for _ in range(200):
            a = _sample(field, rng)
            assert field.sqrt(a * a) == tuple(sorted({a, -a}, key=field.sort_key))
        assert field._non_residue() is field._non_residue() == first
        assert field.sqrt(field.zero) == (field.zero,)


def test_sqrt_no_root_marker(f7):
    assert f7.sqrt(f7.element(3)) == ()
    with pytest.raises(NoSquareRoot):
        f7.sqrt_exact(f7.element(3))


def test_rational_sqrt():
    Q = QQ()
    r = Q.sqrt(Q.element(Fraction(9, 4)))
    assert [x.value for x in r] == [Fraction(-3, 2), Fraction(3, 2)]
    assert Q.sqrt(Q.element(2)) == ()
    assert Q.sqrt(Q.element(-1)) == ()


def test_tonelli_shanks_nontrivial():
    F = GF(1009)  # p % 4 == 1 exercises the full loop
    for n in (5, 17, 100):
        if pow(n, (F.p - 1) // 2, F.p) == 1:
            roots = F.sqrt(F.element(n))
            assert len(roots) == 2 and all(r * r == n for r in roots)


def test_find_irreducible_examples():
    assert find_irreducible(7, 2) == [1, 0, 1]  # t^2 + 1, root-free mod 7
    assert find_irreducible(11, 1) == [0, 1]
    m = find_irreducible(7, 4)
    assert len(m) == 5 and m[-1] == 1
    assert is_irreducible_mod_p(m, 7)


def test_find_irreducible_rootfree_oracle():
    m = find_irreducible(7, 2)
    vals = [(m[0] + m[1] * x + m[2] * x * x) % 7 for x in range(7)]
    assert 0 not in vals


def test_excluded_characteristics():
    for p in (2, 5):
        with pytest.raises(UnsupportedField):
            FieldSpec("prime", p=p)
    with pytest.raises(UnsupportedField):
        GF(7, 5)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(3000) if is_prime(n)] == [n for n in range(3000) if trial(n)]


def test_is_prime_rejects_strong_pseudoprimes():
    # a Carmichael number, and strong pseudoprimes to the first 1, 4 and 9 prime bases
    for n in (561, 2047, 3215031751, 3825123056546413051):
        assert not is_prime(n)
        with pytest.raises(UnsupportedField):
            FieldSpec("prime", p=n)


def test_large_prime_fields_build_fast():
    import time
    for p in (2 ** 61 - 1, 2 ** 127 - 1):
        t0 = time.perf_counter()
        F = GF(p)
        assert time.perf_counter() - t0 < 1.0
        x = F.element(p - 2)
        assert x * F.inv(x) == F.one


def test_extension_modulus_reduced_once():
    F = GF(7, 2, (8, 0, 1))
    assert F.modulus == (1, 0, 1) and F == GF(7, 2, (1, 0, 1))
    assert F.spec.to_json()["modulus"] == [1, 0, 1]


def test_frobenius_fixes_exactly_base():
    for (p, k) in ((7, 2), (11, 2), (7, 4)):
        field = GF(p, k)
        fixed = [e for e in field.elements() if field.frobenius(e) == e]
        assert len(fixed) == p


def test_norm_inverse_and_frobenius_matrix():
    # inv is the norm formula and frobenius the Frobenius matrix; both must
    # agree with plain exponentiation: a^-1 = a^(q-2) and a^p
    def check(field, elements):
        q, p = field.order(), field.p
        for a in elements:
            if field.is_zero(a):
                continue
            assert field.inv(a) == field.pow(a, q - 2)
            assert field.frobenius(a) == field.pow(a, p)
        with pytest.raises(DivisionByZero):
            field.inv(field.zero)
        assert field.frobenius(field.zero) == field.zero

    for (p, k) in ((3, 2), (3, 3), (3, 4), (7, 2)):
        field = GF(p, k)
        check(field, field.elements())
    for (p, k) in ((31, 2), (13, 4), (1009, 2)):
        field = GF(p, k)
        rng = random.Random(p * k)
        check(field, [_sample(field, rng) for _ in range(300)])


def test_mixed_fields_rejected():
    with pytest.raises(MixedFields):
        GF(7).element(1) + GF(11).element(1)


def test_element_rejects_non_rational_values():
    # a float, a string or None is no element of F_p, F_{p^k} or Q, not even
    # one that looks integral: element raises instead of storing it
    for F in (GF(7), GF(7, 2), QQ()):
        for raw in (1.5, 2.0, 0.1, "3", None):
            with pytest.raises(MixedFields):
                F.element(raw)
        assert F.element(Fraction(3, 2)) == F.element(3) / F.element(2)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        GF(7).one / GF(7).zero


@pytest.mark.parametrize("field", [GF(2 ** 40 - 87), GF(31, 2), QQ()], ids=lambda f: f.short_name())
def test_native_invert(field):
    """_invert takes a native value, reduced or not, to its reduced native
    inverse; zero, reduced or not, raises DivisionByZero."""
    rng = random.Random(3)
    m, one = field._modulus, field._native(field.one)
    p = field.characteristic
    zeros = [field._native_zero, 0] + ([3 * p, -p, p ** 3] if p else [Fraction(0, 5)])
    for z in zeros:
        with pytest.raises(DivisionByZero):
            field._invert(z)
    values = [field._native(_sample(field, rng)) for _ in range(200)]
    values += [-v for v in values] + [-4, 7, 1]
    if p:
        values += [5 * p + 2, -(p ** 2) - 3, p - 1]
    for v in values:
        if not v % m:
            continue
        inv = field._invert(v)
        assert v * inv % m == one
        assert inv % m == inv
        assert not isinstance(inv, float)
    if not p:
        assert field._invert(-4) == Fraction(-1, 4) and type(field._invert(2)) is Fraction
        assert field._invert(Fraction(-2, 3)) == Fraction(-3, 2)


@pytest.mark.parametrize("field", [GF(7), GF(2 ** 40 - 87), GF(31, 2), QQ()],
                         ids=lambda f: f.short_name())
def test_element_ops_are_the_native_ops(field):
    """Over F_p and Q an element's value is its reduced native, which _native
    reads and _from_native wraps as is; over Q it is an int exactly when
    integral.  Over every field + - * / and negation of elements agree with
    the native operations, % F._modulus and _invert."""
    rng = random.Random(11)
    m, nat = field._modulus, field._native
    elems = [_sample(field, rng) for _ in range(60)] + [field.zero, field.one, field.element(-3)]
    if field.order() is None:
        elems += [field.element(Fraction(4, 2)), field.from_str("-6/3"), field.from_str("-1/2"),
                  field.one / field.element(Fraction(1, 2)), *field.sqrt(field.element(Fraction(9, 1)))]
    for a in elems:
        if not isinstance(field, ExtensionField):
            assert nat(a) is a.value
            assert field._from_native(a.value).value is a.value
        if field.order() is None:
            assert (type(a.value) is int) == (a.value.denominator == 1), repr(a.value)
        assert nat(-a) == -nat(a) % m
        for b in elems[::7]:
            assert nat(a + b) == (nat(a) + nat(b)) % m
            assert nat(a - b) == (nat(a) - nat(b)) % m
            assert nat(a * b) == (nat(a) * nat(b)) % m
            if b:
                assert nat(a / b) == nat(a) * field._invert(nat(b)) % m
            if field.order() is None:
                assert all(type(c.value) is int for c in (a + b, a - b, a * b)
                           if c.value.denominator == 1)


def test_native_modulus():
    """v % F._modulus is each field's one reduction of a native value: over
    F_p the int p itself, over Q an integral Fraction to its int, over
    F_{p^k} the element unchanged."""
    F = GF(2 ** 40 - 87)
    assert type(F._modulus) is int and F._modulus == F.p
    M = QQ()._modulus
    assert type(Fraction(4, 2) % M) is int and Fraction(4, 2) % M == 2
    assert type(Fraction(1, 2) % M) is Fraction and Fraction(1, 2) % M == Fraction(1, 2)
    assert type(-7 % M) is int and -7 % M == -7
    E = GF(7, 2)
    a = E.from_coeffs([3, 5])
    assert a % E._modulus is a
    # a product over Q that lands on integers keeps int natives
    prod = UniPoly(QQ(), [Fraction(1, 2), Fraction(3, 2)]) * UniPoly(QQ(), [2, 4])
    assert prod._c == (1, 5, 6) and all(type(c) is int for c in prod._c)


def test_eq_rational_with_p_in_denominator_is_false():
    # no element of F_p or F_{p^k} equals a rational whose denominator p divides
    for F in (GF(7), GF(7, 2)):
        assert (F.element(3) == Fraction(1, 7)) is False
        assert (F.zero == Fraction(7, 49)) is False  # Fraction(1, 7) again
        assert F.element(4) == Fraction(1, 2)  # 2 * 4 = 1 mod 7
        assert F.element(3) != Fraction(3, 14)


def test_field_spec_json_round_trip():
    for spec in (FieldSpec("rational"), FieldSpec("prime", p=7),
                 FieldSpec("extension", p=7, k=2, modulus=(1, 0, 1))):
        assert FieldSpec.from_json(spec.to_json()) == spec


def test_element_string_round_trip():
    for field in FIELDS:
        rng = random.Random(5)
        for _ in range(40):
            a = _sample(field, rng)
            assert field.from_str(field.to_str(a)) == a


def _outcome(parse, field, s):
    """The element parse(field, s) gives, or the type and message of its error."""
    try:
        return parse(field, s)
    except G2DivError as exc:
        return type(exc), str(exc)


def _grammar_parse(field, s):
    """The documented element grammar: an optional sign, ASCII digits and one
    optional "/digits" with a nonzero denominator, read by Fraction."""
    if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]*[1-9][0-9]*)?", s):
        raise SerializationError(f"bad element {s!r} for {field}")
    try:
        return field.element(Fraction(s))
    except ValueError as exc:  # past the interpreter's int digit limit, if it has one
        raise SerializationError(f"bad element {s!r} for {field}") from exc


ELEMENT_STRINGS = ("3", " -3 ", "+10", "1_000", "\u0663", "\u00b2", "3/4", "1.5", "1e3", "", "0x10",
                   "1/0", "1/7", "-3/4", "+0/05", "0.1", "3 ", "\t3", "5\n", "1/2/3", "1/", "/2",
                   "+", "-", "--3", "1/-2", "1/+2", "\u0663/2", pytest.param("1" * 5000, id="5000-digits"))


@pytest.mark.parametrize("p", (7, 2 ** 40 - 87))
@pytest.mark.parametrize("s", ELEMENT_STRINGS)
def test_prime_from_str_parses_as_fraction(p, s):
    # from_str reads exactly the grammar "n" or "n/d" (no whitespace, "_",
    # ".", exponent, hex or non-ASCII digits, an Arabic-Indic U+0663 and a
    # superscript U+00B2 included), as Fraction would; a denominator p
    # divides is a division by zero
    F = GF(p)
    assert _outcome(type(F).from_str, F, s) == _outcome(_grammar_parse, F, s)


@pytest.mark.parametrize("s", ELEMENT_STRINGS)
def test_rational_from_str_reads_the_same_grammar(s):
    assert _outcome(type(QQ()).from_str, QQ(), s) == _outcome(_grammar_parse, QQ(), s)


EXTENSION_STRINGS = ("3", "3,5", "+3,-2", "0,0", "-0,+0", "12,-15", " 1_0 , \u0663", "1_0,3", "3,5,1",
                     "", ",", "3,", ",3", "1/2,3", "3 ,5", "3, 5", "\u0663,1", "1e3,2", "0x1,2",
                     "+,3", "--3,1", "3;5", pytest.param("1" * 5000 + ",1", id="5000-digits"))


def _extension_grammar_parse(field, s):
    """At most k comma-separated coefficients, each an optional sign and
    ASCII digits."""
    if not re.fullmatch(r"[+-]?[0-9]+(,[+-]?[0-9]+){0,%d}" % (field.k - 1), s):
        raise SerializationError(f"bad element {s!r} for {field}")
    try:
        return field.from_coeffs([int(c) for c in s.split(",")])
    except ValueError as exc:  # past the interpreter's int digit limit, if it has one
        raise SerializationError(f"bad element {s!r} for {field}") from exc


@pytest.mark.parametrize("s", EXTENSION_STRINGS)
def test_extension_from_str_reads_the_coefficient_grammar(s):
    # over F_{7^2} each coefficient reads as Field.from_str reads an integer:
    # no whitespace, "_", ".", exponent, hex or non-ASCII digits, and no
    # more than k of them
    F = GF(7, 2)
    assert _outcome(type(F).from_str, F, s) == _outcome(_extension_grammar_parse, F, s)
    if s in ("3,5", "+3,-2", " 1_0 , \u0663"):
        assert _outcome(type(F).from_str, F, s) == {"3,5": F.from_coeffs([3, 5]),
                                                    "+3,-2": F.from_coeffs([3, 5]),
                                                    " 1_0 , \u0663": (SerializationError,
                                                                      f"bad element {s!r} for F7^2")}[s]


def test_embedding_round_trip():
    small = GF(7, 2)
    big = GF(7, 4)
    emb = FieldEmbedding(small, big)
    rng = random.Random(3)
    for _ in range(60):
        a = _sample(small, rng)
        b = _sample(small, rng)
        assert pullback(emb, emb.embed(a)) == a
        assert emb.embed(a * b) == emb.embed(a) * emb.embed(b)
        assert emb.embed(a + b) == emb.embed(a) + emb.embed(b)
    with pytest.raises(MixedFields):
        pullback(emb, big.from_coeffs([0, 1]))


@settings(max_examples=200)
@given(st.integers(min_value=-1000, max_value=1000), st.integers(min_value=-1000, max_value=1000))
def test_prime_field_homomorphism_from_integers(a, b):
    F = GF(1009)
    assert F.element(a) + F.element(b) == F.element(a + b)
    assert F.element(a) * F.element(b) == F.element(a * b)


def test_fields_are_interned():
    assert FieldSpec.from_json(GF(7).spec.to_json()).build() is GF(7)
    assert GF(7, 2) is GF(7, 2, modulus=GF(7, 2).modulus)
    assert QQ() is QQ()
    assert copy.deepcopy(GF(7, 2)) is GF(7, 2)
    assert GF(7) != GF(7, 2) and GF(7) != GF(11)


def test_mixed_fields_still_raise_when_interned():
    a, b = GF(7).element(3), GF(7, 2).element(3)
    for op in (lambda: a + b, lambda: a * b, lambda: b - a, lambda: a / b, lambda: a == b):
        with pytest.raises(MixedFields):
            op()


def test_element_defers_to_polynomial_reflected_operators():
    from g2div.polyring import PolyRing
    from g2div.unipoly import UniPoly

    for F in (GF(7), GF(7, 2)):
        c = F.element(2)
        x = PolyRing(F, ("x",), (2,)).var("x")
        poly = x * x + 3
        assert c * poly == poly * c and c + poly == poly + c
        assert c - poly == -(poly - c)
        u = UniPoly(F, [1, 0, 3])
        assert c * u == u * c
        for op in (lambda: c * "2", lambda: c - None, lambda: c / [2]):
            with pytest.raises(TypeError):
                op()
        with pytest.raises(MixedFields):
            c * GF(11).element(2)


def test_repeated_extension_field_is_not_searched_again():
    first = GF(31, 4)
    start = time.perf_counter()
    again = GF(31, 4)
    assert time.perf_counter() - start < 1e-3
    assert again is first
