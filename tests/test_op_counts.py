"""Field-operation counts of the two generic group-law kernels.

Over F_p the kernels compute on plain ints, so a counting native stands in
for them: a slotted int subclass whose operators tally native products,
products by integer constants, additions and reductions (% p), under a
PrimeField whose _invert tallies too.  The counts do not depend on the machine,
so they pin the cost of _double_generic and _add_generic next to the
affine costs in T. Lange, "Formulae for arithmetic on genus 2
hyperelliptic curves", AAECC 15 (2005): addition 1I + 22M + 3S, doubling
1I + 22M + 5S (README tabulates both), and the cost of the kernels' path
to a single-point sum.
"""
import random
from collections import Counter

from g2div import cantor, grouplaw, unipoly
from g2div.curves import CanonicalCurve
from g2div.divisors import mumford_from_points
from g2div.fields import FieldSpec, GF, PrimeField

P40 = 2 ** 40 - 87
COUNTS = Counter()


def _wrap(v):
    return v if type(v) is not int else Counting(v)


class Counting(int):
    """An F_p native that counts what is done to it; negation is free."""

    __slots__ = ()

    def __mul__(self, other):
        COUNTS["products" if isinstance(other, Counting) else "by_constant"] += 1
        return _wrap(int.__mul__(self, other))

    def __rmul__(self, other):
        COUNTS["by_constant"] += 1
        return _wrap(int.__rmul__(self, other))

    def __add__(self, other):
        COUNTS["additions"] += 1
        return _wrap(int.__add__(self, other))

    def __radd__(self, other):
        COUNTS["additions"] += 1
        return _wrap(int.__radd__(self, other))

    def __sub__(self, other):
        COUNTS["additions"] += 1
        return _wrap(int.__sub__(self, other))

    def __rsub__(self, other):
        COUNTS["additions"] += 1
        return _wrap(int.__rsub__(self, other))

    def __mod__(self, other):
        COUNTS["reductions"] += 1
        return Counting(int.__mod__(self, other))

    def __neg__(self):
        return Counting(int.__neg__(self))

    def __pow__(self, e, mod=None):
        if mod is None:  # x ** e as e - 1 products
            COUNTS["products"] += e - 1
        return _wrap(int.__pow__(int(self), e, mod))


class CountingPrimeField(PrimeField):
    """F_p whose natives are Counting ints; _invert is tallied."""

    def _native(self, a):
        return Counting(a.value)

    def _invert(self, v):
        COUNTS["inversions"] += 1
        return Counting(PrimeField._invert(self, v))


def _curve_points(p, k=1):
    """The curve y^2 = x^5 + x^4 + 2x^3 + 3x^2 + 4x + 5 over F_{p^k} and its
    first four points with x = 1, 2, ..."""
    F = GF(p, k)
    curve = CanonicalCurve(F, (1, 2, 3, 4, 5))
    pts = []
    x = 0
    while len(pts) < 4:
        x += 1
        roots = F.sqrt(curve.p_at(F.element(x)))
        if roots:
            pts.append((F.element(x), roots[0]))
    return curve, pts


def _inputs():
    """The curve over F_{2^40-87} and two degree-2 divisors on it."""
    curve, pts = _curve_points(P40)
    return curve, mumford_from_points(curve, *pts[:2]), mumford_from_points(curve, *pts[2:])


KINDS = ("products", "by_constant", "additions", "reductions", "inversions")


def _count(kernel, *args):
    COUNTS.clear()
    out = kernel(*args)
    return out, tuple(COUNTS[k] for k in KINDS)


# (native products, products by integer constants, additions, reductions,
# _invert calls); a repeated point 2S doubles in the same kernel, at
# the same cost
DOUBLE_COUNTS = (29, 1, 35, 10, 1)
ADD_COUNTS = (25, 0, 26, 10, 1)
REPEATED_DOUBLE_COUNTS = (29, 1, 35, 10, 1)


def _double_counts(curve, D):
    F = CountingPrimeField(FieldSpec("prime", p=P40))
    lam = tuple(map(F._native, curve.lam))
    got, counts = _count(grouplaw._double_generic, F, lam, tuple(map(Counting, D.native)))
    assert got == grouplaw.double(D, curve).native
    return counts


def test_double_generic_counts():
    curve, D, _ = _inputs()
    assert _double_counts(curve, D) == DOUBLE_COUNTS


def test_repeated_point_double_counts():
    curve, pts = _curve_points(P40)
    D = mumford_from_points(curve, pts[0], pts[0])
    assert _double_counts(curve, D) == REPEATED_DOUBLE_COUNTS


def test_add_generic_counts():
    curve, P, Q = _inputs()
    F = CountingPrimeField(FieldSpec("prime", p=P40))
    pc, qc = (tuple(map(Counting, D.native)) for D in (P, Q))
    got, counts = _count(grouplaw._add_generic, F, F._native(curve.lam[0]), pc, qc)
    assert got == grouplaw.add(P, Q, curve).native
    assert counts == ADD_COUNTS


# the s1 = 0 path, where _compose returns the single point: two _invert
# calls, the one of r'*s1n that raises and then 1/r'; the point's record
# holds its two reduced natives as they are
ADD_TO_SPECIAL_COUNTS = (15, 0, 15, 6, 2)
DOUBLE_TO_SPECIAL_COUNTS = (19, 1, 24, 6, 2)


def _special_inputs():
    """Over F_1009, the first pair of a seeded draw of divisors whose sum is
    a single point, and the first divisor of it whose double is one."""
    curve, _ = _curve_points(1009)
    F, rng = curve.field, random.Random(1)

    def divisor():
        while True:
            x1, x2 = (F.element(rng.randrange(1009)) for _ in range(2))
            r1, r2 = F.sqrt(curve.p_at(x1)), F.sqrt(curve.p_at(x2))
            if r1 and r2 and x1 != x2:
                return mumford_from_points(curve, (x1, rng.choice(r1)), (x2, rng.choice(r2)))

    pair = next(pq for pq in iter(lambda: (divisor(), divisor()), None)
                if grouplaw.add_traced(*pq, curve)[1] == "add_to_special")
    D = next(D for D in iter(divisor, None) if grouplaw.double_traced(D, curve)[1] == "double_to_special")
    return curve, pair, D


def test_special_path_counts():
    curve, (P, Q), D = _special_inputs()
    F = CountingPrimeField(FieldSpec("prime", p=1009))
    pc, qc, dc = (tuple(map(Counting, X.native)) for X in (P, Q, D))
    got, counts = _count(grouplaw._add_generic, F, F._native(curve.lam[0]), pc, qc)
    assert got.is_special() and got.native == grouplaw.add(P, Q, curve).native
    assert counts == ADD_TO_SPECIAL_COUNTS
    lam = tuple(map(F._native, curve.lam))
    got, counts = _count(grouplaw._double_generic, F, lam, dc)
    assert got.is_special() and got.native == grouplaw.double(D, curve).native
    assert counts == DOUBLE_TO_SPECIAL_COUNTS


# the native sum of a degree-2 divisor and a point, add_traced's add_special
# branch: the point's curve equation, u_P(xq), its one inversion, g1 and the
# weight-5 function's sum
ADD_SPECIAL_COUNTS = (16, 1, 22, 6, 1)


def test_add_special_counts():
    curve, pts = _curve_points(P40)
    P = mumford_from_points(curve, *pts[:2])
    counting = CanonicalCurve(CountingPrimeField(FieldSpec("prime", p=P40)), curve.native)
    xq, yq = (Counting(v.value) for v in pts[2])
    got, counts = _count(grouplaw._add_special, counting, tuple(map(Counting, P.native)), xq, yq)
    assert got == grouplaw.add_special(P, pts[2], curve).native
    assert counts == ADD_SPECIAL_COUNTS


# (_double_generic, _add_generic, _invert calls) of one 128-bit scalar_mul
# over F_{2^40-87}: 128 doubles, one of them the precomputation's 2D, three
# adds for 3D, 5D, 7D and one per nonzero digit below the top one, each
# kernel with its one inversion
LADDER_SCALAR = 0xB7E151628AED2A6ABF7158809CF4F3C7
LADDER_COUNTS = (128, 30, 158)


def test_scalar_mul_ladder_counts(monkeypatch):
    curve, P, _ = _inputs()
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("_double_generic", "_add_generic"):
        monkeypatch.setattr(grouplaw, name, counted(name, getattr(grouplaw, name)))
    monkeypatch.setattr(PrimeField, "_invert", counted("_invert", PrimeField._invert))
    nonzero = sum(map(bool, grouplaw._wnaf(LADDER_SCALAR)))
    grouplaw.scalar_mul(LADDER_SCALAR, P, curve)
    got = (calls["_double_generic"], calls["_add_generic"], calls["_invert"])
    assert got == LADDER_COUNTS and got[1] == 3 + nonzero - 1


def test_counting_native_stays_counting():
    F = CountingPrimeField(FieldSpec("prime", p=P40))
    a, b = F._native(F.element(3)), F._native(F.element(5))
    COUNTS.clear()
    c = 2 * (a * b) - a + (-b) + 7
    assert type(c) is Counting and c == 29
    assert COUNTS == {"products": 1, "by_constant": 1, "additions": 3}


# ---------------------------------------------------------------------------
# the Cantor oracle's polynomial operations

KERNELS = ("_add", "_sub", "_mul", "_submul", "_scale", "_monic", "_rem", "_exact_div", "_xgcd")
# each list kernel under every kind of work it does: _submul (a - b*c) is a
# product and an addition, and _rem is every division (a remainder, an exact
# division, a negated remainder, a Euclidean step of _xgcd); "calls" counts
# every kernel call, one kernel's call of another included
POLY_KINDS = {"products": ("_mul", "_submul"), "divisions": ("_rem",),
              "additions": ("_add", "_sub", "_submul"), "xgcd": ("_xgcd",), "calls": KERNELS}


def _count_poly_ops(monkeypatch):
    """Tally unipoly's list kernels as the oracle runs them, by POLY_KINDS.
    Each kernel is patched in unipoly, where the kernels call one another,
    and in cantor, which imports them by name; a kernel listed under two
    kinds is wrapped twice and counts in both."""
    def counted(kind, kernel):
        def wrapper(*args):
            COUNTS[kind] += 1
            return kernel(*args)
        return wrapper

    for kind, names in POLY_KINDS.items():
        for name in names:
            wrapper = counted(kind, getattr(unipoly, name))
            for module in (unipoly, cantor):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)


# unipoly kernel work (products, divisions, additions, xgcd calls, kernel
# calls) of one cantor_add, the same over F_1009 (int natives) and F_{7^2}
# (element natives); README tabulates them
CANTOR_COUNTS = {"coprime": (6, 5, 5, 1, 18), "double": (5, 4, 6, 1, 17), "shared": (10, 7, 10, 2, 28),
                 "involute": (8, 8, 8, 2, 27)}


def _check_cantor_counts(monkeypatch, p, k):
    # {P1, P2} plus {P3, P4}, plus itself, plus {P1, P3} (d = 1) and plus
    # {-P1, P3} (d = x - x1)
    curve, (p1, p2, p3, p4) = _curve_points(p, k)
    D1 = mumford_from_points(curve, p1, p2)
    p1_ = (p1[0], -p1[1])
    cases = {"coprime": (D1, mumford_from_points(curve, p3, p4)), "double": (D1, D1),
             "shared": (D1, mumford_from_points(curve, p1, p3)),
             "involute": (D1, mumford_from_points(curve, p1_, p3))}
    _count_poly_ops(monkeypatch)
    for how, (P, Q) in cases.items():
        a, b = cantor.from_mumford(P), cantor.from_mumford(Q)
        COUNTS.clear()
        got = cantor.cantor_add(a, b, curve)
        counts = tuple(COUNTS[k] for k in POLY_KINDS)
        assert cantor.to_mumford(got) == grouplaw.add(P, Q, curve), how
        assert counts == CANTOR_COUNTS[how], how


def test_cantor_add_poly_op_counts(monkeypatch):
    _check_cantor_counts(monkeypatch, 1009, 1)


def test_cantor_add_poly_op_counts_over_f49(monkeypatch):
    # the element path: F_{7^2}'s natives are elements, and the kernels run
    # the same calls on them
    _check_cantor_counts(monkeypatch, 7, 2)
