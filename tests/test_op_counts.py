"""Field-operation counts of the two generic group-law kernels.

Over F_p the kernels compute on plain ints, so a counting native stands in
for them: a slotted int subclass whose operators tally native products,
products by integer constants and additions, under a PrimeField whose
_reduce and _invert tally too.  The counts do not depend on the machine,
so they pin the cost of _double_generic and _add_generic next to the
affine costs in T. Lange, "Formulae for arithmetic on genus 2
hyperelliptic curves", AAECC 15 (2005): addition 1I + 22M + 3S, doubling
1I + 22M + 5S (README tabulates both).
"""
from collections import Counter

from g2div import grouplaw
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

    def __neg__(self):
        return Counting(int.__neg__(self))

    def __pow__(self, e, mod=None):
        if mod is None:  # x ** e as e - 1 products
            COUNTS["products"] += e - 1
        return _wrap(int.__pow__(int(self), e, mod))


class CountingPrimeField(PrimeField):
    """F_p whose natives are Counting ints; _reduce and _invert are tallied."""

    def _native(self, a):
        return Counting(a.value)

    def _reduce(self, v):
        COUNTS["reductions"] += 1
        return Counting(v % self.p)

    def _invert(self, v):
        COUNTS["inversions"] += 1
        return Counting(PrimeField._invert(self, v))


def _inputs():
    """The curve y^2 = x^5 + x^4 + 2x^3 + 3x^2 + 4x + 5 over F_{2^40-87} and
    two degree-2 divisors on it, from the first points with x = 1, 2, ..."""
    F = GF(P40)
    curve = CanonicalCurve(F, (1, 2, 3, 4, 5))
    pts = []
    x = 0
    while len(pts) < 4:
        x += 1
        roots = F.sqrt(curve.p_at(F.element(x)))
        if roots:
            pts.append((F.element(x), roots[0]))
    return curve, mumford_from_points(curve, *pts[:2]), mumford_from_points(curve, *pts[2:])


KINDS = ("products", "by_constant", "additions", "reductions", "inversions")


def _count(kernel, *args):
    COUNTS.clear()
    out = kernel(*args)
    return out, tuple(COUNTS[k] for k in KINDS)


# (native products, products by integer constants, additions, _reduce
# calls, _invert calls)
DOUBLE_COUNTS = (39, 10, 37, 12, 1)
ADD_COUNTS = (39, 0, 38, 10, 1)


def test_double_generic_counts():
    curve, D, _ = _inputs()
    F = CountingPrimeField(FieldSpec("prime", p=P40))
    lam = tuple(map(F._native, curve.lam[:4]))
    got, counts = _count(grouplaw._double_generic, F, lam, tuple(map(F._native, D.coords)))
    assert got == grouplaw._natives(grouplaw.double(D, curve))
    assert counts == DOUBLE_COUNTS


def test_add_generic_counts():
    curve, P, Q = _inputs()
    F = CountingPrimeField(FieldSpec("prime", p=P40))
    pc, qc = (tuple(map(F._native, D.coords)) for D in (P, Q))
    got, counts = _count(grouplaw._add_generic, F, F._native(curve.lam[0]), pc, qc)
    assert got == grouplaw._natives(grouplaw.add(P, Q, curve))
    assert counts == ADD_COUNTS


def test_counting_native_stays_counting():
    F = CountingPrimeField(FieldSpec("prime", p=P40))
    a, b = F._native(F.element(3)), F._native(F.element(5))
    COUNTS.clear()
    c = 2 * (a * b) - a + (-b) + 7
    assert type(c) is Counting and c == 29
    assert COUNTS == {"products": 1, "by_constant": 1, "additions": 3}
