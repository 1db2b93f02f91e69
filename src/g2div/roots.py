"""Root finding over a field: the roots of a univariate polynomial in its base
field and the distinct irreducible factors of degree 1 or 2 over F_q.

Loaded on first use, so a call that finds no roots never compiles it: by
curves.branch_points, torsion.two_torsion_divisors, models and extension.
Its names resolve through g2div.unipoly too (PEP 562).
"""
from __future__ import annotations

from .errors import DivisionByZero
from .unipoly import UniPoly, gcd


def powmod(base: UniPoly, e: int, m: UniPoly) -> UniPoly:
    """base^e mod m by repeated squaring, e >= 0."""
    result = UniPoly.one(base.field) % m
    base = base % m
    while e:
        if e & 1:
            result = result * base % m
        e >>= 1
        if e:
            base = base * base % m
    return result


def roots_in_field(poly: UniPoly) -> list:
    """All distinct roots of poly in its base field, sorted by sort_key.

    Over F_q: Rabin's g = gcd(f, x^q - x) collects the roots, and
    Cantor-Zassenhaus equal-degree splitting separates them, so the cost is
    polylogarithmic in q.  Over Q the monic rational-root search runs on the
    cleared-denominator model.
    """
    F = poly.field
    if poly.is_zero():
        raise DivisionByZero("zero polynomial has every root")
    if F.order() is not None:
        return sorted((-h[0] for h in factors_of_degree(poly.monic(), 1)), key=F.sort_key)
    found = []
    # rational roots: substitute x = u/c with c clearing denominators, monic in u
    from fractions import Fraction
    from math import lcm
    if poly.degree() == 0:
        return []
    coeffs = [c.value for c in poly.coeffs]
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


def factors_of_degree(f: UniPoly, d: int) -> list:
    """The distinct monic irreducible factors of degree d (1 or 2) of monic f
    over F_q, q odd (Rabin; Cantor-Zassenhaus).

    g = gcd(f, x^(q^d) - x) is the product of the distinct irreducible
    factors whose degree divides d; for d = 2 the linear ones are divided out.
    A factor h of g of degree above d splits as
    gcd(h, (x + c)^((q^d-1)/2) - 1), the factors w whose roots r have r + c
    a nonzero square in F_{q^d}, that is (-1)^d * w(-c) a nonzero square in
    F_q, whenever that gcd is proper.  For d <= 2 some c in F_q separates any
    two factors (for d = 2 by the Weil bound once q > 9, and by a full check
    of every pair for q in {3, 7, 9}); for c uniform over F_q each pair
    separates with probability about 1/2.  The shifts c come from a fixed
    seed, so the work is deterministic, and they range over the whole field:
    inside F_{p^k}, k even, every element of F_p is a square, so shifts c in
    F_p would separate two roots lying in F_p only at c = -r, after O(p)
    tries.
    """
    if f.degree() < 1:
        return []
    F = f.field
    q = F.order()
    x = UniPoly.x(F)
    g = gcd(f, powmod(x, q ** d, f) - x)
    if d == 2:
        g = g.exact_div(gcd(g, powmod(x, q, g) - x))
    import random  # only this split draws shifts
    rng = random.Random(q)
    e = (q ** d - 1) // 2
    factors, todo = [], [g] if g.degree() > 0 else []
    while todo:
        h = todo.pop()
        if h.degree() == d:
            factors.append(h)
            continue
        while True:
            c = F._element_at(rng.randrange(q))
            s = gcd(h, powmod(x + c, e, h) - 1)
            if 0 < s.degree() < h.degree():
                break
        todo += [s, h.exact_div(s)]
    return factors
