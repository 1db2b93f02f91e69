"""Root finding over a field: the roots of a univariate polynomial in its base
field and its distinct irreducible factors of degree 1 or 2, over F_q by
Rabin and Cantor-Zassenhaus, and over Q by the same split modulo one prime.

Loaded on first use, so a call that finds no roots never compiles it: by
curves.branch_points, torsion.two_torsion_divisors, models and extension.
Its names resolve through g2div.unipoly too (PEP 562).
"""
from __future__ import annotations

from itertools import combinations
from math import lcm

from .errors import DivisionByZero
from .fields import GF, is_prime
from .unipoly import UniPoly, _mul, _poly, _rem, gcd


def powmod(base: UniPoly, e: int, m: UniPoly) -> UniPoly:
    """base^e mod m by repeated squaring, e >= 0, on unipoly's list kernels:
    one UniPoly, the result, is built."""
    F, mod = base.field, m._c
    result, b = _rem(F, [F._native_one], mod), _rem(F, base._c, mod)
    while e:
        if e & 1:
            result = _rem(F, _mul(F, result, b), mod)
        e >>= 1
        if e:
            b = _rem(F, _mul(F, b, b), mod)
    return _poly(F, result)


def roots_in_field(poly: UniPoly) -> list:
    """All distinct roots of poly in its base field, sorted by sort_key: the
    roots of its linear factors (factors_of_degree)."""
    F = poly.field
    if poly.is_zero():
        raise DivisionByZero("zero polynomial has every root")
    return sorted((-h[0] for h in factors_of_degree(poly.monic(), 1)), key=F.sort_key)


def factors_of_degree(f: UniPoly, d: int) -> list:
    """The distinct monic irreducible factors of degree d (1 or 2) of monic f
    over F_q, q odd (Rabin; Cantor-Zassenhaus), or over Q (_factors_over_q).

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
    if q is None:
        return _factors_over_q(f, d)
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


def _factors_over_q(f: UniPoly, d: int) -> list:
    """factors_of_degree over Q by one large prime (von zur Gathen and
    Gerhard, Modern Computer Algebra, ch. 15).  The monic factors over Q of
    g(u) = c^n * f(u/c), monic in Z[u], are integral (Gauss), and its roots
    lie below R = 1 + max|g_i| (Cauchy), so the coefficients of a factor of
    degree d lie below (2R)^d / 2: they are the symmetric residues of its
    image mod a prime p > (2R)^d, which is a linear factor of g mod p, or for
    d = 2 an irreducible quadratic or a product of two distinct linear ones
    (its discriminant (r1 - r2)^2 lies below 4R^2 < p, so no square).  A lift,
    coefficient i divided by c^(d-i), is kept when it divides f and, for
    d = 2, its discriminant is not a square.  p follows a power of two above
    8 (so is never the excluded 5), and GF caches one field per bit length."""
    F, n = f.field, f.degree()
    c = lcm(*(a.denominator for a in f._c))
    g = [int(a * c ** (n - i)) for i, a in enumerate(f._c)]
    p = 2 ** ((2 + 2 * max(map(abs, g))) ** d).bit_length() + 1
    while not is_prime(p):
        p += 2
    gp = UniPoly(GF(p), g)
    lin = factors_of_degree(gp, 1)
    images = lin if d == 1 else factors_of_degree(gp, 2) + [a * b for a, b in combinations(lin, 2)]
    out = []
    for h in images:
        s = [v - p if 2 * v > p else v for v in h._c]
        w = UniPoly(F, [v * c ** i for i, v in enumerate(s)]).monic()  # h(c*x) / c^d
        if (f % w).is_zero() and (d == 1 or not F.is_square(F.element(s[1] ** 2 - 4 * s[0]))):
            out.append(w)
    return out
