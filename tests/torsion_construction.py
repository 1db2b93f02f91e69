"""Curves built around a divisor of known order 3 or 4, over any field.

Each construction is plain ring arithmetic on the elements of an arithmetic
passed in, so one transcription serves F_p, F_{p^2} and Q, and imports
nothing from the library it checks.  An arithmetic supplies draw and
draw_nonzero (from a random.Random), inv, str (the library's element string)
and spec (the JSON field spec); its elements take +, - and * with each other
and with ints.  u = x^2 + a2*x + a4, and D's support lies on
y + b3*x + b5 = 0.

3-torsion: draw s != 0, a2, a4, m1, m0 and set m2 = (1 + 3*s^2*a2)/(2s),
m = s*x^3 + m2*x^2 + m1*x + m0 and P = m^2 - s^2*u^3, a monic quintic.  On
y^2 = P(x), y - m has divisor 3D - 6*inf with D = (u, b3*x + b5 = -(m mod u)).

4-torsion: draw w = x^2 + w1*x + w0, u and k != 0 and set
m0 = (1 - w1*k^2 + 2*a2*k^2)/(2k), m = k*x + m0, h = w*m^2 - k^2*u^2 and
P = w*h.  y - w*m has divisor 2D + W - 6*inf with D = (u, -(w*m mod u)) and
W the points (x, 0) over the roots of w, so 2D = (w, 0) and D has order 4.

The variants draw after those draws, so a seed's plain draw stays the same:
"split" draws u's two distinct roots, and "branch" (n = 3) draws e and
r != 0 and sets a4 so that u(e) = r^2 and m0 so that m(e) = s*r^3.  Then
P(e) = 0, and (e, 0) + D has order 6.

Usage: python tests/torsion_construction.py [output directory]
(default tests/data) writes <prefix>_three_torsion.json,
<prefix>_three_torsion_d.json, <prefix>_four_torsion.json and
<prefix>_four_torsion_d.json for each prefix of FIXTURES.
"""
import json
import random
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path


class IntsModP:
    """F_p on plain ints, reduced where they are inverted or printed."""

    def __init__(self, p):
        self.p = p
        self.spec = {"kind": "prime", "p": p}

    def draw(self, rng):
        return rng.randrange(self.p)

    def draw_nonzero(self, rng):
        return rng.randrange(1, self.p)

    def inv(self, a):
        return pow(a, -1, self.p)

    def str(self, a):
        return str(a % self.p)


class Rationals:
    """Q on Fraction, with small integer draws."""

    SMALL = range(-3, 4)
    POSITIVE = range(1, 4)  # s and k, which divide
    spec = {"kind": "rational"}

    def draw(self, rng):
        return Fraction(rng.choice(self.SMALL))

    def draw_nonzero(self, rng):
        return Fraction(rng.choice(self.POSITIVE))

    def inv(self, a):
        return 1 / a

    def str(self, a):
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"


class QuadraticExtension:
    """F_{p^2} = F_p[t]/(t^2 - c), c the least non-residue mod p by Euler's
    criterion; a + b*t prints as "a,b"."""

    def __init__(self, p):
        self.p = p
        self.c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
        self.spec = {"kind": "extension", "p": p, "k": 2, "modulus": [-self.c % p, 0, 1]}

    def draw(self, rng):
        return Quadratic(self, rng.randrange(self.p), rng.randrange(self.p))

    def draw_nonzero(self, rng):
        return Quadratic(self, rng.randrange(1, self.p), rng.randrange(self.p))

    def inv(self, a):
        n = pow(a.a * a.a - self.c * a.b * a.b, -1, self.p)
        return Quadratic(self, a.a * n, -a.b * n)

    def str(self, a):
        return f"{a.a},{a.b}"


class Quadratic:
    """a + b*t in a QuadraticExtension F; an int n is n + 0*t."""

    __slots__ = ("F", "a", "b")

    def __init__(self, F, a, b=0):
        self.F, self.a, self.b = F, a % F.p, b % F.p

    def _lift(self, o):
        return o if isinstance(o, Quadratic) else Quadratic(self.F, o)

    def __add__(self, o):
        o = self._lift(o)
        return Quadratic(self.F, self.a + o.a, self.b + o.b)

    def __neg__(self):
        return Quadratic(self.F, -self.a, -self.b)

    def __sub__(self, o):
        return self + -self._lift(o)

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        o = self._lift(o)
        return Quadratic(self.F, self.a * o.a + self.F.c * self.b * o.b, self.a * o.b + self.b * o.a)

    __radd__ = __add__
    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# polynomials as ascending coefficient lists

def mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return out


def sub(f, g):
    n = max(len(f), len(g))
    f, g = f + [0] * (n - len(f)), g + [0] * (n - len(g))
    return [a - b for a, b in zip(f, g)]


def scale(f, c):
    return [a * c for a in f]


def mod_monic_quadratic(f, u):
    """f mod u for monic quadratic u = [a4, a2, 1], as [r0, r1]."""
    r = list(f)
    for i in range(len(r) - 1, 1, -1):
        c = r[i]
        r[i] = 0
        r[i - 1] = r[i - 1] - c * u[1]
        r[i - 2] = r[i - 2] - c * u[0]
    return (r + [0, 0])[:2]


# ---------------------------------------------------------------------------
# the constructions

# lam = (l2, l4, l6, l8, l10) of P; D = (a2, a4, b3, b5); e a branch point
# with T + D of order 6, or None
Construction = namedtuple("Construction", "n lam D e")


def _construction(n, quintic, u, m_mod_u, e=None):
    """The curve y^2 = quintic (ascending, monic, zero above x^5) and the
    divisor with u and b3*x + b5 = -(m mod u)."""
    r0, r1 = m_mod_u
    return Construction(n, tuple(quintic[4::-1]), (u[1], u[0], -r1, -r0), e)


def _split(A, rng):
    """(a2, a4) of u = (x - x1)(x - x2) for two distinct drawn roots."""
    x1 = A.draw(rng)
    x2 = x1 + A.draw_nonzero(rng)
    return -(x1 + x2), x1 * x2


def three_torsion(A, rng, variant=None):
    s = A.draw_nonzero(rng)
    a2, a4, m1, m0 = (A.draw(rng) for _ in range(4))
    if variant == "split":
        a2, a4 = _split(A, rng)
    m2 = (1 + 3 * s * s * a2) * A.inv(2 * s)
    e = None
    if variant == "branch":
        e, r = A.draw(rng), A.draw_nonzero(rng)
        a4 = r * r - e * e - a2 * e
        m0 = s * r * r * r - ((s * e + m2) * e + m1) * e
    u, m = [a4, a2, 1], [m0, m1, m2, s]
    quintic = sub(mul(m, m), scale(mul(mul(u, u), u), s * s))
    return _construction(3, quintic, u, mod_monic_quadratic(m, u), e)


def four_torsion(A, rng, variant=None):
    w1, w0, a2, a4 = (A.draw(rng) for _ in range(4))
    k = A.draw_nonzero(rng)
    if variant == "split":
        a2, a4 = _split(A, rng)
    m0 = (1 - w1 * k * k + 2 * a2 * k * k) * A.inv(2 * k)
    w, u, m = [w0, w1, 1], [a4, a2, 1], [m0, k]
    h = sub(mul(w, mul(m, m)), scale(mul(u, u), k * k))
    return _construction(4, mul(w, h), u, mod_monic_quadratic(mul(w, m), u))


CONSTRUCTIONS = {3: three_torsion, 4: four_torsion}


def curve_json(A, c: Construction) -> dict:
    return {"field": A.spec, "form": "canonical", "lambda": [A.str(v) for v in c.lam]}


def divisor_json(A, c: Construction) -> dict:
    a2, a4, b3, b5 = map(A.str, c.D)
    return {"type": "nonspecial", "alpha": [a2, a4], "beta": [b3, b5]}


# ---------------------------------------------------------------------------
# the committed fixtures: seed 7 for n = 3 and seed 11 for n = 4 in each field

FIXTURES = (("p127", IntsModP(2 ** 127 - 1)), ("q", Rationals()),
            ("p61sq", QuadraticExtension(2 ** 61 - 1)))
SEEDS = (("three", 3, 7), ("four", 4, 11))


def main(out: Path):
    for prefix, A in FIXTURES:
        for name, n, seed in SEEDS:
            c = CONSTRUCTIONS[n](A, random.Random(seed))
            stem = f"{prefix}_{name}_torsion"
            (out / f"{stem}.json").write_text(json.dumps(curve_json(A, c)) + "\n")
            (out / f"{stem}_d.json").write_text(json.dumps(divisor_json(A, c)) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent / "data")
