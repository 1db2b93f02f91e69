"""Build the 3- and 4-torsion fixtures over Q.

The constructions of p127_torsion_fixtures.py, run in exact Fraction
arithmetic on small integer draws, so each curve has rational coefficients
and a rational divisor of known order, and the fixtures do not depend on
the library they check.  Mumford coordinates are u = x^2 + a2*x + a4 and the
support lies on y + b3*x + b5 = 0.

3-torsion (seed 7): draw s, a2, a4, m1, m0 and set m2 = (1 + 3*s^2*a2)/(2s),
m = s*x^3 + m2*x^2 + m1*x + m0 and P = m^2 - s^2*u^3, a monic quintic.  On
y^2 = P(x) the function y - m has divisor 3D - 6*inf, where D has u and
b3*x + b5 = -(m mod u), so D has order 3.

4-torsion (seed 11): draw w = x^2 + w1*x + w0, u and k and set
m0 = (1 - w1*k^2 + 2*a2*k^2)/(2k), m = k*x + m0, h = w*m^2 - k^2*u^2 (a
monic cubic) and P = w*h.  The function y - w*m has divisor 2D + W - 6*inf,
with D given by u and b3*x + b5 = -(w*m mod u) and W the two points
(x, 0) over the roots of w, so 2D = (w, 0) and D has order 4.

Usage: python tests/data/q_torsion_fixtures.py [output directory]
(default: this file's directory).  Writes q_three_torsion.json,
q_three_torsion_d.json, q_four_torsion.json and q_four_torsion_d.json.
"""
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

SMALL = range(-3, 4)  # the integer draws
POSITIVE = range(1, 4)  # s and k, which divide


def mul(f, g):
    """Product of two coefficient lists (ascending)."""
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
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
        r[i - 1] -= c * u[1]
        r[i - 2] -= c * u[0]
    return (r + [0, 0])[:2]


def quintic_to_lambda(p):
    """(l2, l4, l6, l8, l10) of a monic quintic, coefficients ascending and
    zero above x^5."""
    assert p[5] == 1 and not any(p[6:]), "not a monic quintic"
    return [p[4], p[3], p[2], p[1], p[0]]


def rational(c):
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def divisor(u, m_mod_u):
    """The divisor with u and b3*x + b5 = -(m mod u)."""
    r0, r1 = m_mod_u
    return {"type": "nonspecial", "alpha": [rational(u[1]), rational(u[0])],
            "beta": [rational(-r1), rational(-r0)]}


def three_torsion(rng):
    s = rng.choice(POSITIVE)
    a2, a4, m1, m0 = (rng.choice(SMALL) for _ in range(4))
    m2 = Fraction(1 + 3 * s * s * a2, 2 * s)
    u = [a4, a2, 1]
    m = [m0, m1, m2, s]
    quintic = sub(mul(m, m), scale(mul(mul(u, u), u), s * s))
    return quintic_to_lambda(quintic), divisor(u, mod_monic_quadratic(m, u))


def four_torsion(rng):
    w1, w0, a2, a4 = (rng.choice(SMALL) for _ in range(4))
    k = rng.choice(POSITIVE)
    m0 = Fraction(1 - w1 * k * k + 2 * a2 * k * k, 2 * k)
    w, u, m = [w0, w1, 1], [a4, a2, 1], [m0, k]
    h = sub(mul(w, mul(m, m)), scale(mul(u, u), k * k))
    return quintic_to_lambda(mul(w, h)), divisor(u, mod_monic_quadratic(mul(w, m), u))


def curve(lam):
    return {"field": {"kind": "rational"}, "form": "canonical",
            "lambda": [rational(c) for c in lam]}


def main(out: Path):
    for name, build, seed in (("three", three_torsion, 7), ("four", four_torsion, 11)):
        lam, d = build(random.Random(seed))
        (out / f"q_{name}_torsion.json").write_text(json.dumps(curve(lam)) + "\n")
        (out / f"q_{name}_torsion_d.json").write_text(json.dumps(d) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent)
