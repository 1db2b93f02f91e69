"""Build the 3- and 4-torsion fixtures over GF(2^127 - 1).

Each curve is constructed around a divisor of known order, with plain
integer arithmetic mod p, so the fixtures do not depend on the library they
check.  Mumford coordinates are u = x^2 + a2*x + a4 and the support lies on
y + b3*x + b5 = 0.

3-torsion (seed 7): draw s, a2, a4, m1, m0 and set m2 = (1 + 3*s^2*a2)/(2s),
m = s*x^3 + m2*x^2 + m1*x + m0 and P = m^2 - s^2*u^3, a monic quintic.  On
y^2 = P(x) the function y - m has divisor 3D - 6*inf, where D has u and
b3*x + b5 = -(m mod u), so D has order 3.

4-torsion (seed 11): draw w = x^2 + w1*x + w0, u and k and set
m0 = (1 - w1*k^2 + 2*a2*k^2)/(2k), m = k*x + m0, h = w*m^2 - k^2*u^2 (a
monic cubic) and P = w*h.  The function y - w*m has divisor 2D + W - 6*inf,
with D given by u and b3*x + b5 = -(w*m mod u) and W the two points
(x, 0) over the roots of w, so 2D = (w, 0) and D has order 4.

Usage: python tests/data/p127_torsion_fixtures.py [output directory]
(default: this file's directory).  Writes p127_three_torsion.json,
p127_three_torsion_d.json, p127_four_torsion.json and
p127_four_torsion_d.json.
"""
import json
import random
import sys
from pathlib import Path

P = 2 ** 127 - 1


def inv(a):
    return pow(a, -1, P)


def mul(f, g):
    """Product of two coefficient lists (ascending) mod P."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % P
    return out


def sub(f, g):
    n = max(len(f), len(g))
    f, g = f + [0] * (n - len(f)), g + [0] * (n - len(g))
    return [(a - b) % P for a, b in zip(f, g)]


def scale(f, c):
    return [a * c % P for a in f]


def mod_monic_quadratic(f, u):
    """f mod u for monic quadratic u = [a4, a2, 1], as [r0, r1]."""
    r = list(f)
    for i in range(len(r) - 1, 1, -1):
        c = r[i]
        r[i] = 0
        r[i - 1] = (r[i - 1] - c * u[1]) % P
        r[i - 2] = (r[i - 2] - c * u[0]) % P
    return (r + [0, 0])[:2]


def quintic_to_lambda(p):
    """(l2, l4, l6, l8, l10) of a monic quintic, coefficients ascending and
    zero above x^5."""
    assert p[5] == 1 and not any(p[6:]), "not a monic quintic"
    return [p[4], p[3], p[2], p[1], p[0]]


def divisor(u, m_mod_u):
    """The divisor with u and b3*x + b5 = -(m mod u)."""
    r0, r1 = m_mod_u
    return {"type": "nonspecial", "alpha": [str(u[1]), str(u[0])],
            "beta": [str(-r1 % P), str(-r0 % P)]}


def three_torsion(rng):
    s = rng.randrange(1, P)
    a2, a4, m1, m0 = (rng.randrange(P) for _ in range(4))
    m2 = (1 + 3 * s * s * a2) * inv(2 * s) % P
    u = [a4, a2, 1]
    m = [m0, m1, m2, s]
    quintic = sub(mul(m, m), scale(mul(mul(u, u), u), s * s))
    return quintic_to_lambda(quintic), divisor(u, mod_monic_quadratic(m, u))


def four_torsion(rng):
    w1, w0, a2, a4 = (rng.randrange(P) for _ in range(4))
    k = rng.randrange(1, P)
    m0 = (1 - w1 * k * k + 2 * a2 * k * k) * inv(2 * k) % P
    w, u, m = [w0, w1, 1], [a4, a2, 1], [m0, k]
    h = sub(mul(w, mul(m, m)), scale(mul(u, u), k * k))
    return quintic_to_lambda(mul(w, h)), divisor(u, mod_monic_quadratic(mul(w, m), u))


def curve(lam):
    return {"field": {"kind": "prime", "p": P}, "form": "canonical",
            "lambda": [str(c) for c in lam]}


def main(out: Path):
    for name, build, seed in (("three", three_torsion, 7), ("four", four_torsion, 11)):
        lam, d = build(random.Random(seed))
        (out / f"p127_{name}_torsion.json").write_text(json.dumps(curve(lam)) + "\n")
        (out / f"p127_{name}_torsion_d.json").write_text(json.dumps(d) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent)
