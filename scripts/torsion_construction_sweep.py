"""Seeded sweep of constructed 3- and 4-torsion, with a tally per field kind.

For each field kind (F_p for a random prime of 3 to 127 bits, F_{p^2} for a
random prime of 3 to 61 bits, and Q) the script draws N curves, each built
around a divisor D of order n = 3 or 4 (alternating) by
tests/torsion_construction.py; a singular curve is redrawn.  Each D must lie
on the Jacobian and pass is_torsion(D, n), its n = 3/4 residuals must vanish
(GammaUndefined only with a branch point in D's support) and Cantor's n*D
must be zero.  The script prints one tally line per kind and exits 1 on any
failure.

Usage: python scripts/torsion_construction_sweep.py [N] [seed]
"""
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from torsion_construction import (CONSTRUCTIONS, IntsModP, QuadraticExtension, Rationals,
                                  curve_json, divisor_json)
from g2div.cantor import cantor_scalar_mul, from_mumford
from g2div.curves import curve_from_json
from g2div.divisors import divisor_from_json, is_on_jacobian
from g2div.errors import DegenerateCurve, GammaUndefined
from g2div.fields import is_prime
from g2div.torsion import four_torsion_residuals, is_torsion, three_torsion_mumford_residuals


def random_prime(rng, top):
    """The next prime after a random number of 3 to top's bits, at least 7;
    top is prime, so it bounds the result."""
    bits = rng.randint(3, top.bit_length())
    x = max(7, rng.randrange(2 ** (bits - 1), min(2 ** bits, top + 1)))
    while not is_prime(x):
        x += 1
    return x


KINDS = {
    "F_p": lambda rng: IntsModP(random_prime(rng, 2 ** 127 - 1)),
    "F_p^2": lambda rng: QuadraticExtension(random_prime(rng, 2 ** 61 - 1)),
    "Q": lambda rng: Rationals(),
}


def check(A, n, rng, tally):
    """Draw one nonsingular construction over A and check it; False on failure."""
    while True:
        c = CONSTRUCTIONS[n](A, rng)
        try:
            curve = curve_from_json(curve_json(A, c))
            break
        except DegenerateCurve:
            tally["singular"] += 1
    F = curve.field
    D = divisor_from_json(F, divisor_json(A, c))
    try:
        res = three_torsion_mumford_residuals(D, curve) if n == 3 else four_torsion_residuals(D, curve)[1]
        residuals_ok = all(F.is_zero(r) for r in res)
    except GammaUndefined:
        tally["gamma-undefined"] += 1
        a2, a4, b3, b5 = D.coords  # y1*y2 = b3^2*a4 - a2*b3*b5 + b5^2
        residuals_ok = F.is_zero(b3 * b3 * a4 - a2 * b3 * b5 + b5 * b5)
    return (residuals_ok and is_on_jacobian(D, curve) and is_torsion(D, n, curve)
            and cantor_scalar_mul(n, from_mumford(D), curve).u.degree() == 0)


def main(count: int, seed: int) -> int:
    failed = 0
    for kind, arithmetic in KINDS.items():
        rng = random.Random(f"{seed}-{kind}")
        tally = {"singular": 0, "gamma-undefined": 0, "failed": 0}
        bits = []
        start = time.perf_counter()
        for i in range(count):
            A = arithmetic(rng)
            bits.append(getattr(A, "p", 0).bit_length())
            if not check(A, 3 + i % 2, rng, tally):
                tally["failed"] += 1
                print(f"FAILED: {kind} draw {i} (seed {seed})")
        span = f", p of {min(bits)}-{max(bits)} bits" if max(bits) else ""
        print(f"{kind}: {count} constructions{span}, "
              + ", ".join(f"{k} {v}" for k, v in tally.items())
              + f", {time.perf_counter() - start:.2f} s")
        failed += tally["failed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 100,
                  int(sys.argv[2]) if len(sys.argv) > 2 else 1))
