"""Randomized oracle-equivalence sweep with a dispatch-branch tally.

Every addition is cross-checked against the independent Cantor arithmetic;
the tally shows how often each branch of the coordinate law fires.  The
field is F_p, or F_{p^k} with the optional extension degree k, whose
natives are field elements rather than ints; x-coordinates are drawn from
the whole field.  Every fifth pair also doubles its first divisor and a
divisor 2S on a repeated point, drawn from a second seeded stream so the
pairs stay the same.  The script exits 1 when any of the seven
degree-2 tags its draws can reach (DRAWN) does not fire.

Usage: python scripts/branch_coverage.py [pairs] [p] [k]
"""
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from g2div.cantor import cantor_add, from_mumford, to_mumford
from g2div.curves import CanonicalCurve
from g2div.divisors import MumfordDivisor, mumford_from_points, negate
from g2div.fields import GF
from g2div.grouplaw import add_traced, double_traced

DRAWN = ("add_to_special", "double", "double_to_special", "generic", "inverse", "neutral",
         "support_overlap")


def random_divisor(curve, rng):
    F = curve.field
    q = F.order()
    pts = []
    while len(pts) < 2:
        x = F._element_at(rng.randrange(q))
        roots = F.sqrt(curve.p_at(x))
        if roots and all(x != p[0] for p in pts):
            pts.append((x, roots[rng.randrange(len(roots))]))
    return mumford_from_points(curve, pts[0], pts[1])


def repeated_divisor(curve, rng):
    """2S for a random affine point S with y != 0."""
    F = curve.field
    while True:
        x = F._element_at(rng.randrange(F.order()))
        roots = [y for y in F.sqrt(curve.p_at(x)) if not F.is_zero(y)]
        if roots:
            S = (x, roots[rng.randrange(len(roots))])
            return mumford_from_points(curve, S, S)


def main():
    pairs = int(sys.argv[1]) if len(sys.argv) > 1 else 5000
    p = int(sys.argv[2]) if len(sys.argv) > 2 else 1009
    k = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    curve = CanonicalCurve(GF(p, k), (1, 2, 3, 4, 5))
    rng, repeated_rng = random.Random(0), random.Random(1)
    tags = {}
    t0 = time.time()
    for i in range(pairs):
        P, Q = random_divisor(curve, rng), random_divisor(curve, rng)
        got, tag = add_traced(P, Q, curve)
        expect = to_mumford(cantor_add(from_mumford(P), from_mumford(Q), curve))
        assert got == expect, (P, Q)
        tags[tag] = tags.get(tag, 0) + 1
        if i % 5 == 0:
            for D in (P, repeated_divisor(curve, repeated_rng)):
                dgot, dtag = double_traced(D, curve)
                assert dgot == to_mumford(cantor_add(from_mumford(D), from_mumford(D), curve)), D
                tags[dtag] = tags.get(dtag, 0) + 1
        if i % 50 == 0:
            got, tag = add_traced(P, negate(P), curve)
            assert got.is_neutral()
            tags[tag] = tags.get(tag, 0) + 1
            got, tag = add_traced(P, MumfordDivisor.neutral(curve.field), curve)
            tags[tag] = tags.get(tag, 0) + 1
    dt = time.time() - t0
    name = f"F_{p}" if k == 1 else f"F_{{{p}^{k}}}"
    print(f"{pairs} pairs over {name} in {dt:.1f}s, all equal to the Cantor oracle")
    for tag in sorted(tags):
        print(f"  {tag:18s} {tags[tag]}")
    missing = [tag for tag in DRAWN if tag not in tags]
    if missing:
        sys.exit(f"branch tags that never fired: {', '.join(missing)}")


if __name__ == "__main__":
    main()
