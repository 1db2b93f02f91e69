"""Survey 3- and 4-torsion over small prime fields.

For each nondegenerate curve in a small coefficient box, find torsion
divisors with the division-polynomial systems and check that they are the
brute-force enumeration's divisors, compared by sort key.

Usage: python scripts/torsion_survey.py [p] [box]
"""
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from g2div.cantor import brute_force_n_torsion, enumerate_jacobian, to_mumford
from g2div.curves import CanonicalCurve
from g2div.errors import DegenerateCurve
from g2div.fields import GF
from g2div.torsion import find_four_torsion, find_three_torsion


def main():
    p = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    box = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    F = GF(p)
    rows = 0
    for lam in itertools.product(range(box), range(box), range(box), range(box), range(1, box + 1)):
        try:
            curve = CanonicalCurve(F, lam)
        except DegenerateCurve:
            continue
        t3 = [d.sort_key() for d in find_three_torsion(curve)]
        t4 = [d.sort_key() for d in find_four_torsion(curve)]
        els = enumerate_jacobian(curve)
        o3, o4 = (sorted(to_mumford(d).sort_key() for d in brute_force_n_torsion(curve, n, els))
                  for n in (3, 4))
        status = "ok" if (t3, t4) == (o3, o4) else "MISMATCH"
        print(f"lam={lam}  |Jac|={len(els):4d}  n3={len(t3):3d}  n4={len(t4):3d}  [{status}]")
        if status != "ok":
            sys.exit(f"lam={lam}: the searches differ from the oracle's divisors")
        rows += 1
    print(f"{rows} curves surveyed over F_{p}, every divisor set matches the oracle")


if __name__ == "__main__":
    main()
