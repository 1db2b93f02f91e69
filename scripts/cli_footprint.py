"""What each CLI verb loads: g2div modules, their size, and the flagged modules.

Runs each verb of the benchmark's cli workload on the committed F_7 curve
and divisors in tests/data, each in a fresh interpreter, and prints the g2div
modules that call loaded with their source lines and AST nodes, then one row
per verb: the totals and whether each FLAGGED module (g2div.extension,
g2div.roots, g2div.rational, fractions, decimal, argparse) was imported.
A process that writes no bytecode (PYTHONDONTWRITEBYTECODE=1, a read-only
install) compiles every module it loads, so the AST nodes are the compile
work of the call.  The counts depend on the source only, not on the
machine.

Usage: python scripts/cli_footprint.py [--src DIR]   (DIR defaults to src/)
"""
import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
CURVE, D1, D2 = (str(DATA / name) for name in ("c7.json", "c7_d1.json", "c7_d2.json"))
VERBS = {
    "jac verify": ["jac", "verify", D1, "--curve", CURVE],
    "jac add": ["jac", "add", D1, D2, "--curve", CURVE],
    "jac double": ["jac", "double", D1, "--curve", CURVE],
    "jac mul": ["jac", "mul", str(2 ** 127 - 1), D2, "--curve", CURVE],
    "torsion check": ["torsion", "check", "--n", "2", "--divisor", D1, "--curve", CURVE],
    "divpoly emit": ["divpoly", "emit", "--n", "3", "--coords", "mumford"],
    "oracle enumerate": ["oracle", "enumerate", "--curve", CURVE],
}
PROBE = """import contextlib, io, json, sys
from g2div import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "modules": {name: getattr(mod, "__file__", None)
                  for name, mod in sys.modules.items()}}))
"""
FLAGGED = ("g2div.extension", "g2div.roots", "g2div.rational", "fractions", "decimal",
           "argparse")


def loaded(argv, src):
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)}: exit {proc.returncode}\n{proc.stderr}")
    out = json.loads(proc.stdout.splitlines()[-1])
    if out["code"] != 0:
        sys.exit(f"{' '.join(argv)}: cli exit {out['code']}")
    return out["modules"]


def size(path):
    source = Path(path).read_text()
    return len(source.splitlines()), sum(1 for _ in ast.walk(ast.parse(source)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding the g2div package")
    args = ap.parse_args()
    sizes, rows = {}, []
    for verb, argv in VERBS.items():
        modules = loaded(argv, args.src)
        ours = sorted(m for m in modules if m == "g2div" or m.startswith("g2div."))
        for m in ours:
            sizes.setdefault(m, size(modules[m]))
        rows.append((verb, ours, [m in modules for m in FLAGGED]))
    print(f"{'module':<18} {'lines':>6} {'AST nodes':>10}")
    for m, (lines, nodes) in sorted(sizes.items()):
        print(f"{m:<18} {lines:>6,} {nodes:>10,}")
    print()
    print(f"{'verb':<17} {'modules':>7} {'lines':>6} {'AST nodes':>10}  "
          + "  ".join(FLAGGED))
    for verb, ours, flags in rows:
        lines = sum(sizes[m][0] for m in ours)
        nodes = sum(sizes[m][1] for m in ours)
        print(f"{verb:<17} {len(ours):>7} {lines:>6,} {nodes:>10,}  "
              + "  ".join(f"{'yes' if f else 'no':<{len(name)}}"
                          for f, name in zip(flags, FLAGGED)).rstrip())


if __name__ == "__main__":
    main()
