"""Reproducibility self-test for the traced run.

    python3 perfbench/selftest.py [--workloads arith-p40,oracle-sweep,...]
                                  [--seed 1] [--other-seed 2]

Runs each workload's traced run (``run.py --trace 1``) twice with the same
seed and requires identical count metrics: every ``*.calls``,
``grouplaw.branch.*``, ``fields.*_per.*`` and ``polyring.emit_terms.*``.
Then it runs oracle-sweep with a second seed and requires the same set of
branch tags.  It prints the tracing overhead of each workload (traced time
over untraced time on the same operations) and exits 1 on any difference.
"""
import argparse
import sys

from spread import bench

ALL = ("arith-p40", "oracle-sweep", "torsion-search", "cli")


def is_count(name):
    return (name.endswith(".calls") or name.startswith("grouplaw.branch.")
            or "_per." in name or name.startswith("polyring.emit_terms."))


def branch_tags(metrics):
    return {k.split(".", 2)[2] for k, v in metrics.items()
            if k.startswith("grouplaw.branch.") and v > 0}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(ALL))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--other-seed", type=int, default=2)
    args = ap.parse_args()
    ok = True
    for workload in args.workloads.split(","):
        a = bench(workload, args.seed, 1, trace=1)
        b = bench(workload, args.seed, 1, trace=1)
        counts = sorted(k for k in a if is_count(k))
        diff = [k for k in counts if a[k] != b.get(k)]
        ok = ok and not diff
        print(f"{workload}: {len(counts)} count metrics, {len(diff)} differ between two runs "
              f"of seed {args.seed}{': ' + ', '.join(diff) if diff else ''}; tracing overhead "
              f"{a['trace.overhead_x']:.2f}x and {b['trace.overhead_x']:.2f}x")
        if workload == "oracle-sweep":
            c = bench(workload, args.other_seed, 1, trace=1)
            same = branch_tags(a) == branch_tags(c)
            ok = ok and same
            print(f"oracle-sweep: branch tags with seed {args.seed} {sorted(branch_tags(a))}; "
                  f"with seed {args.other_seed} {'the same' if same else sorted(branch_tags(c))}")
    print("selftest passed" if ok else "selftest FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
