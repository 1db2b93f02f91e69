"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 10] [--first-seed 1]
                                [--seconds 20]

For each end-to-end metric it prints the median of the per-seed values and
the distance between the first and third quartiles as a share of that
median, as statistics.quantiles(values, n=4) gives them.  Runs are made one
after another, never in parallel.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench(workload, seed, seconds, trace):
    """One run of run.py; returns {metric: value}, or exits 1 if it failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not last.get("correct"):
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in last["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        metrics = bench(args.workload, seed, args.seconds, trace=0)
        for name, v in metrics.items():
            values.setdefault(name, []).append(v)
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.5g}" for k, v in metrics.items()), flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        print(f"{args.workload} {name}: median {med:.6g}, IQR/median {(q3 - q1) / med:.4f}, "
              f"n={len(vs)}")


if __name__ == "__main__":
    main()
