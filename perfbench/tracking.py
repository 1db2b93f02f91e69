"""How g2div's time follows the calibration kernel's under contention.

    python3 perfbench/tracking.py [--seconds 120] [--seed 1]

Alternates, for the given number of seconds, about 5 ms of the calibration
kernel from run.py with a fixed slice of each in-process workload's
operations: a 20-bit scalar_mul on the arith-p40 curve, and 60 operations
spread over the oracle-sweep pool.  Over 2-second windows it takes the
median time of each, and prints the log-log slope of each slice's time
against the kernel's.  A slope of 1 means the kernel is slowed by load
exactly as g2div is; run.py's ELASTICITY is set from these slopes.  Load
comes from whatever else runs on the host, so run it while the host is
busy with other work and again while it is quiet.
"""
import argparse
import math
import statistics
import tempfile
import time

import run

WINDOW_S = 2.0


def slope(xs, ys):
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.mean(lx), statistics.mean(ly)
    sxx = sum((x - mx) ** 2 for x in lx)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sxx


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=120)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    run.load_program()
    import workloads
    from g2div import grouplaw

    run.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        arith = workloads.ArithP40(args.seed, workdir)
        sweep = workloads.OracleSweep(args.seed, workdir)
    n, d = arith.pool[0]
    picks = range(0, len(sweep.pool), len(sweep.pool) // 60)
    slices = {"arith-p40": lambda: grouplaw.scalar_mul(n >> (workloads.SCALAR_BITS - 20),
                                                       d, arith.curve),
              "oracle-sweep": lambda: [sweep.op(i) for i in picks]}
    clock = time.perf_counter
    rows = []
    start = clock()
    while clock() - start < args.seconds:
        kernel = run.calibrate(0.005)
        row = {"window": int((clock() - start) // WINDOW_S), "kernel": statistics.median(kernel)}
        for name, fn in slices.items():
            t0 = clock()
            fn()
            row[name] = clock() - t0
        rows.append(row)
    windows = {}
    for row in rows:
        windows.setdefault(row["window"], []).append(row)
    med = [{k: statistics.median(r[k] for r in rs) for k in rs[0]} for rs in windows.values()]
    ks = [m["kernel"] for m in med]
    print(f"{len(med)} windows of {WINDOW_S:g} s; kernel median from {min(ks) * 1e3:.3f} "
          f"to {max(ks) * 1e3:.3f} ms")
    for name in slices:
        ys = [m[name] for m in med]
        print(f"{name}: slope {slope(ks, ys):.3f}, time from {min(ys) * 1e3:.2f} "
              f"to {max(ys) * 1e3:.2f} ms")


if __name__ == "__main__":
    main()
