"""Benchmark command for g2div.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory and nowhere else.  With ``--trace 0`` the run times the
workload and prints the end-to-end metrics; with ``--trace 1`` it runs a
fixed, seed-determined list of operations twice, untraced and then with
every public g2div function wrapped by perfbench/tracer.py, and prints the
per-layer metrics.  Every run checks the program's outputs; on any failed
or mismatched operation it prints no metric and exits with code 1.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""
import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# cold set-ups per run, each in a fresh interpreter; setup_s is their median
SETUPS = 5


def load_program():
    """Import g2div from this checkout's src/, or exit 1 if it is not there."""
    pkg = ROOT / "src" / "g2div"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {pkg.relative_to(ROOT)}; run from a g2div checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import g2div
    if Path(g2div.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported g2div from {g2div.__file__}, not from this checkout")


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class _Elem:
    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field, self.value = field, value

    def __mul__(self, other):
        return _Elem(self.field, self.value * other.value % CALIBRATION_P)

    def __add__(self, other):
        return _Elem(self.field, (self.value + other.value) % CALIBRATION_P)


CALIBRATION_P = 2 ** 40 - 87
CALIBRATION_SMALL_P = 31


def calibration_kernel():
    """A fixed pure-Python loop that uses no g2div code.  Half of it
    allocates small slotted objects and multiplies 40-bit residues through
    dunder methods, like the prime-field layer; the other half multiplies
    coefficient lists modulo a small prime, like the extension fields and
    polynomial layers.  Contention from other tenants of the host's cores
    slows it by a factor close to, but above, the one it slows g2div by;
    ELASTICITY accounts for the difference."""
    a, b, acc = _Elem(0, 123456789), _Elem(0, 987654321), _Elem(0, 0)
    for _ in range(150):
        acc = acc + a * b
        a = a * acc
    p = CALIBRATION_SMALL_P
    u, v = [3, 7, 11], [5, 1, 29]
    for _ in range(30):
        w = [0] * 5
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                w[i + j] = (w[i + j] + x * y) % p
        u = [(w[0] + 3 * w[3]) % p, (w[1] + 3 * w[4]) % p, w[2]]
    return acc, u


# the kernel's wall time on an uncontended core of the reference host
# (Intel Xeon, 2 vCPUs); normalized times are in milliseconds at that speed
REFERENCE_KERNEL_S = 0.27e-3
# How g2div's time responds to contention, relative to the kernel's: the
# log-log slope of operation time against kernel time.  perfbench/tracking.py
# measured 0.86 for scalar_mul and 0.76 for the oracle sweep on the reference
# host, over two minutes in which the kernel's time ranged from 0.26 to
# 0.56 ms.  Times are scaled by (reference / kernel) ** ELASTICITY, so load
# that slows the kernel f-fold leaves a bias of about
# f ** (slope - ELASTICITY): within 5% either way for f = 2, where scaling
# at an elasticity of 1 would read up to 15% low.
ELASTICITY = 0.8
MIN_WINDOW = 11
# The kernel's median time when the handler samples it inside a cold
# set-up, on an uncontended core of the reference host.  It interrupts
# imports and set-up work and finds the caches cold, so it runs slower than
# in a calibration block.
REFERENCE_SETUP_KERNEL_S = 0.45e-3

# Operations that run in a child process cannot be sampled while they run,
# and most of their work is starting an interpreter, so they are calibrated
# with a bare interpreter start instead, which takes about 50 ms uncontended
# on the reference host.  That is the same kind of work, so it is taken at
# an elasticity of 1.
CHILD_CALIBRATION = (sys.executable, "-c", "pass")
REFERENCE_CHILD_S = 0.05


def calibrate(budget_s):
    """Run the kernel for about budget_s (at least once); return its times."""
    clock = time.perf_counter
    out = []
    end = clock() + budget_s
    while True:
        t0 = clock()
        calibration_kernel()
        t1 = clock()
        out.append(t1 - t0)
        if t1 >= end:
            return out


def calibrate_child():
    """Time one bare interpreter start; return it as a one-sample block."""
    t0 = time.perf_counter()
    subprocess.run(CHILD_CALIBRATION, check=True, capture_output=True, timeout=60)
    return [time.perf_counter() - t0]


def normalize(times, blocks, inside=None, reference=REFERENCE_KERNEL_S,
              elasticity=ELASTICITY):
    """Scale each time by `reference` over the calibration's median time in
    the samples taken during it (inside[i]) and in the calibration blocks
    next to it (blocks[i] ran before times[i], blocks[i + 1] after it),
    widened to neighbouring blocks until the window holds at least
    MIN_WINDOW samples, raised to the power `elasticity`."""
    out = []
    for i, t in enumerate(times):
        lo, hi = i, i + 1
        window = blocks[lo] + blocks[hi] + (inside[i] if inside else [])
        while len(window) < MIN_WINDOW and (lo > 0 or hi < len(blocks) - 1):
            if lo > 0:
                lo -= 1
                window += blocks[lo]
            if hi < len(blocks) - 1:
                hi += 1
                window += blocks[hi]
        out.append(t * (reference / statistics.median(window)) ** elasticity)
    return out


class InOpSampler:
    """Runs the calibration kernel from a SIGPROF handler every `interval`
    seconds of this process's CPU time while an operation runs, so
    operations that last seconds are normalized by the contention during
    them, not only next to them.  CPU time, so that no sample is taken
    while the process waits for a child.  The handler's own time is
    recorded so it can be taken off the operation.  Every 2 ms rather than
    10 ms: in three alternating pairs of arith-p40 runs of one seed, p90
    over p50 was 1.05-1.09 against 1.10-1.14, as fewer bursts of
    contention inside an operation went unseen."""

    def __init__(self, interval=0.002):
        self.interval = interval
        self.samples = []
        self.spent = 0.0
        self._old = signal.signal(signal.SIGPROF, self._handler)

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        calibration_kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self):
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def close(self):
        self.stop()
        signal.signal(signal.SIGPROF, self._old)


def timed(fn, sampler):
    """Call fn(); return (result, its seconds without the sampler's handler
    time, the kernel samples taken during it)."""
    if sampler is None:
        t0 = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - t0, []
    n0, spent0 = len(sampler.samples), sampler.spent
    sampler.start()
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        t1 = time.perf_counter()
        sampler.stop()
    return result, t1 - t0 - (sampler.spent - spent0), sampler.samples[n0:]


def run_ops(wl, ops, seconds, tracer=None, sample=True):
    """Run ops 0, 1, 2, ... and time each, with a calibration block before
    each op and after the last: kernel runs for about 10% of the previous
    op's time, or an interpreter start when the op runs a child process.
    When `sample` is set, in-process ops also get kernel samples while they
    run.  With seconds=None run exactly `ops` operations; otherwise run
    until `seconds` have passed, at least `ops` have run and a whole granule
    of the workload is complete.

    Returns (raw per-op seconds, normalized per-op seconds, {index: result},
    {index: error}, raw wall seconds)."""
    if wl.child_processes:
        block, sampler = calibrate_child, None
        scale = dict(reference=REFERENCE_CHILD_S, elasticity=1.0)
    else:
        block = lambda: calibrate(0.1 * last)  # noqa: E731
        sampler = InOpSampler() if sample else None
        scale = {}
    times, blocks, inside, results, errors = [], [], [], {}, {}
    clock = time.perf_counter
    start = clock()
    last = 0.0
    i = 0
    try:
        while True:
            blocks.append(block())
            if tracer is not None:
                tracer.op = i
            try:
                results[i], last, samples = timed(lambda: wl.op(i), sampler)
            except Exception:  # every failure is counted, none ends the run
                errors[i] = traceback.format_exc()
                last, samples = 0.0, []
            times.append(last)
            inside.append(samples)
            i += 1
            if seconds is None:
                if i >= ops:
                    break
            elif i >= ops and i % wl.granule == 0 and clock() - start >= seconds:
                break
    finally:
        if sampler:
            sampler.close()
    wall = clock() - start
    blocks.append(block())
    return times, normalize(times, blocks, inside, **scale), results, errors, wall


def report(correct, attempted, failed, metrics, notes=()):
    for line in notes:
        print(line)
    print(f"failed_frac = {failed / attempted:.6f} ({failed} of {attempted} operations)")
    for name, m in metrics.items():
        extra = f" (n={m['n']})" if "n" in m else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{extra}")
    out = {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out if correct else {}}))


def fail_report(attempted, errors, bad):
    first = sorted(errors.items())[:1]
    for i, tb in first:
        print(f"operation {i} raised:\n{tb}", file=sys.stderr)
    if bad:
        print(f"operations failing the output checks: {sorted(bad)[:20]}", file=sys.stderr)
    failed = len(set(errors) | set(bad))
    report(False, attempted, failed, {})
    sys.exit(1)


def setup_child(args):
    """One cold set-up, in this fresh interpreter: import the program and
    build the workload, sampling the calibration kernel all along.  Prints
    the samples and the handler's time for the parent, which times the
    set-up from before it started this process to the printed line, and
    exits at once."""
    sampler = InOpSampler()
    sampler.start()
    load_program()
    import workloads
    workloads.WORKLOADS[args.workload](args.seed, args.setup_only)
    sampler.stop()
    print(json.dumps({"samples": sampler.samples, "spent": sampler.spent}), flush=True)
    os._exit(0)


def cold_setups(args, workdir):
    """Set the workload up SETUPS times, each in a fresh interpreter, from
    process start to the point where its first operation would run.  Each is
    normalized by the kernel samples taken inside it alone: a fresh process
    meets other contention than its parent, and calibration blocks in the
    parent did not follow its time.  Returns (raw seconds, normalized
    seconds), one of each per set-up."""
    raw, norm = [], []
    for k in range(SETUPS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", tempfile.mkdtemp(dir=workdir)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t = time.perf_counter() - t0
        if proc.returncode != 0 or not line:
            sys.exit(f"perfbench: cold set-up {k} failed with exit code {proc.returncode}")
        child = json.loads(line)
        raw.append(t - child["spent"])
        kernel_s = statistics.median(child["samples"])
        norm.append(raw[-1] * (REFERENCE_SETUP_KERNEL_S / kernel_s) ** ELASTICITY)
    return raw, norm


def untraced(args, cls, workdir):
    wl = cls(args.seed, workdir)
    raw, times, results, errors, wall = run_ops(wl, wl.min_ops, args.seconds)
    bad = wl.verify(results)
    attempted = len(times)
    if errors or bad:
        fail_report(attempted, errors, bad)
    rss = peak_rss_mb(children=wl.child_processes)  # before the set-up processes run
    setup_raw, setups = cold_setups(args, workdir)
    ms = sorted(t * 1e3 for t in times)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s", "n": SETUPS},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "ops_per_s": {"value": attempted / sum(times), "unit": "1/s", "n": attempted},
        "op_ms_p50": {"value": statistics.median(ms), "unit": "ms", "n": attempted},
        "op_ms_p90": {"value": statistics.quantiles(ms, n=10, method="inclusive")[8],
                      "unit": "ms", "n": attempted},
    }
    raw_ms = sorted(t * 1e3 for t in raw)
    notes = [f"workload {args.workload}, seed {args.seed}: {attempted} x {wl.unit}; "
             f"wall clock, not normalized: {attempted / sum(raw):.4g} ops/s "
             f"({wall:.3f} s with calibration), "
             f"p50 {statistics.median(raw_ms):.4g} ms, "
             f"p90 {statistics.quantiles(raw_ms, n=10, method='inclusive')[8]:.4g} ms, "
             f"set-up {statistics.median(setup_raw):.4g} s"]
    if hasattr(wl, "notes"):
        notes += wl.notes(times)
    report(True, attempted, 0, metrics, notes)


GROUPLAW_ADD = ("add", "add_traced", "gamma_add", "add_points", "add_special", "add_to_special")
GROUPLAW_DOUBLE = ("double", "double_traced", "tangent_data", "gamma_double", "double_to_special")
EMITTED_SYSTEMS = ("x_support", "y_support", "b3_vanishing", "b5_vanishing", "y2d_vanishing",
                   "a2_relation", "a4_relation")


def layer_metrics(tr, emitted, branch_tags):
    """The per-layer metrics from a finished trace and the term counts of the
    division-polynomial systems emitted under it, as {name: (value, unit)}."""
    calls, self_s = tr.calls, tr.self_s
    m = {}
    for op in ("mul", "inv", "sqrt", "pow", "coerce"):
        m[f"fields.{op}.calls"] = (tr.total("fields", f".{op}"), "count")
    m["fields.eq.calls"] = (calls["fields.Field.__eq__"], "count")
    m["fields.self_s"] = (tr.layer_self("fields"), "s")
    m["fields.GF.calls"] = (calls["fields.GF"], "count")
    # GF only calls into the fields layer, so its inclusive time is the
    # fields-layer self time spent under GF()
    m["fields.GF.self_s"] = (tr.incl_s["fields.GF"], "s")
    for tag in branch_tags:
        n = tr.tags.get(tag, 0)
        m[f"fields.mul_per.{tag}"] = (tr.mul_by_tag.get(tag, 0) / n if n else 0.0, "count")
        m[f"fields.inv_per.{tag}"] = (tr.inv_by_tag.get(tag, 0) / n if n else 0.0, "count")
    for tag in branch_tags:
        m[f"grouplaw.branch.{tag}"] = (tr.tags.get(tag, 0), "count")
    m["grouplaw.add.self_s"] = (sum(self_s[f"grouplaw.{f}"] for f in GROUPLAW_ADD), "s")
    m["grouplaw.double.self_s"] = (sum(self_s[f"grouplaw.{f}"] for f in GROUPLAW_DOUBLE), "s")
    m["grouplaw.scalar_mul.calls"] = (calls["grouplaw.scalar_mul"], "count")
    m["cantor.add.calls"] = (calls["cantor.cantor_add"], "count")
    m["cantor.self_s"] = (tr.layer_self("cantor"), "s")
    m["unipoly.mul.calls"] = (calls["unipoly.UniPoly.__mul__"] + calls["unipoly.UniPoly.__rmul__"], "count")
    m["unipoly.mod.calls"] = (calls["unipoly.UniPoly.__mod__"], "count")
    m["unipoly.exact_div.calls"] = (calls["unipoly.UniPoly.exact_div"], "count")
    m["unipoly.xgcd.calls"] = (calls["unipoly.xgcd"], "count")
    m["unipoly.self_s"] = (tr.layer_self("unipoly"), "s")
    m["polyring.evaluate.calls"] = (calls["polyring.WeightedPoly.evaluate"], "count")
    m["polyring.mul.calls"] = (calls["polyring.WeightedPoly.__mul__"]
                               + calls["polyring.WeightedPoly.__rmul__"], "count")
    m["polyring.self_s"] = (tr.layer_self("polyring"), "s")
    for name in EMITTED_SYSTEMS:
        m[f"polyring.emit_terms.{name}"] = (emitted.get(name, 0), "count")
    n_tors = calls["torsion.is_torsion"]
    m["torsion.is_torsion.calls"] = (n_tors, "count")
    m["torsion.hit_ratio"] = (tr.torsion_hits / n_tors if n_tors else 0.0, "ratio")
    m["torsion.self_s"] = (tr.layer_self("torsion"), "s")
    m["divisors.mumford_from_points.calls"] = (calls["divisors.mumford_from_points"], "count")
    m["divisors.points_from_mumford.calls"] = (calls["divisors.points_from_mumford"], "count")
    m["divisors.self_s"] = (tr.layer_self("divisors"), "s")
    m["curves.p_at.calls"] = (tr.total("curves", ".p_at"), "count")
    m["curves.on_curve.calls"] = (tr.total("curves", ".on_curve"), "count")
    m["curves.self_s"] = (tr.layer_self("curves"), "s")
    m["series.taylor.calls"] = (calls["series.taylor_on_curve"], "count")
    m["series.self_s"] = (tr.layer_self("series"), "s")
    return m


def traced(args, cls, workdir):
    """Per-layer run: a fixed op list untraced, then the same list traced."""
    import workloads
    from g2div import torsion
    from tracer import Tracer

    probe = workloads.cli_layer_probe(args.seed, workdir)
    cls = getattr(cls, "traced_class", cls)
    wl = cls(args.seed, workdir)
    n = wl.traced_ops
    _, plain, plain_results, errors, _ = run_ops(wl, n, None, sample=False)
    if errors:
        fail_report(n, errors, set())

    # emit the division polynomials again under the tracer, as a fresh
    # process would
    torsion._FORMAL_CACHE.clear()
    tracer = Tracer("g2div").install()
    try:
        wl = cls(args.seed, workdir)
        _, times, results, errors, _ = run_ops(wl, n, None, tracer, sample=False)
    finally:
        tracer.remove()
    emitted = {name: poly.num_terms() for ds in torsion._FORMAL_CACHE.values()
               for name, poly in zip(ds.names, ds.polys)}
    bad = wl.verify(results) | {i for i in results if results[i] != plain_results.get(i)}
    if errors or bad:
        fail_report(n, errors, bad)
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write_spans(spans_path)

    metrics = {name: {"value": v, "unit": u}
               for name, (v, u) in layer_metrics(tracer, emitted, workloads.BRANCH_TAGS).items()}
    for name, v in probe.items():
        metrics[name] = {"value": v, "unit": "ms"}
    traced_s, plain_s = sum(times), sum(plain)
    metrics["trace.overhead_x"] = {"value": traced_s / plain_s, "unit": "x", "n": n}
    metrics["trace.ops_per_s"] = {"value": n / traced_s, "unit": "1/s", "n": n}
    notes = [f"workload {args.workload}, seed {args.seed}: {n} x {wl.unit} traced "
             f"in {traced_s:.3f} s, untraced {plain_s:.3f} s; "
             f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}"
             f" ({tracer.spans_dropped} over the cap not kept)"]
    report(True, n, 0, metrics, notes)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one cold set-up in a fresh interpreter, see cold_setups
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.setup_only:
        setup_child(args)
    # One core for this process and every process it starts, so that the
    # calibration shares its core, and its other tenants, with what it calibrates.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    load_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(sorted(workloads.WORKLOADS))}")
    cls = workloads.WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if args.trace:
            traced(args, cls, workdir)
        else:
            untraced(args, cls, workdir)


if __name__ == "__main__":
    main()
