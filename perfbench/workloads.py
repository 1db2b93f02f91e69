"""The four benchmark workloads.

Each workload class builds its inputs from a seed in its constructor (the
set-up the benchmark times), runs one unit operation per ``op(i)`` call (the
part it times), and checks what the operations returned in ``verify`` (not
timed).  ``op`` returns the operation's result; an exception or a result the
timed comparison rejects counts as a failed operation.  A class may name a
``traced_class`` whose operations the traced run uses instead.

Why these four (see perfbench/README.md for the full rationale):

* arith-p40: 128-bit scalar multiplications over a 40-bit prime field.
  Almost all of the time is prime-field arithmetic inside the generic
  add/double branches, and GF() at this size shows in set-up.
* oracle-sweep: single additions and doublings over F_1009 and F_{31^2},
  each compared with the Cantor oracle inside the timed region, with
  injected degenerate inputs so that every branch tag runs.
* torsion-search: find_three_torsion / find_four_torsion at p = 13, 31, 61,
  plus the one-time formal emission of the division polynomials in set-up.
* cli: the g2div command run as a child process, one call at a time; its
  traced run calls cli.main in process and adds the n = 4 emission and two
  torsion searches.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from g2div import cantor, cli, curves, divisors, fields, grouplaw, torsion, unipoly
from g2div.errors import DegenerateCurve

ROOT = Path(__file__).resolve().parent.parent
P40 = 2 ** 40 - 87
SCALAR_BITS = 128
BRANCH_TAGS = ("neutral", "inverse", "add_points", "add_special", "generic", "double",
               "double_to_special", "add_to_special", "support_overlap")


# ---------------------------------------------------------------------------
# seeded input helpers

def rand_elem(F, rng):
    if isinstance(F, fields.ExtensionField):
        return F.from_coeffs([rng.randrange(F.p) for _ in range(F.k)])
    return F.element(rng.randrange(F.p))


def rand_curve(F, rng):
    """A random nonsingular canonical quintic over F."""
    while True:
        try:
            return curves.CanonicalCurve(F, tuple(rand_elem(F, rng) for _ in range(5)))
        except DegenerateCurve:
            continue


def rand_point(curve, rng):
    """A random affine point with y != 0."""
    F = curve.field
    while True:
        x = rand_elem(F, rng)
        roots = F.sqrt(curve.p_at(x))
        if roots and not F.is_zero(roots[0]):
            return (x, roots[rng.randrange(2)])


def rand_divisor(curve, rng):
    """A degree-2 divisor with two distinct rational support points."""
    while True:
        p1, p2 = rand_point(curve, rng), rand_point(curve, rng)
        if p1[0] != p2[0]:
            return divisors.mumford_from_points(curve, p1, p2)


def rand_scalar(rng):
    return rng.getrandbits(SCALAR_BITS) | (1 << (SCALAR_BITS - 1))


def key(d):
    return d.sort_key()


def oracle_mul(n, d, curve):
    return cantor.to_mumford(cantor.cantor_scalar_mul(n, cantor.from_mumford(d), curve))


# ---------------------------------------------------------------------------

class ArithP40:
    """128-bit scalar multiplications on a seeded curve over F_p, p = 2^40 - 87."""

    unit = "scalar_mul"
    child_processes = False
    min_ops = 100
    granule = 1
    traced_ops = 24
    pool_size = 32
    oracle_sample = 6

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        F = fields.GF(P40)
        self.curve = rand_curve(F, rng)
        self.pool = [(rand_scalar(rng), rand_divisor(self.curve, rng)) for _ in range(self.pool_size)]
        self.sample = rng.sample(range(self.pool_size), self.oracle_sample)
        grouplaw.scalar_mul(*self.pool[0], self.curve)  # warm-up

    def op(self, i):
        n, d = self.pool[i % self.pool_size]
        return grouplaw.scalar_mul(n, d, self.curve)

    def verify(self, results):
        """results: {op index: divisor}.  Returns the op indices that failed."""
        bad = set()
        first = {}
        for i, r in results.items():
            j = i % self.pool_size
            if not divisors.is_on_jacobian(r, self.curve):
                bad.add(i)
            if j in first and results[first[j]] != r:
                bad.add(i)
            first.setdefault(j, i)
        for j in self.sample:
            if j not in first:
                continue
            n, d = self.pool[j]
            if oracle_mul(n, d, self.curve) != results[first[j]]:
                bad.update(i for i in results if i % self.pool_size == j)
        return bad


# ---------------------------------------------------------------------------

# one block of the oracle sweep: 40 operations in a seeded order, so every
# block runs every branch tag
SWEEP_BLOCK = (["generic"] * 20 + ["double"] * 6 + ["self", "inverse", "neutral"]
               + ["points", "points", "special", "special", "shared_x", "shared_x_special",
                  "repeated_add", "repeated_double", "to_special", "to_special",
                  "double_to_special"])
# blocks per field, in the order the pool interleaves them: three F_1009
# blocks to two F_{31^2} blocks.  With an even split the median op would sit
# on the edge between the fast prime-field ops and the slower extension-field
# ops, where it jumps between the two groups from run to run.
SWEEP_FIELDS = ((1009, 1), (31, 2))
SWEEP_PATTERN = (0, 1, 0, 1, 0)
SWEEP_ROUNDS = 6
# several curves per field, so that no single curve's costs set the figures
SWEEP_CURVES = 3
SWEEP_POINTS = 32


def _double_to_special_inputs(curve, points, rng, want):
    """Divisors whose double is a single point.

    The support pair must satisfy the tangency condition
    (s1 + s2)/2 = (y1 - y2)/(x1 - x2), with s = P'(x)/2y.  For a fixed
    (x1, y1), putting y2 = N(x2)/L(x2) with N = P'(x)(x1 - x) + 4P(x) and
    L = 4y1 - 2s1(x1 - x) turns it into the roots of N^2 - P*L^2."""
    F = curve.field
    px = curve.px()
    out = []
    while len(out) < want:
        x1, y1 = points[rng.randrange(len(points))]
        s1 = curve.dp_at(x1) / (y1 + y1)
        N = px.derivative() * unipoly.UniPoly(F, [x1, -1]) + px.scale(4)
        L = unipoly.UniPoly(F, [4 * y1 - 2 * s1 * x1, 2 * s1])
        for x2 in unipoly.roots_in_field(N * N - px * L * L):
            lx = L.evaluate(x2)
            if x2 == x1 or F.is_zero(lx):
                continue
            y2 = N.evaluate(x2) / lx
            if F.is_zero(y2):
                continue
            s2 = curve.dp_at(x2) / (y2 + y2)
            if F.is_zero((s1 + s2) / 2 - (y1 - y2) / (x1 - x2)):
                out.append(divisors.mumford_from_points(curve, (x1, y1), (x2, y2)))
                break
    return out


class OracleSweep:
    """add_traced / double_traced over F_1009 and F_{31^2}, each compared with
    cantor_add inside the timed region."""

    unit = "add_or_double_checked"
    child_processes = False
    min_ops = 100
    granule = 1
    traced_ops = 600

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.curves = [rand_curve(fields.GF(p, k), rng)
                       for p, k in SWEEP_FIELDS for _ in range(SWEEP_CURVES)]
        order, seen = [], [0] * len(SWEEP_FIELDS)
        for fi in SWEEP_PATTERN * SWEEP_ROUNDS:
            order.append(fi * SWEEP_CURVES + seen[fi] % SWEEP_CURVES)
            seen[fi] += 1
        ops = [iter(self._curve_ops(c, order.count(ci), rng)) for ci, c in enumerate(self.curves)]
        self.pool = [(ci,) + next(ops[ci]) for ci in order for _ in SWEEP_BLOCK]
        self.op(0)  # warm-up

    def _curve_ops(self, curve, blocks, rng):
        F = curve.field
        O = divisors.MumfordDivisor.neutral(F)
        # square roots in F_{31^2} cost milliseconds, so operands are drawn
        # from a seeded table of points rather than fresh random points
        table = [rand_point(curve, rng) for _ in range(SWEEP_POINTS)]
        dts = _double_to_special_inputs(curve, table, rng, 1)
        ops = []
        for _ in range(blocks):
            kinds = list(SWEEP_BLOCK)
            rng.shuffle(kinds)
            for kind in kinds:
                ops.append(self._make(kind, curve, table, rng, O, dts))
        return ops

    @staticmethod
    def _make(kind, curve, table, rng, O, dts):
        F = curve.field

        def point():
            return table[rng.randrange(len(table))]

        def divisor():
            while True:
                p1, p2 = point(), point()
                if p1[0] != p2[0]:
                    return divisors.mumford_from_points(curve, p1, p2)

        if kind == "generic":
            return ("add", divisor(), divisor())
        if kind == "double":
            return ("double", divisor(), None)
        if kind == "self":
            D = divisor()
            return ("add", D, D)
        if kind == "inverse":
            D = divisor()
            return ("add", D, divisors.negate(D))
        if kind == "neutral":
            D = divisor()
            return ("add", D, O) if rng.random() < 0.5 else ("add", O, D)
        if kind == "points":
            while True:
                p1, p2 = point(), point()
                if p1[0] != p2[0]:
                    return ("add", divisors.MumfordDivisor.special(F, *p1),
                            divisors.MumfordDivisor.special(F, *p2))
        if kind == "special":
            S = divisors.MumfordDivisor.special(F, *point())
            return ("add", divisor(), S)
        if kind in ("shared_x", "shared_x_special"):
            # two supports with one common x (same point or its involute)
            while True:
                p1, p2, p3 = (point() for _ in range(3))
                if len({p1[0], p2[0], p3[0]}) == 3:
                    break
            q1 = p1 if rng.random() < 0.5 else (p1[0], -p1[1])
            P = divisors.mumford_from_points(curve, p1, p2)
            if kind == "shared_x_special":
                return ("add", P, divisors.MumfordDivisor.special(F, *q1))
            return ("add", P, divisors.mumford_from_points(curve, q1, p3))
        if kind == "repeated_add":
            pt = point()
            return ("add", divisors.mumford_from_points(curve, pt, pt), divisor())
        if kind == "repeated_double":
            pt = point()
            return ("double", divisors.mumford_from_points(curve, pt, pt), None)
        if kind == "to_special":
            # P = S - D, so P + D lands on the single point S
            while True:
                S = divisors.MumfordDivisor.special(F, *point())
                D = divisor()
                P = cantor.to_mumford(cantor.cantor_add(
                    cantor.from_mumford(S), cantor.cantor_neg(cantor.from_mumford(D)), curve))
                if P.is_nonspecial():
                    return ("add", P, D)
        if kind == "double_to_special":
            return ("double", dts[rng.randrange(len(dts))], None)
        raise ValueError(kind)

    def op(self, i):
        ci, how, P, Q = self.pool[i % len(self.pool)]
        curve = self.curves[ci]
        if how == "add":
            got, tag = grouplaw.add_traced(P, Q, curve)
        else:
            got, tag = grouplaw.double_traced(P, curve)
            Q = P
        want = cantor.to_mumford(cantor.cantor_add(cantor.from_mumford(P),
                                                   cantor.from_mumford(Q), curve))
        if got != want:
            raise AssertionError(f"oracle mismatch on {how}: {got} != {want} (branch {tag})")
        return tag

    def verify(self, results):
        return set()  # every op was compared with the oracle while timed


# ---------------------------------------------------------------------------

TORSION_PRIMES = (13, 31, 61)


def _square_x_count(curve):
    F = curve.field
    return sum(1 for x in F.elements()
               if (r := F.sqrt(curve.p_at(x))) and not F.is_zero(r[0]))


def torsion_curve(p, rng):
    """A seeded curve over F_p whose quintic takes a nonzero square value at
    exactly (p - 1) // 2 points.  The support scan's work grows with that
    count, so fixing it keeps the work per search the same across seeds
    while the curve itself still varies."""
    F = fields.GF(p)
    while True:
        curve = rand_curve(F, rng)
        if _square_x_count(curve) == (p - 1) // 2:
            return curve


class TorsionSearch:
    """find_three_torsion / find_four_torsion on seeded curves at p = 13, 31, 61."""

    unit = "search"
    child_processes = False
    min_ops = 2 * len(TORSION_PRIMES)
    granule = 2 * len(TORSION_PRIMES)
    traced_ops = 4  # the p = 13 and p = 31 searches

    def __init__(self, seed, workdir):
        # the formal division-polynomial systems, a cost library users pay
        # once per process
        for n, coords in ((3, "xy"), (4, "mumford")):
            torsion.emit_division_polynomials(n, coords)
        rng = random.Random(seed)
        self.curves = [torsion_curve(p, rng) for p in TORSION_PRIMES]
        self.pool = [(ci, n) for ci in range(len(self.curves)) for n in (3, 4)]

    def op(self, i):
        ci, n = self.pool[i % len(self.pool)]
        find = torsion.find_three_torsion if n == 3 else torsion.find_four_torsion
        return tuple(sorted(find(self.curves[ci]), key=key))

    def notes(self, times):
        """search3_s and search4_s (median over passes of the per-pass total)
        and every search's time, for the report."""
        passes = len(times) // self.granule
        out = []
        for n in (3, 4):
            per_pass = [sum(t for i, t in enumerate(times)
                            if i // self.granule == k and self.pool[i % len(self.pool)][1] == n)
                        for k in range(passes)]
            out.append(f"search{n}_s = {statistics.median(per_pass):.6g} s "
                       f"(median over {passes} pass(es) of {len(self.curves)} searches)")
        out.append("search s (p, n): " + ", ".join(
            f"({self.curves[ci].field.p}, {n}) {t:.4g}"
            for (ci, n), t in zip(self.pool * passes, times)))
        return out

    def verify(self, results):
        """Order checks with Cantor scalar multiplication, brute force at
        p = 13, and 3 | #J exactly when a 3-torsion class was found."""
        bad = set()
        by_slot = {}
        for i, r in results.items():
            j = i % len(self.pool)
            if j in by_slot and by_slot[j][1] != r:
                bad.add(i)
            by_slot.setdefault(j, (i, r))
        for j, (i, found) in by_slot.items():
            ci, n = self.pool[j]
            curve = self.curves[ci]
            ok = all(self._exact_order(d, n, curve) for d in found)
            if curve.field.p == TORSION_PRIMES[0]:
                brute = cantor.brute_force_n_torsion(curve, n)
                ok = ok and (sorted(key(cantor.to_mumford(d)) for d in brute)
                             == [key(d) for d in found])
            if n == 3:
                order = cantor.jacobian_order_from_zeta(curve)
                ok = ok and (order % 3 == 0) == bool(found)
            if not ok:
                bad.update(k for k in results if k % len(self.pool) == j)
        return bad

    @staticmethod
    def _exact_order(d, n, curve):
        D = cantor.from_mumford(d)
        if cantor.cantor_scalar_mul(n, D, curve).degree() != 0:
            return False
        return all(cantor.cantor_scalar_mul(m, D, curve).degree() != 0
                   for m in range(1, n) if n % m == 0)


# ---------------------------------------------------------------------------

CLI_VERBS = ("jac verify", "jac add", "jac double", "jac mul", "torsion check",
             "divpoly emit", "oracle enumerate")
CLI_VARIANTS = 4
# two enumerations (the slowest verb) per variant: a quarter of the calls, so
# p90 falls inside their group instead of on its edge with the fast verbs
CLI_ENUMERATIONS = 2
CALLS_PER_VARIANT = len(CLI_VERBS) + CLI_ENUMERATIONS - 1


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _poly_lines(ds):
    out = []
    for name, poly in zip(ds.names, ds.polys):
        obj = poly.to_json()
        obj.update(name=name, n=ds.n, coords=ds.coords, weight=poly.weighted_degree())
        out.append(obj)
    return out


def _enumeration(curve):
    els = cantor.enumerate_jacobian(curve)
    ms = sorted((cantor.to_mumford(d) for d in els), key=key)
    return [divisors.divisor_to_json(d) for d in ms] + [{"order": len(els)}]


def _residuals(d, curve):
    j8, j10 = divisors.jacobian_residuals(d, curve)
    return {"J8": curve.field.to_str(j8), "J10": curve.field.to_str(j10)}


def _parse(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


class Cli:
    """``python -m g2div.cli`` as a child process, one call at a time (closed loop).

    Set-up writes the seeded input files and makes one untimed call; the
    library results the outputs are compared with are computed in
    ``verify``, after the timed calls."""

    unit = "cli_call"
    child_processes = True
    min_ops = 100
    granule = 1

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.env = cli_env()
        self.dir = workdir
        F = fields.GF(1009)
        curve = rand_curve(F, rng)
        c_path = self._write("curve.json", curves.curve_to_json(curve))
        two = torsion.two_torsion_divisors(curve)
        # (argv, a function returning the library's output for it)
        self.calls = []
        for v in range(CLI_VARIANTS):
            d1, d2 = rand_divisor(curve, rng), rand_divisor(curve, rng)
            f1 = self._write(f"d{v}a.json", divisors.divisor_to_json(d1))
            f2 = self._write(f"d{v}b.json", divisors.divisor_to_json(d2))
            n = rand_scalar(rng)
            t = two[v % len(two)] if two else d1
            ft = self._write(f"t{v}.json", divisors.divisor_to_json(t))
            enumerations = []
            for k in range(CLI_ENUMERATIONS):
                small = rand_curve(fields.GF(7), rng)
                path = self._write(f"c7_{v}_{k}.json", curves.curve_to_json(small))
                enumerations.append((["oracle", "enumerate", "--curve", path],
                                     lambda small=small: _enumeration(small)))
            self.calls += [
                (["jac", "verify", f1, "--curve", c_path],
                 lambda d1=d1: [_residuals(d1, curve)]),
                (["jac", "add", f1, f2, "--curve", c_path],
                 lambda d1=d1, d2=d2: [divisors.divisor_to_json(grouplaw.add(d1, d2, curve))]),
                (["jac", "double", f1, "--curve", c_path],
                 lambda d1=d1: [divisors.divisor_to_json(grouplaw.double(d1, curve))]),
                (["jac", "mul", str(n), f2, "--curve", c_path],
                 lambda n=n, d2=d2: [divisors.divisor_to_json(grouplaw.scalar_mul(n, d2, curve))]),
                (["torsion", "check", "--n", "2", "--divisor", ft, "--curve", c_path],
                 lambda t=t: [{"n": 2, "is_torsion": torsion.is_torsion(t, 2, curve)}]),
                (["divpoly", "emit", "--n", "3", "--coords", "mumford"],
                 lambda: _poly_lines(torsion.emit_division_polynomials(3, "mumford"))),
            ] + enumerations
        self._child(self.calls[0][0])  # warm-up

    def _write(self, name, obj):
        path = os.path.join(self.dir, name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def _child(self, argv):
        return subprocess.run([sys.executable, "-m", "g2div.cli", *argv], env=self.env,
                              cwd=ROOT, capture_output=True, text=True, timeout=120)

    def op(self, i):
        argv = self.calls[i % len(self.calls)][0]
        proc = self._child(argv)
        if proc.returncode != 0:
            raise AssertionError(f"exit {proc.returncode}: {' '.join(argv)}: {proc.stderr[-300:]}")
        return _parse(proc.stdout)

    def main_in_process(self, i):
        """cli.main on call i's argv, stdout captured; returns its output."""
        argv = self.calls[i % len(self.calls)][0]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise AssertionError(f"in-process cli.main exit {code}: {' '.join(argv)}")
        return _parse(buf.getvalue())

    def verify(self, results):
        """Compare each call's output with the library's result."""
        expected = {}
        bad = set()
        for i, got in results.items():
            j = i % len(self.calls)
            if j not in expected:
                expected[j] = self.calls[j][1]()
            if got != expected[j]:
                bad.add(i)
        return bad


class CliInProcess(Cli):
    """The cli workload's traced run: ``cli.main`` in process on the first
    two variants' calls, then ``divpoly emit --n 4``, and ``torsion find
    --n 3`` and ``--n 4`` on a seeded curve over F_13.  These three run only
    here, not in the timed loop, because each call emits a division-polynomial
    system, which torsion-search already times; here they put every emitted
    system, the n = 3 filter's evaluations and torsion hits on a gated
    workload's traced run."""

    child_processes = False

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        curve = torsion_curve(TORSION_PRIMES[0], random.Random(seed))
        path = self._write("c13.json", curves.curve_to_json(curve))
        self.calls = self.calls[:2 * CALLS_PER_VARIANT] + [
            (["divpoly", "emit", "--n", "4", "--coords", "mumford"],
             lambda: _poly_lines(torsion.emit_division_polynomials(4, "mumford")))] + [
            (["torsion", "find", "--n", str(n), "--curve", path],
             lambda n=n: [divisors.divisor_to_json(d)
                          for d in sorted(torsion.find_n_torsion(curve, n), key=key)])
            for n in (3, 4)]
        self.traced_ops = len(self.calls)

    op = Cli.main_in_process


Cli.traced_class = CliInProcess


def cli_layer_probe(seed, workdir, repeats=5):
    """cli.interpreter_ms, cli.import_ms and cli.main_ms_p50, untraced.

    interpreter: a bare ``python -c pass``; import: ``import g2div.cli`` minus
    the interpreter; main: in-process ``cli.main`` on the cli workload's argv
    set, one call per verb variant."""
    env = cli_env()

    def child_ms(code):
        ts = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                           capture_output=True, timeout=60)
            ts.append((time.perf_counter() - t0) * 1e3)
        return sorted(ts)[len(ts) // 2]

    interp = child_ms("pass")
    imp = child_ms("import g2div.cli") - interp
    wl = Cli(seed, workdir)
    ts = []
    for i in range(len(wl.calls)):
        t0 = time.perf_counter()
        wl.main_in_process(i)
        ts.append((time.perf_counter() - t0) * 1e3)
    ts.sort()
    return {"cli.interpreter_ms": interp, "cli.import_ms": imp,
            "cli.main_ms_p50": ts[len(ts) // 2]}


WORKLOADS = {
    "arith-p40": ArithP40,
    "oracle-sweep": OracleSweep,
    "torsion-search": TorsionSearch,
    "cli": Cli,
}
