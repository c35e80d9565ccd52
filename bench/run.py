"""rigidkit benchmark: time to a certified verdict, the family cross-check and
the growth fit, on seeded workloads.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; rigidkit is imported from ``src/``.
One caller in one process drives one framework at a time (a closed loop),
with BLAS pinned to one thread.  The run builds the workload's inputs from
the seed, times three fresh processes that import rigidkit and load them
(``setup_s``), then repeats passes over the workload for ``--seconds``.
Times, ``setup_s`` too, are in reference seconds (see Recorder and
measure_setup).  Every operation's output
is checked against its truth label; mismatches are listed by name and
counted in ``failed``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with every public rigidkit function wrapped in a span
(see tracing.py), and reports the per-layer metrics; its spans go to
``.bench_out/``.  The last line of standard output is the JSON result.
See README.md in this directory for every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
SETUP_CAL_S = 0.25        # calibration before and after each set-up process
CAL_SHARE = 0.05          # calibration time after each operation, share of its time
# calibration units: name -> (interpreter loop steps, SVD order, reference seconds)
CAL_UNITS = {
    "interp": (10_000, 80, 0.002),   # interpreter-bound work with small arrays
    "blas": (0, 300, 0.020),         # dense linear algebra on large matrices
}
PROBE_TIMEOUT_S = 120
GROWTH_FAMILIES = ("harmonic", "algebraic", "morse")
SLOPE_TOLERANCE = 0.5
GROWTH_MAX_S = 8          # fits above s = 8 pass the double-precision ceiling
# layers whose self time is reported as <layer>.self_s; cli's is cli.analyze_self_s
LAYERS = ("framework", "linear", "ladder", "energy", "critpoint", "growth", "bench")
KD_CALLERS = ("cli", "ladder", "critpoint", "growth")

PROBE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import rigidkit\n"
    "for p in sys.argv[2:]:\n"
    "    rigidkit.load_framework(p)\n"
)


@dataclass
class Item:
    """One input framework and the stages that run on it."""

    name: str
    path: Path
    truth: object                 # generators.Truth
    crosscheck: bool = False
    growth_family: str | None = None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def corpus_items(seed: int, workdir: Path) -> list[Item]:
    """The 8 bundled frameworks: verdict and family cross-check on each,
    growth fit on the 7 with s = 2k <= 8, rotating through three families.
    The seed drives the growth fits' random starts."""
    from generators import Truth
    from rigidkit import CORPUS_NAMES, EXPECTED_ORDERS

    items, n_growth = [], 0
    for name in CORPUS_NAMES:
        k = EXPECTED_ORDERS[name]
        family = None
        if 2 * k <= GROWTH_MAX_S:
            family = GROWTH_FAMILIES[n_growth % len(GROWTH_FAMILIES)]
            n_growth += 1
        items.append(Item(name, SRC / "rigidkit" / "corpus" / f"{name}.json",
                          Truth("order", k, "ladder", 1), True, family))
    return items


SCALE_K1 = (150, 300, 450, 600)
SCALE_K2 = ((20, 2), (20, 3), (40, 2))


def _save(generated, workdir: Path) -> Item:
    from rigidkit import save_framework

    path = workdir / f"{generated.name}.json"
    save_framework(generated.framework, path)
    return Item(generated.name, path, generated.truth)


def scale_k1_items(seed: int, workdir: Path) -> list[Item]:
    """dim K = 1 at N ~ 300-1200: triangulated strips minus one edge, real
    mechanisms on which the ladder runs all 31 levels.  Henneberg-grown
    corpus frameworks are left out: at these sizes the ladder's absolute
    threshold makes some of them come back flex-found (ROADMAP item 3), and
    test_generators.py keeps that defect as a strict expected failure."""
    import numpy as np
    from generators import strip_minus_edge

    rng = np.random.default_rng(seed)
    return [_save(strip_minus_edge(n, rng), workdir) for n in SCALE_K1]


def scale_k2_items(seed: int, workdir: Path) -> list[Item]:
    """dim K = m in {2, 3}: rigid strips plus collinear midpoints, order 2."""
    import numpy as np
    from generators import strip_with_midpoints

    rng = np.random.default_rng(seed)
    return [_save(strip_with_midpoints(n, m, rng), workdir) for n, m in SCALE_K2]


# name -> (input builder, verdict repetitions per pass, calibration unit)
WORKLOADS = {
    "corpus": (corpus_items, 10, "interp"),
    "scale_k1": (scale_k1_items, 1, "blas"),
    "scale_k2": (scale_k2_items, 1, "interp"),
}


# ---------------------------------------------------------------------------
# operations: each returns None when its output is correct, else a message
# ---------------------------------------------------------------------------

def op_verdict(cli, item: Item, seed: int):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["analyze", str(item.path), "--json"])
    if code != 0:
        return f"analyze exited with {code}"
    report = json.loads(buf.getvalue())
    v, t = report["verdict"], item.truth
    got = (v["verdict"], v["order"], v["method"], report["dim_K"])
    want = (t.verdict, t.order, t.method, t.dim_K)
    if got != want:
        return (f"got {got[0]} order={got[1]} method={got[2]} dim_K={got[3]} "
                f"after {len(v['residuals'])} ladder levels; "
                f"truth {want[0]} order={want[1]} method={want[2]} dim_K={want[3]}")
    return None


def op_crosscheck(cli, item: Item, seed: int):
    """What ``rigidkit critpoint --order k`` and ``rigidkit energy --order 2k``
    do, for all four energy families: the order-2k family test at the
    ladder's order k must be a strict minimum."""
    k = item.truth.order
    fw = cli.load_framework(item.path)
    pf, _, _ = cli.pin_with_permutation(fw)
    kd = cli.kernel_decomposition(cli.rigidity_matrix(pf))
    ladder = cli.solve_ladder(pf, kd, max_k=max(k, 2))
    if ladder.order != k:
        return f"ladder gave {ladder.verdict} order={ladder.order}; truth order={k}"
    bad = []
    for family in cli.FAMILIES:
        spec = cli.EnergySpec.for_framework(pf.base, family)
        rep = cli.order2k_family_test(pf, spec, ladder.witness, k, kd=kd)
        jet = cli.energy_along_trajectory(spec, pf, ladder.witness, 2 * k)
        if rep.classification != "strict-min" or not all(map(math.isfinite, jet.c)):
            bad.append(f"{family}: {rep.classification}")
    return "; ".join(bad) or None


def op_growth(cli, item: Item, seed: int):
    """What ``rigidkit growth --family F --seed S`` does; the fitted slope
    must be within SLOPE_TOLERANCE of s = 2k.  Returns (message, |s - 2k|)."""
    fw = cli.load_framework(item.path)
    pf, _, _ = cli.pin_with_permutation(fw)
    spec = cli.EnergySpec.for_framework(pf.base, item.growth_family)
    fit = cli.fit_growth_order(spec, pf, seed=seed)
    err = abs(fit.fitted_s - 2 * item.truth.order)
    if not err <= SLOPE_TOLERANCE:
        return f"{item.growth_family}: s = {fit.fitted_s:.4f}, |s - 2k| = {err:.3f}", err
    return None, err


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def make_unit(kind: str):
    """One calibration unit of ``kind`` (a key of CAL_UNITS), which calls no
    rigidkit code: returns a function that runs it and returns its wall
    time, and the unit's reference seconds."""
    import numpy as np

    loop, order, ref_s = CAL_UNITS[kind]
    svd = np.linalg.svd
    matrix = np.random.default_rng(0).standard_normal((order, order))

    def unit() -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(loop):
            acc += i * i % 7
        svd(matrix)
        return time.perf_counter() - t0

    return unit, ref_s


class Recorder:
    """Per-operation wall times, failures, and calibration times.

    On a shared machine, CPU speed can drift by tens of percent over
    minutes, and by different amounts for interpreter-bound and for
    memory-heavy linear algebra.  So after each operation the recorder
    times a fixed calibration unit (no rigidkit code) of the kind that
    dominates the workload, for CAL_SHARE of the operation's time.  Reported
    times are wall times scaled by (reference time of the unit) / (its
    median time in this run): seconds at a fixed reference speed.  The raw
    wall times are reported too.
    """

    def __init__(self, cal_unit: str):
        self.samples: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: dict[tuple[str, str], list] = {}   # -> [first message, count]
        self.slope_err: dict[str, float] = {}
        self.cal: list[float] = []
        self._unit, self._ref_s = make_unit(cal_unit)

    def calibrate(self, op_seconds: float) -> None:
        """Calibration units for about CAL_SHARE of ``op_seconds``; at least one."""
        spent = 0.0
        while not spent or spent < CAL_SHARE * op_seconds:
            dt = self._unit()
            self.cal.append(dt)
            spent += dt

    def speed_factor(self) -> float:
        return self._ref_s / statistics.median(self.cal)

    def calibration_ms(self) -> float:
        return 1e3 * statistics.median(self.cal)

    def wall_s(self, stage: str) -> float:
        """Sum over the stage's operations of each one's median wall time."""
        return sum(statistics.median(v) for (s, _), v in self.samples.items() if s == stage)

    def stage_s(self, stage: str) -> float:
        return self.wall_s(stage) * self.speed_factor()

    def total_s(self) -> float:
        return sum(self.stage_s(s) for s in STAGE_SPAN)

    def stage_samples(self, stage: str) -> int:
        return sum(len(v) for (s, _), v in self.samples.items() if s == stage)


# root span of each operation; its self time is the harness (or analyze) glue
STAGE_SPAN = {"verdict": "cli.analyze", "crosscheck": "bench.crosscheck", "growth": "bench.growth"}
STAGE_OPS = {"verdict": op_verdict, "crosscheck": op_crosscheck, "growth": op_growth}


def run_op(rec: Recorder, tracer, cli, stage: str, item: Item, seed: int) -> None:
    span = tracer.begin(STAGE_SPAN[stage]) if tracer else None
    t0 = time.perf_counter()
    try:
        out = STAGE_OPS[stage](cli, item, seed)
    except Exception as exc:   # any exception is a failed operation; keep going
        out = "".join(traceback.format_exception_only(exc)).strip()
    dt = time.perf_counter() - t0
    if span:
        tracer.end(span)
    rec.samples[(stage, item.name)].append(dt)
    rec.calibrate(dt)
    rec.attempted += 1
    if isinstance(out, tuple):
        out, rec.slope_err[item.name] = out
    if out is not None:
        rec.failed += 1
        rec.failures.setdefault((stage, item.name), [out, 0])[1] += 1


def pass_ops(items, verdict_reps: int) -> list[tuple[str, Item]]:
    """One pass: every operation once and each verdict ``verdict_reps`` times.
    The verdict rounds are spread evenly between the slower operations, so
    their samples cover the whole run rather than one stretch of it."""
    growth = [("growth", i) for i in items if i.growth_family]
    cross = [("crosscheck", i) for i in items if i.crosscheck]
    slow = [op for pair in zip(cross, growth) for op in pair]
    slow += cross[len(growth):] + growth[len(cross):]
    ops = []
    for r in range(verdict_reps):
        ops += [("verdict", i) for i in items]
        ops += slow[r * len(slow) // verdict_reps:(r + 1) * len(slow) // verdict_reps]
    return ops


def run_passes(rec: Recorder, tracer, cli, ops, seed: int, seconds: float) -> list[int]:
    """Whole passes, at least one, while the next one, judged by the last,
    would end less than half a pass after ``seconds``.  Returns a mark at each
    pass boundary: the tracer's span and jet counts, or None without one."""
    def mark():
        return (len(tracer.spans), tracer.counters["jets.jet_objects"]) if tracer else None

    bounds = [mark()]
    start, last = time.perf_counter(), 0.0
    while len(bounds) == 1 or time.perf_counter() - start + last / 2 <= seconds:
        t0 = time.perf_counter()
        for stage, item in ops:
            run_op(rec, tracer, cli, stage, item, seed)
        last = time.perf_counter() - t0
        bounds.append(mark())
    return bounds


def measure_setup(paths: list[Path]) -> tuple[float, float]:
    """Fresh processes that import rigidkit and load every input file.
    Returns the median of their times in reference seconds, and the median
    of their wall times.  Import time is interpreter-bound and moves with
    the machine's speed, so each process's wall time is scaled by the
    ``interp`` calibration unit timed just before and just after it."""
    unit, ref_s = make_unit("interp")

    def unit_s() -> float:
        times, end = [], time.perf_counter() + SETUP_CAL_S
        while not times or time.perf_counter() < end:
            times.append(unit())
        return statistics.median(times)

    cmd = [sys.executable, "-c", PROBE, str(SRC), *map(str, paths)]
    walls, times, before = [], [], unit_s()
    for _ in range(SETUP_PROBES):
        wall = run_probe(cmd)
        after = unit_s()
        walls.append(wall)
        times.append(wall * ref_s / ((before + after) / 2))
        before = after
    return statistics.median(times), statistics.median(walls)


def run_probe(cmd: list[str]) -> float:
    """Wall time of one set-up process.  It is waited for without a timeout,
    because a wait with one polls and rounds the time up to 50 ms steps; a
    timer kills the process instead if it hangs."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"set-up process exited with {code}: {cmd}")
    return wall


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of the traced passes
# ---------------------------------------------------------------------------

def pass_layer_metrics(spans, selfs, jets: int) -> dict[str, float]:
    incl, self_by, calls, layer_self = Counter(), Counter(), Counter(), Counter()
    kd_calls, svd_bytes, levels, radius_times = Counter(), 0, 0, []
    for s, st in zip(spans, selfs):
        dur = s.end - s.start
        incl[s.name] += dur
        self_by[s.name] += st
        calls[s.name] += 1
        layer_self[s.name.split(".")[0]] += st
        info = s.info or {}
        if s.name == "linear.kernel_decomposition":
            kd_calls[s.caller] += 1
            svd_bytes = max(svd_bytes, info.get("svd_bytes", 0))
        levels += info.get("levels", 0)
        if s.name == "growth.min_energy_on_sphere":
            radius_times.append(dur)
    m = {
        "framework.load_s": incl["framework.load"],
        "framework.pin_s": incl["framework.pin"],
        "linear.rigidity_matrix_s": incl["linear.rigidity_matrix"],
        "linear.kernel_decomposition_s": incl["linear.kernel_decomposition"],
        "linear.kernel_decomposition_calls": calls["linear.kernel_decomposition"],
        "linear.svd_bytes": svd_bytes,
        "ladder.solve_ladder_s": incl["ladder.solve_ladder"],
        "ladder.flex_rhs_s": incl["ladder.flex_rhs"],
        "ladder.solve_min_norm_s": incl["ladder.solve_min_norm"],
        "ladder.levels": levels,
        "jets.jet_objects": jets,
        "energy.energy_along_trajectory_s": incl["energy.energy_along_trajectory"],
        "energy.energy_along_trajectory_calls": calls["energy.energy_along_trajectory"],
        "energy.gradient_along_trajectory_s": incl["energy.gradient_along_trajectory"],
        "energy.energy_value_grad_hess_s": incl["energy.energy_value_grad_hess"],
        "energy.energy_value_grad_hess_calls": calls["energy.energy_value_grad_hess"],
        "critpoint.second_order_rigidity_test_s": incl["critpoint.second_order_rigidity_test"],
        "critpoint.second_order_rigidity_test_self_s": self_by["critpoint.second_order_rigidity_test"],
        "critpoint.order2k_family_test_s": incl["critpoint.order2k_family_test"],
        "growth.fit_growth_order_s": incl["growth.fit_growth_order"],
        "growth.min_energy_on_sphere_s": statistics.median(radius_times) if radius_times else 0.0,
        "growth.radii": calls["growth.min_energy_on_sphere"],
        "cli.analyze_self_s": self_by["cli.analyze"],
    }
    for caller in KD_CALLERS:
        m[f"linear.kernel_decomposition_calls.{caller}"] = kd_calls[caller]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    blas = {}
    with contextlib.suppress(Exception):   # show_config's layout varies by numpy version
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version"),
                "config": info.get("openblas configuration")}
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "git_commit": _git_commit(),
        "src_sha256": _tree_digest(SRC),
    }


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
        return out.stdout.strip()
    return None


def _tree_digest(top: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(top.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(top)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rigidkit" / "__init__.py").is_file():
        print(f"error: no rigidkit sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:          # before numpy is first imported
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    from rigidkit import cli

    build, verdict_reps, cal_unit = WORKLOADS[args.workload]
    workdir = WORK_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        items = build(args.seed, workdir)
        setup = measure_setup([it.path for it in items])
        return measure(args, cli, items, verdict_reps, cal_unit, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()


def measure(args, cli, items, verdict_reps: int, cal_unit: str, setup: tuple[float, float]) -> int:
    from tracing import Tracer, self_times

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)
    ops = pass_ops(items, verdict_reps)
    # the first analysis pays one-time costs (lazy imports, BLAS start-up)
    run_op(Recorder(cal_unit), None, cli, "verdict", items[0], args.seed)

    rec = Recorder(cal_unit)
    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    n_untraced = len(run_passes(rec, None, cli, ops, args.seed, untraced_seconds)) - 1

    layer, n_traced, tracer = {}, 0, None
    if args.trace:
        tracer, traced = Tracer(), Recorder(cal_unit)
        t_trace = time.perf_counter()
        tracer.install()
        try:
            bounds = run_passes(traced, tracer, cli, ops, args.seed, args.seconds - untraced_seconds)
        finally:
            tracer.uninstall()
        n_traced = len(bounds) - 1
        selfs = self_times(tracer.spans)
        per_pass = [pass_layer_metrics(tracer.spans[a:b], selfs[a:b], jb - ja)
                    for (a, ja), (b, jb) in zip(bounds, bounds[1:])]
        factor = traced.speed_factor()
        layer = {k: statistics.median(p[k] for p in per_pass) * (factor if k.endswith("_s") else 1)
                 for k in per_pass[0]}
        layer["trace.overhead"] = traced.total_s() / rec.total_s()
        rec.attempted += traced.attempted
        rec.failed += traced.failed
        for key, (msg, count) in traced.failures.items():
            rec.failures.setdefault(key, [msg, 0])[1] += count
        tracer.write_jsonl(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl", t_trace)

    values = {
        "setup_s": setup[0],
        "setup_wall_s": setup[1],
        "verdict_s": rec.stage_s("verdict"),
        "total_s": rec.total_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "crosscheck_s": rec.stage_s("crosscheck"),
        "growth_s": rec.stage_s("growth"),
        "growth_slope_err": max(rec.slope_err.values(), default=0.0),
        "fail_share": rec.failed / rec.attempted,
        "verdict_wall_s": rec.wall_s("verdict"),
        "total_wall_s": sum(rec.wall_s(s) for s in STAGE_SPAN),
        "calibration_unit_ms": rec.calibration_ms(),
        **layer,
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    env = environment()
    print_report(args, env, items, ops, rec, values, layer, units, (n_untraced, n_traced))

    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"env": env, "values": values,
                   "failures": {f"{s} {n}": m for (s, n), m in rec.failures.items()},
                   "result": result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def print_report(args, env, items, ops, rec, values, layer, units, passes) -> None:
    """The human-readable part of the output: everything before the JSON line."""
    print(f"rigidkit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    print("inputs: " + ", ".join(i.name for i in items))
    print(f"passes: {passes[0]} untraced, {passes[1]} traced; samples per stage: "
          + ", ".join(f"{s} {rec.stage_samples(s)}" for s in STAGE_SPAN)
          + f"; operations attempted {rec.attempted}, failed {rec.failed}")
    stages_run = {stage for stage, _ in ops}
    stage_of = {"crosscheck_s": "crosscheck", "growth_s": "growth", "growth_slope_err": "growth"}
    for name in ("setup_s", "verdict_s", "total_s", "peak_rss_mb", "crosscheck_s", "growth_s",
                 "growth_slope_err", "fail_share", "setup_wall_s", "verdict_wall_s", "total_wall_s",
                 "calibration_unit_ms"):
        absent = stage_of.get(name, "verdict") not in stages_run
        shown = "n/a (stage not in workload)" if absent else f"{values[name]:.6g}"
        print(f"  {name:<18} {shown:>14} {units[name]}")
    for (stage, name), (msg, count) in sorted(rec.failures.items()):
        print(f"FAILED {stage} {name} (x{count}): {msg}")
    if layer:
        print("per-layer, median over traced passes:")
        for name, value in layer.items():
            print(f"  {name:<48} {value:.6g} {units[name]}")
        self_sum = layer["cli.analyze_self_s"] + sum(layer[f"{x}.self_s"] for x in LAYERS)
        # a pass runs each verdict verdict_reps times; total_s counts it once
        extra = sum(stage == "verdict" for stage, _ in ops) / len(items) - 1
        untraced = values["total_s"] + extra * values["verdict_s"]
        print(f"layer self-times sum to {self_sum:.6g} s per traced pass; the untraced pass "
              f"x trace.overhead is {untraced * layer['trace.overhead']:.6g} s")


if __name__ == "__main__":
    sys.exit(main())
