"""varchenko benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                     # every workload, one process each

S defaults to DEFAULT_SECONDS, which is run_seconds of BENCHMARK.json; a
harness that reads BENCHMARK.json passes it as --seconds.

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  One workload runs
in this process: set-up (import of the package, input generation, input
files), then passes of all its ops through ``varchenko.cli.main(argv)`` for
about S seconds, then a check of every output.  The last stdout line is the
result, ``{"correct", "attempted", "failed", "metrics"}``: with --trace 0 the
end-to-end metrics, measured untraced; with --trace 1 the per-layer metrics,
from traced passes that alternate with untraced ones so that the tracing
overhead is measured too.  Run metadata is printed on the line before, and
the result, metadata and spans are written under perfbench/out/.

End-to-end metrics:
  wall_s       time of one pass: the sum over ops of the op's mean time
  setup_s      median of SETUP_REPEATS set-ups, this process's and fresh ones',
               each scaled by references run right around it
  op_p50_s     median and 90th percentile of the ops' mean times (on factor
  op_p90_s     and bruteforce, of 4 and 2 ops)
  peak_rss_mb  ru_maxrss of this process
Times are reference seconds: each measured time is multiplied by
REFERENCE_S over the mean time of a fixed pure-Python reference loop sampled
during the same passes (see Yardstick), or around the same set-up, which
cancels most of the slow-down that other tenants of a shared machine cause.
The measured seconds and the scales are in the metadata.  Ops that exit
non-zero or fail their output check count in "failed"; their share is
printed as failed_ops_frac.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from math import gcd
from pathlib import Path

import layertrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SECONDS = 40
SETUP_REPEATS = 11    # set-ups per run: this process plus SETUP_REPEATS - 1 probes
SETUP_REFS = 4        # reference loops timed before and again after each set-up
PASS_REFS = 10        # reference loops timed before each pass, outside the ops

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "op_p50_s": "s", "op_p90_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{layer}.{k}": u for layer in layertrace.LAYERS
       for k, u in (("calls", "count"), ("s", "s"), ("self_s", "s"))},
    "feasibility.infeasible_frac": "ratio",
    "feasibility.rows_mean": "count",
    "geometry.enumerate_chambers.s": "s",
    "geometry.enumerate_chambers.fm_calls": "count",
    "geometry.face_of.calls": "count",
    "geometry.face_scan.s": "s",
    "geometry.face_scan.fm_per_face": "count",
    "geometry.face_scan.facet_fastpath_frac": "ratio",
    "geometry.face_scan.empty_frac": "ratio",
    "geometry.face_of.self_s": "s",
    "geometry.canonical_edge.calls": "count",
    "geometry.canonical_edge.s": "s",
    "geometry.multiplicity.s": "s",
    "geometry.relevant_edges.count": "count",
    "matrix.varchenko_matrix_eval.s": "s",
    "matrix.det_mod.s": "s",
    "matrix.det_mod.calls": "count",
    "matrix.det_mod.n_max": "count",
    "matrix.det_mod.n3_sum": "count",
    "matrix.det_mod.small_frac": "ratio",
    "harness.verify_identity.self_s": "s",
    "harness.parse_arrangement_file.s": "s",
    "exactalg.factored_eval.s": "s",
    "closedform.formula.s": "s",
    "families.build_family.s": "s",
    "cli.main.self_s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


# Mean time of one reference_time() on the machine baseline.json was
# recorded on (2 vCPUs, CPython 3.11) when nothing else slows it down.
REFERENCE_S = 0.004
TICK_S = 0.2
# Mean time of one file_reference_time() there when the disk is idle.
FILE_REFERENCE_S = 0.0015
FILE_REFERENCE_COUNT = 50
FILE_REFERENCE_TEXT = "dim 3\nhyperplane 1 -2 3 0 w1\nhyperplane 0 1 1 -1 w2\n"


class BenchError(RuntimeError):
    pass


def reference_work() -> int:
    """Fixed pure-Python work in the style of the package's hot loop
    (integer rows combined and gcd-normalised, keyed by tuple in a dict).
    Its time is the yardstick of the machine's speed, so it must never
    change."""
    rows: dict = {}
    x = 12345
    for _ in range(900):
        x = (x * 1103515245 + 12345) % 2147483648
        a = tuple((x >> (3 * k)) % 13 - 6 for k in range(6))
        b = tuple((x >> (3 * k + 1)) % 11 - 5 for k in range(6))
        row = tuple(3 * u - 2 * v for u, v in zip(a, b))
        g = 0
        for v in row:
            g = gcd(g, v)
        if g > 1:
            row = tuple(v // g for v in row)
        rows[row] = rows.get(row, 0) + 1
    return len(rows)


def reference_time() -> float:
    """Seconds of one reference_work(), with the garbage collector off so
    that the program's heap is never scanned on the yardstick's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def file_reference_time(workdir: Path) -> float:
    """Seconds to write FILE_REFERENCE_COUNT small fixed files, the
    yardstick of the file system's speed.  The disk is shared too, and its
    load changes the time to write the same files tenfold; the CPU
    yardstick does not see that.  Must never change."""
    refdir = Path(tempfile.mkdtemp(prefix="ref-", dir=workdir))
    t0 = time.perf_counter()
    for k in range(FILE_REFERENCE_COUNT):
        (refdir / f"ref{k:03d}.txt").write_text(FILE_REFERENCE_TEXT)
    took = time.perf_counter() - t0
    shutil.rmtree(refdir)
    return took


class Yardstick:
    """Times reference_work() every TICK_S seconds of the run, from a
    SIGALRM handler, so that it samples the machine while the ops run.

    The machine is shared: other tenants slow it down by up to twice, in
    bursts of seconds and spells of minutes.  Op time divided by the mean
    reference time over the same interval cancels most of that, so the
    benchmark reports times multiplied by REFERENCE_S / mean reference
    time.  The handler's own time is kept in `spent` and taken out of the
    op times.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        took = reference_time()
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, samples: list[float]) -> float:
        if not samples:
            raise BenchError("no reference samples; the run was shorter than one tick")
        return REFERENCE_S / statistics.fmean(samples)


def setup(name: str, seed: int, workdir: Path):
    """Import the package from the checkout, make the workload's inputs and
    write its input files.  Returns (reference seconds, measured seconds,
    cli module, ops).  The import and input generation are scaled by
    reference_time() and the file writing by file_reference_time(), each
    timed right before and after the part it scales."""
    cpu_refs = [reference_time() for _ in range(SETUP_REFS)]
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        cli = importlib.import_module("varchenko.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import varchenko from {SRC}: {exc}") from None
    pkg = Path(sys.modules["varchenko"].__file__).resolve()
    if SRC.resolve() not in pkg.parents:
        raise BenchError(f"varchenko was imported from {pkg}, not from {SRC}")
    ops, files = workloads.make_ops(name, seed, workdir)
    computed = time.perf_counter() - t0
    written = 0.0
    if files:
        file_refs = [file_reference_time(workdir)]
        t1 = time.perf_counter()
        for path, text in files.items():
            path.write_text(text)
        written = time.perf_counter() - t1
        file_refs.append(file_reference_time(workdir))
    cpu_refs += [reference_time() for _ in range(SETUP_REFS)]
    scaled = computed * REFERENCE_S / statistics.fmean(cpu_refs)
    if files:
        scaled += written * FILE_REFERENCE_S / statistics.fmean(file_refs)
    return scaled, computed + written, cli, ops


def setup_probe(name: str, seed: int) -> tuple[float, float]:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=OUT))
    try:
        return setup(name, seed, workdir)[:2]
    finally:
        shutil.rmtree(workdir)


def setup_times(name: str, seed: int, own: tuple) -> list[tuple[float, float]]:
    """(reference seconds, measured seconds) of this process's set-up and
    of fresh processes doing the same set-up."""
    times = [own]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(tuple(json.loads(proc.stdout.splitlines()[-1])))
    return times


def cache_clearers() -> list:
    """cache_clear of every functools cache in the package.  A CLI call is a
    fresh process, so each op starts with these empty, as it would there."""
    found = {}
    for modname, module in list(sys.modules.items()):
        if modname == "varchenko" or modname.startswith("varchenko."):
            for obj in vars(module).values():
                clear = getattr(obj, "cache_clear", None)
                module_of = getattr(obj, "__module__", None) or ""
                if callable(clear) and module_of.startswith("varchenko"):
                    found[id(obj)] = clear
    return list(found.values())


def run_pass(cli, ops, clearers, yardstick: Yardstick) -> list[tuple]:
    """One closed-loop pass; returns (seconds, exit status, stdout, stderr)
    per op.  A crash or exit counts as the op's status."""
    results = []
    for op in ops:
        for clear in clearers:
            clear()
        out, err = io.StringIO(), io.StringIO()
        spent = yardstick.spent
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an engine crash is a failed op, not a failed run
            rc = f"{type(exc).__name__}: {exc}"
        took = time.perf_counter() - t0 - (yardstick.spent - spent)
        results.append((took, rc, out.getvalue(), err.getvalue()))
    return results


def mean_op_times(passes: list[list[tuple]]) -> list[float]:
    """Each op's mean time over the passes."""
    return [statistics.fmean(times) for times in zip(*([r[0] for r in p] for p in passes))]


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile, interpolating between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 corrupt: bool = False) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        *own, cli, ops = setup(name, seed, workdir)
        setups = setup_times(name, seed, tuple(own))
        workloads.attach_checks(ops, corrupt)
        clearers = cache_clearers()
        tracer = layertrace.Tracer()

        untraced, traced, outcomes = [], [], []
        pass_refs = {False: [], True: []}   # reference samples of each untraced, traced pass
        between = []                      # reference samples between passes
        start = time.perf_counter()
        slowest = 0.0
        with Yardstick() as yardstick:
            while True:
                use_trace = trace and len(traced) < len(untraced)
                gc.collect()
                signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
                between.extend(reference_time() for _ in range(PASS_REFS))
                signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
                first = len(yardstick.samples)
                pass_start = time.perf_counter()
                if use_trace:
                    tracer.begin_pass()
                    tracer.install()
                try:
                    results = run_pass(cli, ops, clearers, yardstick)
                finally:
                    tracer.uninstall()
                pass_refs[use_trace].append(yardstick.samples[first:])
                (traced if use_trace else untraced).append(results)
                outcomes.extend(zip(ops, results))
                now = time.perf_counter()
                slowest = max(slowest, now - pass_start)
                enough = len(untraced) >= 1 and (not trace or len(traced) >= 1)
                if enough and now - start + slowest > seconds:
                    break

        failures = []
        for op, (_, rc, stdout, stderr) in outcomes:
            reason = workloads.check(op, rc, stdout)
            if reason is not None:
                failures.append(f"{op.label}: {reason} {stderr.strip()[:200]}".rstrip())
        traced_metrics = [layertrace.pass_metrics(spans) for spans in tracer.passes]
        span_problems = [line for _, bad in traced_metrics for line in bad]

        walls = [sum(r[0] for r in p) for p in untraced]
        op_means = mean_op_times(untraced)
        untraced_refs = [t for samples in pass_refs[False] for t in samples]
        scale = yardstick.scale(untraced_refs)
        if trace:
            # Few passes, so each is scaled by its own samples, and every
            # per-layer figure comes from one whole traced pass: the median
            # one by wall time.
            def scaled_walls(passes, refs):
                return [sum(r[0] for r in p) * yardstick.scale(s) for p, s in zip(passes, refs)]
            traced_walls = scaled_walls(traced, pass_refs[True])
            pick = traced_walls.index(statistics.median_low(traced_walls))
            metrics = dict(traced_metrics[pick][0])
            for k in metrics:
                if PER_LAYER[k] == "s":
                    metrics[k] *= yardstick.scale(pass_refs[True][pick])
            metrics["trace.wall_s"] = traced_walls[pick]
            metrics["trace.untraced_wall_s"] = statistics.median(
                scaled_walls(untraced, pass_refs[False]))
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
            units = PER_LAYER
        else:
            metrics = {
                "wall_s": sum(op_means) * scale,
                "setup_s": statistics.median(scaled for scaled, _ in setups),
                "op_p50_s": _quantile(op_means, 50) * scale,
                "op_p90_s": _quantile(op_means, 90) * scale,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
        if set(metrics) != set(units):
            raise BenchError(f"metric names out of step: {sorted(set(metrics) ^ set(units))}")
        from varchenko import __version__
        from varchenko.exactalg import DEFAULT_PRIME
        meta = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "package_version": __version__, "prime": str(DEFAULT_PRIME),
            "passes_untraced": len(untraced), "passes_traced": len(traced),
            "ops_per_pass": len(ops), "op_samples": len(op_means),
            "setup_samples_s": [round(raw, 6) for _, raw in setups],
            "setup_scaled_s": [round(scaled, 6) for scaled, _ in setups],
            "pass_walls_s": [round(w, 6) for w in walls],
            "reference_samples": len(untraced_refs),
            "reference_mean_s": REFERENCE_S / scale,
            "speed_scale": scale,
            # reference time inside the ops over that between passes: 1 if the
            # program does not slow the yardstick that interrupts it
            "reference_coupling": statistics.fmean(untraced_refs) / statistics.fmean(between),
            "failed_ops_frac": len(failures) / len(outcomes),
        }
        result = {
            "correct": not failures and not span_problems,
            "attempted": len(outcomes),
            "failed": len(failures),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
        stem = f"{name}-seed{seed}-trace{int(trace)}"
        (OUT / f"{stem}.json").write_text(json.dumps(
            {"meta": meta, "result": result, "failures": failures,
             "span_problems": span_problems[:20]}, indent=1) + "\n")
        if trace:
            (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()))
        return {"meta": meta, "result": result, "failures": failures,
                "span_problems": span_problems}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(run: dict) -> None:
    meta, result = run["meta"], run["result"]
    for line in run["failures"][:10] + run["span_problems"][:10]:
        print(f"FAILED {line}", file=sys.stderr)
    summary = "  ".join(f"{k}={v['value']:.6g} {v['unit']}"
                        for k, v in result["metrics"].items())
    print(f"{meta['workload']}: {summary}")
    print(f"{meta['workload']}: failed_ops_frac={meta['failed_ops_frac']:.6g} "
          f"({result['failed']}/{result['attempted']} ops)")
    print("meta " + json.dumps(meta))


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in its own process, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(json.dumps(setup_probe(args.workload, args.seed)))
            return 0
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(run)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
