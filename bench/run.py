"""Benchmark runner for twotime: one workload per run, closed loop, one thread.

Usage (from the repository root):

    python3 bench/run.py --workload {scan,gap,realism} --seed N --seconds S --trace {0,1}

A run makes the workload's inputs from ``--seed``, runs one warm-up pass,
then runs passes back to back for ``--seconds`` seconds, each starting when
the previous one ends. Every pass is checked. With ``--trace 0`` it reports
the end-to-end metrics of BENCHMARK.json; set-up time is measured by fresh
interpreters importing ``twotime`` and ``twotime.cli``, one before the first
pass and one after each timed pass. Between passes a fixed pure-Python
calibration loop is timed, and every end-to-end time is scaled by how much
slower or faster than ``REF_CALIBRATION_S`` the loop ran in this run (see
``speed_factor``). With ``--trace 1`` it spends half the time on untraced
passes and half on traced ones and reports the per-layer metrics, unscaled.
The next-to-last stdout line is a JSON record of the host, the inputs and
the unscaled times; the last line is the result.

The package is imported from ``src/`` of the checkout the script lives in,
and everything it writes goes to ``.bench_out/`` there.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
IMPORT_SNIPPET = f"import sys; sys.path.insert(0, {str(SRC)!r}); import twotime, twotime.cli"
# The usual median time of calibrate() on the 2-core machine described in
# bench/NOTES.md. It only sets the scale: in a run whose calibration median
# equals it, the scaled times equal the measured ones.
REF_CALIBRATION_S = 0.020
CALIBRATION_ITERATIONS = 300_000


def cap_blas_threads(nproc: int) -> dict:
    """Cap each BLAS thread setting at nproc; numpy reads them at its first import."""
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def time_import() -> float:
    """Wall seconds for a fresh interpreter to import twotime and twotime.cli."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], check=True, cwd=ROOT)
    return time.perf_counter() - start


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python loop that touches no twotime code.

    The machine's speed drifts by tens of percent over minutes, because other
    work shares it. Pass times and this loop's time move together when both
    are taken as medians over a run, so their ratio is far steadier than
    either one (see bench/NOTES.md).
    """
    start = time.perf_counter()
    total = 0.0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * 0.5
    return time.perf_counter() - start


def git_commit():
    """HEAD of the checkout the benchmark lives in, or None outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return None
    # A checkout nested inside some other repository must not report that repository's commit.
    return out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def count_rows(path: Path) -> int:
    """Data rows of a CSV table (lines after the header), read as a stream."""
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


class Runner:
    """Runs passes of one workload and keeps the operation tally."""

    def __init__(self, workload, out_dir: Path):
        self.workload = workload
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.rows_written = 0
        self.bytes_written = 0

    def one_pass(self, tracer=None):
        """Run, time and check one pass; returns (wall_s, cpu_s)."""
        for path in self.out_dir.iterdir():
            path.unlink()
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            cpu0, wall0 = time.process_time(), time.perf_counter()
            outcomes = self.workload.run()
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            tables = list(self.out_dir.iterdir())
            self.rows_written = sum(count_rows(p) for p in tables)
            self.bytes_written = sum(p.stat().st_size for p in tables)
        try:
            failures = self.workload.check(outcomes)
        except Exception:
            # A check that breaks on malformed output fails every operation of the pass.
            failures = [f"check raised:\n{traceback.format_exc()}"] * len(outcomes)
        self.attempted += len(outcomes)
        for failure in failures:
            if failure is not None:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(failure)
        return wall, cpu

    def passes(self, seconds, after_each=None):
        """Closed loop: back-to-back passes until ``seconds`` have elapsed.

        ``after_each`` runs untimed after every pass; its results are returned
        alongside the pass times.
        """
        walls, cpus, extra = [], [], []
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            wall, cpu = self.one_pass()
            walls.append(wall)
            cpus.append(cpu)
            if after_each is not None:
                extra.append(after_each())
        return walls, cpus, extra


def layer_metrics(tracer, wall, runner):
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    from tracer import LAYERS

    stats, covered = tracer.summary()

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    m = {}
    for layer in LAYERS:
        entries = [v for k, v in stats.items() if k.split(".", 1)[0] == layer]
        m[f"{layer}.calls"] = sum(e["calls"] for e in entries)
        m[f"{layer}.self_s"] = sum(e["self_s"] for e in entries)
        m[f"{layer}.errors"] = sum(e["errors"] for e in entries)
    m["stream.generators"] = stat("stream.default_rng", "calls")
    m["stream.seed_s"] = stat("stream.SeedSequence", "s") + stat("stream.default_rng", "s")
    for name in ("spinlab.torque_irreality_pair", "qcore.BlochVector", "qcore.binary_entropy",
                 "qcore.Observable", "dynamics.ChannelFamily", "correlators.realize",
                 "qcore.DensityMatrix", "realism.dephase"):
        m[f"{name}.calls"] = stat(name, "calls")
    for name in ("qcore.BlochVector", "qcore.binary_entropy", "qcore.Observable",
                 "correlators.tpm_joint_distribution", "correlators.realize", "qcore.DensityMatrix",
                 "qcore.relative_entropy", "realism.min_form_check"):
        m[f"{name}.s"] = stat(name, "s")
    observables = stat("qcore.Observable", "calls")
    m["qcore.Observable.per_instance"] = stat("qcore.Observable", "s") / observables if observables else 0.0
    m["cli.rows_written"] = runner.rows_written
    m["cli.bytes_written"] = runner.bytes_written
    solver_calls = solver_matrices = 0
    for solver in ("eigh", "eigvalsh"):
        calls = stat(f"numpy.{solver}", "calls")
        matrices = tracer.matrices[f"numpy.{solver}"]
        m[f"numpy.{solver}.calls"] = calls
        m[f"numpy.{solver}.matrices"] = matrices
        solver_calls += calls
        solver_matrices += matrices
    m["numpy.eig.matrices_per_call"] = solver_matrices / solver_calls if solver_calls else 0.0
    m["bench.self_s"] = wall - covered
    return m


def traced_run(runner, seconds, package, spans_path: Path):
    """Untraced passes for half the time, traced passes for the other half.

    Returns the per-layer values (median over traced passes) and a timing
    record; the spans of the last traced pass are written to ``spans_path``.
    """
    from tracer import Tracer

    walls, _, _ = runner.passes(seconds / 2)
    traced = []
    deadline = time.perf_counter() + seconds / 2
    while not traced or time.perf_counter() < deadline:
        tracer = Tracer(package)
        wall, _ = runner.one_pass(tracer)
        traced.append((wall, layer_metrics(tracer, wall, runner)))
    # Counts repeat exactly from pass to pass; times take the median.
    values = {name: (statistics.median_low if isinstance(value, int) else statistics.median)(
        [m[name] for _, m in traced]) for name, value in traced[0][1].items()}
    values["trace.overhead_s"] = statistics.median(w for w, _ in traced) - statistics.median(walls)
    tracer.write(spans_path, tracer.span_start[0] if tracer.span_start else 0.0)
    timing = {"untraced_passes": len(walls), "traced_passes": len(traced),
              "spans_file": str(spans_path.relative_to(ROOT))}
    return values, timing


def select(spec, values):
    """Order and unit-tag ``values`` by the metric list in BENCHMARK.json."""
    missing = [entry["name"] for entry in spec if entry["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]} for entry in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scan", "gap", "realism"))
    parser.add_argument("--seed", type=int, default=20240001)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for required in (SRC / "twotime" / "__init__.py", ROOT / "data" / "sha256sums.txt", ROOT / "BENCHMARK.json"):
        if not required.exists():
            print(f"error: {required} not found; run from a full checkout of the repository", file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    nproc = len(os.sched_getaffinity(0))
    blas = cap_blas_threads(nproc)
    setup_times = []
    if not args.trace:
        time_import()  # discarded: it may compile bytecode or fault files into the page cache
        setup_times.append(time_import())

    sys.path.insert(0, str(SRC))
    import numpy as np
    import twotime
    import twotime.cli
    from workloads import WORKLOADS, pinned_digests, sha256

    if Path(twotime.__file__).resolve().parent != SRC / "twotime":
        print(f"error: imported twotime from {twotime.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        out_dir = Path(tmp)
        workload = WORKLOADS[args.workload](twotime, args.seed, out_dir, ROOT)
        runner = Runner(workload, out_dir)
        runner.one_pass()
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            values, timing = traced_run(runner, args.seconds, twotime, spans_path)
            metrics = select(spec["per_layer"], values)
        else:
            # One more fresh import after each pass spreads the set-up samples
            # over the run, so a few seconds of machine slowdown cannot set them
            # all; the calibration loop is timed on both sides of it.
            def between_passes():
                return calibrate(), time_import(), calibrate()

            walls, cpus, gaps = runner.passes(args.seconds, after_each=between_passes)
            setup_times += [t for _, t, _ in gaps]
            calibrations = [c for before, _, after in gaps for c in (before, after)]
            factor = REF_CALIBRATION_S / statistics.median(calibrations)
            raw = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
                   "setup_s": statistics.median(setup_times)}
            metrics = select(spec["end_to_end"], {
                **{name: value * factor for name, value in raw.items()},
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            })
            timing = {"passes": len(walls), "unscaled": raw, "speed_factor": factor,
                      "calibration_s_quartiles": quartiles(calibrations),
                      "wall_s_quartiles": quartiles(walls), "cpu_s_quartiles": quartiles(cpus)}

    curves = ROOT / "data" / "figure1_curves.csv"
    runner.attempted += 1
    if sha256(curves) != pinned_digests(ROOT)[curves.name]:
        runner.failed += 1
        runner.failures.append("data/figure1_curves.csv no longer matches data/sha256sums.txt")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "loop": "closed, one thread", "nproc": nproc, "blas_threads": blas,
        "python": platform.python_version(), "numpy": np.__version__,
        "git_commit": git_commit(),
        "inputs": workload.inputs, "setup_s_samples": setup_times, **timing,
        "error_rate": runner.failed / runner.attempted, "failures": runner.failures,
    }
    for failure in runner.failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
