"""The three benchmark workloads and their correctness gates.

Each workload drives the public twotime API (mostly ``cli.main``) and splits
one pass into operations. ``run`` is the timed part; ``check`` runs after it,
untimed and untraced, and returns one failure message (or None) per
operation. An operation fails when it raises, exits nonzero or fails its
check. The program sees only inputs made here from the benchmark's seed.

Why these three: ``scan`` is the figure1 path (per-row random streams, the
scalar closed-form irreality and the table writer) and builds no matrix
object; ``gap`` is Observable construction, propagation and the two-point
correlators, with no stream and no writer; ``realism`` is the matrix path
the other way round (many DensityMatrix constructions and relative entropies
against few Observables, up to d = 8) and also covers ``gaussian`` and the
conditional operator.
"""

import contextlib
import csv
import hashlib
import io
import math
import random
import re
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 20240001
SCAN_R_LIST = (0.2, 0.5, 0.8, 1.0)
SCAN_SAMPLES = 10000
SCAN_CURVE_POINTS = 360
SCAN_CHECKED_ROWS = 400
BOUND_TOL = 1e-9
GAP_TRIALS = 1000
REALISM_DIMS = (2, 3, 4, 8)
REALISM_PER_DIM = 6
REALISM_MIN_FORM_SAMPLES = 500
REALISM_REPORTS = ("eigenprep", "precession", "displacement")
LAMBDA_ROWS = 180


@dataclass
class Outcome:
    op: str
    value: object = None
    stdout: str = ""
    error: str = None


def call(op, fn, *args, **kwargs) -> Outcome:
    """Run one operation, capturing its stdout and any exception it raises."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            value = fn(*args, **kwargs)
    except (Exception, SystemExit):
        return Outcome(op, None, buf.getvalue(), traceback.format_exc())
    return Outcome(op, value, buf.getvalue())


def sha256(path: Path) -> str:
    # Streamed, so that hashing a 2.6 MB table cannot set peak_rss_mb.
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def pinned_digests(root: Path) -> dict:
    """File name -> digest from data/sha256sums.txt."""
    digests = {}
    for line in (root / "data" / "sha256sums.txt").read_text().splitlines():
        if line.strip():
            digest, name = line.split()
            digests[name] = digest
    return digests


def _cli_failure(outcome: Outcome):
    if outcome.error is not None:
        return f"{outcome.op} raised:\n{outcome.error}"
    if outcome.value != 0:
        return f"{outcome.op} exited {outcome.value}: {outcome.stdout.strip()[-500:]}"
    return None


def _h(u: float) -> float:
    # Binary entropy in nats, written here so the gate does not use twotime.
    if u <= 0.0 or u >= 1.0:
        return 0.0
    return -u * math.log(u) - (1.0 - u) * math.log1p(-u)


def _close(got: float, want: float) -> bool:
    # A cell is printed with 12 significant digits, so it may differ from the
    # exact value by half a unit in its 12th digit (5e-12 for an angle near
    # pi); beyond that rounding the two must agree to 1e-12.
    rounding = 0.5 * 10.0 ** (math.floor(math.log10(abs(want))) - 11) if want else 0.0
    return abs(got - want) <= rounding + 1e-12


class Scan:
    """``twotime figure1`` at default radii and samples, into a private directory."""

    name = "scan"

    def __init__(self, twotime, seed, out_dir: Path, root: Path):
        self.cli = twotime.cli
        self.seed = seed
        self.out_dir = out_dir
        self.argv = ["--seed", str(seed), "--samples", str(SCAN_SAMPLES), "--out", str(out_dir), "figure1"]
        self.digests = pinned_digests(root) if seed == DEFAULT_SEED else None
        n_scatter = len(SCAN_R_LIST) * SCAN_SAMPLES
        # Each pass recomputes a fresh sample of scatter rows, so a run covers
        # several thousand rows while the untimed check stays short.
        self.picker = random.Random(seed)
        self.checked_rows = set()
        self.inputs = {
            "radii": list(SCAN_R_LIST), "samples_per_radius": SCAN_SAMPLES,
            "scatter_rows": n_scatter, "curve_rows": len(SCAN_R_LIST) * SCAN_CURVE_POINTS,
            "rows_recomputed_per_pass": SCAN_CHECKED_ROWS + len(SCAN_R_LIST) * SCAN_CURVE_POINTS,
            "digest_gate": self.digests is not None,
        }

    def run(self):
        return [call("figure1", self.cli.main, self.argv)]

    def check(self, outcomes):
        (outcome,) = outcomes
        failure = _cli_failure(outcome)
        if failure is None:
            n_scatter = len(SCAN_R_LIST) * SCAN_SAMPLES
            self.checked_rows = set(self.picker.sample(range(n_scatter), SCAN_CHECKED_ROWS))
            try:
                failure = self._check_tables()
            except Exception as exc:
                failure = f"figure1 tables unreadable: {exc!r}"
        return [failure]

    def _check_tables(self):
        scatter = self.out_dir / "figure1_scatter.csv"
        curves = self.out_dir / "figure1_curves.csv"
        if self.digests is not None:
            for path in (scatter, curves):
                if sha256(path) != self.digests[path.name]:
                    return f"{path.name} does not match data/sha256sums.txt"
        bound = {r: math.log(2.0) - _h((1.0 + r) / 2.0) for r in SCAN_R_LIST}
        failure = self._check_rows(scatter, ["r", "theta", "phi", "irr_spin", "irr_torque"],
                                   len(SCAN_R_LIST) * SCAN_SAMPLES, bound, self._scatter_row)
        if failure is None:
            failure = self._check_rows(curves, ["r", "phi", "irr_spin", "irr_torque"],
                                       len(SCAN_R_LIST) * SCAN_CURVE_POINTS, bound, self._curve_row)
        return failure

    def _check_rows(self, path, header, n_rows, bound, recompute):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            if next(reader) != header:
                return f"{path.name}: unexpected header"
            count = 0
            for index, cells in enumerate(reader):
                count += 1
                if len(cells) != len(header):
                    return f"{path.name} row {index}: {len(cells)} cells, expected {len(header)}"
                row = [float(c) for c in cells]
                r, irr_spin, irr_torque = row[0], row[-2], row[-1]
                if r not in bound or irr_spin + irr_torque < bound[r] - BOUND_TOL:
                    return f"{path.name} row {index}: purity bound violated or unknown radius: {cells}"
                want = recompute(index)
                if want is not None and not all(_close(g, w) for g, w in zip(row, want)):
                    return f"{path.name} row {index}: {cells} differs from recomputed {want}"
        if count != n_rows:
            return f"{path.name}: {count} rows, expected {n_rows}"
        return None

    def _scatter_row(self, index):
        if index not in self.checked_rows:
            return None
        band, sample = divmod(index, SCAN_SAMPLES)
        r = SCAN_R_LIST[band]
        # The documented per-row stream: SeedSequence(seed, spawn_key=(band, sample)).
        rng = np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=(band, sample)))
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        return (r, theta, phi) + self._irrealities(r, theta, phi)

    def _curve_row(self, index):
        band, j = divmod(index, SCAN_CURVE_POINTS)
        r = SCAN_R_LIST[band]
        phi = 2.0 * math.pi * j / SCAN_CURVE_POINTS
        return (r, phi) + self._irrealities(r, math.pi / 2.0, phi)

    @staticmethod
    def _irrealities(r, theta, phi):
        x = r * math.sin(theta) * math.cos(phi)
        y = r * math.sin(theta) * math.sin(phi)
        base = _h((1.0 + r) / 2.0)
        return _h((1.0 + abs(x)) / 2.0) - base, _h((1.0 + abs(y)) / 2.0) - base


_FIXTURE_LINE = re.compile(r"fixture: protocol (\S+), Heisenberg (\S+),")


class Gap:
    """``twotime tpm-gap`` at d = 3 and d = 2; writes no files."""

    name = "gap"

    def __init__(self, twotime, seed, out_dir: Path, root: Path):
        self.cli = twotime.cli
        self.argvs = [
            ["--seed", str(seed), "tpm-gap", "--dim", str(dim), "--trials", str(GAP_TRIALS)] for dim in (3, 2)
        ]
        self.inputs = {"trials_per_dim": GAP_TRIALS, "dims": [3, 2], "dephased_start_instances_per_dim": 10}

    def run(self):
        return [call(f"tpm-gap d={argv[4]}", self.cli.main, argv) for argv in self.argvs]

    def check(self, outcomes):
        failures = [_cli_failure(o) for o in outcomes]
        if failures[0] is None:
            match = _FIXTURE_LINE.search(outcomes[0].stdout)
            if match is None:
                failures[0] = "tpm-gap d=3 printed no fixture line"
            else:
                gap = abs(float(match.group(1)) - float(match.group(2)))
                if abs(gap - 1.0 / (2.0 * math.sqrt(2.0))) > 1e-12:
                    failures[0] = f"qutrit fixture gap {gap!r}, expected 1/(2 sqrt 2)"
        return failures


@dataclass(frozen=True)
class Instance:
    observable: np.ndarray
    state: np.ndarray
    min_form_seed: int


def make_instances(seed):
    """Six (observable, state) pairs per dimension from the benchmark seed."""
    rng = np.random.default_rng([seed, 1])
    instances = []
    for dim in REALISM_DIMS:
        for _ in range(REALISM_PER_DIM):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            w = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            state = w @ w.conj().T
            state /= state.trace().real
            instances.append(Instance((g + g.conj().T) / 2.0, (state + state.conj().T) / 2.0,
                                      int(rng.integers(2**32))))
    return instances


class Realism:
    """The invariant reports and ``lambda``, then irreality checks on seeded instances."""

    name = "realism"

    def __init__(self, twotime, seed, out_dir: Path, root: Path):
        self.twotime = twotime
        self.out_dir = out_dir
        self.commands = [(f"report {name}", ["--seed", str(seed), "report", name]) for name in REALISM_REPORTS]
        self.commands.append(("lambda", ["--seed", str(seed), "--out", str(out_dir), "lambda"]))
        self.instances = make_instances(seed)
        self.inputs = {
            "reports": list(REALISM_REPORTS) + ["lambda"], "instances_per_dim": REALISM_PER_DIM,
            "dims": list(REALISM_DIMS), "min_form_samples": REALISM_MIN_FORM_SAMPLES,
        }

    def _instance(self, inst: Instance):
        qcore, realism = self.twotime.qcore, self.twotime.realism
        observable = qcore.Observable(inst.observable)
        rho = qcore.DensityMatrix(inst.state)
        irr = realism.irreality(observable, rho)
        min_form = realism.min_form_check(observable, rho, n_samples=REALISM_MIN_FORM_SAMPLES,
                                          seed=inst.min_form_seed)
        complementarity = realism.complementarity_bound_check(rho) if rho.dim == 2 else None
        return irr, min_form, complementarity

    def run(self):
        main = self.twotime.cli.main
        outcomes = [call(op, main, argv) for op, argv in self.commands]
        outcomes += [call(f"instance d={len(inst.state)}", self._instance, inst) for inst in self.instances]
        return outcomes

    def check(self, outcomes):
        n_cli = len(self.commands)
        failures = [_cli_failure(o) for o in outcomes[:n_cli]]
        if failures[-1] is None:
            table = self.out_dir / "lambda.csv"
            if not table.exists() or len(table.read_text().splitlines()) != LAMBDA_ROWS + 1:
                failures[-1] = "lambda.csv missing or of the wrong length"
        for outcome in outcomes[n_cli:]:
            if outcome.error is not None:
                failures.append(f"{outcome.op} raised:\n{outcome.error}")
                continue
            irr, min_form, complementarity = outcome.value
            problems = []
            if irr.irreality < -1e-12:
                problems.append(f"irreality {irr.irreality!r} < -1e-12")
            if min_form.identity_gap > 1e-9:
                problems.append(f"identity_gap {min_form.identity_gap!r} > 1e-9")
            if min_form.min_margin < -1e-9:
                problems.append(f"min_margin {min_form.min_margin!r} < -1e-9")
            if complementarity is not None and complementarity.slack < -1e-12:
                problems.append(f"complementarity slack {complementarity.slack!r} < -1e-12")
            failures.append(f"{outcome.op}: " + "; ".join(problems) if problems else None)
        return failures


WORKLOADS = {w.name: w for w in (Scan, Gap, Realism)}
