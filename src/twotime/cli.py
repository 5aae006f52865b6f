"""Command-line scenario runner: deterministic CSV tables and checked summaries.

Every subcommand is deterministic under a fixed seed (default 20240001,
chosen so the shipped reference tables regenerate exactly) and exits 0 only
when all of its built-in assertions pass. Numeric output uses 12 significant
digits. The default output directory can be set with the TWOTIME_OUT
environment variable.
"""

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import correlators, dynamics, gaussian, qcore, realism, spinlab
from .qcore import BOUND_TOL, FINITE_DIFF_STEP, FINITE_DIFF_TOL, FIXTURE_GAP_MIN, IDENTITY_TOL
from .qcore import PRECESSION_TOL, UNCERTAINTY_TOL

DEFAULT_SEED = 20240001
DEFAULT_SAMPLES = 10000
DEFAULT_R_LIST = (0.2, 0.5, 0.8, 1.0)
OUT_ENV_VAR = "TWOTIME_OUT"

SCATTER_HEADER = ("r", "theta", "phi", "irr_spin", "irr_torque")
CURVE_HEADER = ("r", "phi", "irr_spin", "irr_torque")
LAMBDA_HEADER = ("theta", "nu_norm", "min_eigenvalue", "physical")


def _write_tables(args, tables) -> list:
    """Write (stem, header, columns) tables and publish them together; returns their paths.

    Each table goes to a temporary file in the output directory, and all of
    them are renamed into place only once every one is written. Cells are
    strings or numbers, numbers with 12 significant digits. If the directory
    cannot be written, no table is published: the temporary files are
    removed and the run exits 2.
    """
    sep = "," if args.format == "csv" else "\t"
    paths = [args.out / f"{stem}.{args.format}" for stem, _, _ in tables]
    temps = []
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        for path, (_, header, columns) in zip(paths, tables):
            row = sep.join("%s" if isinstance(column[0], str) else "%.12g" for column in columns) + "\n"
            temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            with open(temp, "w", newline="") as fh:
                temps.append(temp)
                fh.write(sep.join(header) + "\n")
                fh.writelines(row % cells for cells in zip(*columns))
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except OSError as exc:
        for temp in temps:
            temp.unlink(missing_ok=True)
        print(f"error: cannot write to {args.out}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    return paths


def _sci(tol: float) -> str:
    # The report lines quote these tolerances as 1e-6, not Python's 1e-06.
    return f"{tol:.0e}".replace("e-0", "e-")


def _least_slack(tables):
    """(slack, table, row) of the row whose irreality sum sits least above its purity bound."""
    least = None
    for table in tables:
        radii, band = np.unique(table["r"], return_inverse=True)
        bound = np.array([spinlab.bound_rhs(r) for r in radii])[band]
        slack = table["irr_spin"] + table["irr_torque"] - bound
        row = int(np.argmin(slack))
        if least is None or slack[row] < least[0]:
            least = (float(slack[row]), table, row)
    return least


def cmd_figure1(args) -> int:
    """Verify the purity bound row by row, then write the irreality trade-off scan."""
    scatter, curves = spinlab.figure1_scan(args.r_list, args.samples, args.seed)
    min_slack, table, row = _least_slack((scatter, curves))
    if min_slack < -BOUND_TOL:
        cells = ", ".join(f"{name}={table[name][row]:.12g}" for name in SCATTER_HEADER)
        print(f"FAIL: bound violated by {min_slack:.6e} at {cells}", file=sys.stderr)
        return 1
    scatter_path, curves_path = _write_tables(args, [
        ("figure1_scatter", SCATTER_HEADER, [scatter[name].tolist() for name in SCATTER_HEADER]),
        ("figure1_curves", CURVE_HEADER, [curves[name].tolist() for name in CURVE_HEADER]),
    ])
    n_scatter, n_curves = len(scatter["r"]), len(curves["r"])
    print(f"wrote {n_scatter} scatter rows to {scatter_path}")
    print(f"wrote {n_curves} curve rows to {curves_path}")
    print(f"min bound slack {min_slack:.6e} over {n_scatter + n_curves} rows")
    return 0


def cmd_lambda(args) -> int:
    """Tabulate the conditional operator's Bloch norm over a theta grid, once it checks out."""
    alpha = (np.eye(2, dtype=complex) - qcore.SIGMA_Z) / 2.0
    channel = dynamics.ChannelFamily(np.zeros((2, 2), dtype=complex))
    rows = []
    max_norm_defect = 0.0
    physical_thetas = []
    for i in range(1, args.theta_steps + 1):
        theta = i * math.pi / args.theta_steps
        direction = (math.sin(theta), 0.0, math.cos(theta))
        _, nu_norm = spinlab.bloch_lambda_nu(direction)
        report = correlators.lambda_operator(alpha, qcore.bloch_to_state(direction), 0.0, channel)
        rows.append((theta, nu_norm, report.min_eigenvalue, report.physical))
        max_norm_defect = max(max_norm_defect, abs(nu_norm - 1.0 / abs(math.sin(theta / 2.0))))
        if report.physical:
            physical_thetas.append(theta)
    ok = max_norm_defect <= IDENTITY_TOL and physical_thetas == [rows[-1][0]]
    if not ok:
        print(
            f"FAIL: norm defect {max_norm_defect:.3e}, physical thetas {physical_thetas}",
            file=sys.stderr,
        )
        return 1
    theta, nu_norm, min_eigenvalue, physical = zip(*rows)
    physical = ["true" if p else "false" for p in physical]
    (path,) = _write_tables(args, [("lambda", LAMBDA_HEADER, [theta, nu_norm, min_eigenvalue, physical])])
    fraction = len(physical_thetas) / args.theta_steps
    print(f"wrote {args.theta_steps} rows to {path}")
    print(f"fraction of physical points: {fraction:.6g} (expected {1 / args.theta_steps:.6g}, theta = pi only)")
    return 0


def _draw_instance(dim, rng):
    """Raw A, B and H, times t1 < t2 and a Ginibre state of one random instance, unchecked."""
    a, b, h = (qcore.random_hermitian(dim, rng) for _ in range(3))
    t1 = rng.uniform(0.0, 1.0)
    return a, b, h, t1, t1 + rng.uniform(0.1, 1.0), qcore._ginibre_states(dim, 1, rng)[0]


def _draw_pm1_instance(rng):
    # A qubit instance whose A and B are n . sigma along random unit axes n: spectrum {+1, -1}.
    h = qcore.random_hermitian(2, rng)
    t1 = rng.uniform(0.0, 1.0)
    t2 = t1 + rng.uniform(0.1, 1.0)
    axes = [n / np.linalg.norm(n) for n in (rng.standard_normal(3), rng.standard_normal(3))]
    a, b = (n[0] * qcore.SIGMA_X + n[1] * qcore.SIGMA_Y + n[2] * qcore.SIGMA_Z for n in axes)
    return a, b, h, t1, t2, qcore._ginibre_states(2, 1, rng)[0]


def _draw_dephased_instance(dim, rng):
    # The drawn state is replaced by an unchecked preparation (_tpm_gaps checks the whole block) whose evolved state
    # at t1 is diagonal in A's eigenbasis, so the two correlator routes coincide. One weight per distinct eigenvalue of A.
    a, b, h, t1, t2, _ = _draw_instance(dim, rng)
    projectors = qcore.Observable(a).projectors
    weights = rng.uniform(0.1, 1.0, len(projectors))
    weights /= weights.sum()
    rho_t1 = sum(w * p / p.trace().real for w, p in zip(weights, projectors))
    return a, b, h, t1, t2, dynamics.ChannelFamily(h).propagate_state(rho_t1, -t1)


def _max_gap(draw, trials: int) -> float:
    # Largest gap over ``trials`` instances of draw(): each block is drawn in rng order, then scored as stacks.
    worst = 0.0
    for start in range(0, trials, qcore.STACK_BLOCK):
        block = [draw() for _ in range(min(qcore.STACK_BLOCK, trials - start))]
        worst = max(worst, float(correlators._tpm_gaps(*map(np.array, zip(*block))).max()))
    return worst


def cmd_tpm_gap(args) -> int:
    """Compare the protocol and Heisenberg correlators over random instances."""
    rng = np.random.default_rng(args.seed)
    ok = True
    eq4_gap = _max_gap(lambda: _draw_dephased_instance(args.dim, rng), 10)
    print(f"d={args.dim}: max gap over 10 dephased-start instances: {eq4_gap:.3e} (expected <= {IDENTITY_TOL:g})")
    ok &= eq4_gap <= IDENTITY_TOL
    if args.dim == 2:
        max_gap = _max_gap(lambda: _draw_pm1_instance(rng), args.trials)
        print(f"d=2: max gap over {args.trials} random +-1-spectrum instances: {max_gap:.3e} (expected <= {IDENTITY_TOL:g})")
        ok &= max_gap <= IDENTITY_TOL
    else:
        max_gap = _max_gap(lambda: _draw_instance(3, rng), args.trials)
        print(f"d=3: max gap over {args.trials} random instances: {max_gap:.3e}")
        fx = correlators.qutrit_gap_fixture()
        tpm = correlators.tpm_correlator(fx.A, fx.B, fx.t1, fx.t2, fx.channel, fx.rho0)
        op = correlators.TwoTimeOperator("product", fx.A, fx.B, fx.t1, fx.t2, fx.channel)
        heis = correlators.heisenberg_correlator(op, fx.rho0)
        gap = abs(tpm - heis)
        expected = _sci(FIXTURE_GAP_MIN)
        print(f"d=3 fixture: protocol {tpm:.12g}, Heisenberg {heis:.12g}, gap {gap:.6g} (expected > {expected})")
        ok &= gap > FIXTURE_GAP_MIN
    return 0 if ok else 1


def _check(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def _report_torque_bound(args) -> bool:
    tables = spinlab.figure1_scan(DEFAULT_R_LIST, args.samples, args.seed)
    min_slack, _, _ = _least_slack(tables)
    n_rows = sum(len(table["r"]) for table in tables)
    return _check(
        "torque-bound",
        min_slack >= -BOUND_TOL,
        f"min bound slack {min_slack:.6e} over {n_rows} rows (tolerance {-BOUND_TOL:g})",
    )


def _report_eigenprep(args) -> bool:
    # Operator i has d = 2 + i % 2 and kind "product" for i % 4 < 2, else "sum": four stacks of 25, drawn in rng order.
    rng = np.random.default_rng(args.seed)
    instances = [_draw_instance(2 + index % 2, rng)[:5] for index in range(100)]
    worst = 0.0
    for group, kind in enumerate(("product", "product", "sum", "sum")):
        (a, _, _), (b, _, _), units = correlators._checked_instances(*map(np.array, zip(*instances[group::4])))
        _, _, projectors = qcore._spectra(correlators._two_time_matrices(kind, a, b, *units))
        worst = max(worst, float(np.abs(realism._eigenstate_irrealities(projectors)).max()))
    return _check(
        "eigenprep",
        worst <= IDENTITY_TOL,
        f"max irreality in eigenstate preparations {worst:.3e} over 100 operators (tolerance {IDENTITY_TOL:g})",
    )


def _random_gaussian_prep(rng) -> gaussian.GaussianPrep:
    dx = math.exp(rng.uniform(-1.0, 1.0))
    dp = (0.5 / dx) * math.exp(rng.uniform(0.0, 1.5))
    c_max = math.sqrt(dx**2 * dp**2 - 0.25)
    corr = rng.uniform(-1.0, 1.0) * 0.999 * c_max
    return gaussian.GaussianPrep(
        x0=rng.uniform(-2.0, 2.0), p0=rng.uniform(-2.0, 2.0), dx=dx, dp=dp, xp_corr=corr
    )


def _report_displacement(args) -> bool:
    rng = np.random.default_rng(args.seed)
    min_product = math.inf
    min_weighted = math.inf
    spread_defect = 0.0
    for _ in range(1000):
        prep = _random_gaussian_prep(rng)
        particle = gaussian.FreeParticle(math.exp(rng.uniform(-1.0, 1.0)))
        t1 = rng.uniform(0.0, 2.0)
        t2 = t1 + rng.uniform(0.01, 3.0)
        report = gaussian.uncertainty_report(prep, particle, t1, t2)
        min_product = min(min_product, report.product_slack)
        min_weighted = min(min_weighted, report.weighted_slack)
        spread_defect = max(spread_defect, abs(report.displacement_spread - prep.dp * (t2 - t1) / particle.mass))
    ok = min_product >= -UNCERTAINTY_TOL and min_weighted >= -UNCERTAINTY_TOL and spread_defect == 0.0
    return _check(
        "displacement",
        ok,
        f"min product slack {min_product:.6e}, min weighted slack {min_weighted:.6e}, "
        f"spread formula defect {spread_defect:.1e} over 1000 preparations (tolerance {-UNCERTAINTY_TOL:g})",
    )


def _report_precession(args) -> bool:
    rng = np.random.default_rng(args.seed)
    closed_vs_channel = 0.0
    field_component = 0.0
    derivative_defect = 0.0
    paulis = np.array(qcore.SIGMA)  # propagated as one stack: one unitary per draw
    for _ in range(100):
        h = rng.standard_normal(3)
        h /= np.linalg.norm(h)
        tau = rng.uniform(-4.0 * math.pi, 4.0 * math.pi)
        channel = spinlab.precession_channel(h)
        evolved = spinlab.pauli_heisenberg(spinlab.PrecessionConfig(h, tau))
        torque = spinlab.instantaneous_torque(h, tau)
        plus = spinlab.pauli_heisenberg(spinlab.PrecessionConfig(h, tau + FINITE_DIFF_STEP))
        minus = spinlab.pauli_heisenberg(spinlab.PrecessionConfig(h, tau - FINITE_DIFF_STEP))
        field_dot_torque = sum(h[i] * torque[i] for i in range(3))
        field_component = max(field_component, np.max(np.abs(field_dot_torque)))
        closed_vs_channel = max(closed_vs_channel, np.max(np.abs(np.array(evolved) - channel.propagate_observable(paulis, tau))))
        finite_diff = (np.array(plus) - np.array(minus)) / (2.0 * FINITE_DIFF_STEP)
        derivative_defect = max(derivative_defect, np.max(np.abs(finite_diff - np.array(torque))))
    tol = PRECESSION_TOL
    ok = closed_vs_channel <= tol and field_component <= tol and derivative_defect <= FINITE_DIFF_TOL
    return _check(
        "precession",
        ok,
        f"closed form vs channel {closed_vs_channel:.3e} (<= {tol:g}), "
        f"field component of torque {field_component:.3e} (<= {tol:g}), "
        f"finite-difference defect {derivative_defect:.3e} (<= {_sci(FINITE_DIFF_TOL)}) over 100 draws",
    )


_REPORTS = {
    "torque-bound": _report_torque_bound,
    "eigenprep": _report_eigenprep,
    "displacement": _report_displacement,
    "precession": _report_precession,
}


def cmd_report(args) -> int:
    return 0 if _REPORTS[args.name](args) else 1


def _parse_r_list(text: str):
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid radius list {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("radius list is empty")
    for r in values:
        if not 0.0 <= r <= 1.0:
            raise argparse.ArgumentTypeError(f"radius {r!r} outside [0, 1]")
    return values


def _int_at_least(low: int):
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twotime",
        description="Two-time observable scenarios: scans, gap comparisons, and invariant reports.",
    )
    parser.add_argument("--seed", type=_int_at_least(0), default=DEFAULT_SEED,
                        help="RNG seed, >= 0 (default %(default)s)")
    parser.add_argument("--samples", type=_int_at_least(1), default=DEFAULT_SAMPLES,
                        help="samples per band, >= 1 (default %(default)s)")
    parser.add_argument(
        "--out", type=Path, default=os.environ.get(OUT_ENV_VAR, "."),
        help="output directory (default $" + OUT_ENV_VAR + " or the working directory)",
    )
    parser.add_argument("--format", choices=("csv", "tsv"), default="csv", help="table format (default %(default)s)")
    commands = parser.add_subparsers(dest="command", required=True)

    p_fig = commands.add_parser("figure1", help="irreality trade-off scan over Bloch bands")
    p_fig.set_defaults(run=cmd_figure1)
    p_fig.add_argument("--r-list", type=_parse_r_list, default=list(DEFAULT_R_LIST),
                       help="comma-separated band radii (default 0.2,0.5,0.8,1.0)")

    p_lam = commands.add_parser("lambda", help="conditional-operator Bloch norm over a theta grid")
    p_lam.set_defaults(run=cmd_lambda)
    p_lam.add_argument("--theta-steps", type=_int_at_least(2), default=180,
                       help="grid points on (0, pi] (default %(default)s)")

    p_gap = commands.add_parser("tpm-gap", help="protocol vs Heisenberg correlator gaps")
    p_gap.set_defaults(run=cmd_tpm_gap)
    p_gap.add_argument("--dim", type=int, choices=(2, 3), default=2, help="Hilbert space dimension")
    p_gap.add_argument("--trials", type=_int_at_least(1), default=1000, help="random instances (default %(default)s)")

    p_rep = commands.add_parser("report", help="run one invariant suite and print pass/fail")
    p_rep.set_defaults(run=cmd_report)
    p_rep.add_argument("name", choices=sorted(_REPORTS))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
