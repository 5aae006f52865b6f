"""Command-line scenario runner: deterministic CSV tables and checked summaries.

Every subcommand is deterministic under a fixed seed (default 20240001,
chosen so the shipped reference tables regenerate exactly) and prints
nothing: it returns its verdict, its stdout lines and its tables. :func:`main`
alone publishes the tables of a passing run, prints every line (verdicts
included) on stdout and exits 0 only when all of the subcommand's built-in
assertions pass. Numeric output uses 12 significant digits. The default
output directory can be set with the TWOTIME_OUT environment variable.
"""

import argparse
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import correlators, dynamics, gaussian, qcore, realism, spinlab
from .qcore import BOUND_TOL, CELL_TIE_MARGIN, FINITE_DIFF_STEP, FINITE_DIFF_TOL, FIXTURE_GAP_MIN, IDENTITY_TOL
from .qcore import PRECESSION_TOL, UNCERTAINTY_TOL

DEFAULT_SEED = 20240001
DEFAULT_SAMPLES = 10000
DEFAULT_R_LIST = (0.2, 0.5, 0.8, 1.0)
OUT_ENV_VAR = "TWOTIME_OUT"

SCATTER_HEADER = ("r", "theta", "phi", "irr_spin", "irr_torque")
CURVE_HEADER = ("r", "phi", "irr_spin", "irr_torque")
LAMBDA_HEADER = ("theta", "nu_norm", "min_eigenvalue", "physical")
WRITE_BLOCK = 4096  # table rows formatted and written per step


# Tables of _cells, from Python's own formatting. A float cell is three 8-byte words of ASCII and NUL: the sign, with "0."
# and z - 1 zeros for a cell of exponent -z < 0 (_PREFIX[5 * negative + z]); then twelve digits, three per 4 bytes.
# _POW10[k] is 10**k. Chunk k's digits v (< 1000) in a cell of n significant digits (13 * n = max over k of
# _SIGNIFICANT[v] + 39 * k) with the point after digit `point` (-4 to 8) are _CHUNKS[4 * v + _COLUMNS[k, 13 * n + point + 4]]:
# _VARIANTS[k, 13 * m + point + 4], m = max(n, point + 1) digits shown.
_v, _k, _n, _point = np.arange(1000), np.arange(4)[:, None, None], np.arange(13)[:, None], np.arange(-4, 9)
_TRIPLES = np.frombuffer(b"".join(b"%03d" % v for v in range(1000)), np.uint8).reshape(1000, 3)
_POW10 = np.array([float("1e%d" % k) for k in range(16)])
_PREFIX = np.array([b"", b"0.", b"0.0", b"0.00", b"0.000", b"-", b"-0.", b"-0.0", b"-0.00", b"-0.000"], "S8").view(np.uint64)
_SLOTS = np.array([[0, 1, 2, 3], [0, 4, 1, 2], [0, 1, 4, 2], [0, 1, 2, 4]])  # a chunk's bytes: digits, 3 NUL, 4 "."
_CHUNKS = np.c_[_TRIPLES, np.zeros(1000, np.uint8), np.full(1000, ord("."), np.uint8)][:, _SLOTS]
_CHUNKS = np.ascontiguousarray(_CHUNKS * ((_SLOTS < _k) | (_SLOTS == 4))[:, None]).view(np.uint32).ravel()
_VARIANTS = (4000 * np.clip(_n - 3 * _k, 0, 3) + (_point // 3 == _k) * (_point % 3 + 1)).reshape(4, -1)
_COLUMNS = _VARIANTS.take((13 * np.maximum(_n, _point + 1) + np.where(_n > _point + 1, _point + 4, 0)).ravel(), axis=1)
_SIGNIFICANT = 13 * np.where(_v == 0, -12, 3 - (_v % 10 == 0) - (_v % 100 == 0))  # 13 * v's digits up to its last nonzero one
_python_cell = b"%.12g".__mod__  # a cell the kernel leaves to Python


@np.errstate(divide="ignore", invalid="ignore")  # 0, inf and nan get any in-range slot words here; Python rewrites them
def _cells(column, out) -> None:
    """Fill ``out`` with the column's cells, ASCII and NUL bytes that the writer drops: strings as they are in (n, 4) uint64
    slots, numbers x as "%.12g" % x in (n, 3) slots; a slot's last byte stays NUL. The kernel keeps the cells of exponent
    -4 <= e = floor(log10 |x|) <= 8, fixed ones whose last chunk holds no point, so byte 23 is NUL. scaled = |x| * 10**(11 - e)
    is two roundings from exact, so rint(scaled) is %.12g's digits if it lies in [10**11, 10**12 - 1) and CELL_TIE_MARGIN
    from a tie; Python formats the rest (scientific cells, 1e9 <= |x| < 1e12, 0, inf, nan, ties, carries)."""
    if column.dtype != float:  # a column of strings
        qcore._require(column.dtype.type in (np.str_, np.bytes_), f"a table column of {column.dtype} is neither float64 nor text")
        out.view("S32")[:, 0] = text = np.asarray(column, "S")
        qcore._require(text.itemsize < 32, "a table cell of {width:g} bytes does not fit its 31-byte slot", width=text.itemsize)
        return
    a = np.abs(column)
    e = np.floor(np.log10(a)).astype(np.intp)
    scaled = a * _POW10.take(11 - e, mode="clip")
    fast = (e >= -4) & (e <= 8) & (scaled >= 10**11) & (scaled < 10**12 - 1)
    fast &= np.abs(scaled - (digits := np.rint(scaled))) < 0.5 - CELL_TIE_MARGIN
    chunks = (digits / _POW10[9::-3, None]).astype(np.intp)  # / 10**9, 10**6, 10**3 and 1: exact, and floored
    chunks[1:] -= 1000 * chunks[:-1]
    length = (_SIGNIFICANT.take(chunks, mode="clip") + 39 * _k[:, 0]).max(axis=0)
    out[:, 0] = _PREFIX.take(5 * np.signbit(column) + np.maximum(-e, 0), mode="clip")
    chunks *= 4
    chunks += _COLUMNS.take(length + e + 4, axis=1, mode="clip")
    out.view(np.uint32)[:, 2:] = _CHUNKS.take(chunks, mode="clip").T
    slow = np.flatnonzero(~fast)
    out.view("S24")[slow, 0] = [_python_cell(x) for x in column[slow]]


def _path(args, stem) -> Path:
    return args.out / f"{stem}.{args.format}"


def _write_tables(args, tables) -> None:
    """Write (stem, header, columns) tables and publish them together, each at :func:`_path`.

    Each table goes to a temporary file in the output directory, and all of them are renamed into place only
    once every one is written. Cells are ASCII strings or numbers exactly as "%.12g" writes them, which :func:`_cells`
    sets a column at a time in WRITE_BLOCK rows of slots, 24 bytes for a float64 column and 32 for text; a slot's last
    byte is its separator or newline, and NUL bytes are dropped. If a write fails, the temporary files are removed and
    its OSError propagates: no table is published that is not already in place.
    """
    sep = "," if args.format == "csv" else "\t"
    paths = [_path(args, stem) for stem, _, _ in tables]
    temps = []
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        for path, (_, header, columns) in zip(paths, tables):
            temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            words = np.cumsum([0] + [3 if column.dtype == float else 4 for column in columns])  # slot j: words[j]:words[j + 1]
            ends = np.frombuffer((sep * (len(columns) - 1) + "\n").encode(), np.uint8)  # each slot's last byte
            with open(temp, "wb") as fh:
                temps.append(temp)
                fh.write((sep.join(header) + "\n").encode())
                for start in range(0, len(columns[0]), WRITE_BLOCK):
                    block = bytearray(8 * int(words[-1]) * min(WRITE_BLOCK, len(columns[0]) - start))
                    slots = np.frombuffer(block, np.uint64).reshape(-1, words[-1])
                    for column, first, stop in zip(columns, words, words[1:]):
                        _cells(column[start:start + WRITE_BLOCK], slots[:, first:stop])
                    slots.view(np.uint8)[:, 8 * words[1:] - 1] = ends
                    fh.write(block.translate(None, b"\0"))
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    finally:  # after a complete run every temporary file is already renamed into place
        for temp in temps:
            temp.unlink(missing_ok=True)


def _sci(tol: float) -> str:
    # The report lines quote these tolerances as 1e-6, not Python's 1e-06.
    return f"{tol:.0e}".replace("e-0", "e-")


def _least_slack(tables):
    """(slack, table, row) of the row whose irreality sum sits least above its purity bound."""
    least = None
    for table in tables:
        r = table["r"]
        runs = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])  # the first row of each run of equal radii
        bound = np.repeat([spinlab.bound_rhs(radius) for radius in r[runs]], np.diff(runs, append=len(r)))
        slack = table["irr_spin"] + table["irr_torque"] - bound
        row = int(np.argmin(slack))
        if least is None or slack[row] < least[0]:
            least = (float(slack[row]), table, row)
    return least


def cmd_figure1(args):
    """Verify the purity bound row by row; the irreality trade-off scan is its two tables."""
    scatter, curves = spinlab.figure1_scan(args.r_list, args.samples, args.seed)
    min_slack, table, row = _least_slack((scatter, curves))
    if min_slack < -BOUND_TOL:
        cells = ", ".join(f"{name}={table[name][row]:.12g}" for name in SCATTER_HEADER)
        return False, [f"FAIL: bound violated by {min_slack:.6e} at {cells}"], []
    n_scatter, n_curves = len(scatter["r"]), len(curves["r"])
    return True, [f"wrote {n_scatter} scatter rows to {_path(args, 'figure1_scatter')}",
                  f"wrote {n_curves} curve rows to {_path(args, 'figure1_curves')}",
                  f"min bound slack {min_slack:.6e} over {n_scatter + n_curves} rows"], [
        ("figure1_scatter", SCATTER_HEADER, [scatter[name] for name in SCATTER_HEADER]),
        ("figure1_curves", CURVE_HEADER, [curves[name] for name in CURVE_HEADER])]


def cmd_lambda(args):
    """Tabulate the conditional operator's Bloch norm over a theta grid, once it checks out."""
    alpha = (np.eye(2, dtype=complex) - qcore.SIGMA_Z) / 2.0  # diag(0, 1), a projector exactly
    theta = np.arange(1, args.theta_steps + 1) * math.pi / args.theta_steps
    directions = np.stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=1)
    _, nu_norm = spinlab._lambda_nus(directions)
    # Each state passes the DensityMatrix checks (Cholesky gate), each conditional operator one eigvalsh, by blocks.
    min_eigenvalue = np.concatenate([
        correlators._lambdas(alpha, qcore._states(qcore._bloch_states(directions[block]), solver=None)[0])[1][:, 0]
        for block in qcore._blocks(args.theta_steps, 2)
    ])
    physical = min_eigenvalue >= qcore.PSD_FLOOR
    physical_thetas = theta[physical].tolist()
    max_norm_defect = float(np.max(np.abs(nu_norm - 1.0 / np.abs(np.sin(theta / 2.0)))))
    if not (max_norm_defect <= IDENTITY_TOL and physical_thetas == [theta[-1]]):
        return False, [f"FAIL: norm defect {max_norm_defect:.3e}, physical thetas {physical_thetas}"], []
    fraction = len(physical_thetas) / args.theta_steps
    return True, [f"wrote {args.theta_steps} rows to {_path(args, 'lambda')}",
                  f"fraction of physical points: {fraction:.6g} (expected {1 / args.theta_steps:.6g}, theta = pi only)"], [
        ("lambda", LAMBDA_HEADER, [theta, nu_norm, min_eigenvalue, np.where(physical, "true", "false")])]


def _draw_instances(d, n, rng):
    # One block of n unchecked instances, one generator call per quantity: stacks of A, B, H, t1 < t2 and Ginibre states.
    a, b, h = qcore._hermitians(rng.standard_normal((3, n, 2, d, d)))
    t1 = rng.random(n)
    return a, b, h, t1, t1 + rng.uniform(0.1, 1.0, n), qcore._ginibres(rng.standard_normal((n, 2, d, d)))


def _draw_pm1_instances(n, rng):
    # Qubits whose A and B are v . sigma along random unit axes v, spectrum {+1, -1}: a block whose A, B are dropped.
    _, _, h, t1, t2, rho0 = _draw_instances(2, n, rng)
    axes = rng.standard_normal((2 * n, 3))
    v = (axes / qcore._norms(axes)[:, None]).T.reshape(3, 2, n, 1, 1)
    a, b = v[0] * qcore.SIGMA_X + v[1] * qcore.SIGMA_Y + v[2] * qcore.SIGMA_Z
    return a, b, h, t1, t2, rho0


def _max_gap(draw, trials: int, dim: int) -> float:
    # Largest gap over ``trials`` dim x dim instances, a block at a time: draw(n) draws the next block of n as stacks.
    return max(float(correlators._tpm_gaps(*draw(len(range(trials)[block]))).max()) for block in qcore._blocks(trials, dim))


def cmd_tpm_gap(args):
    """Compare the protocol and Heisenberg correlators over random instances."""
    rng = np.random.default_rng(args.seed)
    # Ten dephased starts, one block at d <= 3, as weights w: each state at t1 is V diag(w) V^dag in A's frame, which
    # commutes with A for any positive w, degenerate A included, so Phi_A fixes it and the two correlator routes coincide.
    a, b, h, t1, t2, _ = _draw_instances(args.dim, 10, rng)
    w = rng.uniform(0.1, 1.0, (10, args.dim))
    eq4_gap = float(correlators._tpm_gaps(a, b, h, t1, t2, w / w.sum(axis=1, keepdims=True)).max())
    lines = [f"d={args.dim}: max gap over 10 dephased-start instances: {eq4_gap:.3e} (expected <= {IDENTITY_TOL:g})"]
    if args.dim == 2:
        max_gap = _max_gap(lambda n: _draw_pm1_instances(n, rng), args.trials, 2)
        lines.append(f"d=2: max gap over {args.trials} random +-1-spectrum instances: {max_gap:.3e} (expected <= {IDENTITY_TOL:g})")
        return eq4_gap <= IDENTITY_TOL and max_gap <= IDENTITY_TOL, lines, []
    max_gap = _max_gap(lambda n: _draw_instances(3, n, rng), args.trials, 3)
    fx = correlators.qutrit_gap_fixture()
    tpm = correlators.tpm_correlator(fx.A, fx.B, fx.t1, fx.t2, fx.channel, fx.rho0)
    heis = correlators.heisenberg_correlator(correlators.TwoTimeOperator("product", fx.A, fx.B, fx.t1, fx.t2, fx.channel), fx.rho0)
    gap = abs(tpm - heis)
    lines += [f"d=3: max gap over {args.trials} random instances: {max_gap:.3e}",
              f"d=3 fixture: protocol {tpm:.12g}, Heisenberg {heis:.12g}, gap {gap:.6g} (expected > {_sci(FIXTURE_GAP_MIN)})"]
    return eq4_gap <= IDENTITY_TOL and gap > FIXTURE_GAP_MIN, lines, []


def _report_torque_bound(args):
    tables = spinlab.figure1_scan(DEFAULT_R_LIST, args.samples, args.seed)
    min_slack, _, _ = _least_slack(tables)
    n_rows = sum(len(table["r"]) for table in tables)
    return min_slack >= -BOUND_TOL, f"min bound slack {min_slack:.6e} over {n_rows} rows (tolerance {-BOUND_TOL:g})"


def _report_eigenprep(args):
    rng, worst = np.random.default_rng(args.seed), 0.0
    for d, kind in ((2, "product"), (3, "product"), (2, "sum"), (3, "sum")):
        a, b, h, t1, t2, _ = _draw_instances(d, 25, rng)  # A and B exactly Hermitian: only H and each C12 are decomposed
        energies, modes = qcore._eighs(h, "hamiltonian")[1:]
        c12 = correlators._two_time_matrices(kind, a, b, *(dynamics._unitaries(energies, modes, t) for t in (t1, t2)))
        worst = max(worst, float(np.abs(realism._eigenstate_irrealities(*qcore._spectra(c12)[1:])).max()))
    return worst <= IDENTITY_TOL, (
        f"max irreality in eigenstate preparations {worst:.3e} over 100 operators (tolerance {IDENTITY_TOL:g})")


def _report_displacement(args):
    # Row i takes the i-th eight uniforms, as the per-row uniform(low, high) = low + (high - low) * random() calls did.
    u = np.random.default_rng(args.seed).random((1000, 8)).T
    dx = np.exp(-1.0 + 2.0 * u[0])
    dp = (0.5 / dx) * np.exp(1.5 * u[1])
    c_max = np.sqrt(np.square(dx) * np.square(dp) - 0.25)
    xp_corr = (-1.0 + 2.0 * u[2]) * 0.999 * c_max
    mass, t1 = np.exp(-1.0 + 2.0 * u[5]), 2.0 * u[6]
    t2 = t1 + (0.01 + (3.0 - 0.01) * u[7])
    gaussian._preps(-2.0 + 4.0 * u[3], -2.0 + 4.0 * u[4], dx, dp, xp_corr)
    gaussian._masses(mass)
    _, _, spread, _, _, product_slack, _, _, weighted_slack = gaussian._uncertainties(dx, dp, xp_corr, mass, t1, t2)
    min_product, min_weighted = float(product_slack.min()), float(weighted_slack.min())
    spread_defect = float(np.max(np.abs(spread - dp * (t2 - t1) / mass)))
    ok = min_product >= -UNCERTAINTY_TOL and min_weighted >= -UNCERTAINTY_TOL and spread_defect == 0.0
    return ok, (f"min product slack {min_product:.6e}, min weighted slack {min_weighted:.6e}, "
                f"spread formula defect {spread_defect:.1e} over 1000 preparations (tolerance {-UNCERTAINTY_TOL:g})")


def _report_precession(args):
    rng = np.random.default_rng(args.seed)
    normals = rng.standard_normal((100, 3))
    h, tau = normals / qcore._norms(normals)[:, None], rng.uniform(-4.0 * math.pi, 4.0 * math.pi, 100)
    taus = np.concatenate([tau, tau + FINITE_DIFF_STEP, tau - FINITE_DIFF_STEP])
    (evolved, plus, minus), (torque, _, _) = (np.split(stack, 3) for stack in spinlab._precession(np.tile(h, (3, 1)), taus))
    # The Paulis propagated by precession_channel(h): the 100 Hamiltonians are one block of _rows(2).
    u = dynamics._unitaries(*qcore._eighs(spinlab._field_algebra(h)[2], "hamiltonian")[1:], tau)
    propagated = qcore._matmul(qcore._matmul(u.conj().swapaxes(1, 2)[:, None], np.array(qcore.SIGMA)), u[:, None])
    h0, h1, h2 = h.T[..., None, None]
    field_component = float(np.max(np.abs(h0 * torque[:, 0] + h1 * torque[:, 1] + h2 * torque[:, 2])))
    closed_vs_channel = float(np.max(np.abs(evolved - propagated)))
    derivative_defect = float(np.max(np.abs((plus - minus) / (2.0 * FINITE_DIFF_STEP) - torque)))
    tol = PRECESSION_TOL
    ok = closed_vs_channel <= tol and field_component <= tol and derivative_defect <= FINITE_DIFF_TOL
    return ok, (f"closed form vs channel {closed_vs_channel:.3e} (<= {tol:g}), "
                f"field component of torque {field_component:.3e} (<= {tol:g}), "
                f"finite-difference defect {derivative_defect:.3e} (<= {_sci(FINITE_DIFF_TOL)}) over 100 draws")


_REPORTS = {
    "torque-bound": _report_torque_bound,
    "eigenprep": _report_eigenprep,
    "displacement": _report_displacement,
    "precession": _report_precession,
}


def cmd_report(args):
    """Run one invariant suite; its one line is PASS or FAIL with the suite's detail."""
    ok, detail = _REPORTS[args.name](args)
    return ok, [f"{'PASS' if ok else 'FAIL'} {args.name}: {detail}"], []


def _parse_r_list(text: str):
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid radius list {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("radius list is empty")
    try:
        spinlab._radii(values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return values


def _int_at_least(low: int):
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return count


@functools.cache  # built once per process: main reads TWOTIME_OUT itself, on each run
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twotime",
        description="Two-time observable scenarios: scans, gap comparisons, and invariant reports.",
    )
    parser.add_argument("--seed", type=_int_at_least(0), default=DEFAULT_SEED,
                        help="RNG seed, >= 0 (default %(default)s)")
    parser.add_argument("--samples", type=_int_at_least(1), default=DEFAULT_SAMPLES,
                        help="samples per band, >= 1 (default %(default)s)")
    parser.add_argument("--out", type=Path, help="output directory (default $" + OUT_ENV_VAR + " or the working directory)")
    parser.add_argument("--format", choices=("csv", "tsv"), default="csv", help="table format (default %(default)s)")
    commands = parser.add_subparsers(dest="command", required=True)

    p_fig = commands.add_parser("figure1", help="irreality trade-off scan over Bloch bands")
    p_fig.set_defaults(run=cmd_figure1)
    p_fig.add_argument("--r-list", type=_parse_r_list, default=DEFAULT_R_LIST,
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
    """Run one subcommand, publish the tables of a passing run, print its lines; 0 pass, 1 fail, 2 an error."""
    args = build_parser().parse_args(argv)
    args.out = Path(os.environ.get(OUT_ENV_VAR, ".")) if args.out is None else args.out
    ok, lines, tables = args.run(args)
    try:
        if ok and tables:  # a run without tables never creates --out
            _write_tables(args, tables)
    except OSError as exc:
        print(f"error: cannot write to {args.out}: {exc}", file=sys.stderr)
        return 2
    try:
        print(*lines, sep="\n")
        sys.stdout.flush()
    except OSError as exc:
        # stdout's reader is gone or its disk full: send what is still buffered to devnull, so shutdown prints no more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
