import ast
import csv
import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import solvers
from twotime import cli, correlators, dynamics, gaussian, qcore, realism, spinlab
from twotime.dynamics import ChannelFamily
from twotime.gaussian import FreeParticle, GaussianPrep, uncertainty_report
from twotime.qcore import DensityMatrix, Observable
from twotime.spinlab import PrecessionConfig, bound_rhs


def read_table(path, delimiter=","):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh, delimiter=delimiter))
    return rows[0], rows[1:]


class TestFigure1Command:
    def test_writes_tables_and_passes(self, tmp_path):
        code = cli.main(["--out", str(tmp_path), "--samples", "60", "figure1"])
        assert code == 0
        header, rows = read_table(tmp_path / "figure1_scatter.csv")
        assert header == ["r", "theta", "phi", "irr_spin", "irr_torque"]
        assert len(rows) == 4 * 60
        header, rows = read_table(tmp_path / "figure1_curves.csv")
        assert header == ["r", "phi", "irr_spin", "irr_torque"]
        assert len(rows) == 4 * 360

    def test_every_row_meets_the_bound(self, tmp_path):
        assert cli.main(["--out", str(tmp_path), "--samples", "200", "figure1"]) == 0
        _, rows = read_table(tmp_path / "figure1_scatter.csv")
        for row in rows:
            r, _, _, irr_spin, irr_torque = map(float, row)
            assert irr_spin + irr_torque >= bound_rhs(r) - 1e-9

    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert cli.main(["--out", str(first), "--samples", "40", "figure1"]) == 0
        assert cli.main(["--out", str(second), "--samples", "40", "figure1"]) == 0
        for name in ("figure1_scatter.csv", "figure1_curves.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_zero_radius_override(self, tmp_path):
        assert cli.main(["--out", str(tmp_path), "--samples", "30", "figure1", "--r-list", "0.0"]) == 0
        _, rows = read_table(tmp_path / "figure1_scatter.csv")
        assert len(rows) == 30
        for row in rows:
            assert abs(float(row[3])) <= 1e-12
            assert abs(float(row[4])) <= 1e-12

    def test_tsv_format(self, tmp_path):
        assert cli.main(["--out", str(tmp_path), "--format", "tsv", "--samples", "10", "figure1"]) == 0
        header, rows = read_table(tmp_path / "figure1_scatter.tsv", delimiter="\t")
        assert header == ["r", "theta", "phi", "irr_spin", "irr_torque"]
        assert len(rows) == 40

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_ENV_VAR, str(tmp_path / "envout"))
        assert cli.main(["--samples", "10", "figure1"]) == 0
        assert (tmp_path / "envout" / "figure1_scatter.csv").exists()

    def test_out_dir_set_after_a_first_run_is_honored(self, tmp_path, monkeypatch):
        # The parser is built once per process, so the variable is read by each run, not by the parser's defaults.
        monkeypatch.setenv(cli.OUT_ENV_VAR, str(tmp_path / "first"))
        assert cli.main(["--samples", "10", "figure1"]) == 0
        monkeypatch.setenv(cli.OUT_ENV_VAR, str(tmp_path / "second"))
        assert cli.main(["--samples", "10", "figure1"]) == 0
        monkeypatch.delenv(cli.OUT_ENV_VAR)
        monkeypatch.chdir(tmp_path / "first")
        assert cli.main(["lambda"]) == 0
        assert sorted(path.name for path in (tmp_path / "first").iterdir()) == ["figure1_curves.csv", "figure1_scatter.csv",
                                                                                 "lambda.csv"]
        assert sorted(path.name for path in (tmp_path / "second").iterdir()) == ["figure1_curves.csv", "figure1_scatter.csv"]

    def test_parser_is_built_once_and_shares_no_mutable_default(self):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        first, second = (parser.parse_args(["figure1"]) for _ in range(2))
        assert first.r_list == second.r_list == cli.DEFAULT_R_LIST and isinstance(first.r_list, tuple)
        assert first.out is None  # main reads the environment variable at parse time


class TestLambdaCommand:
    def test_grid_and_physical_fraction(self, tmp_path, capsys):
        code = cli.main(["--out", str(tmp_path), "lambda", "--theta-steps", "180"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fraction of physical points" in out
        header, rows = read_table(tmp_path / "lambda.csv")
        assert header == ["theta", "nu_norm", "min_eigenvalue", "physical"]
        assert len(rows) == 180
        physical = [row for row in rows if row[3] == "true"]
        assert len(physical) == 1
        assert float(physical[0][0]) == pytest.approx(math.pi, abs=1e-12)
        # 12 significant digits in the table; the exit code already gates the
        # full-precision identity check
        for row in rows:
            theta, nu_norm = float(row[0]), float(row[1])
            assert nu_norm == pytest.approx(1.0 / abs(math.sin(theta / 2.0)), rel=1e-9)

    def test_rejects_tiny_grid(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--out", str(tmp_path), "lambda", "--theta-steps", "1"])
        assert exc.value.code == 2


class TestTpmGapCommand:
    def test_qubit_gap_is_zero(self, capsys):
        assert cli.main(["tpm-gap", "--dim", "2", "--trials", "100"]) == 0
        assert "expected <= 1e-10" in capsys.readouterr().out

    def test_qutrit_fixture_gap(self, capsys):
        assert cli.main(["tpm-gap", "--dim", "3", "--trials", "25"]) == 0
        out = capsys.readouterr().out
        assert "fixture" in out
        assert "expected > 1e-6" in out


def dephased_start(A, w):
    # The state at t1 of a dephased start with weights w: V diag(w) V^dag in the frame V of A's eigenvectors.
    (vectors,) = A._frame[1]
    return (vectors * w) @ vectors.conj().T


def per_instance_gap(a, b, h, t1, t2, rho0):
    # One instance through the public objects and correlators, as tpm-gap scored it one at a time; a (d,) rho0 holds
    # a dephased start's weights, its state at t1 evolved back to 0 as _tpm_gaps evolves it.
    A, B, channel = Observable(a), Observable(b), ChannelFamily(h)
    u = channel.unitary_at(t1)
    rho = DensityMatrix(rho0 if np.ndim(rho0) == 2 else u.conj().T @ dephased_start(A, rho0) @ u)
    protocol = correlators.tpm_correlator(A, B, t1, t2, channel, rho)
    return abs(protocol - correlators.heisenberg_correlator(correlators.TwoTimeOperator("product", A, B, t1, t2, channel), rho))


class CountingGenerator:
    # A generator that records the name of each method called on it and hands the call on.
    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        attribute = getattr(self.rng, name)
        if not callable(attribute):
            return attribute
        return lambda *args, **kwargs: self.calls.append(name) or attribute(*args, **kwargs)


def drawn_generators(monkeypatch):
    # Every generator np.random.default_rng makes from here on, each counting its calls, so a test can compare a
    # command's stream with its own.
    made, make = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(CountingGenerator(make(seed))) or made[-1])
    return made


def recorded_calls(monkeypatch, module, name):
    # (args, result) of every call of module.name from here on.
    calls, fn = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append((args, fn(*args))) or calls[-1][1])
    return calls


def degenerate_matrix(dim, rng):
    # Eigenvalues from {-1, 0, 1}, so most draws repeat one, in a random basis.
    q, _ = np.linalg.qr(oracles.random_hermitian_matrix(dim, rng))
    return q @ np.diag(rng.integers(-1, 2, dim).astype(float)) @ q.conj().T


class TestStackedGaps:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_degenerate_stack_matches_the_per_instance_path(self, dim):
        # Mixed in one stack: generic and degenerate A, B degenerate or c * 1, and every fifth instance
        # a diagonal A with H = 0 and a basis-state start, whose other branches have zero marginal.
        rng = np.random.default_rng(60 + dim)
        instances = []
        for k in range(40):
            basis_start = k % 5 == 0
            if basis_start:
                a = np.diag(rng.integers(-1, 2, dim).astype(float))
            else:
                a = degenerate_matrix(dim, rng) if k % 2 else oracles.random_hermitian_matrix(dim, rng)
            b = degenerate_matrix(dim, rng) if k % 3 else np.eye(dim) * rng.uniform(-1.0, 1.0)
            h = np.zeros((dim, dim)) if basis_start else oracles.random_hermitian_matrix(dim, rng)
            rho0 = np.diag(np.eye(dim)[0]) if basis_start else oracles.random_state_matrix(dim, rng)
            t1 = rng.uniform(0.0, 1.0)
            instances.append((a, b, h, t1, t1 + rng.uniform(0.1, 1.0), rho0))
        a, b, h, t1, t2, rho0 = (np.array(column) for column in zip(*instances))
        gaps = correlators._tpm_gaps(*(m.astype(complex) for m in (a, b, h)), t1, t2, rho0.astype(complex))
        for instance, gap in zip(instances, gaps):
            assert abs(gap - per_instance_gap(*instance)) <= 1e-12

    @pytest.mark.parametrize("dim, trials", [(dim, trials) for dim in (2, 3) for trials in
                                             (1, 63, 64, 65, qcore._rows(dim) - 1, qcore._rows(dim), qcore._rows(dim) + 1)])
    def test_every_block_matches_the_per_instance_path(self, monkeypatch, dim, trials):
        # The 10 dephased starts form one block, then the random instances _rows(dim) at a time.
        blocks = []
        stacked = correlators._tpm_gaps

        def recorded(*block):
            blocks.append((block, stacked(*block)))
            return blocks[-1][1]

        monkeypatch.setattr(correlators, "_tpm_gaps", recorded)
        assert cli.main(["tpm-gap", "--dim", str(dim), "--trials", str(trials)]) == 0
        full, rest = divmod(trials, qcore._rows(dim))
        assert [len(gaps) for _, gaps in blocks] == [10] + [qcore._rows(dim)] * full + [rest] * (rest > 0)
        for block, gaps in blocks:
            for instance, gap in zip(zip(*block), gaps):
                assert abs(gap - per_instance_gap(*instance)) <= 1e-12

    def test_default_seed_output_is_pinned(self, capsys):
        assert cli.main(["tpm-gap", "--dim", "3"]) == 0
        out = capsys.readouterr().out
        assert "d=3: max gap over 1000 random instances: 2.092e+00\n" in out
        assert "Heisenberg 0.353553390593, gap 0.353553 (expected > 1e-6)" in out

    @pytest.mark.parametrize("dim, gap", [(2, "1.776e-15"), (3, "2.193e-15")], ids=["2", "3"])  # ids survive a re-pin
    def test_default_seed_dephased_starts_are_pinned(self, capsys, dim, gap):
        assert cli.main(["tpm-gap", "--dim", str(dim)]) == 0
        assert f"d={dim}: max gap over 10 dephased-start instances: {gap} (expected <= 1e-10)\n" in capsys.readouterr().out

    @pytest.mark.parametrize("dim", [2, 3])
    def test_dephased_starts_are_decomposed_once(self, monkeypatch, dim):
        # The 10 dephased starts' H, A and B are decomposed once each, as the random block's are; only the d = 3
        # fixture's A, B and channel are decomposed besides, one matrix each.
        shapes = solvers.count_decompositions(monkeypatch)
        assert cli.main(["tpm-gap", "--dim", str(dim), "--trials", "1"]) == 0
        assert [math.prod(shape[:-2]) for shape in shapes] == [10] * 3 + [1] * 3 + [1] * 3 * (dim == 3)

    @pytest.mark.parametrize("dim, expected", [(2, (0, 0)), (3, (2, 1))])
    def test_builds_no_observable_or_channel_per_instance(self, monkeypatch, dim, expected):
        # Every instance, the dephased starts included, is checked and propagated in stacks; only the d = 3 qutrit
        # fixture builds objects: its A and B, and its channel.
        built = {Observable: [], ChannelFamily: []}
        for cls, calls in built.items():
            monkeypatch.setattr(cls, "__init__", lambda self, m, init=cls.__init__, c=calls: c.append(m) or init(self, m))
        assert cli.main(["tpm-gap", "--dim", str(dim), "--trials", "65"]) == 0
        assert (len(built[Observable]), len(built[ChannelFamily])) == expected

    def test_default_seed_instances_are_pinned(self, monkeypatch):
        # SHA-256 of the 1,000 random instances each tpm-gap run draws after its 10 dephased starts, at the default
        # seed, each block in numpy's bulk layout: a change to a drawer's order or layout fails here.
        blocks = []
        stacked = correlators._tpm_gaps
        monkeypatch.setattr(correlators, "_tpm_gaps", lambda *block: blocks.append(block) or stacked(*block))
        for dim, expected in (
            (3, "53aaa1d68535342e426a8a7c655079a4a864ce4727fd3f9513be2fdf595f9997"),
            (2, "97d77edfb6a18f8adc8015479d3d45a1f3c3d0187acfe6a6c4c694ff7e3fa17a"),
        ):
            blocks.clear()
            assert cli.main(["tpm-gap", "--dim", str(dim)]) == 0
            digest = hashlib.sha256()
            for column in zip(*blocks[1:]):
                digest.update(np.concatenate(column).tobytes())
            assert digest.hexdigest() == expected

    def test_dephased_starts_commute_with_a_degenerate_a(self, monkeypatch):
        # Every drawn A is diag(1, 1, -1) in a random frame, so eigh's frame of the degenerate eigenspace is arbitrary.
        # Each start V diag(w) V^dag at t1, one weight per slot, still commutes with its A and scores a gap within
        # IDENTITY_TOL. Its eigenvalues are the normalized weights, and the run takes the documented bulk draws. The
        # checked states that _tpm_gaps builds from the weights are read where its first _tpm_joints call receives them.
        hermitians = qcore._hermitians

        def degenerate_a(normals):
            a, b, h = hermitians(normals)
            frame = np.linalg.qr(a)[0]
            return frame * np.array([1.0, 1.0, -1.0]) @ frame.conj().swapaxes(1, 2), b, h

        monkeypatch.setattr(qcore, "_hermitians", degenerate_a)
        ref = np.random.default_rng(4)
        generators, blocks = drawn_generators(monkeypatch), recorded_calls(monkeypatch, correlators, "_tpm_gaps")
        joints = recorded_calls(monkeypatch, correlators, "_tpm_joints")
        assert cli.main(["--seed", "4", "tpm-gap", "--dim", "3", "--trials", "1"]) == 0
        (((a, b, h, t1, t2, weights), gaps), _) = blocks
        rho0 = joints[0][0][4]
        ref.standard_normal((3, 10, 2, 3, 3)), ref.random(10), ref.uniform(0.1, 1.0, 10), ref.standard_normal((10, 2, 3, 3))
        w = ref.uniform(0.1, 1.0, (10, 3))
        assert rho0.shape == (10, 3, 3)
        for k in range(10):
            assert np.allclose(np.linalg.eigvalsh(a[k]), [-1.0, 1.0, 1.0], rtol=0.0, atol=1e-12)
            assert np.allclose(weights[k], w[k] / w[k].sum(), rtol=0.0, atol=1e-12)
            u = ChannelFamily(h[k]).unitary_at(t1[k])
            start = u @ rho0[k] @ u.conj().T
            assert np.max(np.abs(a[k] @ start - start @ a[k])) <= 1e-12
            assert np.allclose(np.linalg.eigvalsh(start), np.sort(w[k] / w[k].sum()), rtol=0.0, atol=1e-12)
            assert gaps[k] <= qcore.IDENTITY_TOL
            assert per_instance_gap(a[k], b[k], h[k], t1[k], t2[k], rho0[k]) <= qcore.IDENTITY_TOL
            assert per_instance_gap(a[k], b[k], h[k], t1[k], t2[k], weights[k]) <= qcore.IDENTITY_TOL
        ref.standard_normal((3, 1, 2, 3, 3)), ref.random(1), ref.uniform(0.1, 1.0, 1), ref.standard_normal((1, 2, 3, 3))
        (rng,) = generators
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_every_drawn_matrix_is_checked(self, monkeypatch):
        # Each A, B and H passes an eigh and each state the Cholesky gate, at most _rows(3) per call.
        shapes = {"eigh": [], "cholesky": []}
        for name, calls in shapes.items():
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, s=solver, c=calls: c.append(np.shape(a)[:-2]) or s(a))
        trials = qcore._rows(3) + 1
        assert cli.main(["tpm-gap", "--dim", "3", "--trials", str(trials)]) == 0
        instances = 10 + trials
        matrices = {name: [math.prod(shape) for shape in calls] for name, calls in shapes.items()}
        assert sum(matrices["eigh"]) >= 3 * instances and sum(matrices["cholesky"]) >= instances
        assert max(matrices["eigh"]) == max(matrices["cholesky"]) == qcore._rows(3)
        assert len(matrices["eigh"]) < 3 * instances


class TestReportCommand:
    @pytest.mark.parametrize("name", ["eigenprep", "displacement", "precession"])
    def test_reports_pass(self, name, capsys):
        assert cli.main(["report", name]) == 0
        assert capsys.readouterr().out.startswith("PASS")

    def test_default_seed_eigenprep_is_pinned(self, capsys):
        # The digits of roundoff-sized irrealities: a change in the irreality kernel's arithmetic shows here.
        assert cli.main(["report", "eigenprep"]) == 0
        assert "max irreality in eigenstate preparations 1.217e-14 over 100 operators (tolerance 1e-10)\n" in capsys.readouterr().out

    def test_eigenprep_realizes_each_operator_once(self, monkeypatch):
        # Four stacks of 25 are realized, and only the realized operators pass the Observable checks in _spectra: A
        # and B are exactly Hermitian draws whose frames no result reads.
        realized, checked = [], []
        realize, spectra = correlators._two_time_matrices, qcore._spectra
        monkeypatch.setattr(correlators, "_two_time_matrices", lambda kind, a, *rest: realized.append(len(a)) or realize(kind, a, *rest))
        for module in (correlators, qcore):
            monkeypatch.setattr(module, "_spectra", lambda stack: checked.append(len(stack)) or spectra(stack))
        assert cli.main(["report", "eigenprep"]) == 0
        assert realized == [25] * 4
        assert checked == [25] * 4

    def test_precession_computes_one_unitary_per_draw(self, monkeypatch):
        # The unitaries come a block of draws at a time: 100 rows in all, none of the calls larger than _rows(2).
        rows = []
        unitaries = dynamics._unitaries
        monkeypatch.setattr(dynamics, "_unitaries", lambda energies, modes, times: rows.append(len(times)) or unitaries(energies, modes, times))
        assert cli.main(["report", "precession"]) == 0
        assert sum(rows) == 100 and max(rows) <= qcore._rows(2)

    def test_torque_bound_report(self, capsys):
        assert cli.main(["--samples", "500", "report", "torque-bound"]) == 0
        assert "min bound slack" in capsys.readouterr().out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["report", "unknown-scenario"])


def sorting_least_slack(tables):
    # _least_slack as it was written with np.unique, which sorts the radii: its oracle.
    least = None
    for table in tables:
        radii, band = np.unique(table["r"], return_inverse=True)
        slack = table["irr_spin"] + table["irr_torque"] - np.array([bound_rhs(r) for r in radii])[band]
        row = int(np.argmin(slack))
        if least is None or slack[row] < least[0]:
            least = (float(slack[row]), table, row)
    return least


class TestLeastSlack:
    @pytest.mark.parametrize("r_list", [cli.DEFAULT_R_LIST, (0.5, 0.2, 0.5), (1.0, 0.3, 0.0, 0.3, 0.8)])
    def test_matches_the_sorting_formulation_on_the_scan(self, r_list):
        # The scatter and the curves; a repeated radius (--r-list 0.5,0.2,0.5) makes two runs of one radius.
        tables = spinlab.figure1_scan(r_list, 300, 20240001)
        (slack, table, row), (expected, expected_table, expected_row) = cli._least_slack(tables), sorting_least_slack(tables)
        assert (slack, row, table is expected_table) == (expected, expected_row, True)
        assert math.copysign(1.0, slack) == math.copysign(1.0, expected)

    def test_each_rows_bound_is_bitwise_the_sorting_formulations(self):
        # Unsorted and repeated radii, runs of one row included: with every other row's irreality sum raised, row k has the
        # least slack, -bound_rhs(r[k]) exactly.
        r = np.array([0.5, 0.2, 0.5, 0.5, 1.0, 0.0, 0.2, 0.2, 0.9, 0.5])
        for k in range(len(r)):
            table = {"r": r, "irr_spin": np.where(np.arange(len(r)) == k, 0.0, 10.0), "irr_torque": np.zeros(len(r))}
            got, expected = cli._least_slack([table]), sorting_least_slack([table])
            assert got[0] == expected[0] == -bound_rhs(r[k]) and got[2] == expected[2] == k


def per_operator_irrealities(kind, a, b, h, t1, t2):
    # J of each eigenstate of one realized operator, as eigenprep scored them one operator at a time.
    op = correlators.TwoTimeOperator(kind, Observable(a), Observable(b), t1, t2, ChannelFamily(h))
    realized = correlators.realize(op)
    return [realism.irreality(realized, realized.eigenstate(k)).irreality for k in range(len(realized.eigenvalues))]


class TestStackedEigenprep:
    @pytest.mark.parametrize("kind", ["product", "sum"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_stack_matches_the_per_operator_path(self, monkeypatch, dim, kind):
        # 30 operators, and a budget of 64 rows at d = 3, so d = 3 scores its eigenstates in two blocks. At d = 2 every
        # third one is the spin product {Sx(t1), Sy(t2)}/2, a multiple of the identity; at d = 3 every third A and B are
        # degenerate.
        rng = np.random.default_rng(dim * 10 + len(kind))
        instances = []
        for n in range(30):
            a, b, h, t1, t2, _ = (column[0] for column in cli._draw_instances(dim, 1, rng))
            if n % 3 == 0:
                a, b = (qcore.SIGMA_X / 2.0, qcore.SIGMA_Y / 2.0) if dim == 2 else (degenerate_matrix(3, rng), degenerate_matrix(3, rng))
            instances.append((a.astype(complex), b.astype(complex), h, t1, t2))
        a, b, h, t1, t2 = map(np.array, zip(*instances))
        energies, modes = qcore._eighs(h, "hamiltonian")[1:]
        units = [dynamics._unitaries(energies, modes, t) for t in (t1, t2)]
        _, values, vectors, starts = qcore._spectra(correlators._two_time_matrices(kind, a, b, *units))
        checked = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: checked.append(len(m)) or eigvalsh(m))
        monkeypatch.setattr(qcore, "STACK_BYTES", 16 * 3 * 3 * 64)
        rows = qcore._rows(dim)
        irrealities = realism._eigenstate_irrealities(values, vectors, starts)
        monkeypatch.undo()
        eigenstates = 0
        for instance, row, first in zip(instances, irrealities, starts):
            expected = per_operator_irrealities(kind, *instance)
            assert first.sum() == len(expected) and np.all(row[~first] == 0.0)
            assert np.max(np.abs(row[first] - expected)) <= 1e-12
            eigenstates += len(expected)
        # Every eigenstate and its dephased image pass the state check (J of an eigenstate is 0 up to roundoff,
        # so an eigenstate left unscored would not show in the values).
        assert sum(checked) == 2 * eigenstates and max(checked) <= rows
        if dim == 2 and kind == "product":
            assert np.all(starts[::3] == [True, False]) and np.all(values[::3, 0] == values[::3, 1])

    def test_every_solver_call_takes_at_most_a_block(self, monkeypatch):
        rng = np.random.default_rng(cli.DEFAULT_SEED)
        kinds = ("product", "product", "sum", "sum")
        groups = [cli._draw_instances(dim, 25, rng) for dim in (2, 3, 2, 3)]
        eigenstates = sum(len(per_operator_irrealities(kind, *(column[row] for column in group[:5])))
                          for group, kind in zip(groups, kinds) for row in range(25))
        shapes, eigvalsh = {"eigh": solvers.count_decompositions(monkeypatch), "eigvalsh": []}, np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes["eigvalsh"].append(np.shape(a)) or eigvalsh(a))
        assert cli.main(["report", "eigenprep"]) == 0
        matrices = {name: [math.prod(shape[:-2]) for shape in calls] for name, calls in shapes.items()}
        # 4 stacks of H and of the realized operators; every eigenstate and its dephased image checked.
        assert len(matrices["eigh"]) == 4 * 2 and sum(matrices["eigh"]) == 2 * 100
        assert sum(matrices["eigvalsh"]) == 2 * eigenstates
        assert all(math.prod(shape[:-2]) <= qcore._rows(shape[-1]) for shape in shapes["eigh"] + shapes["eigvalsh"])


def per_row_displacements(rng, n):
    # Each preparation drawn and scored on its own through the public API, as report displacement did: its columns
    # (p0, dx, dp, xp_corr, mass, t1, t2) and (product, weighted) slacks, both slacks checked against the closed forms
    # in Python floats rounded as numpy rounds them: np.exp of each draw, x * x for np.square, and math.sqrt.
    rows = []
    for _ in range(n):
        dx = float(np.exp(rng.uniform(-1.0, 1.0)))
        dp = (0.5 / dx) * float(np.exp(rng.uniform(0.0, 1.5)))
        corr = rng.uniform(-1.0, 1.0) * 0.999 * math.sqrt(dx * dx * (dp * dp) - 0.25)
        prep = GaussianPrep(x0=rng.uniform(-2.0, 2.0), p0=rng.uniform(-2.0, 2.0), dx=dx, dp=dp, xp_corr=corr)
        m = float(np.exp(rng.uniform(-1.0, 1.0)))
        t1 = rng.uniform(0.0, 2.0)
        t2 = t1 + rng.uniform(0.01, 3.0)
        report = uncertainty_report(prep, FreeParticle(m), t1, t2)
        dx1, dx2 = (math.sqrt(dx * dx + (dp * t / m) * (dp * t / m) + 2.0 * corr * t / m) for t in (t1, t2))
        dt = t2 - t1
        closed = (dx1 * dx2 - dt / (2.0 * m), dp * dt / m * (dx1 + dx2) - dt / m)
        assert (report.product_slack, report.weighted_slack) == closed
        rows.append((prep.p0, dx, dp, corr, m, t1, t2, *closed))
    return [list(column) for column in zip(*rows)]


def per_draw_precession(h, tau):
    # One draw of report precession through the public API: five arrays, sigma at tau and tau +- step, the torque and
    # the unitary of precession_channel(h) at tau.
    step = qcore.FINITE_DIFF_STEP
    closed = [spinlab.pauli_heisenberg(PrecessionConfig(h, t)) for t in (tau, tau + step, tau - step)]
    u = spinlab.precession_channel(h).unitary_at(tau)
    return [*map(np.array, closed), np.array(spinlab.instantaneous_torque(h, tau)), u]


class TestColumnReports:
    @pytest.mark.parametrize("seed", [cli.DEFAULT_SEED, 1, 777])
    def test_displacement_columns_match_the_per_row_path(self, monkeypatch, seed):
        ref = np.random.default_rng(seed)
        generators = drawn_generators(monkeypatch)
        preps, uncertainties = (recorded_calls(monkeypatch, gaussian, name) for name in ("_preps", "_uncertainties"))
        assert cli.main(["--seed", str(seed), "report", "displacement"]) == 0
        (((_, p0, *_), _),), ((columns, fields),) = preps, uncertainties  # columns: every one but p0
        rows = [column.tolist() for column in (p0, *columns, fields[5], fields[8])]  # with the product and weighted slacks
        assert rows == per_row_displacements(ref, 1000)
        (rng,) = generators
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("seed", [cli.DEFAULT_SEED, 1, 100])
    def test_precession_stacks_match_the_per_draw_path(self, monkeypatch, seed):
        # The rows are the documented bulk draw: standard_normal((100, 3)), each row divided by its np.linalg.norm,
        # then uniform(-4 pi, 4 pi, 100). The report's stacks match each row's public path bitwise.
        ref = np.random.default_rng(seed)
        generators = drawn_generators(monkeypatch)
        precessions = recorded_calls(monkeypatch, spinlab, "_precession")
        unitaries = recorded_calls(monkeypatch, dynamics, "_unitaries")
        assert cli.main(["--seed", str(seed), "report", "precession"]) == 0
        (((h, tau), (closed, torque)),), ((_, u),) = precessions, unitaries  # closed and torque at tau, tau +- step
        stacks = [*np.split(closed, 3), np.split(torque, 3)[0], u]
        normals = ref.standard_normal((100, 3))
        assert h[:100].tobytes() == np.array([row / np.linalg.norm(row) for row in normals]).tobytes()
        assert tau[:100].tobytes() == ref.uniform(-4.0 * math.pi, 4.0 * math.pi, 100).tobytes()
        for row in range(100):
            for stack, expected in zip(stacks, per_draw_precession(h[row], tau[row]), strict=True):
                assert np.array_equal(stack[row], expected)
        (rng,) = generators
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("steps", [2, 3, 180, 181])
    def test_lambda_columns_match_the_per_row_path(self, tmp_path, monkeypatch, steps):
        tables = []
        write = cli._write_tables
        monkeypatch.setattr(cli, "_write_tables", lambda args, written: tables.extend(written) or write(args, written))
        assert cli.main(["--out", str(tmp_path), "lambda", "--theta-steps", str(steps)]) == 0
        ((_, _, (theta, nu_norm, min_eigenvalue, physical)),) = tables
        alpha, channel = (np.eye(2) - qcore.SIGMA_Z) / 2.0, ChannelFamily(np.zeros((2, 2)))
        for i in range(1, steps + 1):
            direction = (math.sin(i * math.pi / steps), 0.0, math.cos(i * math.pi / steps))
            nu, norm = spinlab.bloch_lambda_nu(direction)
            report = correlators.lambda_operator(alpha, qcore.bloch_to_state(direction), 0.0, channel)
            assert theta[i - 1] == i * math.pi / steps
            assert nu_norm[i - 1] == norm == float(np.linalg.norm(nu))
            assert min_eigenvalue[i - 1] == report.min_eigenvalue
            assert physical[i - 1] == ("true" if report.physical else "false")

    def test_default_seed_output_is_pinned(self, tmp_path, capsys):
        assert cli.main(["report", "displacement"]) == 0
        assert cli.main(["report", "precession"]) == 0
        assert capsys.readouterr().out == (
            "PASS displacement: min product slack 6.556512e-02, min weighted slack 1.522195e-03, spread formula defect "
            "0.0e+00 over 1000 preparations (tolerance -1e-12)\n"
            "PASS precession: closed form vs channel 1.937e-15 (<= 1e-12), field component of torque 3.192e-16 "
            "(<= 1e-12), finite-difference defect 5.592e-11 (<= 1e-8) over 100 draws\n"
        )
        assert cli.main(["--out", str(tmp_path), "lambda"]) == 0
        digest = hashlib.sha256((tmp_path / "lambda.csv").read_bytes()).hexdigest()
        assert digest == "ccc0c183260f19abf95bfc9d2a1eda48265f08f768112ba81c1e46f87f922d3b"

    @pytest.mark.parametrize("argv, eigh, eigvalsh, cholesky", [
        (["lambda", "--theta-steps", "181"], 0, 181, 181),
        (["report", "precession"], 100, 0, 0),
    ])
    def test_every_matrix_is_checked(self, tmp_path, monkeypatch, argv, eigh, eigvalsh, cholesky):
        # lambda: each state passes the DensityMatrix checks (the Cholesky gate) and each conditional operator an
        # eigvalsh; precession: each Hamiltonian passes the checked eigh (eigh counts every decomposition, the closed-form
        # 2 x 2 ones included). No call takes more than _rows(2) matrices.
        shapes = {"eigh": solvers.count_decompositions(monkeypatch), "eigvalsh": [], "cholesky": []}
        for name in ("eigvalsh", "cholesky"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, s=solver, c=shapes[name]: c.append(np.shape(a)) or s(a))
        assert cli.main(["--out", str(tmp_path)] + argv) == 0
        matrices = [[math.prod(shape[:-2]) for shape in calls] for calls in shapes.values()]
        assert tuple(map(sum, matrices)) == (eigh, eigvalsh, cholesky)
        assert max(sum(matrices, [])) <= qcore._rows(2)


def test_seed_changes_output(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cli.main(["--out", str(a), "--samples", "20", "figure1"]) == 0
    assert cli.main(["--out", str(b), "--samples", "20", "--seed", "1", "figure1"]) == 0
    assert (a / "figure1_scatter.csv").read_bytes() != (b / "figure1_scatter.csv").read_bytes()


@pytest.mark.parametrize("argv, calls", [
    (["tpm-gap", "--dim", "2", "--trials", "65"], 5 + 5 * 1),
    (["tpm-gap", "--dim", "2", "--trials", "1000"], 5 + 5 * 2),
    (["tpm-gap", "--dim", "3", "--trials", "65"], 5 + 4 * 1),
    (["tpm-gap", "--dim", "3", "--trials", "1000"], 5 + 4 * 4),
    (["report", "eigenprep"], 4 * 4),
    (["report", "precession"], 2),
])
def test_generator_calls_grow_only_with_the_blocks(monkeypatch, argv, calls):
    # A block of instances takes four calls (A, B and H; t1; t2 - t1; the states) and a +-1 block a fifth for its axes.
    # tpm-gap's 10 dephased starts are one block and their weights; 65 trials are one block of _rows(d), 1000 are two
    # at d = 2 and four at d = 3. eigenprep draws four blocks; precession its directions, then its phases.
    generators = drawn_generators(monkeypatch)
    assert cli.main(argv) == 0
    (rng,) = generators
    assert len(rng.calls) == calls


def test_stdout_at_three_seeds_is_pinned(capsys):
    # One SHA-256 over the argv, exit code and stdout of tpm-gap at d = 2 and 3 and of the four reports, at the default
    # seed, 1 and 777: a change to a drawn instance, a kernel's arithmetic or a printed digit fails here.
    digest = hashlib.sha256()
    for seed in (cli.DEFAULT_SEED, 1, 777):
        for command in (["tpm-gap", "--dim", "2"], ["tpm-gap", "--dim", "3"], *(["report", name] for name in sorted(cli._REPORTS))):
            argv = ["--seed", str(seed), *command]
            code = cli.main(argv)
            digest.update(f"{' '.join(argv)}\n{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == "8d850c5eca5e9ee92ba779b653c377ef8f83f481e17cf0c355117bb2cd75272e"


def test_table_command_stdout_at_three_seeds_is_pinned(tmp_path, monkeypatch, capsys):
    # The same for figure1 and lambda, whose stdout names the tables they wrote: run from tmp_path with a relative
    # --out, so the printed paths do not depend on where the test runs.
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for seed in (cli.DEFAULT_SEED, 1, 777):
        for command in (["--samples", "50", "figure1"], ["lambda"]):
            argv = ["--seed", str(seed), "--out", "out", *command]
            code = cli.main(argv)
            digest.update(f"{' '.join(argv)}\n{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == "a9137c2f2130f66bdbf6aaa0171e3c167aab82110d2cc35b5a7329915e9d61e0"


def test_import_leaves_numpy_random_unloaded():
    # figure1 and lambda draw no numpy random numbers, so importing the package and the CLI must not load
    # numpy.random (and with it hashlib, hmac and secrets); the commands that draw import it when they run.
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    probe = "import sys, twotime, twotime.cli; print('numpy.random' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("argv", [["report", "eigenprep"], ["tpm-gap", "--dim", "3", "--trials", "1"]])
def test_closed_stdout_exits_2_without_a_traceback(argv, unbuffered):
    # stdout is a pipe whose read end was closed first. Unbuffered, the first print fails; buffered, the final flush.
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__)), "PYTHONUNBUFFERED": unbuffered}
    try:
        done = subprocess.run([sys.executable, "-m", "twotime.cli", *argv], stdout=write, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr.decode()) == (2, "error: cannot write to stdout: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs Linux's /dev/full, whose every write fails")
def test_full_stdout_exits_2_without_a_traceback():
    # A stdout that fails with another OSError than a broken pipe is an output error too, not a failed check.
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "twotime.cli", "report", "precession"], stdout=full,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    assert (done.returncode, done.stderr.decode()) == (2, "error: cannot write to stdout: [Errno 28] No space left on device\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["figure1", "--r-list", "1.5"],
        ["tpm-gap", "--trials", "0"],
        ["lambda", "--theta-steps", "1"],
        ["--seed", "-1", "figure1"],
        ["--samples", "0", "figure1"],
    ],
)
def test_usage_errors_exit_2(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path)] + argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, tolerance, written",
    [(["--samples", "10", "figure1"], "BOUND_TOL", "figure1_*"), (["lambda"], "IDENTITY_TOL", "lambda.*")],
)
def test_failed_check_writes_no_table(tmp_path, monkeypatch, argv, tolerance, written):
    # A negative tolerance makes the run's own invariant check fail.
    monkeypatch.setattr(cli, tolerance, -1.0)
    assert cli.main(["--out", str(tmp_path)] + argv) == 1
    assert list(tmp_path.glob(written)) == []


@pytest.mark.parametrize("argv, tolerance, lines", [
    (["figure1"], "BOUND_TOL", [r"FAIL: bound violated by -?\d\.\d{6}e[+-]\d\d at r=\S+, theta=\S+, phi=\S+, "
                                r"irr_spin=\S+, irr_torque=\S+"]),
    (["lambda"], "IDENTITY_TOL", [r"FAIL: norm defect \d\.\d{3}e[+-]\d\d, physical thetas \[3\.141592653589793\]"]),
    (["tpm-gap", "--dim", "2", "--trials", "20"], "IDENTITY_TOL", [
        r"d=2: max gap over 10 dephased-start instances: \S+ \(expected <= -1\)",
        r"d=2: max gap over 20 random \+-1-spectrum instances: \S+ \(expected <= -1\)"]),
    (["report", "torque-bound"], "BOUND_TOL", [r"FAIL torque-bound: min bound slack \S+ over 1640 rows \(tolerance 1\)"]),
], ids=["figure1", "lambda", "tpm-gap", "torque-bound"])
def test_failed_check_prints_its_lines_on_stdout_and_exits_1(tmp_path, monkeypatch, capsys, argv, tolerance, lines):
    # Every line of a failed run, its FAIL verdict included, is its whole stdout; stderr is left to errors (exit 2),
    # and no table, temporary file or --out directory is made.
    monkeypatch.setattr(cli, tolerance, -1.0)
    assert cli.main(["--samples", "50", "--out", str(tmp_path / "out")] + argv) == 1
    out, err = capsys.readouterr()
    assert re.fullmatch("".join(line + "\n" for line in lines), out) and err == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["tpm-gap", "--trials", "5"], ["report", "eigenprep"]], ids=["tpm-gap", "eigenprep"])
def test_command_without_tables_leaves_out_alone(tmp_path, capsys, argv):
    # --out lies under a regular file, so creating it would fail: a run with no tables must not try.
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    assert cli.main(["--out", str(blocker / "sub")] + argv) == 0
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["file"]


def test_only_main_prints_or_exits():
    # Subcommands return (ok, lines, tables); print(...), sys.exit(...) and raise SystemExit belong to main and the
    # __main__ guard alone.
    tree = ast.parse(Path(cli.__file__).read_text())
    allowed = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "main" or (
                isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"):
            allowed.update(map(id, ast.walk(node)))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (ast.unparse(node.func) in ("print", "sys.exit")) or (
                isinstance(node, ast.Raise) and node.exc is not None and "SystemExit" in ast.unparse(node.exc)):
            if id(node) not in allowed:
                found.append((node.lineno, ast.unparse(node)))
    assert found == []


@pytest.mark.parametrize("command", ["figure1", "lambda"])
def test_unwritable_out_exits_2_and_publishes_nothing(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    assert cli.main(["--out", str(blocker / "sub"), "--samples", "10", command]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write to")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["file"]


def test_tables_are_published_together(tmp_path, monkeypatch):
    # The second rename fails: the first table is already in place, but no
    # temporary file is left behind and the run exits 2.
    renames = []

    def failing_replace(src, dst):
        renames.append(dst)
        if len(renames) == 2:
            raise PermissionError("read-only")
        return real_replace(src, dst)

    real_replace = cli.os.replace
    monkeypatch.setattr(cli.os, "replace", failing_replace)
    assert cli.main(["--out", str(tmp_path), "--samples", "10", "figure1"]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["figure1_scatter.csv"]


def test_write_failure_leaves_no_table(tmp_path, monkeypatch):
    # A failure while writing the second table publishes neither.
    real_open = open

    def failing_open(path, *args, **kwargs):
        if "figure1_curves" in str(path):
            raise OSError("disk full")
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", failing_open)
    assert cli.main(["--out", str(tmp_path), "--samples", "10", "figure1"]) == 2
    assert list(tmp_path.iterdir()) == []


def kernel_lines(values):
    # Each value through the column kernel into its 24-byte slot, one line per value, as the writer joins cells: the
    # newline goes in byte 23, which no cell may use.
    slots = np.full((len(values), 3), 0x5A5A5A5A5A5A5A5A, np.uint64)  # "Z" bytes: a word left unwritten shows in the line
    cli._cells(np.asarray(values, dtype=float), slots)
    assert not slots.view(np.uint8)[:, 23].any()
    slots.view(np.uint8)[:, 23] = ord("\n")
    return slots.tobytes().translate(None, b"\0")


def tie_neighbours(rng, n, offsets):
    # Decimal strings of 12-digit integers plus a half plus each offset, scaled to random exponents: values whose
    # 12-digit rounding sits within the offset of a tie, and (offset 0) the ties themselves.
    digits = rng.integers(10**11, 10**12, n)
    exponents = rng.integers(-30, 30, n)
    return [float(f"{d}.{5 * 10**4 + offset:05d}e{k - 11}") for d, k in zip(digits.tolist(), exponents.tolist())
            for offset in offsets]


class TestCellKernel:
    def test_matches_python_on_a_million_doubles(self):
        rng = np.random.default_rng(2024)
        bits = rng.integers(0, 2**64 - 1, 150_000, dtype=np.uint64, endpoint=True).view(np.float64)
        with np.errstate(over="ignore"):  # mantissas near 10 at exponent 308 overflow to inf, which is kept
            decimal = rng.uniform(1.0, 10.0, 150_000) * np.array([float(f"1e{k}") for k in range(-320, 309)])[
                rng.integers(0, 629, 150_000)]
        fixed = rng.uniform(1.0, 10.0, 100_000) * 10.0 ** rng.integers(-6, 14, 100_000)
        short = rng.integers(1, 10 ** rng.integers(1, 13, 100_000))  # 1 to 12 digits, as in 1200, 0.5 or 12.25
        short = [float(f"{m}e{k}") for m, k in zip(short.tolist(), rng.integers(-16, 12, 100_000).tolist())]
        powers = [float(f"1e{k}") for k in range(-5, 17)]
        special = [0.0, math.inf, math.nan, 5e-324, 2.2250738585072014e-308, 1e-297, 9.99e-298, 1.7976931348623157e308]
        halves = np.r_[np.arange(0, 2_000_000, 97) + 0.5, (10.0 ** np.arange(17)) + 0.5]
        ties = tie_neighbours(rng, 20_000, (-100, -10, -1, 0, 1, 10, 100))  # a tie, and 1e-5 to 1e-3 either side
        carries = [float(f"999999999999.{fraction}e{k}") for k in range(-25, 25) for fraction in ("4999", "5", "5001")]
        values = np.concatenate([bits, decimal, fixed, short, powers, np.nextafter(powers, 0), np.nextafter(powers, 2),
                                 special, halves, ties, carries])
        values = np.concatenate([values, -values])
        assert len(values) >= 10**6
        for start in range(0, len(values), 1 << 16):
            block = values[start:start + (1 << 16)]
            got, expected = kernel_lines(block), b"".join(b"%.12g\n" % v for v in block.tolist())
            if got != expected:
                mismatches = [(v, g, e) for v, g, e in zip(block.tolist(), got.split(b"\n"), expected.split(b"\n")) if g != e]
                pytest.fail(f"{len(mismatches)} cells differ from %.12g, first (value, kernel, python): {mismatches[0]!r}")

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_cells_from_a_billion_on_go_to_python(self, monkeypatch, sign):
        # From e = 9 on, a fixed cell's point may fall in the last digit chunk, whose marker byte 23 is the separator's:
        # Python formats 1e9 <= |x| < 1e12, and the kernel keeps the cells just below 1e9.
        below = [999999999.998, 999999999.25, 987654321.012, 100000000.5, 123456789.0]
        above = [1e9, 999999999.9996, 1234567890.12, 9876543210.98, 12345678901.2, 123456789012.0, 999999999999.4]
        calls = []
        monkeypatch.setattr(cli, "_python_cell", lambda value, cell=cli._python_cell: calls.append(value) or cell(value))
        values = sign * np.array(below + above)
        assert kernel_lines(values) == b"".join(b"%.12g\n" % v for v in values.tolist())
        assert calls == values[len(below):].tolist()

    def test_powers_of_ten_are_correctly_rounded(self):
        assert cli._POW10.tolist() == [float(f"1e{k}") for k in range(16)]

    def test_default_figure1_formats_at_most_one_percent_through_python(self, tmp_path, monkeypatch):
        # A kernel that sent every cell to Python would still write the right bytes; this counts the ones it does.
        calls = []
        monkeypatch.setattr(cli, "_python_cell", lambda value, cell=cli._python_cell: calls.append(value) or cell(value))
        assert cli.main(["--out", str(tmp_path), "figure1"]) == 0
        cells = 5 * 40_000 + 4 * 4 * 360
        assert cells == 205_760
        assert 0 < len(calls) <= cells // 100


def write_one_table(tmp_path, columns, fmt="csv"):
    args = cli.build_parser().parse_args(["--out", str(tmp_path), "--format", fmt, "figure1"])
    cli._write_tables(args, [("table", [f"c{j}" for j in range(len(columns))], columns)])
    return (tmp_path / f"table.{fmt}").read_bytes()


class TestCellSlots:
    WIDEST = [-1.23456789012e-297, -9.87654321098e+307, -0.000123456789012, -123456789012.0]  # 19, 19, 18 and 13 bytes

    def test_python_and_string_cells_leave_byte_31_nul(self):
        # The kernel's families are checked in kernel_lines; these are the cells Python formats, and strings.
        values = [0.0, -0.0, math.inf, -math.inf, math.nan, -5e-324, -2.2250738585072014e-308, -1.7976931348623157e308,
                  -1e-298, -0.5000000000005, -999999999999.5, *self.WIDEST]
        assert kernel_lines(values) == b"".join(b"%.12g\n" % v for v in values)
        text = np.array(["", "true", "false", "x" * 31])
        slots = np.full((len(text), 4), 0x5A5A5A5A5A5A5A5A, np.uint64)
        cli._cells(text, slots)
        assert not slots.view(np.uint8)[:, 31].any()
        assert [slot.tobytes().rstrip(b"\0") for slot in slots] == [t.encode() for t in text]

    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    def test_a_31_byte_string_cell_is_written_whole(self, tmp_path, fmt):
        sep = "," if fmt == "csv" else "\t"
        written = write_one_table(tmp_path, [np.array(["a" * 31, "b"]), np.array(self.WIDEST[:2]), np.array(["c", "d" * 31])], fmt)
        lines = [sep.join(("a" * 31, "%.12g" % self.WIDEST[0], "c")), sep.join(("b", "%.12g" % self.WIDEST[1], "d" * 31))]
        assert written == (sep.join(("c0", "c1", "c2")) + "\n" + "\n".join(lines) + "\n").encode()

    def test_a_string_cell_wider_than_its_slot_raises(self, tmp_path):
        slots = np.zeros((2, 4), np.uint64)
        with pytest.raises(ValueError, match="a table cell of 32 bytes does not fit its 31-byte slot"):
            cli._cells(np.array(["ok", "y" * 32]), slots)
        with pytest.raises(ValueError, match="a table cell of 40 bytes"):
            write_one_table(tmp_path, [np.array(["z" * 40]), np.array([1.0])])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.complex128, bool, object])
    def test_a_column_neither_float64_nor_text_raises_and_publishes_nothing(self, tmp_path, dtype):
        # float32 was once written as the text of each float ("0.1" as 0.100000001490 is not), and an int column as str.
        args = cli.build_parser().parse_args(["--out", str(tmp_path), "figure1"])
        good, bad = ("good", ["x"], [np.array([0.5, 2.5])]), ("bad", ["x", "y"], [np.array([1.0, 2.0]), np.array([1, 2], dtype)])
        with pytest.raises(ValueError, match=f"a table column of {np.dtype(dtype)} is neither float64 nor text"):
            cli._write_tables(args, [good, bad])
        assert list(tmp_path.iterdir()) == []
        assert write_one_table(tmp_path, [np.array(["a"]), np.array([b"b"]), np.array([0.1])]) == b"c0,c1,c2\na,b,0.1\n"

    def test_a_block_is_one_buffer_of_slots(self, tmp_path, monkeypatch):
        # Each block of WRITE_BLOCK rows is formatted in place: every column's slots are views of one buffer, 24 bytes a
        # float cell and 32 a text cell, and no column is formatted into an array of its own.
        calls = recorded_calls(monkeypatch, cli, "_cells")
        n = cli.WRITE_BLOCK + 5
        columns = [np.arange(n) + 0.5, np.full(n, -2.0), np.where(np.arange(n) % 2 == 0, "true", "false")]
        written = write_one_table(tmp_path, columns)
        assert written.count(b"\n") == n + 1
        blocks = [[args[1] for args, _ in calls[i:i + 3]] for i in range(0, len(calls), 3)]
        assert [len(block[0]) for block in blocks] == [cli.WRITE_BLOCK, 5]
        for block in blocks:
            assert [out.shape for out in block] == [(len(block[0]), 3), (len(block[0]), 3), (len(block[0]), 4)]
            assert all(out.dtype == np.uint64 and out.strides == (24 + 24 + 32, 8) for out in block)
            rows = np.lib.stride_tricks.as_strided(block[0], (len(block[0]), 10), (24 + 24 + 32, 8))  # from the first slot on
            assert all(np.shares_memory(rows[:, first:first + 4], out) for first, out in zip((0, 3, 6), block))


class TestTableWriter:
    @staticmethod
    def written_and_oracle(tmp_path, monkeypatch, argv, fmt):
        tables = []
        write = cli._write_tables
        monkeypatch.setattr(cli, "_write_tables", lambda args, written: tables.extend(written) or write(args, written))
        assert cli.main(["--out", str(tmp_path), "--format", fmt] + argv) == 0
        sep = "," if fmt == "csv" else "\t"
        return [((tmp_path / f"{stem}.{fmt}").read_bytes(), oracles.table_text(header, columns, sep))
                for stem, header, columns in tables]

    @pytest.mark.parametrize("argv", [
        ["--seed", "1", "figure1"],
        ["--seed", "777", "figure1"],
        ["--samples", "37", "figure1", "--r-list", "0,0.3,1"],
    ])
    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    def test_figure1_matches_the_per_row_writer(self, tmp_path, monkeypatch, argv, fmt):
        pairs = self.written_and_oracle(tmp_path, monkeypatch, argv, fmt)
        assert len(pairs) == 2
        for written, expected in pairs:
            assert written == expected

    @pytest.mark.parametrize("steps", ["180", "181"])
    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    def test_lambda_matches_the_per_row_writer(self, tmp_path, monkeypatch, steps, fmt):
        ((written, expected),) = self.written_and_oracle(tmp_path, monkeypatch, ["lambda", "--theta-steps", steps], fmt)
        assert written == expected
        assert written.count(b"true") == 1
