import csv
import math

import pytest

from twotime import cli, correlators
from twotime.spinlab import bound_rhs


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


class TestReportCommand:
    @pytest.mark.parametrize("name", ["eigenprep", "displacement", "precession"])
    def test_reports_pass(self, name, capsys):
        assert cli.main(["report", name]) == 0
        assert capsys.readouterr().out.startswith("PASS")

    def test_eigenprep_realizes_each_operator_once(self, monkeypatch):
        calls = []
        realize = correlators.realize
        monkeypatch.setattr(correlators, "realize", lambda op: calls.append(op) or realize(op))
        assert cli.main(["report", "eigenprep"]) == 0
        assert len(calls) == 100

    def test_torque_bound_report(self, capsys):
        assert cli.main(["--samples", "500", "report", "torque-bound"]) == 0
        assert "min bound slack" in capsys.readouterr().out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["report", "unknown-scenario"])


def test_seed_changes_output(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cli.main(["--out", str(a), "--samples", "20", "figure1"]) == 0
    assert cli.main(["--out", str(b), "--samples", "20", "--seed", "1", "figure1"]) == 0
    assert (a / "figure1_scatter.csv").read_bytes() != (b / "figure1_scatter.csv").read_bytes()


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


@pytest.mark.parametrize("command", ["figure1", "lambda"])
def test_unwritable_out_exits_2_and_publishes_nothing(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(blocker / "sub"), "--samples", "10", command])
    assert exc.value.code == 2
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
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path), "--samples", "10", "figure1"])
    assert exc.value.code == 2
    assert [p.name for p in tmp_path.iterdir()] == ["figure1_scatter.csv"]


def test_write_failure_leaves_no_table(tmp_path, monkeypatch):
    # A failure while writing the second table publishes neither.
    real_open = open

    def failing_open(path, *args, **kwargs):
        if "figure1_curves" in str(path):
            raise OSError("disk full")
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", failing_open)
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path), "--samples", "10", "figure1"])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []
