"""Acceptance suite: every headline quantitative claim at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
"""

import hashlib
import math
from pathlib import Path

import numpy as np

import oracles
from twotime import cli
from twotime.correlators import (
    TwoTimeOperator,
    heisenberg_correlator,
    lambda_operator,
    prepare_eigenstate,
    qutrit_gap_fixture,
    realize,
    tpm_correlator,
)
from twotime.dynamics import ChannelFamily
from twotime.qcore import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BlochVector,
    DensityMatrix,
    Observable,
    bloch_to_state,
    random_density_matrix,
)
from twotime.realism import complementarity_bound_check, irreality, min_form_check
from twotime.spinlab import (
    PrecessionConfig,
    bloch_lambda_nu,
    bound_rhs,
    figure1_scan,
    instantaneous_torque,
    pauli_heisenberg,
    torque_irreality_pair,
)
from twotime.gaussian import FreeParticle, GaussianPrep, displacement_stats, uncertainty_report

LN2 = math.log(2.0)
DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def _criterion(number: int, name: str, ok: bool, detail: str):
    print(f"[acceptance] criterion {number:2d} ({name}): {'PASS' if ok else 'FAIL'} | {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_01_irreality_anchors():
    up = DensityMatrix.from_ket([1.0, 0.0])
    j_z = irreality(Observable(SIGMA_Z / 2.0), up).irreality
    j_x = irreality(Observable(SIGMA_X / 2.0), up).irreality
    ok = abs(j_z) <= 1e-12 and abs(j_x - LN2) <= 1e-12
    _criterion(1, "irreality anchors", ok, f"J(Sz|up) = {j_z:.3e}, J(Sx|up) - ln2 = {j_x - LN2:.3e} (tol 1e-12)")


def test_criterion_02_conditional_operator_pathology():
    minus_z = (np.eye(2, dtype=complex) - SIGMA_Z) / 2.0
    channel = ChannelFamily(np.zeros((2, 2)))
    worst = 0.0
    physical_indices = []
    for i in range(1, 181):
        theta = i * math.pi / 180.0
        direction = (math.sin(theta), 0.0, math.cos(theta))
        report = lambda_operator(minus_z, bloch_to_state(direction), 0.0, channel)
        nu = np.array([np.trace(report.matrix @ s).real for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)])
        defect = abs(np.linalg.norm(nu) - 1.0 / abs(math.sin(theta / 2.0)))
        closed_nu, closed_norm = bloch_lambda_nu(direction)
        defect = max(defect, abs(np.linalg.norm(nu) - closed_norm), np.max(np.abs(nu - closed_nu)))
        worst = max(worst, defect)
        if report.physical:
            physical_indices.append(i)
    ok = worst <= 1e-10 and physical_indices == [180]
    _criterion(
        2, "conditional operator pathology", ok,
        f"max norm defect {worst:.3e} (tol 1e-10), physical only at theta = pi: {physical_indices == [180]}",
    )


def test_criterion_03_heisenberg_precession():
    rng = np.random.default_rng(300)
    closed_vs_expm = 0.0
    field_component = 0.0
    derivative_defect = 0.0
    step = 1e-5
    for _ in range(100):
        h = rng.standard_normal(3)
        h /= np.linalg.norm(h)
        tau = rng.uniform(-4.0 * math.pi, 4.0 * math.pi)
        generator = (h[0] * SIGMA_X + h[1] * SIGMA_Y + h[2] * SIGMA_Z) / 2.0
        evolved = pauli_heisenberg(PrecessionConfig(h, tau))
        torque = instantaneous_torque(h, tau)
        plus = pauli_heisenberg(PrecessionConfig(h, tau + step))
        minus = pauli_heisenberg(PrecessionConfig(h, tau - step))
        along = sum(h[i] * torque[i] for i in range(3))
        field_component = max(field_component, np.max(np.abs(along)))
        for i, sigma_i in enumerate((SIGMA_X, SIGMA_Y, SIGMA_Z)):
            expected = oracles.heisenberg_conjugate(generator, tau, sigma_i)
            closed_vs_expm = max(closed_vs_expm, np.max(np.abs(evolved[i] - expected)))
            finite_diff = (plus[i] - minus[i]) / (2.0 * step)
            derivative_defect = max(derivative_defect, np.max(np.abs(finite_diff - torque[i])))
    ok = closed_vs_expm <= 1e-12 and field_component <= 1e-12 and derivative_defect <= 1e-8
    _criterion(
        3, "Heisenberg precession", ok,
        f"closed vs expm {closed_vs_expm:.3e} (tol 1e-12), h.T {field_component:.3e} (tol 1e-12), "
        f"finite diff {derivative_defect:.3e} (tol 1e-8)",
    )


def test_criterion_04_torque_bound_and_scan(tmp_path):
    scatter, curves = figure1_scan((0.2, 0.5, 0.8, 1.0), cli.DEFAULT_SAMPLES, cli.DEFAULT_SEED)
    bound = {radius: bound_rhs(radius) for radius in (0.2, 0.5, 0.8, 1.0)}
    min_slack = min(
        float(np.min(t["irr_spin"] + t["irr_torque"] - np.array([bound[r] for r in t["r"].tolist()])))
        for t in (scatter, curves)
    )
    band_ok = True
    for radius in (0.2, 0.5, 0.8, 1.0):
        in_band = scatter["r"] == radius
        sums = scatter["irr_spin"][in_band] + scatter["irr_torque"][in_band]
        curve_min = np.min((curves["irr_spin"] + curves["irr_torque"])[curves["r"] == radius])
        best = np.argmin(sums)
        best_sum = sums[best]
        band_ok &= bool(best_sum >= curve_min - 1e-9)
        band_ok &= bool(best_sum - curve_min <= 5e-3)
        band_ok &= bool(abs(scatter["theta"][in_band][best] - math.pi / 2.0) <= 0.2)
    tight = torque_irreality_pair(BlochVector.from_angles(1.0, math.pi / 2.0, 0.0))
    attained = abs(tight.irr_torque + tight.irr_spin - bound_rhs(1.0))

    # byte-identical regeneration of the reference tables under the default seed
    first, second = tmp_path / "a", tmp_path / "b"
    assert cli.main(["--out", str(first), "figure1"]) == 0
    assert cli.main(["--out", str(second), "figure1"]) == 0
    reproducible = all(
        (first / name).read_bytes() == (second / name).read_bytes()
        for name in ("figure1_scatter.csv", "figure1_curves.csv")
    )
    shipped = dict(
        line.split()[::-1] for line in (DATA_DIR / "sha256sums.txt").read_text().splitlines() if line
    )
    for name in ("figure1_scatter.csv", "figure1_curves.csv"):
        digest = hashlib.sha256((first / name).read_bytes()).hexdigest()
        reproducible &= shipped[name] == digest
    reproducible &= (first / "figure1_curves.csv").read_bytes() == (DATA_DIR / "figure1_curves.csv").read_bytes()

    ok = min_slack >= -1e-9 and band_ok and attained <= 1e-9 and reproducible
    _criterion(
        4, "torque bound and scan", ok,
        f"min slack {min_slack:.3e} (tol -1e-9), band minima on equator curve: {band_ok}, "
        f"tightness at (1, pi/2, 0) {attained:.3e} (tol 1e-9), reference tables regenerate: {reproducible}",
    )


def test_criterion_05_analytic_vs_numeric_irreality():
    rng = np.random.default_rng(500)
    torque_x = Observable(instantaneous_torque((0.0, 0.0, 1.0), 2.0 * math.pi)[0])
    spin_x = Observable(SIGMA_X)
    worst = 0.0
    for _ in range(1000):
        vec = BlochVector.from_angles(
            rng.uniform(0.0, 1.0), rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)
        )
        rho = bloch_to_state(vec)
        pair = torque_irreality_pair(vec)
        worst = max(
            worst,
            abs(pair.irr_torque - irreality(torque_x, rho).irreality),
            abs(pair.irr_spin - irreality(spin_x, rho).irreality),
        )
    _criterion(5, "analytic vs numeric irreality", worst <= 1e-10, f"max defect {worst:.3e} over 1000 states (tol 1e-10)")


def test_criterion_06_protocol_vs_heisenberg():
    rng = np.random.default_rng(600)
    dephased_gap = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 4))
        a = Observable(oracles.random_hermitian_matrix(dim, rng))
        b = Observable(oracles.random_hermitian_matrix(dim, rng))
        channel = ChannelFamily(oracles.random_hermitian_matrix(dim, rng))
        t1 = rng.uniform(0.0, 1.0)
        t2 = t1 + rng.uniform(0.1, 1.0)
        weights = rng.uniform(0.1, 1.0, len(a.spectrum))
        weights /= weights.sum()
        rho_t1 = sum(w * p / p.trace().real for w, p in zip(weights, a.projectors))
        rho0 = DensityMatrix(channel.propagate_state(rho_t1, -t1))
        op = TwoTimeOperator("product", a, b, t1, t2, channel)
        dephased_gap = max(
            dephased_gap,
            abs(tpm_correlator(a, b, t1, t2, channel, rho0) - heisenberg_correlator(op, rho0)),
        )

    pm1_gap = 0.0
    for _ in range(1000):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        m = rng.standard_normal(3)
        m /= np.linalg.norm(m)
        a = Observable(n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z)
        b = Observable(m[0] * SIGMA_X + m[1] * SIGMA_Y + m[2] * SIGMA_Z)
        channel = ChannelFamily(oracles.random_hermitian_matrix(2, rng))
        t1 = rng.uniform(0.0, 1.0)
        t2 = t1 + rng.uniform(0.1, 1.0)
        rho0 = DensityMatrix(oracles.random_state_matrix(2, rng))
        op = TwoTimeOperator("product", a, b, t1, t2, channel)
        pm1_gap = max(
            pm1_gap,
            abs(tpm_correlator(a, b, t1, t2, channel, rho0) - heisenberg_correlator(op, rho0)),
        )

    fx = qutrit_gap_fixture()
    tpm = tpm_correlator(fx.A, fx.B, fx.t1, fx.t2, fx.channel, fx.rho0)
    heis = heisenberg_correlator(TwoTimeOperator("product", fx.A, fx.B, fx.t1, fx.t2, fx.channel), fx.rho0)
    fixture_gap = abs(tpm - heis)
    h = fx.channel.hamiltonian
    oracle_defect = max(
        abs(tpm - oracles.tpm_bruteforce(fx.A.matrix, fx.B.matrix, h, fx.t1, fx.t2, fx.rho0.matrix)),
        abs(heis - oracles.heisenberg_bruteforce(fx.A.matrix, fx.B.matrix, h, fx.t1, fx.t2, fx.rho0.matrix)),
    )

    ok = dephased_gap <= 1e-10 and pm1_gap <= 1e-10 and fixture_gap > 1e-6 and oracle_defect <= 1e-10
    _criterion(
        6, "protocol vs Heisenberg", ok,
        f"dephased-start gap {dephased_gap:.3e} (tol 1e-10), qubit +-1 gap {pm1_gap:.3e} (tol 1e-10), "
        f"qutrit fixture gap {fixture_gap:.6g} (> 1e-6), oracle defect {oracle_defect:.3e}",
    )


def test_criterion_07_two_time_realism():
    rng = np.random.default_rng(700)
    worst_irr = 0.0
    for index in range(100):
        dim = 2 if index % 2 == 0 else 3
        kind = "product" if index % 4 < 2 else "sum"
        a = Observable(oracles.random_hermitian_matrix(dim, rng))
        b = Observable(oracles.random_hermitian_matrix(dim, rng))
        channel = ChannelFamily(oracles.random_hermitian_matrix(dim, rng))
        t1 = rng.uniform(0.0, 1.0)
        t2 = t1 + rng.uniform(0.1, 1.0)
        op = TwoTimeOperator(kind, a, b, t1, t2, channel)
        realized = realize(op)
        for k in range(len(realized.spectrum)):
            j = irreality(realized, prepare_eigenstate(op, k)).irreality
            worst_irr = max(worst_irr, abs(j))

    from twotime.spinlab import precession_channel

    channel = precession_channel((0.0, 0.0, 1.0))
    sx = Observable(SIGMA_X / 2.0)
    sy = Observable(SIGMA_Y / 2.0)
    worst_prop = 0.0
    for _ in range(50):
        t1, t2 = rng.uniform(0.0, 7.0, 2)
        obs = realize(TwoTimeOperator("product", sx, sy, t1, t2, channel))
        factor = 0.25 * math.sin(t2 - t1)
        worst_prop = max(worst_prop, np.max(np.abs(obs.matrix - factor * np.eye(2))))

    ok = worst_irr <= 1e-10 and worst_prop <= 1e-10
    _criterion(
        7, "two-time realism", ok,
        f"max eigenprep irreality {worst_irr:.3e} (tol 1e-10), "
        f"spin product vs (1/4) sin(dtau) identity {worst_prop:.3e} (tol 1e-10)",
    )


def test_criterion_08_entropic_chain():
    rng = np.random.default_rng(800)
    min_slack = math.inf
    for _ in range(1000):
        vec = BlochVector.from_angles(
            rng.uniform(0.0, 1.0), rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)
        )
        min_slack = min(min_slack, complementarity_bound_check(bloch_to_state(vec)).slack)
    eq_mixed = abs(complementarity_bound_check(DensityMatrix.maximally_mixed(2)).slack)
    eq_plus = abs(complementarity_bound_check(DensityMatrix.from_ket([1.0, 1.0])).slack)
    ok = min_slack >= -1e-10 and eq_mixed <= 1e-10 and eq_plus <= 1e-10
    _criterion(
        8, "entropic chain", ok,
        f"min slack {min_slack:.3e} over 1000 states (tol -1e-10), "
        f"equality at mixed {eq_mixed:.3e} and plus {eq_plus:.3e} (tol 1e-10)",
    )


def test_criterion_09_gaussian_displacement():
    rng = np.random.default_rng(900)
    spread_defect = 0.0
    min_product = math.inf
    min_weighted = math.inf
    for _ in range(1000):
        dx = math.exp(rng.uniform(-1.0, 1.0))
        dp = (0.5 / dx) * math.exp(rng.uniform(0.0, 1.5))
        c_max = math.sqrt(dx**2 * dp**2 - 0.25)
        prep = GaussianPrep(
            x0=rng.uniform(-3.0, 3.0),
            p0=rng.uniform(-3.0, 3.0),
            dx=dx,
            dp=dp,
            xp_corr=rng.uniform(-1.0, 1.0) * 0.999 * c_max,
        )
        particle = FreeParticle(math.exp(rng.uniform(-1.0, 1.0)))
        t1 = rng.uniform(0.0, 2.0)
        t2 = t1 + rng.uniform(0.01, 3.0)
        _, spread = displacement_stats(prep, particle, t1, t2)
        spread_defect = max(spread_defect, abs(spread - prep.dp * (t2 - t1) / particle.mass))
        report = uncertainty_report(prep, particle, t1, t2)
        min_product = min(min_product, report.product_slack)
        min_weighted = min(min_weighted, report.weighted_slack)
    ok = spread_defect == 0.0 and min_product >= -1e-12 and min_weighted >= -1e-12
    _criterion(
        9, "gaussian displacement", ok,
        f"spread formula defect {spread_defect:.1e} (exact), product slack {min_product:.3e}, "
        f"weighted slack {min_weighted:.3e} over 1000 preparations (tol -1e-12)",
    )


def test_criterion_10_min_form_identity():
    rng = np.random.default_rng(1000)
    worst_gap = 0.0
    worst_margin = math.inf
    for index in range(100):
        dim = 2 if index % 2 == 0 else 3
        obs = Observable(oracles.random_hermitian_matrix(dim, rng))
        rho = random_density_matrix(dim, rng)
        report = min_form_check(obs, rho, n_samples=500, seed=int(rng.integers(0, 2**31)))
        worst_gap = max(worst_gap, report.identity_gap)
        worst_margin = min(worst_margin, report.min_margin)
    ok = worst_gap <= 1e-10 and worst_margin >= -1e-10
    _criterion(
        10, "min form identity", ok,
        f"max identity gap {worst_gap:.3e} (tol 1e-10), "
        f"min sampled margin {worst_margin:.3e} over 100 pairs x 500 draws (tol -1e-10)",
    )
