import math

import numpy as np
import pytest

import oracles
from twotime.qcore import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    Observable,
    bloch_to_state,
    random_bloch_states,
    random_density_matrix,
    relative_entropy,
    von_neumann_entropy,
)
from twotime.realism import (
    MIN_FORM_BLOCK,
    MinFormReport,
    complementarity_bound_check,
    dephase,
    irreality,
    min_form_check,
)

LN2 = math.log(2.0)


class TestDephase:
    def test_erases_coherence(self):
        plus = DensityMatrix.from_ket([1.0, 1.0])
        out = dephase(Observable(SIGMA_Z), plus)
        assert np.max(np.abs(out.matrix - np.eye(2) / 2.0)) <= 1e-14

    def test_eigenstate_fixed_point(self):
        obs = Observable(SIGMA_Z)
        for ket in ([1.0, 0.0], [0.0, 1.0]):
            rho = DensityMatrix.from_ket(ket)
            assert np.max(np.abs(dephase(obs, rho).matrix - rho.matrix)) <= 1e-14

    def test_composed_x_then_y_fully_depolarizes(self):
        x_obs = Observable(SIGMA_X)
        y_obs = Observable(SIGMA_Y)
        rng = np.random.default_rng(70)
        for _ in range(30):
            rho = random_density_matrix(2, rng)
            out = dephase(y_obs, dephase(x_obs, rho))
            assert np.max(np.abs(out.matrix - np.eye(2) / 2.0)) <= 1e-12

    def test_idempotent_and_commutes_with_projectors(self):
        rng = np.random.default_rng(71)
        obs = Observable(oracles.random_hermitian_matrix(3, rng))
        rho = random_density_matrix(3, rng)
        once = dephase(obs, rho)
        twice = dephase(obs, once)
        assert np.max(np.abs(once.matrix - twice.matrix)) <= 1e-12
        for proj in obs.projectors:
            assert np.max(np.abs(proj @ once.matrix - once.matrix @ proj)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            dephase(Observable(SIGMA_Z), DensityMatrix.maximally_mixed(3))


class TestIrreality:
    def test_spin_z_real_in_up_state(self):
        report = irreality(Observable(SIGMA_Z / 2.0), DensityMatrix.from_ket([1, 0]))
        assert abs(report.irreality) <= 1e-12

    def test_spin_x_maximally_unreal_in_up_state(self):
        report = irreality(Observable(SIGMA_X / 2.0), DensityMatrix.from_ket([1, 0]))
        assert report.irreality == pytest.approx(LN2, abs=1e-12)

    def test_maximally_mixed_state_realizes_everything(self):
        rng = np.random.default_rng(72)
        for dim in (2, 3, 4):
            for _ in range(10):
                obs = Observable(oracles.random_hermitian_matrix(dim, rng))
                report = irreality(obs, DensityMatrix.maximally_mixed(dim))
                assert abs(report.irreality) <= 1e-12

    def test_report_is_entropy_difference(self):
        rng = np.random.default_rng(73)
        obs = Observable(oracles.random_hermitian_matrix(3, rng))
        rho = random_density_matrix(3, rng)
        report = irreality(obs, rho)
        assert report.irreality == report.entropy_dephased - report.entropy_state
        assert report.entropy_state == pytest.approx(von_neumann_entropy(rho), abs=0.0)

    def test_non_negative_and_zero_iff_fixed_point(self):
        rng = np.random.default_rng(74)
        for _ in range(100):
            dim = int(rng.integers(2, 4))
            obs = Observable(oracles.random_hermitian_matrix(dim, rng))
            rho = random_density_matrix(dim, rng)
            report = irreality(obs, rho)
            assert report.irreality >= -1e-10
            fixed = np.max(np.abs(dephase(obs, rho).matrix - rho.matrix)) <= 1e-8
            if fixed:
                assert report.irreality <= 1e-8
            if report.irreality <= 1e-10:
                assert np.max(np.abs(dephase(obs, rho).matrix - rho.matrix)) <= 1e-8

    def test_dephasing_never_decreases_entropy(self):
        rng = np.random.default_rng(75)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            obs = Observable(oracles.random_hermitian_matrix(dim, rng))
            rho = random_density_matrix(dim, rng)
            assert von_neumann_entropy(dephase(obs, rho)) >= von_neumann_entropy(rho) - 1e-12

    def test_fixed_point_iff_commuting(self):
        rng = np.random.default_rng(76)
        obs = Observable(oracles.random_hermitian_matrix(3, rng))
        # commuting preparation: mixture of the eigenprojectors
        weights = np.array([0.5, 0.3, 0.2])
        commuting = DensityMatrix(sum(w * p / p.trace().real for w, p in zip(weights, obs.projectors)))
        assert np.max(np.abs(dephase(obs, commuting).matrix - commuting.matrix)) <= 1e-12
        generic = random_density_matrix(3, rng)
        commutes = all(
            np.max(np.abs(p @ generic.matrix - generic.matrix @ p)) <= 1e-10 for p in obs.projectors
        )
        assert not commutes
        assert np.max(np.abs(dephase(obs, generic).matrix - generic.matrix)) > 1e-8


def per_sample_min_form(A, rho, n_samples, seed):
    """min_form_check one sample at a time: successive random_density_matrix draws, each dephased and scored."""
    j = irreality(A, rho).irreality
    rng = np.random.default_rng(seed)
    values = [relative_entropy(rho, dephase(A, random_density_matrix(rho.dim, rng))) for _ in range(n_samples)]
    margins = [value - j for value in values if not math.isinf(value)]
    return MinFormReport(
        irreality=j,
        identity_gap=abs(relative_entropy(rho, dephase(A, rho)) - j),
        min_margin=min(margins, default=math.inf),
        infinite_samples=len(values) - len(margins),
        n_samples=n_samples,
    )


class TestMinForm:
    @pytest.mark.parametrize("n_samples", [1, MIN_FORM_BLOCK - 1, MIN_FORM_BLOCK, MIN_FORM_BLOCK + 1, 500])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_blocks_match_the_per_sample_loop(self, dim, n_samples):
        rng = np.random.default_rng(dim * 1000 + n_samples)
        obs = Observable(oracles.random_hermitian_matrix(dim, rng))
        rho = random_density_matrix(dim, rng)
        report = min_form_check(obs, rho, n_samples=n_samples, seed=n_samples)
        expected = per_sample_min_form(obs, rho, n_samples, n_samples)
        assert (report.infinite_samples, report.n_samples) == (expected.infinite_samples, expected.n_samples)
        for field in ("irreality", "identity_gap", "min_margin"):
            assert abs(getattr(report, field) - getattr(expected, field)) <= 1e-12

    def test_every_sample_is_checked_twice(self, monkeypatch):
        # Each sampled state and its dephased image go through the eigenvalue check.
        obs = Observable(SIGMA_X)
        rho = DensityMatrix.from_ket([1.0, 0.0])
        eigvalsh = np.linalg.eigvalsh
        checked = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: checked.append(len(a)) or eigvalsh(a))
        min_form_check(obs, rho, n_samples=0)
        without_samples = sum(checked)
        checked.clear()
        min_form_check(obs, rho, n_samples=MIN_FORM_BLOCK + 1)
        assert sum(checked) - without_samples == 2 * (MIN_FORM_BLOCK + 1)
        assert max(checked) == MIN_FORM_BLOCK

    def test_rejects_negative_sample_count(self):
        with pytest.raises(ValueError, match="n_samples"):
            min_form_check(Observable(SIGMA_X), DensityMatrix.maximally_mixed(2), n_samples=-3)

    def test_zero_samples(self):
        report = min_form_check(Observable(SIGMA_X), DensityMatrix.maximally_mixed(2), n_samples=0)
        assert (report.min_margin, report.infinite_samples, report.n_samples) == (math.inf, 0, 0)

    def test_identity_and_sampled_minimum(self):
        rng = np.random.default_rng(77)
        for dim in (2, 3):
            obs = Observable(oracles.random_hermitian_matrix(dim, rng))
            rho = random_density_matrix(dim, rng)
            report = min_form_check(obs, rho, n_samples=200, seed=5)
            assert report.identity_gap <= 1e-10
            assert report.min_margin >= -1e-10

    def test_maximally_mixed_sigma_margin(self):
        # S(rho || 1/d) = ln d - S(rho), so the margin is ln d - S(Phi_A(rho)).
        rng = np.random.default_rng(78)
        obs = Observable(oracles.random_hermitian_matrix(2, rng))
        rho = random_density_matrix(2, rng)
        j = irreality(obs, rho)
        value = relative_entropy(rho, dephase(obs, DensityMatrix.maximally_mixed(2)))
        assert value - j.irreality == pytest.approx(LN2 - j.entropy_dephased, abs=1e-12)
        assert value >= j.irreality - 1e-10

    def test_disjoint_support_sigma_counts_as_satisfying(self):
        obs = Observable(SIGMA_Z)
        rho = DensityMatrix.from_ket([1, 0])
        sigma = DensityMatrix.from_ket([0, 1])
        assert relative_entropy(rho, dephase(obs, sigma)) == math.inf


class TestComplementarityBound:
    def test_maximally_mixed_equality(self):
        report = complementarity_bound_check(DensityMatrix.maximally_mixed(2))
        assert abs(report.slack) <= 1e-12
        assert report.lhs == pytest.approx(2.0 * LN2, abs=1e-12)

    def test_plus_state_equality(self):
        report = complementarity_bound_check(DensityMatrix.from_ket([1.0, 1.0]))
        assert abs(report.slack) <= 1e-10
        assert report.entropy_first == pytest.approx(0.0, abs=1e-12)
        assert report.entropy_second == pytest.approx(LN2, abs=1e-12)

    def test_holds_over_random_states(self):
        for vec in random_bloch_states(0.9, 500, seed=2024) + random_bloch_states(0.4, 500, seed=2025):
            report = complementarity_bound_check(bloch_to_state(vec))
            assert report.slack >= -1e-10

    def test_equality_on_the_x_and_y_axes_even_for_mixed_states(self):
        for radius in (0.2, 0.5, 1.0):
            for axis in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)):
                vec = radius * np.array(axis)
                report = complementarity_bound_check(bloch_to_state(vec))
                assert abs(report.slack) <= 1e-10

    def test_strict_inequality_off_the_axes(self):
        for vec in [(0.5, 0.5, 0.0), (0.0, 0.4, 0.4), (0.4, 0.0, 0.4), (0.46, 0.46, 0.46)]:
            report = complementarity_bound_check(bloch_to_state(vec))
            assert report.slack > 1e-4

    def test_general_pair_requires_depolarizing_composition(self):
        rho = DensityMatrix.maximally_mixed(2)
        with pytest.raises(ValueError, match="maximally mixed"):
            complementarity_bound_check(rho, Observable(SIGMA_X), Observable(SIGMA_X))

    def test_general_pair_accepts_conjugate_bases(self):
        report = complementarity_bound_check(
            DensityMatrix.from_ket([1.0, 0.0]), Observable(SIGMA_Z), Observable(SIGMA_X)
        )
        assert report.slack >= -1e-10

    def test_rejects_non_qubit_default(self):
        with pytest.raises(ValueError, match="qubit"):
            complementarity_bound_check(DensityMatrix.maximally_mixed(3))
