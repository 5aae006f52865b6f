import math

import numpy as np
import pytest
import scipy.linalg

import oracles
from twotime.qcore import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    STACK_BLOCK,
    BlochVector,
    DensityMatrix,
    Observable,
    bloch_to_state,
    random_density_matrix,
    relative_entropy,
    von_neumann_entropy,
)
from twotime.realism import (
    MinFormReport,
    complementarity_bound_check,
    dephase,
    irreality,
    min_form_check,
)

LN2 = math.log(2.0)


def bloch_vectors(r, n, seed):
    # n Bloch vectors of norm r with theta ~ U[0, pi] and phi ~ U[0, 2 pi): uniform in the angles.
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, math.pi, n)
    phis = rng.uniform(0.0, 2.0 * math.pi, n)
    return [BlochVector.from_angles(r, t, p) for t, p in zip(thetas, phis)]


def composed_dephasing_depolarizes(first, second):
    # Phi_second(Phi_first(E_ij)) = delta_ij * identity / d for every matrix unit E_ij, within 1e-10.
    d = first.dim
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    targets = np.eye(d).reshape(d * d, 1, 1) * np.eye(d) / d
    once = sum(p @ units @ p for p in first.projectors)
    twice = sum(p @ once @ p for p in second.projectors)
    return bool(np.max(np.abs(twice - targets)) <= 1e-10)


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


def assert_matches_per_sample_min_form(A, rho, n_samples, seed):
    report = min_form_check(A, rho, n_samples=n_samples, seed=seed)
    expected = per_sample_min_form(A, rho, n_samples, seed)
    assert (report.infinite_samples, report.n_samples) == (expected.infinite_samples, expected.n_samples)
    for field in ("irreality", "identity_gap", "min_margin"):
        assert abs(getattr(report, field) - getattr(expected, field)) <= 1e-12


class TestMinForm:
    @pytest.mark.parametrize("n_samples", [1, STACK_BLOCK - 1, STACK_BLOCK, STACK_BLOCK + 1, 500])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_blocks_match_the_per_sample_loop(self, dim, n_samples):
        rng = np.random.default_rng(dim * 1000 + n_samples)
        obs = Observable(oracles.random_hermitian_matrix(dim, rng))
        assert_matches_per_sample_min_form(obs, random_density_matrix(dim, rng), n_samples, n_samples)

    def test_every_sample_is_checked_twice(self, monkeypatch):
        # Each sampled state goes through eigvalsh, and its dephased image through one eigh that serves
        # both its state check and its relative entropy; no call takes more than STACK_BLOCK matrices.
        obs = Observable(SIGMA_X)
        rho = DensityMatrix.from_ket([1.0, 0.0])
        counted = {"eigvalsh": [], "eigh": []}
        for name, calls in counted.items():
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, s=solver, c=calls: c.append(math.prod(np.shape(a)[:-2])) or s(a))
        min_form_check(obs, rho, n_samples=0)
        without_samples = {name: sum(calls) for name, calls in counted.items()}
        for calls in counted.values():
            calls.clear()
        min_form_check(obs, rho, n_samples=STACK_BLOCK + 1)
        for name, calls in counted.items():
            assert sum(calls) - without_samples[name] == STACK_BLOCK + 1
            assert max(calls) == STACK_BLOCK

    def test_dephased_images_pass_the_psd_check(self, monkeypatch):
        # Shifting the eigenvalues of the sample blocks' eigh below PSD_FLOOR must fail the state check.
        eigh = np.linalg.eigh

        def shifted(a):
            values, vectors = eigh(a)
            return (values - 1.0 if np.ndim(a) == 3 and len(a) > 1 else values), vectors

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        with pytest.raises(ValueError, match="positive semidefinite"):
            min_form_check(Observable(SIGMA_X), DensityMatrix.maximally_mixed(2), n_samples=2)

    @pytest.mark.parametrize("case", ["multiple of identity", "two rank-2 groups", "degenerate d=8", "pure state"])
    def test_eigenframe_matches_the_per_sample_loop(self, case):
        # A's eigenspace frame on degenerate A (a single group, rank-2 groups) and on a pure rho.
        rng = np.random.default_rng(len(case))
        spectrum = {"multiple of identity": [2.5] * 3, "two rank-2 groups": [1.0, 1.0, -1.0, -1.0],
                    "degenerate d=8": [0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 3.0], "pure state": [0.3, -1.2, 2.0, 0.7]}[case]
        u = np.linalg.qr(oracles.random_hermitian_matrix(len(spectrum), rng))[0]
        obs = Observable(u @ np.diag(spectrum) @ u.conj().T)
        assert len(obs.eigenvalues) == len(set(spectrum))
        if case == "pure state":
            rho = DensityMatrix.from_ket(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        else:
            rho = random_density_matrix(len(spectrum), rng)
        assert_matches_per_sample_min_form(obs, rho, STACK_BLOCK + 1, 3)

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
        for vec in bloch_vectors(0.9, 500, seed=2024) + bloch_vectors(0.4, 500, seed=2025):
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

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_overlap_admission_matches_the_composed_dephasing(self, dim):
        # Pairs in Fourier-conjugate bases (mutually unbiased), the same tilted by a 1e-6 rotation or with a degenerate
        # partner, and random pairs: admitted exactly when Phi_B Phi_A depolarizes, with c = max_ab ||alpha_a beta_b||^2
        # in [1/d, 1].
        rng = np.random.default_rng(280 + dim)
        fourier = np.exp(2j * np.pi * np.outer(np.arange(dim), np.arange(dim)) / dim) / np.sqrt(dim)
        rho = DensityMatrix.maximally_mixed(dim)
        admitted = []
        for kind in ["unbiased"] * 10 + ["tilted", "degenerate", "random"] * 10:
            frame = np.linalg.qr(oracles.random_hermitian_matrix(dim, rng))[0]
            partner = np.linalg.qr(oracles.random_hermitian_matrix(dim, rng))[0] if kind == "random" else frame @ fourier
            if kind == "tilted":
                partner = partner @ scipy.linalg.expm(-1e-6j * oracles.random_hermitian_matrix(dim, rng))
            spectrum = np.arange(dim) + rng.uniform(0.0, 0.5, dim)
            if kind == "degenerate":
                spectrum[1] = spectrum[0]
            first = Observable(frame @ np.diag(np.arange(dim) + rng.uniform(0.0, 0.5, dim)) @ frame.conj().T)
            second = Observable(partner @ np.diag(spectrum) @ partner.conj().T)
            c = max(np.linalg.eigvalsh(a @ b @ a)[-1] for a in first.projectors for b in second.projectors)
            assert 1.0 / dim - 1e-12 <= c <= 1.0 + 1e-12
            depolarizes = composed_dephasing_depolarizes(first, second)
            assert depolarizes == (kind == "unbiased") == (c <= 1.0 / dim + 1e-10)
            try:
                complementarity_bound_check(rho, first, second)
                admitted.append(True)
            except ValueError as exc:
                assert str(exc) == "composed dephasings of the pair do not yield the maximally mixed state"
                admitted.append(False)
            assert admitted[-1] == depolarizes
        assert admitted == [True] * 10 + [False] * 30

    def test_general_pair_accepts_conjugate_bases(self):
        report = complementarity_bound_check(
            DensityMatrix.from_ket([1.0, 0.0]), Observable(SIGMA_Z), Observable(SIGMA_X)
        )
        assert report.slack >= -1e-10

    def test_rejects_non_qubit_default(self):
        with pytest.raises(ValueError, match="qubit"):
            complementarity_bound_check(DensityMatrix.maximally_mixed(3))

    @pytest.mark.parametrize("given", ["first", "second"])
    def test_rejects_a_single_observable(self, given):
        with pytest.raises(ValueError, match="both observables"):
            complementarity_bound_check(DensityMatrix.maximally_mixed(2), **{given: Observable(SIGMA_Z)})
