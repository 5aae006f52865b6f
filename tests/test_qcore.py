import math

import numpy as np
import pytest

import oracles
from twotime.qcore import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BlochVector,
    DensityMatrix,
    Observable,
    binary_entropy,
    bloch_to_state,
    random_bloch_states,
    random_density_matrix,
    relative_entropy,
    spectral_decompose,
    state_to_bloch,
    von_neumann_entropy,
)
from twotime.qcore import _ginibre_states, _relative_entropies, _states

LN2 = math.log(2.0)
# -0.9 ln 0.9 - 0.1 ln 0.1, evaluated directly
HBIN_09 = 0.3250829733914482


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_from_ket_normalizes(self):
        rho = DensityMatrix.from_ket([3.0, 4.0])
        assert rho.purity() == pytest.approx(1.0, abs=1e-14)
        assert np.isclose(rho.matrix[0, 0], 9.0 / 25.0)

    def test_invariants_on_random_states(self):
        rng = np.random.default_rng(11)
        for dim in (2, 3, 4):
            for _ in range(50):
                rho = random_density_matrix(dim, rng)
                assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) <= 1e-12
                assert abs(rho.matrix.trace() - 1.0) <= 1e-12
                assert rho.eigenvalues()[0] >= -1e-10

    def test_matrix_is_read_only(self):
        rho = DensityMatrix.maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0


class TestSpectralDecompose:
    def test_sigma_z(self):
        spectrum = spectral_decompose(SIGMA_Z)
        assert [val for val, _ in spectrum] == [-1.0, 1.0]
        by_value = {val: proj for val, proj in spectrum}
        assert np.allclose(by_value[1.0], np.diag([1.0, 0.0]), atol=1e-14)
        assert np.allclose(by_value[-1.0], np.diag([0.0, 1.0]), atol=1e-14)

    def test_identity_groups_to_single_projector(self):
        spectrum = spectral_decompose(np.eye(2, dtype=complex))
        assert len(spectrum) == 1
        val, proj = spectrum[0]
        assert val == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(proj, np.eye(2), atol=1e-12)

    def test_spin_product_at_quarter_turn_is_identity(self):
        # 2x2 matrix-product oracle: sigma_x at tau=0 anticommuted with
        # sigma_y at tau=pi/2 under z precession gives sin(pi/2) * identity.
        sx_0 = SIGMA_X
        sy_quarter = SIGMA_Y * math.cos(math.pi / 2) + SIGMA_X * math.sin(math.pi / 2)
        product = 0.5 * (sx_0 @ sy_quarter + sy_quarter @ sx_0)
        spectrum = spectral_decompose(product)
        assert len(spectrum) == 1
        val, proj = spectrum[0]
        assert val == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(proj, np.eye(2), atol=1e-12)

    def test_reconstruction_on_random_hermitian(self):
        rng = np.random.default_rng(5)
        for dim in (2, 3, 4):
            for _ in range(340):
                g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                h = (g + g.conj().T) / 2.0
                spectrum = spectral_decompose(h)
                rebuilt = sum(val * proj for val, proj in spectrum)
                assert np.max(np.abs(rebuilt - h)) <= 1e-9
                total = sum(proj for _, proj in spectrum)
                assert np.max(np.abs(total - np.eye(dim))) <= 1e-10

    def test_rejects_non_hermitian_with_defect(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match=r"max \|H - H\^dag\|"):
            spectral_decompose(bad)

    def test_grouping_tolerance_is_respected(self):
        h = np.diag([0.0, 1e-12, 1.0])
        assert len(spectral_decompose(h, group_tol=1e-9)) == 2
        assert len(spectral_decompose(h, group_tol=1e-14)) == 3


class TestObservable:
    def test_projector_properties(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        obs = Observable((g + g.conj().T) / 2.0)
        for proj in obs.projectors:
            assert np.max(np.abs(proj @ proj - proj)) <= 1e-10
        rebuilt = sum(v * p for v, p in obs.spectrum)
        assert np.max(np.abs(rebuilt - obs.matrix)) <= 1e-10

    def test_degenerate_observable(self):
        obs = Observable(np.eye(3, dtype=complex) * 2.5)
        assert obs.eigenvalues == (2.5,)
        assert int(round(obs.projectors[0].trace().real)) == 3


class TestEntropies:
    def test_pure_state_entropy_zero(self):
        assert von_neumann_entropy(DensityMatrix.from_ket([1, 1j])) == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(DensityMatrix.maximally_mixed(2)) == pytest.approx(LN2, abs=1e-14)

    def test_bloch_radius_08(self):
        rho = bloch_to_state((0.0, 0.0, 0.8))
        assert von_neumann_entropy(rho) == pytest.approx(HBIN_09, abs=1e-12)

    def test_relative_entropy_self_is_zero(self):
        rng = np.random.default_rng(17)
        for dim in (2, 3):
            rho = random_density_matrix(dim, rng)
            assert relative_entropy(rho, rho) <= 1e-10

    def test_relative_entropy_pure_vs_mixed(self):
        rho = DensityMatrix.from_ket([1, 0])
        assert relative_entropy(rho, DensityMatrix.maximally_mixed(2)) == pytest.approx(LN2, abs=1e-12)

    def test_relative_entropy_disjoint_supports(self):
        zero = DensityMatrix.from_ket([1, 0])
        one = DensityMatrix.from_ket([0, 1])
        assert relative_entropy(zero, one) == math.inf

    def test_relative_entropy_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            relative_entropy(DensityMatrix.maximally_mixed(2), DensityMatrix.maximally_mixed(3))

    def test_relative_entropy_positive_for_distinct_states(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            rho = random_density_matrix(3, rng)
            eta = random_density_matrix(3, rng)
            gap = np.max(np.abs(rho.matrix - eta.matrix))
            value = relative_entropy(rho, eta)
            assert value >= 0.0
            if gap > 1e-3:
                assert value > 1e-8


class TestStateStacks:
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_ginibre_stack_is_successive_draws_bitwise(self, dim):
        stacked, eigs = _states(_ginibre_states(dim, 70, np.random.default_rng(dim)))
        rng = np.random.default_rng(dim)
        for k in range(70):
            one = random_density_matrix(dim, rng)
            assert np.array_equal(stacked[k], one.matrix)
            assert np.array_equal(eigs[k], one.eigenvalues())

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.array([[0.5, 0.1], [0.0, 0.5]]), "Hermitian"),
            (np.eye(2) * 0.6, "trace"),
            (np.diag([1.5, -0.5]), "positive semidefinite"),
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), "Hermitian"),
        ],
    )
    def test_stack_check_rejects_one_bad_matrix(self, bad, message):
        stack = np.array([np.eye(2) / 2.0, bad, np.eye(2) / 2.0], dtype=complex)
        with pytest.raises(ValueError, match=message):
            _states(stack)

    def test_relative_entropy_kernel_matches_logm_oracle(self):
        # rho has rank 2 in d = 3; the stack holds a full-rank eta, eta = rho and an eta on rho's null space.
        rng = np.random.default_rng(31)
        kets = np.linalg.qr(oracles.random_hermitian_matrix(3, rng))[0].T
        rho = DensityMatrix(0.7 * np.outer(kets[0], kets[0].conj()) + 0.3 * np.outer(kets[1], kets[1].conj()))
        etas = [random_density_matrix(3, rng).matrix, rho.matrix, np.outer(kets[2], kets[2].conj())]
        values = _relative_entropies(rho, _states(np.array(etas))[0])
        expected = [oracles.relative_entropy_logm(rho.matrix, eta) for eta in etas]
        assert abs(values[0] - expected[0]) <= 1e-10
        assert abs(values[1]) <= 1e-12 and abs(expected[1]) <= 1e-10
        assert values[2] == expected[2] == math.inf
        for value, eta in zip(values, etas):
            assert value == relative_entropy(rho, DensityMatrix(eta))


class TestBinaryEntropy:
    @pytest.mark.parametrize("u", [0.0, 1.0])
    def test_degenerate(self, u):
        assert binary_entropy(u) == 0.0

    def test_uniform(self):
        assert binary_entropy(0.5) == pytest.approx(LN2, abs=1e-15)

    def test_frozen_value(self):
        assert binary_entropy(0.9) == pytest.approx(HBIN_09, abs=1e-15)

    def test_symmetry(self):
        for u in np.linspace(0.0, 1.0, 21):
            assert binary_entropy(u) == pytest.approx(binary_entropy(1.0 - u), abs=1e-14)

    def test_clamps_tiny_overshoot(self):
        assert binary_entropy(1.0 + 5e-13) == 0.0
        assert binary_entropy(-5e-13) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(1.001)


class TestBloch:
    def test_north_pole(self):
        rho = bloch_to_state((0, 0, 1))
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-14)

    def test_center_is_maximally_mixed(self):
        rho = bloch_to_state((0, 0, 0))
        assert np.allclose(rho.matrix, np.eye(2) / 2.0, atol=1e-14)

    def test_purity_matches_radius(self):
        vec = BlochVector.from_angles(0.5, math.pi / 2, 0.0)
        assert bloch_to_state(vec).purity() == pytest.approx(0.625, abs=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            vec = rng.uniform(-1.0, 1.0, 3)
            vec *= rng.uniform(0.0, 1.0) / max(np.linalg.norm(vec), 1e-12)
            back = state_to_bloch(bloch_to_state(vec))
            assert np.max(np.abs(back.components - vec)) <= 1e-12

    def test_rejects_long_vector(self):
        with pytest.raises(ValueError, match="norm"):
            BlochVector((1.0, 1.0, 0.0))

    def test_rejects_non_qubit_state(self):
        with pytest.raises(ValueError, match="qubit"):
            state_to_bloch(DensityMatrix.maximally_mixed(3))

    def test_angles(self):
        vec = BlochVector.from_angles(0.7, 1.1, 2.3)
        assert vec.r == pytest.approx(0.7, abs=1e-12)
        assert vec.theta == pytest.approx(1.1, abs=1e-12)
        assert vec.phi == pytest.approx(2.3, abs=1e-12)


class TestRandomBlochStates:
    def test_fixed_norm(self):
        for vec in random_bloch_states(0.8, 5, seed=42):
            assert abs(vec.r - 0.8) <= 1e-12

    def test_seed_determinism(self):
        first = random_bloch_states(0.6, 20, seed=7001)
        second = random_bloch_states(0.6, 20, seed=7001)
        for a, b in zip(first, second):
            assert np.array_equal(a.components, b.components)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            random_bloch_states(1.5, 3, seed=0)

    def test_angle_distribution_moments(self):
        # Uniform phi on [0, 2pi): mean pi, std (2pi)/sqrt(12); 3-sigma check.
        n = 100_000
        states = random_bloch_states(1.0, n, seed=99)
        phis = np.array([v.phi for v in states])
        thetas = np.array([v.theta for v in states])
        assert abs(phis.mean() - math.pi) <= 3.0 * (2.0 * math.pi / math.sqrt(12.0)) / math.sqrt(n)
        assert abs(thetas.mean() - math.pi / 2.0) <= 3.0 * (math.pi / math.sqrt(12.0)) / math.sqrt(n)
