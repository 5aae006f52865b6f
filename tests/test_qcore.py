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
    random_density_matrix,
    relative_entropy,
    state_to_bloch,
    von_neumann_entropy,
)
from twotime.qcore import _bloch_norms, _entropies, _ginibre_states, _relative_entropies, _spectra, _states

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
    # Observable's grouped decomposition, read as (eigenvalue, projector) pairs.

    def test_sigma_z(self):
        spectrum = Observable(SIGMA_Z).spectrum
        assert [val for val, _ in spectrum] == [-1.0, 1.0]
        by_value = {val: proj for val, proj in spectrum}
        assert np.allclose(by_value[1.0], np.diag([1.0, 0.0]), atol=1e-14)
        assert np.allclose(by_value[-1.0], np.diag([0.0, 1.0]), atol=1e-14)

    def test_identity_groups_to_single_projector(self):
        spectrum = Observable(np.eye(2, dtype=complex)).spectrum
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
        spectrum = Observable(product).spectrum
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
                spectrum = Observable(h).spectrum
                rebuilt = sum(val * proj for val, proj in spectrum)
                assert np.max(np.abs(rebuilt - h)) <= 1e-9
                total = sum(proj for _, proj in spectrum)
                assert np.max(np.abs(total - np.eye(dim))) <= 1e-10

    def test_rejects_non_hermitian_with_defect(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match=r"max \|H - H\^dag\|"):
            Observable(bad)

    def test_grouping_tolerance_is_respected(self):
        h = np.diag([0.0, 1e-12, 1.0])
        assert len(Observable(h).spectrum) == 2


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
        assert obs.eigenvalues.tolist() == [2.5]
        assert int(round(obs.projectors[0].trace().real)) == 3




def reference_grouped_spectrum(h):
    # The per-group loop Observable's array path replaced, kept as the bitwise reference.
    eigvals, eigvecs = np.linalg.eigh(h)
    spectrum = []
    start = 0
    for stop in range(1, len(eigvals) + 1):
        if stop == len(eigvals) or eigvals[stop] - eigvals[stop - 1] > 1e-9:
            block = eigvecs[:, start:stop]
            proj = block @ block.conj().T
            proj = (proj + proj.conj().T) / 2.0
            spectrum.append((float(eigvals[start:stop].mean()), proj))
            start = stop
    return spectrum


def forced_spectra(dim, rng):
    # Exact repeats, a 1e-12 split (one group), a 1e-8 split (two groups), c * I and a generic spectrum.
    base = np.sort(rng.uniform(-2.0, 2.0, dim))
    repeats = np.sort(rng.integers(-1, 2, dim).astype(float))
    tiny = base.copy()
    tiny[1] = tiny[0] + 1e-12
    small = base.copy()
    small[1] = small[0] + 1e-8
    return [base, repeats, tiny, small, np.full(dim, rng.uniform(-3.0, 3.0))]


def observable_matrices(dim):
    # 40 generic Hermitian matrices, then each forced spectrum as given and in a random basis.
    rng = np.random.default_rng(1000 + dim)
    matrices = [oracles.random_hermitian_matrix(dim, rng) for _ in range(40)]
    for _ in range(8):
        for values in forced_spectra(dim, rng):
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            matrices += [np.diag(values).astype(complex), q @ np.diag(values) @ q.conj().T]
    return matrices


class TestObservableArrays:
    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_bitwise_equal_to_the_grouping_loop(self, dim):
        groups = set()
        for matrix in observable_matrices(dim):
            obs = Observable(matrix)
            reference = reference_grouped_spectrum(obs.matrix)
            groups.add(len(reference))
            assert obs.eigenvalues.shape == (len(reference),)
            assert obs.projectors.shape == (len(reference), dim, dim)
            assert obs.eigenvalues.tobytes() == np.array([val for val, _ in reference]).tobytes()
            assert obs.projectors.tobytes() == np.array([proj for _, proj in reference]).tobytes()
        assert {1, dim - 1, dim} <= groups

    def test_arrays_are_read_only(self):
        obs = Observable(SIGMA_X)
        with pytest.raises(ValueError):
            obs.eigenvalues[0] = 2.0
        with pytest.raises(ValueError):
            obs.projectors[0, 0, 0] = 2.0


class TestSpectraStack:
    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_stack_is_bitwise_each_observable(self, dim):
        matrices = observable_matrices(dim)
        m, values, projectors = _spectra(np.array(matrices))
        assert values.shape == (len(matrices), dim) and projectors.shape == (len(matrices), dim, dim, dim)
        padded_slots = 0
        for k, matrix in enumerate(matrices):
            obs = Observable(matrix)
            groups = np.flatnonzero(projectors[k].any(axis=(1, 2)))
            assert m[k].tobytes() == obs.matrix.tobytes()
            assert values[k, groups].tobytes() == obs.eigenvalues.tobytes()
            assert projectors[k, groups].tobytes() == obs.projectors.tobytes()
            # The freed slots of merged eigenvalues hold zero projectors, and the stack still resolves 1.
            padded = np.setdiff1d(np.arange(dim), groups)
            assert np.all(projectors[k, padded] == 0.0)
            assert np.max(np.abs(projectors[k].sum(axis=0) - np.eye(dim))) <= 1e-10
            padded_slots += len(padded)
        assert padded_slots > 0

    @pytest.mark.parametrize(
        "bad",
        [np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[np.nan, 0.0], [0.0, 1.0]])],
        ids=["non-hermitian", "nan"],
    )
    def test_one_bad_matrix_in_the_middle_is_rejected(self, bad):
        with pytest.raises(ValueError, match=r"observable is not Hermitian: max \|H - H\^dag\|"):
            _spectra(np.array([SIGMA_X, bad, SIGMA_Z], dtype=complex))

    def test_projector_checks_name_the_first_failing_matrix(self, monkeypatch):
        eigh = np.linalg.eigh

        def stretched(a):
            # Eigenvectors of the second matrix scaled by 2: projectors 4 P, neither idempotent nor summing to 1.
            values, vectors = eigh(a)
            vectors[1:] *= 2.0
            return values, vectors

        monkeypatch.setattr(np.linalg, "eigh", stretched)
        with pytest.raises(ValueError, match="projectors are not orthogonal/idempotent: matrix 1 of 3"):
            _spectra(np.array([SIGMA_X, SIGMA_Y, SIGMA_Z]))


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
        _, spectrum = _states(np.array(etas), vectors=True)
        values = _relative_entropies(rho.matrix, von_neumann_entropy(rho), *spectrum)
        expected = [oracles.relative_entropy_logm(rho.matrix, eta) for eta in etas]
        assert abs(values[0] - expected[0]) <= 1e-10
        assert abs(values[1]) <= 1e-12 and abs(expected[1]) <= 1e-10
        assert values[2] == expected[2] == math.inf
        for value, eta in zip(values, etas):
            assert value == relative_entropy(rho, DensityMatrix(eta))
        # The kernel scores rho and the etas in any one common basis alike, as min_form_check uses it.
        u = np.linalg.qr(oracles.random_hermitian_matrix(3, rng))[0]
        _, rotated = _states(u.conj().T @ np.array(etas) @ u, vectors=True)
        in_frame = _relative_entropies(u.conj().T @ rho.matrix @ u, von_neumann_entropy(rho), *rotated)
        assert np.all(np.abs(in_frame[:2] - values[:2]) <= 1e-12) and in_frame[2] == math.inf

    def test_state_check_with_vectors_is_one_eigh(self):
        stack = _ginibre_states(4, 5, np.random.default_rng(8))
        m, eigs = _states(stack)
        m_v, (eigs_v, vectors) = _states(stack, vectors=True)
        assert np.array_equal(m, m_v) and np.max(np.abs(eigs - eigs_v)) <= 1e-15
        assert np.max(np.abs(vectors @ (eigs_v[..., None] * vectors.conj().swapaxes(1, 2)) - m)) <= 1e-14
        with pytest.raises(ValueError, match="positive semidefinite"):
            _states(np.array([np.eye(2) / 2.0, np.diag([1.5, -0.5])], dtype=complex), vectors=True)

    def test_stacked_entropies_are_von_neumann_entropy_of_each_row(self):
        # Full-rank, rank-deficient (zero and roundoff-negative eigenvalues) and pure rows, d < 8.
        rng = np.random.default_rng(12)
        states = [oracles.random_state_matrix(3, rng), np.diag([0.5, 0.5, 0.0]), np.diag([1.0, 0.0, 0.0])]
        states.append(np.diag([0.6, 0.4 + 5e-11, -5e-11]))
        rhos = [DensityMatrix(m) for m in states]
        values = _entropies(np.array([rho.eigenvalues() for rho in rhos]))
        for value, rho in zip(values, rhos):
            p = rho.eigenvalues()[rho.eigenvalues() > 0.0]
            assert value == von_neumann_entropy(rho) == max(float(-(p * np.log(p)).sum()), 0.0)
        assert math.copysign(1.0, values[2]) == -1.0  # the pure state's -0.0 is kept


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

    def test_radius_is_bitwise_np_linalg_norm(self):
        rng = np.random.default_rng(89)
        vectors = rng.uniform(-1.0, 1.0, (5000, 3)) * rng.uniform(0.0, 1.0, (5000, 1)) / math.sqrt(3.0)
        assert [BlochVector(v).r for v in vectors] == [float(np.linalg.norm(v)) for v in vectors]

    @pytest.mark.parametrize("bad", [(1.0, 1e-5, 0.0), (math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0)])
    def test_ball_check_is_shared_by_the_vector_and_the_row_kernel(self, bad):
        message = "Bloch vector norm .* is not finite or exceeds 1"
        with pytest.raises(ValueError, match=message):
            _bloch_norms(np.array([(0.1, 0.2, 0.3), bad]))
        with pytest.raises(ValueError, match=message):
            BlochVector(bad)
        assert _bloch_norms(np.array([(0.6, 0.0, 0.8)])).tolist() == [1.0]

    def test_rejects_non_qubit_state(self):
        with pytest.raises(ValueError, match="qubit"):
            state_to_bloch(DensityMatrix.maximally_mixed(3))

    def test_angles(self):
        vec = BlochVector.from_angles(0.7, 1.1, 2.3)
        assert vec.r == pytest.approx(0.7, abs=1e-12)
        assert vec.theta == pytest.approx(1.1, abs=1e-12)
        assert vec.phi == pytest.approx(2.3, abs=1e-12)
