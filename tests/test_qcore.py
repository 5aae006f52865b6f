import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import solvers
from twotime import cli, qcore
from twotime.correlators import _tpm_gaps, qutrit_gap_fixture, tpm_joint_distribution
from twotime.qcore import (
    MEASUREMENT_TOL,
    PSD_FLOOR,
    SIGMA,
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
    von_neumann_entropy,
)
from twotime.qcore import _bloch_norms, _entropies, _ginibres, _relative_entropies, _spectra, _states

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

    @pytest.mark.parametrize("ket, scaled", [([1e300, 1e300], [1.0, 1.0]), ([1e-200, 0.0], [1.0, 0.0]),
                                             ([1e-170, 1e-170], [1.0, 1.0]), ([5e-324, 0.0], [1.0, 0.0]),
                                             ([1e-310, 1e-310j], [2.0**1000 * 1e-310, 2.0**1000 * 1e-310j]),
                                             ([1.5e308 + 1.5e308j, 0.0], [2.0**-1000 * (1.5e308 + 1.5e308j), 0.0])])
    def test_from_ket_accepts_kets_whose_squares_leave_the_float_range(self, ket, scaled):
        # Every ket is scaled by the power of two that puts its largest real or imaginary part in [0.5, 1) before its
        # norm is taken: a ket and its multiple by a power of two give the same state, as do kets of equal parts. The
        # modulus |1.5e308 + 1.5e308j| itself overflows. Any RuntimeWarning fails the test (pyproject.toml).
        assert np.array_equal(DensityMatrix.from_ket(ket).matrix, DensityMatrix.from_ket(scaled).matrix)

    def test_from_ket_keeps_the_direct_normalization_of_other_kets(self):
        v = np.array([0.3, 4.0j, 1e-160]) / np.linalg.norm([0.3, 4.0j, 1e-160])
        assert np.array_equal(DensityMatrix.from_ket([0.3, 4.0j, 1e-160]).matrix, DensityMatrix(np.outer(v, v.conj())).matrix)

    def test_from_ket_rejects_a_non_finite_entry(self):
        # Rejected before any arithmetic, so no RuntimeWarning (an error under pyproject.toml) comes first.
        with pytest.raises(ValueError, match=r"^ket must be finite, got \(inf\+0j\)$"):
            DensityMatrix.from_ket([math.inf, 0.0])

    def test_from_ket_rejects_a_matrix(self):
        with pytest.raises(ValueError, match=r"^ket must be a 1-D array of numbers, got int64 of shape \(2, 2\)$"):
            DensityMatrix.from_ket([[1, 0], [0, 1]])

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


DIM_BUILDERS = {
    "random_hermitian": lambda dim: qcore.random_hermitian(dim, np.random.default_rng(0)),
    "random_density_matrix": lambda dim: random_density_matrix(dim, np.random.default_rng(0)),
    "maximally_mixed": DensityMatrix.maximally_mixed,
}


@pytest.mark.parametrize("dim", [0, -1, True, 2.5])
@pytest.mark.parametrize("build", DIM_BUILDERS.values(), ids=DIM_BUILDERS.keys())
def test_dimension_must_be_a_positive_integer(build, dim):
    with pytest.raises(ValueError, match=f"^{re.escape(f'dim must be a positive integer, got {dim}')}$"):
        build(dim)


@pytest.mark.parametrize("dim", [1, 3, np.int64(2)])
@pytest.mark.parametrize("build", DIM_BUILDERS.values(), ids=DIM_BUILDERS.keys())
def test_any_positive_integer_dimension_builds(build, dim):
    built = build(dim)
    assert np.shape(getattr(built, "matrix", built)) == (dim, dim)


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

    def test_reconstruction_bound_scales_with_the_largest_entry(self):
        # max |sum a P_a - A| is checked against RECONSTRUCTION_TOL * max(1, max |A|), so matrices of large norm pass.
        rng = np.random.default_rng(7)
        for h in [1e7 * oracles.random_hermitian_matrix(4, rng) for _ in range(50)] + [np.diag([1e300, -1e300])]:
            obs = Observable(h)
            rebuilt = np.einsum("k,kij->ij", obs.eigenvalues, obs.projectors)
            assert np.max(np.abs(rebuilt - h)) <= 1e-9 * np.max(np.abs(h))

    @pytest.mark.parametrize("value", [1e300, 1e308, 1.7e308])
    def test_an_eigenspace_whose_sum_leaves_the_float_range_keeps_its_eigenvalue(self, value):
        # diag(v, v, -v) and its turn in the x-z plane: 2v overflows from 1e308 up, and a RuntimeWarning fails here.
        c, s = math.cos(0.3), math.sin(0.3)
        turn = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
        diagonal = np.diag([value, value, -value])
        for matrix in (diagonal, turn @ diagonal @ turn.T):
            eigenvalues = Observable(matrix).eigenvalues
            assert len(eigenvalues) == 2 and np.allclose(eigenvalues, [-value, value], rtol=1e-12, atol=0.0)

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
    # The per-group loop Observable's array path replaced, kept as the bitwise reference, on the same raw decomposition.
    _, (eigvals,), (eigvecs,) = qcore._eighs(h[None], "observable")
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


def spin_matrices(dim):
    # The x, y and z components of spin (d - 1)/2 as a (3, d, d) stack, for d = 2 (the Paulis) or 3: each nondegenerate.
    if dim == 2:
        return np.array([SIGMA_X, SIGMA_Y, SIGMA_Z])
    x = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / math.sqrt(2.0)
    return np.array([x, 1j * (np.tril(x) - np.triu(x)), np.diag([1.0, 0.0, -1.0])], dtype=complex)


def observable_matrices(dim):
    # 40 generic Hermitian matrices, then each forced spectrum as given and in a random basis.
    rng = np.random.default_rng(1000 + dim)
    matrices = [oracles.random_hermitian_matrix(dim, rng) for _ in range(40)]
    for _ in range(8):
        for values in forced_spectra(dim, rng):
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            matrices += [np.diag(values).astype(complex), q @ np.diag(values) @ q.conj().T]
    return matrices


def scaled_forced_observables(dim, rng, s):
    # (spectrum, s A) for A each forced spectrum as given and in a random basis.
    for values in forced_spectra(dim, rng):
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        for matrix in (np.diag(values).astype(complex), q @ np.diag(values) @ q.conj().T):
            yield values, s * matrix


def frame_projectors(vectors, starts):
    # The (k, d, d) eigenprojectors V_g V_g^dag of the column slices of V that starts marks off.
    edges = [*np.flatnonzero(starts), len(starts)]
    return np.array([vectors[:, a:b] @ vectors[:, a:b].conj().T for a, b in zip(edges[:-1], edges[1:])])


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
        m, values, vectors, starts = _spectra(np.array(matrices))
        assert values.shape == starts.shape == (len(matrices), dim) and vectors.shape == (len(matrices), dim, dim)
        merged_slots = 0
        for k, matrix in enumerate(matrices):
            obs = Observable(matrix)
            assert m[k].tobytes() == obs.matrix.tobytes()
            assert values[k, starts[k]].tobytes() == obs.eigenvalues.tobytes()
            assert [part[k].tobytes() for part in (values, vectors, starts)] == [part[0].tobytes() for part in obs._frame]
            # V resolves 1, and each merged eigenvalue leaves a slot that starts no eigenspace.
            assert np.max(np.abs(vectors[k] @ vectors[k].conj().T - np.eye(dim))) <= 1e-10
            merged_slots += np.count_nonzero(~starts[k])
        assert merged_slots > 0

    @pytest.mark.parametrize(
        "bad",
        [np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[np.nan, 0.0], [0.0, 1.0]])],
        ids=["non-hermitian", "nan"],
    )
    def test_one_bad_matrix_in_the_middle_is_rejected(self, bad):
        with pytest.raises(ValueError, match=r"observable is not Hermitian: max \|H - H\^dag\|"):
            _spectra(np.array([SIGMA_X, bad, SIGMA_Z], dtype=complex))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_projector_checks_name_the_first_failing_matrix(self, monkeypatch, dim):
        # Eigenvectors of the second matrix scaled by 2: projectors 4 P, neither idempotent nor summing to 1.
        def stretched(values, vectors):
            vectors[1:] *= 2.0

        solvers.faulty_solvers(monkeypatch, stretched)
        with pytest.raises(ValueError, match="projectors are not orthogonal/idempotent: matrix 1 of 3"):
            _spectra(spin_matrices(dim))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_reconstruction_check_names_the_first_failing_matrix_by_its_own_scale(self, monkeypatch, dim):
        # The second matrix's eigenvalues shifted by 1e-6: it is rebuilt off by 1e-6, above RECONSTRUCTION_TOL per unit
        # of its own scale 1, though below the 1e-5 that the first matrix's scale 1e4 would allow.
        def shifted(values, vectors):
            values[1] += 1e-6

        solvers.faulty_solvers(monkeypatch, shifted)
        first, *rest = spin_matrices(dim)
        with pytest.raises(ValueError, match="^spectral decomposition does not reconstruct the matrix: matrix 1 of 3$"):
            _spectra(np.array([1e4 * first, *rest]))

    @pytest.mark.parametrize("dim, stretch", [(2, 2e-11), (3, 1.45e-11)])
    def test_gram_check_is_divided_by_d_plus_one(self, monkeypatch, dim, stretch):
        # Eigenvectors of the second matrix scaled by 1 + stretch: max |V^dag V - 1| is about 2 stretch, above
        # MEASUREMENT_TOL / (d + 1) but below MEASUREMENT_TOL / d, while the reconstruction (off by as much) still passes.
        def scaled(values, vectors):
            vectors[1] *= 1.0 + stretch

        solvers.faulty_solvers(monkeypatch, scaled)
        with pytest.raises(ValueError, match="projectors are not orthogonal/idempotent: matrix 1 of 3"):
            _spectra(spin_matrices(dim))

    @given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.integers(0, 150))
    def test_frame_invariants_hold_at_every_scale(self, dim, seed, k):
        # For s A with s = 10**k and A a forced spectrum (degenerate and merged eigenspaces included): the values are
        # equal within an eigenspace and increase strictly across them, starts marks the first slot of each intended
        # eigenspace (the 1e-12 split merged) and the slots Observable.eigenvalues takes, and the projectors built
        # from (V, starts) pass the pair and completeness residuals within (1 + d e) d e of V's Gram defect e.
        rng = np.random.default_rng(seed)
        for spectrum, matrix in scaled_forced_observables(dim, rng, 10.0**k):
            _, (values,), (vectors,), (starts,) = _spectra(matrix[None])
            assert np.all(values[1:][~starts[1:]] == values[:-1][~starts[1:]])
            assert np.all(values[1:][starts[1:]] > values[:-1][starts[1:]])
            assert starts.tolist() == [True, *(np.diff(np.sort(spectrum)) > 1e-10).tolist()]
            assert Observable(matrix).eigenvalues.tobytes() == values[starts].tobytes()
            e = float(np.max(np.abs(vectors.conj().T @ vectors - np.eye(dim))))
            for residual in oracles.projector_residuals(frame_projectors(vectors, starts)):
                assert residual <= (1.0 + dim * e) * dim * e + 1e-14

    @given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.integers(0, 150), st.floats(-15.0, -9.0))
    def test_every_accepted_stack_passes_the_pair_and_completeness_residuals(self, dim, seed, k, log_scale):
        # The solver's eigenvectors are perturbed by 10**log_scale times complex normals. Whenever the Gram check accepts
        # a forced spectrum scaled by 10**k (degenerate and merged groups included), every pair P_i P_j - delta_ij P_i
        # and sum P - 1 of the projectors built from (V, starts) stays within (1 + d e) d e of the Gram defect e, so
        # within MEASUREMENT_TOL.
        rng = np.random.default_rng(seed)

        def perturbed(values, vectors):
            vectors += 10.0**log_scale * (rng.standard_normal(vectors.shape) + 1j * rng.standard_normal(vectors.shape))

        for _, matrix in scaled_forced_observables(dim, rng, 10.0**k):
            with pytest.MonkeyPatch.context() as patch:
                solvers.faulty_solvers(patch, perturbed)
                try:
                    _, _, (vectors,), (starts,) = _spectra(matrix[None])
                except ValueError as error:  # rejected: by the Gram check, or at the larger scales by the fit
                    assert re.search("orthogonal/idempotent|does not reconstruct", str(error))
                    continue
            e = float(np.max(np.abs(vectors.conj().T @ vectors - np.eye(dim))))
            assert e <= MEASUREMENT_TOL / (dim + 1)
            for residual in oracles.projector_residuals(frame_projectors(vectors, starts)):
                assert residual <= min((1.0 + dim * e) * dim * e + 1e-14, MEASUREMENT_TOL)


@pytest.mark.parametrize("dim, rows", [(2, 576), (3, 256), (4, 144), (8, 36), (48, 1), (64, 1)])
def test_a_block_holds_the_matrices_that_fit_the_byte_budget(dim, rows):
    # STACK_BYTES // (16 d^2) rows of complex d x d matrices, and at least one, so a large d still advances.
    assert qcore._rows(dim) == rows
    blocks = qcore._blocks(2 * rows + 1, dim)
    assert [(block.start, block.stop) for block in blocks] == [(0, rows), (rows, 2 * rows), (2 * rows, 3 * rows)]


def test_blocks_are_yielded_one_at_a_time():
    # Counts are not capped, so no list of slices is built first: tpm-gap --trials 10**20 would list about 3.9e17.
    blocks = qcore._blocks(10**6, 3)
    assert iter(blocks) is blocks and next(blocks) == slice(0, 256)


def matmul_operands(a, b):
    # Every operand form the library hands qcore._matmul, from (2, n, d, d) stacks a and b: stacks; conj().swapaxes
    # views on either side (concatenating such a view alone gives a layout whose float view raises); a 2-D operand
    # against a stack on either side; a stack of one broadcast against a stack.
    x, y = a[0], b[0]
    x_adjoint, y_adjoint = x.conj().swapaxes(1, 2), y.conj().swapaxes(1, 2)
    return [(x, y), (x_adjoint, y), (x, y_adjoint), (x_adjoint, y_adjoint), (a[1, 0], y), (x, b[1, 0]), (x[:1], y_adjoint),
            (x_adjoint, y[:1])]


class TestMatmul:
    # qcore._matmul is a @ b for complex stacks, taken as one float64 matmul on (re, im) views.
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_bitwise_at_on_gaussian_integers(self, dim):
        # Small Gaussian integers make every product and sum exact, so both routes give the exact product. Only the
        # sign of an exact zero may differ (zgemm returns -0.0 for some zero sums), so each side is compared plus 0.0.
        rng = np.random.default_rng(70 + dim)
        a, b = rng.integers(-4, 5, (2, 2, 5, dim, dim)) + 1j * rng.integers(-4, 5, (2, 2, 5, dim, dim))
        for x, y in matmul_operands(a, b):
            product = qcore._matmul(x, y)
            assert product.shape == (x @ y).shape and (product + 0.0).tobytes() == (x @ y + 0.0).tobytes()

    def test_precession_broadcast_is_bitwise_at(self):
        # report precession propagates the three Paulis by each of its unitaries: (n, 1, 2, 2) x (3, 2, 2).
        rng = np.random.default_rng(79)
        u = rng.integers(-4, 5, (7, 1, 2, 2)) + 1j * rng.integers(-4, 5, (7, 1, 2, 2))
        product = qcore._matmul(u, np.array(SIGMA))
        assert product.shape == (7, 3, 2, 2) and (product + 0.0).tobytes() == (u @ np.array(SIGMA) + 0.0).tobytes()

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_within_the_dot_product_bound_of_at_on_random_stacks(self, dim):
        # Either route computes each real or imaginary part as a sum of 2d real products, so each lies within
        # gamma(2d) (|a| @ |b|) of the exact part, gamma(k) = k u / (1 - k u) with unit roundoff u: they differ by at
        # most twice that.
        rng = np.random.default_rng(80 + dim)
        a, b = rng.standard_normal((2, 2, 2, 36, dim, dim)) * np.exp(rng.uniform(-20.0, 20.0, (2, 2, 2, 36, 1, 1)))
        unit = np.finfo(float).eps / 2.0
        gamma = 2 * dim * unit / (1.0 - 2 * dim * unit)
        for x, y in matmul_operands(a[0] + 1j * a[1], b[0] + 1j * b[1]):
            defect = qcore._matmul(x, y) - x @ y
            bound = 2.0 * gamma * (np.abs(x) @ np.abs(y))
            assert np.all(np.abs(defect.real) <= bound) and np.all(np.abs(defect.imag) <= bound)


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
        stacked, eigs = _states(_ginibres(np.random.default_rng(dim).standard_normal((70, 2, dim, dim))))
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

    @staticmethod
    def weights(rho, basis):
        # <v|rho|v> on each column v of each eigenbasis of a stack, as relative_entropy takes them.
        return np.einsum("nji,nji->ni", basis.conj(), qcore._matmul(rho, basis)).real

    def test_relative_entropy_kernel_matches_logm_oracle(self):
        # rho has rank 2 in d = 3; the stack holds a full-rank eta, eta = rho and an eta on rho's null space.
        rng = np.random.default_rng(31)
        kets = np.linalg.qr(oracles.random_hermitian_matrix(3, rng))[0].T
        rho = DensityMatrix(0.7 * np.outer(kets[0], kets[0].conj()) + 0.3 * np.outer(kets[1], kets[1].conj()))
        etas = [random_density_matrix(3, rng).matrix, rho.matrix, np.outer(kets[2], kets[2].conj())]
        q, basis = np.linalg.eigh(_states(np.array(etas))[0])
        values = _relative_entropies(self.weights(rho.matrix, basis), von_neumann_entropy(rho), q)
        expected = [oracles.relative_entropy_logm(rho.matrix, eta) for eta in etas]
        assert abs(values[0] - expected[0]) <= 1e-10
        assert abs(values[1]) <= 1e-12 and abs(expected[1]) <= 1e-10
        assert values[2] == expected[2] == math.inf
        for value, eta in zip(values, etas):
            assert value == relative_entropy(rho, DensityMatrix(eta))
        # The kernel scores rho and the etas in any one common basis alike, as min_form_check uses it.
        u = np.linalg.qr(oracles.random_hermitian_matrix(3, rng))[0]
        q, basis = np.linalg.eigh(_states(u.conj().T @ np.array(etas) @ u)[0])
        in_frame = _relative_entropies(self.weights(u.conj().T @ rho.matrix @ u, basis), von_neumann_entropy(rho), q)
        assert np.all(np.abs(in_frame[:2] - values[:2]) <= 1e-12) and in_frame[2] == math.inf
        # etas diagonal in u's basis take their diagonals as spectra and one row of rho's weights for all of them.
        p = np.array([[0.5, 0.3, 0.2], [0.0, 0.4, 0.6], [0.7, 0.3, 0.0]])
        diagonal = _relative_entropies(np.diagonal(u.conj().T @ rho.matrix @ u).real, von_neumann_entropy(rho), p)
        for value, eta in zip(diagonal, u @ (p[:, :, None] * np.eye(3)) @ u.conj().T):
            expected = relative_entropy(rho, DensityMatrix(eta))
            assert value == expected or abs(value - expected) <= 1e-12

    def test_state_check_with_vectors_is_one_eigh(self):
        # A stack whose eigenvectors are needed passes the Cholesky gate, then one eigh of the checked stack.
        stack = _ginibres(np.random.default_rng(8).standard_normal((5, 2, 4, 4)))
        m, eigs = _states(stack)
        m_v, none = _states(stack, solver=None)
        eigs_v, vectors = np.linalg.eigh(m_v)
        assert none is None and np.array_equal(m, m_v) and np.max(np.abs(eigs - eigs_v)) <= 1e-15
        assert np.max(np.abs(vectors @ (eigs_v[..., None] * vectors.conj().swapaxes(1, 2)) - m)) <= 1e-14
        with pytest.raises(ValueError, match="positive semidefinite"):
            _states(np.array([np.eye(2) / 2.0, np.diag([1.5, -0.5])], dtype=complex), solver=None)

    @pytest.mark.parametrize("bad", [np.diag([0.5 + 1e-11j, 0.5]), np.eye(2) * 0.6, np.diag([1.5, -0.5]), np.diag([np.nan, 1.0])])
    def test_diagonal_check_decides_as_eigvalsh_does(self, bad):
        # An (n, d) stack of diagonals fails the same check, with the same message, as eigvalsh on the diagonal
        # matrices, and passes the good ones with their real diagonals as spectra.
        good = np.array([np.diag([0.7, 0.3]), np.diag([0.0, 1.0]), np.eye(2) / 2.0], dtype=complex)
        m, spectrum = _states(np.diagonal(good, axis1=1, axis2=2))
        assert np.array_equal(m, np.diagonal(good, axis1=1, axis2=2)) and np.array_equal(spectrum, m.real)
        messages = []
        for stack in (np.insert(good, 1, bad, axis=0), np.insert(np.diagonal(good, axis1=1, axis2=2), 1, np.diagonal(bad), axis=0)):
            with pytest.raises(ValueError) as raised:
                _states(stack)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]

    @staticmethod
    def floor_stack(least):
        # Three d = 3 states in one random basis; the middle one has least eigenvalue ``least``.
        u = np.linalg.qr(oracles.random_hermitian_matrix(3, np.random.default_rng(41)))[0]
        spectra = [[0.2, 0.3, 0.5], [least, 0.4, 0.6 - least], [0.1, 0.1, 0.8]]
        return np.array([u @ np.diag(spectrum) @ u.conj().T for spectrum in spectra])

    @staticmethod
    def forbid_eigvalsh(monkeypatch):
        def eigvalsh(m):
            raise AssertionError("the Cholesky gate alone should decide")
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)

    def test_cholesky_gate_names_a_state_below_the_floor_as_eigvalsh_does(self):
        stack = self.floor_stack(PSD_FLOOR * (1 + 1e-3))
        messages = []
        for solver in ("eigvalsh", None):
            with pytest.raises(ValueError) as raised:
                _states(stack, solver=solver)
            messages.append(str(raised.value))
        assert messages == ["density matrix is not positive semidefinite: min eigenvalue = -1.001e-10"] * 2

    def test_cholesky_gate_passes_states_just_above_the_floor_and_pure_states(self, monkeypatch):
        rng = np.random.default_rng(43)
        stacks = [self.floor_stack(PSD_FLOOR * (1 - 1e-3))]
        for dim in range(2, 9):
            kets = rng.standard_normal((5, dim)) + 1j * rng.standard_normal((5, dim))
            kets /= np.linalg.norm(kets, axis=1)[:, None]
            stacks.append(kets[:, :, None] * kets.conj()[:, None, :])
        checked = [_states(stack)[0] for stack in stacks]
        self.forbid_eigvalsh(monkeypatch)
        for stack, m in zip(stacks, checked):
            gated, spectrum = _states(stack, solver=None)
            assert spectrum is None and np.array_equal(gated, m)

    def test_pure_starts_pass_the_gate_in_the_protocol_and_in_lambda(self, tmp_path, monkeypatch):
        # The qutrit fixture starts from the pure state from_ket([1, 1, 0]); every lambda state is pure (a unit Bloch
        # vector), here at theta = pi / 2 and pi.
        fx = qutrit_gap_fixture()
        a_values, b_values, joint = tpm_joint_distribution(fx.A, fx.B, fx.t1, fx.t2, fx.channel, fx.rho0)
        stacks = [m[None] for m in (fx.A.matrix, fx.B.matrix, fx.channel.hamiltonian, fx.rho0.matrix)]
        self.forbid_eigvalsh(monkeypatch)
        gap = _tpm_gaps(*stacks[:3], np.array([fx.t1]), np.array([fx.t2]), stacks[3])
        assert abs(gap[0] - 1.0 / (2.0 * math.sqrt(2.0))) <= 1e-14 and abs(a_values @ joint @ b_values) <= 1e-15
        monkeypatch.undo()
        counted = {"eigvalsh": [], "cholesky": []}
        for name, calls in counted.items():
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda m, s=solver, c=calls: c.append(len(m)) or s(m))
        assert cli.main(["--out", str(tmp_path), "lambda", "--theta-steps", "2"]) == 0
        assert counted == {"eigvalsh": [2], "cholesky": [2]}  # eigvalsh for the conditional operators only

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
            back = [np.trace(bloch_to_state(vec).matrix @ s).real for s in SIGMA]
            assert np.max(np.abs(np.array(back) - vec)) <= 1e-12

    def test_rejects_long_vector(self):
        with pytest.raises(ValueError, match="norm"):
            BlochVector((1.0, 1.0, 0.0))

    def test_radius_is_bitwise_np_linalg_norm(self):
        rng = np.random.default_rng(89)
        vectors = rng.uniform(-1.0, 1.0, (5000, 3)) * rng.uniform(0.0, 1.0, (5000, 1)) / math.sqrt(3.0)
        assert [BlochVector(v).r for v in vectors] == [float(np.linalg.norm(v)) for v in vectors]

    @pytest.mark.parametrize("bad, norm", [((1.0, 1e-5, 0.0), "1.00000000005"), ((math.nan, 0.0, 0.0), "nan"),
                                           ((math.inf, 0.0, 0.0), "inf")])
    def test_ball_check_is_shared_by_the_vector_and_the_row_kernel(self, bad, norm):
        # The row kernel's ball check also rejects a non-finite row; a vector with such a component fails at ingress.
        with pytest.raises(ValueError, match=rf"^Bloch vector norm {norm} is not finite or exceeds 1$"):
            _bloch_norms(np.array([(0.1, 0.2, 0.3), bad]))
        finite = math.isfinite(bad[0])
        expected = f"Bloch vector norm {norm} is not finite or exceeds 1" if finite else f"Bloch vector must be finite, got {norm}"
        with pytest.raises(ValueError) as info:
            BlochVector(bad)
        assert str(info.value) == expected
        assert _bloch_norms(np.array([(0.6, 0.0, 0.8)])).tolist() == [1.0]

    @pytest.mark.parametrize("make", [lambda: BlochVector((1e200, 0.0, 0.0)), lambda: bloch_to_state((1e200, 0.0, 0.0)),
                                      lambda: BlochVector.from_angles(1e200, 0.3, 0.2)],
                             ids=["BlochVector", "bloch_to_state", "from_angles"])
    def test_overflowed_norm_is_rejected_without_a_warning(self, make):
        # RuntimeWarnings are errors under pyproject.toml, so an overflow warning would surface first.
        with pytest.raises(ValueError, match=r"^Bloch vector norm inf is not finite or exceeds 1$"):
            make()

    @pytest.mark.parametrize("args, name", [((math.inf, 0.0, 0.0), "r"), ((0.5, math.inf, 0.0), "theta"),
                                            ((0.5, math.nan, 0.0), "theta"), ((0.5, 0.3, -math.inf), "phi")])
    def test_from_angles_names_a_non_finite_argument_without_a_warning(self, args, name):
        # numpy's sin and cos warn on inf (an error under pyproject.toml), so the arguments are checked first.
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got -?(inf|nan)$"):
            BlochVector.from_angles(*args)

    def test_angles(self):
        vec = BlochVector.from_angles(0.7, 1.1, 2.3)
        assert vec.r == pytest.approx(0.7, abs=1e-12)
        assert vec.theta == pytest.approx(1.1, abs=1e-12)
        assert vec.phi == pytest.approx(2.3, abs=1e-12)


def reference_require(ok, message, error=ValueError, **columns):
    # _require as it was before its passing path returned early: ravel ok, then argmin names the first False.
    ok = np.ravel(ok)
    if not ok.all():
        raise error(message.format(**{name: float(np.ravel(column)[np.argmin(ok)]) for name, column in columns.items()}))


def outcome(check, ok, **columns):
    try:
        check(ok, "x={x!r} y={y!r}", ArithmeticError, **columns)
    except ArithmeticError as error:
        return str(error)
    return None


NAN_COLUMN = np.array([0.5, math.nan, 3.0, -1.0])
GRID = np.arange(6.0).reshape(2, 3)


class TestRequire:
    @pytest.mark.parametrize("ok, columns", [
        (False, {"x": 1.5, "y": -2.0}),
        (True, {"x": 1.5, "y": -2.0}),
        (np.False_, {"x": np.float64(0.25), "y": 3}),
        (np.True_, {"x": np.float64(0.25), "y": 3}),
        (np.array(False), {"x": np.array(7.0), "y": 1.0}),
        (np.array(True), {"x": np.array(7.0), "y": 1.0}),
        (NAN_COLUMN <= 1.0, {"x": NAN_COLUMN, "y": -NAN_COLUMN}),  # NaN fails a comparison: row 1 is named
        (~(NAN_COLUMN > 1.0), {"x": NAN_COLUMN, "y": NAN_COLUMN}),  # ... and passes a negated one: row 2 is named
        (np.isfinite(NAN_COLUMN), {"x": NAN_COLUMN, "y": np.zeros(4)}),
        (np.ones(4, bool), {"x": NAN_COLUMN, "y": NAN_COLUMN}),
        (GRID.T < 4.0, {"x": GRID.T, "y": np.broadcast_to(np.arange(3.0)[:, None], (3, 2))}),  # in C order of the view
        (np.array([], bool), {"x": np.array([]), "y": np.array([])}),
        (np.zeros((0, 3), bool), {"x": np.zeros((0, 3)), "y": np.zeros((0, 3))}),
    ], ids=["False", "True", "np.False_", "np.True_", "0-d False", "0-d True", "NaN fails", "NaN passes negated",
            "non-finite", "all pass", "2-D view", "empty", "empty 2-D"])
    def test_raises_exactly_as_the_reference_and_passes_the_same(self, ok, columns):
        assert outcome(qcore._require, ok, **columns) == outcome(reference_require, ok, **columns)

    def test_names_the_first_failing_row(self):
        assert outcome(qcore._require, NAN_COLUMN <= 1.0, x=NAN_COLUMN, y=np.arange(4.0)) == "x=nan y=1.0"
        assert outcome(qcore._require, np.array([]), x=np.array([])) is None


def reference_symmetrized(m):
    # The stack's symmetrized form as it was first written: both halves scaled, then summed.
    return m * 0.5 + (m.conj() if m.ndim == 2 else m.conj().swapaxes(1, 2)) * 0.5


class TestSymmetrized:
    def test_is_bitwise_the_half_sum_and_leaves_its_input_alone(self):
        rng = np.random.default_rng(3)
        stacks = [_ginibres(rng.standard_normal((5, 2, 4, 4))), rng.standard_normal((6, 3)), rng.standard_normal((6, 3)) + 0j,
                  np.diag([0.25, 0.75])[None] + np.array([[0.0, 1e-15], [0.0, 0.0]])]
        for stack in stacks:
            before = stack.copy()
            got = qcore._symmetrized(stack, "density matrix", qcore.STATE_TOL)
            assert got.tobytes() == reference_symmetrized(before).tobytes() and stack.tobytes() == before.tobytes()

    @pytest.mark.parametrize("tol", [qcore.STATE_TOL, np.full(2, qcore.STATE_TOL)], ids=["float", "per matrix"])
    def test_a_defect_within_the_least_tol_is_passed_stack_wide(self, monkeypatch, tol):
        # No per-matrix defect is formed or checked when the stack-wide max passes: _require is never reached.
        stack = np.array([np.diag([0.5, 0.5]), [[0.5, 1e-14], [0.0, 0.5]]], complex)
        calls = []
        monkeypatch.setattr(qcore, "_require", lambda *args, **kwargs: calls.append(args))
        qcore._symmetrized(stack, "density matrix", tol)
        assert calls == []
        monkeypatch.undo()
        with pytest.raises(ValueError, match=r"^density matrix is not Hermitian: max \|H - H\^dag\| = 1\.000e-10$"):
            qcore._symmetrized(stack + np.array([[0.0, 1e-10], [0.0, 0.0]]), "density matrix", tol)


class TestComplexOverReal:
    # _ginibres divides a complex stack by its positive real traces as its float view times the reciprocal. numpy's
    # complex / real loop (Smith's method with a zero imaginary part) computes ((re + im * 0) / x, (im - re * 0) / x) as
    # those products by 1 / x. A numpy whose division rounds otherwise fails the first test.

    def test_is_the_float_view_times_the_reciprocal(self):
        rng = np.random.default_rng(34)
        scale = 10.0 ** rng.integers(-150, 150, (2, 500))
        z = (rng.standard_normal((500, 3, 3)) + 1j * rng.standard_normal((500, 3, 3))) * scale[0, :, None, None]
        x = rng.uniform(0.5, 2.0, 500) * scale[1]
        assert (z.view(float) * (1.0 / x)[:, None, None]).view(complex).tobytes() == (z / x[:, None, None]).tobytes()

    def test_differs_only_in_the_sign_of_a_zero_part(self):
        # re + im * 0 turns a -0 real part into +0, and im - re * 0 a -0 imaginary part beside a negative real part; a
        # draw's entries are almost surely neither, and the test below compares draws bitwise.
        z = np.array([complex(-0.0, 1.0), complex(-2.0, -0.0), complex(2.0, -0.0), complex(-2.0, 0.0), complex(0.0, -0.0)])
        divided, scaled = z / np.full(5, 4.0), (z.view(float) * 0.25).view(complex)
        assert np.array_equal(divided, scaled)
        assert (divided.view(np.uint64) != scaled.view(np.uint64)).tolist() == [True, False, False, True] + [False] * 6

    def test_random_draws_are_bitwise_the_complex_formulas(self):
        # G = x + iy from the normals, G G^dag / Tr and (G + G^dag) / 2, as the draws were written with complex arithmetic.
        normals = np.random.default_rng(35).standard_normal((40, 2, 4, 4))
        g = normals[:, 0] + 1j * normals[:, 1]
        m = qcore._matmul(g, g.conj().swapaxes(1, 2))
        assert _ginibres(normals).tobytes() == (m / m.trace(axis1=1, axis2=2).real[:, None, None]).tobytes()
        assert qcore._hermitians(normals).tobytes() == ((g + g.conj().swapaxes(1, 2)) / 2.0).tobytes()
