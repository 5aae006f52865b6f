import math
import warnings

import numpy as np
import pytest

import oracles
from twotime.correlators import TwoTimeOperator, tpm_joint_distribution
from twotime.dynamics import ChannelFamily, _unitaries
from twotime.qcore import (
    SIGMA,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    Observable,
    random_density_matrix,
)
from twotime.qcore import _eighs


@pytest.fixture
def z_precession():
    # H = omega * S_z with omega = 1, so t is the precession phase.
    return ChannelFamily(SIGMA_Z / 2.0)


def heisenberg(family, matrix, t):
    # U_t^dag M U_t, the observable direction the two-time operators use.
    u = family.unitary_at(t)
    return u.conj().T @ matrix @ u


def test_rejects_non_hermitian_hamiltonian():
    with pytest.raises(ValueError, match="Hermitian"):
        ChannelFamily(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_zero_time_is_identity_on_matrix_units():
    rng = np.random.default_rng(2)
    family = ChannelFamily(oracles.random_hermitian_matrix(3, rng))
    for i in range(3):
        for j in range(3):
            unit = np.zeros((3, 3), dtype=complex)
            unit[i, j] = 1.0
            assert np.max(np.abs(family.propagate_state(unit, 0.0) - unit)) <= 1e-12
            assert np.max(np.abs(heisenberg(family, unit, 0.0) - unit)) <= 1e-12


def test_semigroup_on_random_matrices():
    rng = np.random.default_rng(8)
    for dim in (2, 3):
        family = ChannelFamily(oracles.random_hermitian_matrix(dim, rng))
        for _ in range(30):
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            t1, t2 = rng.uniform(-3.0, 3.0, 2)
            stepwise = family.propagate_state(family.propagate_state(m, t2), t1)
            direct = family.propagate_state(m, t1 + t2)
            assert np.max(np.abs(stepwise - direct)) <= 1e-10


def test_unitary_adjoint_reverses_time():
    rng = np.random.default_rng(12)
    family = ChannelFamily(oracles.random_hermitian_matrix(2, rng))
    for _ in range(20):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        t = rng.uniform(-2.0, 2.0)
        assert np.max(np.abs(family.propagate_state(m, t) - heisenberg(family, m, -t))) <= 1e-10


def test_evolve_state_matches_expm_oracle():
    rng = np.random.default_rng(21)
    for dim in (2, 3):
        h = oracles.random_hermitian_matrix(dim, rng)
        family = ChannelFamily(h)
        rho = random_density_matrix(dim, rng)
        t = rng.uniform(0.0, 4.0)
        expected = oracles.schrodinger_conjugate(h, t, rho.matrix)
        assert np.max(np.abs(family.propagate_state(rho.matrix, t) - expected)) <= 1e-12


def test_plus_state_half_turn(z_precession):
    rho0 = DensityMatrix.from_ket([1.0, 1.0])
    rho_pi = z_precession.propagate_state(rho0.matrix, math.pi)
    bloch = [np.trace(rho_pi @ s).real for s in SIGMA]
    assert np.max(np.abs(np.array(bloch) - np.array([-1.0, 0.0, 0.0]))) <= 1e-12


def test_unitary_evolution_preserves_spectrum_and_purity():
    rng = np.random.default_rng(4)
    family = ChannelFamily(oracles.random_hermitian_matrix(3, rng))
    rho = random_density_matrix(3, rng)
    evolved = DensityMatrix(family.propagate_state(rho.matrix, 1.7))
    assert np.max(np.abs(evolved.eigenvalues() - rho.eigenvalues())) <= 1e-10
    assert abs(evolved.purity() - rho.purity()) <= 1e-10


def test_conserved_observable(z_precession):
    for t in (0.0, 0.3, 2.0, 11.0):
        assert np.max(np.abs(heisenberg(z_precession, SIGMA_Z, t) - SIGMA_Z)) <= 1e-12


def test_rotating_observable_closed_form(z_precession):
    for tau in (0.2, 1.0, 2.9):
        expected = SIGMA_X * math.cos(tau) - SIGMA_Y * math.sin(tau)
        assert np.max(np.abs(heisenberg(z_precession, SIGMA_X, tau) - expected)) <= 1e-12


def test_heisenberg_evolution_preserves_eigenvalues():
    rng = np.random.default_rng(14)
    family = ChannelFamily(oracles.random_hermitian_matrix(3, rng))
    obs = Observable(oracles.random_hermitian_matrix(3, rng))
    evolved = Observable(heisenberg(family, obs.matrix, 2.4))
    assert evolved.eigenvalues == pytest.approx(obs.eigenvalues, abs=1e-10)


def test_duality_identity():
    # Tr[phi_t(A) rho] = Tr[A phi*_t(rho)], both sides computed independently.
    rng = np.random.default_rng(33)
    for _ in range(100):
        dim = int(rng.integers(2, 4))
        h = oracles.random_hermitian_matrix(dim, rng)
        family = ChannelFamily(h)
        a = Observable(oracles.random_hermitian_matrix(dim, rng))
        rho = random_density_matrix(dim, rng)
        t = rng.uniform(-3.0, 3.0)
        lhs = np.trace(heisenberg(family, a.matrix, t) @ rho.matrix).real
        rhs = np.trace(a.matrix @ oracles.schrodinger_conjugate(h, t, rho.matrix)).real
        assert abs(lhs - rhs) <= 1e-10


def test_dimension_mismatch_errors():
    # The family's dimension is checked against the states and observables it evolves.
    family, qubit = ChannelFamily(SIGMA_Z), Observable(SIGMA_X)
    with pytest.raises(ValueError, match="dimension"):
        tpm_joint_distribution(qubit, qubit, 0.0, 1.0, family, DensityMatrix.maximally_mixed(3))
    with pytest.raises(ValueError, match="dimension"):
        TwoTimeOperator("sum", Observable(np.eye(3)), Observable(np.eye(3)), 0.0, 1.0, family)


each_constructor = pytest.mark.parametrize(
    "build",
    [DensityMatrix, Observable, ChannelFamily],
    ids=["DensityMatrix", "Observable", "ChannelFamily"],
)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@each_constructor
def test_rejects_non_finite_entry(build, bad):
    # Rejected before any arithmetic, so no RuntimeWarning (an error under pyproject.toml) comes first.
    matrix = np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match=rf"^matrix must be finite, got \({bad}\+0j\)$"):
        build(matrix)


@each_constructor
def test_rejects_empty_matrix(build):
    with pytest.raises(ValueError, match=r"^expected a non-empty square matrix, got shape \(0, 0\)$"):
        build(np.zeros((0, 0)))


@pytest.mark.parametrize(
    "matrix, message",
    [(np.array([[math.nan, 0.0], [0.0, 1.0]]), r"matrix must be finite, got \(nan\+0j\)"),
     (np.ones(2), r"matrix must be a 2-D array of numbers, got float64 of shape \(2,\)"),
     (np.ones((2, 3)), r"expected a non-empty square matrix, got shape \(2, 3\)"),
     (np.eye(3), "dimension mismatch: matrix dim 3, channel dim 2")],
    ids=["nan", "vector", "2x3", "3-on-2"],
)
def test_propagate_state_checks_its_matrix(matrix, message):
    # Checked as the constructors check theirs, so neither a NaN result nor numpy's matmul error comes first.
    with pytest.raises(ValueError, match=f"^{message}$"):
        ChannelFamily(SIGMA_Z).propagate_state(matrix, 0.5)


@pytest.mark.parametrize("matrix", [np.diag([1e308, -1e308]), np.array([[0.0, 1e308], [1e308, 0.0]])], ids=["diagonal", "off-diagonal"])
def test_entries_near_the_float_max_build_without_a_warning(matrix):
    # Symmetrized as M / 2 + M^dag / 2, so M + M^dag does not overflow; the eigenvalue gap 2e308 is not merged.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        obs, family = Observable(matrix), ChannelFamily(matrix)
        assert np.max(np.abs(family.unitary_at(0.0) - np.eye(2))) <= 1e-12
    assert np.array_equal(obs.matrix, matrix) and np.array_equal(family.hamiltonian, matrix)
    assert np.array_equal(obs.eigenvalues, [-1e308, 1e308])


def test_rejects_a_hamiltonian_whose_spectrum_is_not_finite():
    # Every entry is finite, but the eigenvalue 2e308 is not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^hamiltonian eigenvalue inf is not finite$"):
            ChannelFamily(np.full((2, 2), 1e308))


def test_rejects_an_observable_whose_spectrum_is_not_finite():
    # The same check as a Hamiltonian's, before any projector is built from the infinite eigenvalue.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^observable eigenvalue inf is not finite$"):
            Observable(np.full((2, 2), 1e308))


@pytest.mark.parametrize("build, what", [(Observable, "observable"), (ChannelFamily, "hamiltonian")])
def test_non_hermitian_entries_near_the_float_max_report_an_infinite_defect(build, what):
    # max |H - H^dag| = 2e308 is past the float max: the defect is taken from M/2 - M^dag/2, so no numpy step overflows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{what} is not Hermitian: max \|H - H\^dag\| = inf$"):
            build(np.array([[0.0, 1e308], [-1e308, 0.0]]))


@pytest.mark.parametrize("build, what", [(Observable, "observable"), (ChannelFamily, "hamiltonian")])
def test_a_scale_past_the_float_max_does_not_waive_the_hermiticity_check(build, what):
    # |1.5e308 (1 + i)| overflows, so the matrix's scale max(1, max |M|) is inf; its inf defect still fails.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{what} is not Hermitian: max \|H - H\^dag\| = inf$"):
            build(np.array([[0.0, 1.5e308 + 1.5e308j], [-1.5e308 - 1.5e308j, 0.0]]))


def test_channel_family_is_the_one_matrix_hamiltonian_kernel():
    rng = np.random.default_rng(13)
    stack = np.array([oracles.random_hermitian_matrix(4, rng) for _ in range(3)])
    stack[1, 0, 1] += 1e-12  # symmetrized within OPERATOR_HERMITICITY_TOL
    h, energies, modes = _eighs(stack, "hamiltonian")
    for n, matrix in enumerate(stack):
        family = ChannelFamily(matrix)
        symmetrized = (matrix + matrix.conj().T) / 2.0
        expected = np.linalg.eigh(symmetrized)
        assert np.array_equal(family.hamiltonian, symmetrized) and np.array_equal(h[n], symmetrized)
        assert np.array_equal(family._energies, expected[0]) and np.array_equal(energies[n], expected[0])
        assert np.array_equal(family._modes, expected[1]) and np.array_equal(modes[n], expected[1])
    stack[2, 1, 0] += 1e-6
    with pytest.raises(ValueError, match=r"^hamiltonian is not Hermitian: max \|H - H\^dag\| = 1\.000e-06$"):
        _eighs(stack, "hamiltonian")


def test_hermiticity_is_checked_per_unit_of_each_matrix():
    # 1e6 sigma_x with a 1e-5 defect is 1e-11 per unit of max |H| and passes; a unit matrix beside it is held to 1e-10.
    big = 1e6 * SIGMA_X + np.array([[0.0, 1e-5], [0.0, 0.0]])
    small = SIGMA_Z + np.array([[0.0, 0.0], [1e-6, 0.0]])
    assert np.array_equal(_eighs(big[None], "observable")[0][0], (big + big.T) / 2.0)
    with pytest.raises(ValueError, match=r"^observable is not Hermitian: max \|H - H\^dag\| = 1\.000e-06$"):
        _eighs(np.array([big, small]), "observable")


@pytest.mark.parametrize(
    "energies, t, message",
    [((0.0, 0.0), math.inf, "time must be finite, got inf"), ((0.0, 0.0), math.nan, "time must be finite, got nan"),
     ((0.0, 2.0), 1e308, "phase E*t must be finite, got inf at time 1e+308"),
     ((0.0, 2.0), -1e308, "phase E*t must be finite, got -inf at time -1e+308"),
     ((-2.0, 0.0), 1e308, "phase E*t must be finite, got inf at time 1e+308")],
    ids=["zero-H-inf", "zero-H-nan", "phase-overflow", "negative-time-overflow", "negative-energy-overflow"],
)
def test_unitary_at_rejects_a_non_finite_phase(energies, t, message):
    # A non-finite time is rejected at ingress; a finite one reaches the phase check only when some E*t overflows.
    with pytest.raises(ValueError) as raised:
        ChannelFamily(np.diag(energies).astype(complex)).unitary_at(t)
    assert str(raised.value) == message


def test_unitary_at_accepts_large_finite_phases():
    assert np.array_equal(ChannelFamily(np.zeros((2, 2))).unitary_at(1e308), np.eye(2))
    u = ChannelFamily(np.diag([0.0, 2.0]).astype(complex)).unitary_at(5e307)
    assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12


def test_stacked_unitaries_are_each_unitary_at_and_check_every_row():
    rng = np.random.default_rng(12)
    families = [ChannelFamily(oracles.random_hermitian_matrix(3, rng)) for _ in range(5)]
    energies, modes = np.linalg.eigh(np.array([family.hamiltonian for family in families]))
    times = rng.uniform(-2.0, 2.0, 5)
    for u, family, t in zip(_unitaries(energies, modes, times), families, times):
        assert np.array_equal(u, family.unitary_at(t))
    times[3] = -1e308  # a finite time whose phase overflows: only row 3's is rejected, and named
    with pytest.raises(ValueError, match=r"^phase E\*t must be finite, got -inf at time -1e\+308$"):
        _unitaries(energies, modes, times)
