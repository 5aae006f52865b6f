import math

import numpy as np
import pytest

import oracles
from twotime.dynamics import ChannelFamily, KrausChannel, _hamiltonians, _unitaries, evolve_observable, evolve_state
from twotime.qcore import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    Observable,
    random_density_matrix,
    state_to_bloch,
)


@pytest.fixture
def z_precession():
    # H = omega * S_z with omega = 1, so t is the precession phase.
    return ChannelFamily(SIGMA_Z / 2.0)


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
            assert np.max(np.abs(family.propagate_observable(unit, 0.0) - unit)) <= 1e-12


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
        assert np.max(np.abs(family.propagate_state(m, t) - family.propagate_observable(m, -t))) <= 1e-10


def test_evolve_state_matches_expm_oracle():
    rng = np.random.default_rng(21)
    for dim in (2, 3):
        h = oracles.random_hermitian_matrix(dim, rng)
        family = ChannelFamily(h)
        rho = random_density_matrix(dim, rng)
        t = rng.uniform(0.0, 4.0)
        expected = oracles.schrodinger_conjugate(h, t, rho.matrix)
        assert np.max(np.abs(evolve_state(family, rho, t).matrix - expected)) <= 1e-12


def test_plus_state_half_turn(z_precession):
    rho0 = DensityMatrix.from_ket([1.0, 1.0])
    rho_pi = evolve_state(z_precession, rho0, math.pi)
    assert np.max(np.abs(state_to_bloch(rho_pi).components - np.array([-1.0, 0.0, 0.0]))) <= 1e-12


def test_unitary_evolution_preserves_spectrum_and_purity():
    rng = np.random.default_rng(4)
    family = ChannelFamily(oracles.random_hermitian_matrix(3, rng))
    rho = random_density_matrix(3, rng)
    evolved = evolve_state(family, rho, 1.7)
    assert np.max(np.abs(evolved.eigenvalues() - rho.eigenvalues())) <= 1e-10
    assert abs(evolved.purity() - rho.purity()) <= 1e-10


def test_conserved_observable(z_precession):
    obs = Observable(SIGMA_Z)
    for t in (0.0, 0.3, 2.0, 11.0):
        assert np.max(np.abs(evolve_observable(z_precession, obs, t).matrix - SIGMA_Z)) <= 1e-12


def test_rotating_observable_closed_form(z_precession):
    obs = Observable(SIGMA_X)
    for tau in (0.2, 1.0, 2.9):
        expected = SIGMA_X * math.cos(tau) - SIGMA_Y * math.sin(tau)
        assert np.max(np.abs(evolve_observable(z_precession, obs, tau).matrix - expected)) <= 1e-12


def test_heisenberg_evolution_preserves_eigenvalues():
    rng = np.random.default_rng(14)
    family = ChannelFamily(oracles.random_hermitian_matrix(3, rng))
    obs = Observable(oracles.random_hermitian_matrix(3, rng))
    evolved = evolve_observable(family, obs, 2.4)
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
        lhs = np.trace(evolve_observable(family, a, t).matrix @ rho.matrix).real
        rhs = np.trace(a.matrix @ oracles.schrodinger_conjugate(h, t, rho.matrix)).real
        assert abs(lhs - rhs) <= 1e-10


class TestKrausChannel:
    def test_requires_trace_preservation(self):
        with pytest.raises(ValueError, match="trace preserving"):
            KrausChannel([np.eye(2) * 0.5])

    def test_dephasing_step(self):
        p = 0.3
        ops = [
            np.diag([1.0, math.sqrt(1.0 - p)]).astype(complex),
            np.diag([0.0, math.sqrt(p)]).astype(complex),
        ]
        channel = KrausChannel(ops)
        rho = DensityMatrix.from_ket([1.0, 1.0])
        out = evolve_state(channel, rho, 0.7)  # duration is ignored: one step
        assert out.matrix[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert abs(out.matrix[0, 1]) == pytest.approx(0.5 * math.sqrt(1.0 - p), abs=1e-12)

    def test_no_heisenberg_direction(self):
        channel = KrausChannel([np.eye(2, dtype=complex)])
        with pytest.raises(TypeError, match="unitary"):
            evolve_observable(channel, Observable(SIGMA_X), 1.0)


def test_dimension_mismatch_errors():
    family = ChannelFamily(SIGMA_Z)
    with pytest.raises(ValueError, match="dimension"):
        evolve_state(family, DensityMatrix.maximally_mixed(3), 1.0)
    with pytest.raises(ValueError, match="dimension"):
        evolve_observable(family, Observable(np.eye(3)), 1.0)


each_constructor = pytest.mark.parametrize(
    "build",
    [DensityMatrix, Observable, ChannelFamily, lambda m: KrausChannel([m])],
    ids=["DensityMatrix", "Observable", "ChannelFamily", "KrausChannel"],
)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@each_constructor
def test_rejects_non_finite_entry(build, bad):
    matrix = np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        build(matrix)


@each_constructor
def test_rejects_empty_matrix(build):
    with pytest.raises(ValueError, match=r"^expected a non-empty square matrix, got shape \(0, 0\)$"):
        build(np.zeros((0, 0)))


def test_channel_family_is_the_one_matrix_hamiltonian_kernel():
    rng = np.random.default_rng(13)
    stack = np.array([oracles.random_hermitian_matrix(4, rng) for _ in range(3)])
    stack[1, 0, 1] += 1e-12  # symmetrized within OPERATOR_HERMITICITY_TOL
    h, energies, modes = _hamiltonians(stack)
    for n, matrix in enumerate(stack):
        family = ChannelFamily(matrix)
        symmetrized = (matrix + matrix.conj().T) / 2.0
        expected = np.linalg.eigh(symmetrized)
        assert np.array_equal(family.hamiltonian, symmetrized) and np.array_equal(h[n], symmetrized)
        assert np.array_equal(family._energies, expected[0]) and np.array_equal(energies[n], expected[0])
        assert np.array_equal(family._modes, expected[1]) and np.array_equal(modes[n], expected[1])
    stack[2, 1, 0] += 1e-6
    with pytest.raises(ValueError, match=r"^hamiltonian is not Hermitian: max \|H - H\^dag\| = 1\.000e-06$"):
        _hamiltonians(stack)


@pytest.mark.parametrize(
    "energies, t",
    [((0.0, 0.0), math.inf), ((0.0, 0.0), math.nan), ((0.0, 2.0), 1e308), ((0.0, 2.0), -1e308), ((-2.0, 0.0), 1e308)],
    ids=["zero-H-inf", "zero-H-nan", "phase-overflow", "negative-time-overflow", "negative-energy-overflow"],
)
def test_unitary_at_rejects_a_non_finite_phase(energies, t):
    with pytest.raises(ValueError, match="time must be finite"):
        ChannelFamily(np.diag(energies).astype(complex)).unitary_at(t)


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
    times[3] = math.inf
    with pytest.raises(ValueError, match=r"time must be finite and keep every phase E\*t finite, got inf"):
        _unitaries(energies, modes, times)
