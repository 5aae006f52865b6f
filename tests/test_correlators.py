import math

import numpy as np
import pytest

import oracles
from twotime.correlators import (
    TwoTimeOperator,
    heisenberg_correlator,
    lambda_operator,
    prepare_eigenstate,
    qutrit_gap_fixture,
    realize,
    tpm_correlator,
    tpm_joint_distribution,
)
from twotime.correlators import _tpm_gaps, _tpm_joints, _trace_forms
from twotime.dynamics import ChannelFamily, _unitaries
from twotime.qcore import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    IDENTITY_TOL,
    DensityMatrix,
    Observable,
    bloch_to_state,
    random_density_matrix,
    relative_entropy,
)
from twotime.qcore import _eighs, _spectra
from twotime.realism import complementarity_bound_check, dephase, irreality
from twotime.spinlab import bloch_lambda_nu, precession_channel


def random_instance(dim, rng):
    a = Observable(oracles.random_hermitian_matrix(dim, rng))
    b = Observable(oracles.random_hermitian_matrix(dim, rng))
    h = oracles.random_hermitian_matrix(dim, rng)
    t1 = rng.uniform(0.0, 1.0)
    t2 = t1 + rng.uniform(0.1, 1.0)
    rho0 = DensityMatrix(oracles.random_state_matrix(dim, rng))
    return a, b, h, t1, t2, rho0


def dephased_start_state(a, channel, t1, rng):
    # Evolved state at t1 diagonal in a's eigenbasis (mixture of its projectors).
    weights = rng.uniform(0.1, 1.0, len(a.spectrum))
    weights /= weights.sum()
    rho_t1 = sum(w * p / p.trace().real for w, p in zip(weights, a.projectors))
    return DensityMatrix(channel.propagate_state(rho_t1, -t1))


class TestHeisenbergCorrelator:
    def test_equal_axis_gives_cosine(self):
        channel = precession_channel((0, 0, 1))
        rng = np.random.default_rng(6)
        obs = Observable(SIGMA_X)
        for _ in range(20):
            t1, t2 = rng.uniform(0.0, 6.0, 2)
            rho0 = random_density_matrix(2, rng)
            op = TwoTimeOperator("product", obs, obs, t1, t2, channel)
            assert heisenberg_correlator(op, rho0) == pytest.approx(math.cos(t2 - t1), abs=1e-12)

    def test_conserved_z(self):
        channel = precession_channel((0, 0, 1))
        obs = Observable(SIGMA_Z)
        op = TwoTimeOperator("product", obs, obs, 0.3, 1.9, channel)
        assert heisenberg_correlator(op, DensityMatrix.from_ket([1, 0])) == pytest.approx(1.0, abs=1e-12)

    def test_spin_product_vanishes_at_equal_times(self):
        channel = precession_channel((0, 0, 1))
        sx = Observable(SIGMA_X / 2.0)
        sy = Observable(SIGMA_Y / 2.0)
        rng = np.random.default_rng(9)
        for tau in (0.0, 0.8, 2.2):
            op = TwoTimeOperator("product", sx, sy, tau, tau, channel)
            for _ in range(5):
                rho0 = random_density_matrix(2, rng)
                assert abs(heisenberg_correlator(op, rho0)) <= 1e-12

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(40)
        for kind in ("product", "sum"):
            for dim in (2, 3):
                a, b, h, t1, t2, rho0 = random_instance(dim, rng)
                op = TwoTimeOperator(kind, a, b, t1, t2, ChannelFamily(h))
                expected = oracles.heisenberg_bruteforce(a.matrix, b.matrix, h, t1, t2, rho0.matrix, kind)
                assert heisenberg_correlator(op, rho0) == pytest.approx(expected, abs=1e-10)

    def test_equals_realized_trace(self):
        rng = np.random.default_rng(41)
        a, b, h, t1, t2, rho0 = random_instance(3, rng)
        op = TwoTimeOperator("sum", a, b, t1, t2, ChannelFamily(h))
        direct = np.trace(realize(op).matrix @ rho0.matrix).real
        assert heisenberg_correlator(op, rho0) == pytest.approx(direct, abs=1e-12)


class TestRealize:
    def test_anticommuting_pair_is_zero(self):
        channel = precession_channel((0, 0, 1))
        op = TwoTimeOperator("product", Observable(SIGMA_X), Observable(SIGMA_Y), 0.0, 0.0, channel)
        obs = realize(op)
        assert np.max(np.abs(obs.matrix)) <= 1e-12
        assert obs.eigenvalues.tolist() == [0.0]

    def test_spin_product_proportional_to_identity(self):
        channel = precession_channel((0, 0, 1))
        sx = Observable(SIGMA_X / 2.0)
        sy = Observable(SIGMA_Y / 2.0)
        rng = np.random.default_rng(10)
        for _ in range(20):
            t1, t2 = rng.uniform(0.0, 7.0, 2)
            obs = realize(TwoTimeOperator("product", sx, sy, t1, t2, channel))
            factor = 0.25 * math.sin(t2 - t1)
            assert np.max(np.abs(obs.matrix - factor * np.eye(2))) <= 1e-10
            # independent route: expm-conjugated constituents
            expected = oracles.heisenberg_bruteforce(
                sx.matrix, sy.matrix, channel.hamiltonian, t1, t2, np.eye(2, dtype=complex) / 2.0
            )
            assert factor == pytest.approx(expected, abs=1e-12)

    def test_sum_kind_eigenvalues(self):
        channel = precession_channel((0, 0, 1))
        obs_x = Observable(SIGMA_X)
        rng = np.random.default_rng(13)
        for _ in range(20):
            t1, t2 = rng.uniform(0.0, 7.0, 2)
            top = 2.0 * abs(math.cos((t2 - t1) / 2.0))
            obs = realize(TwoTimeOperator("sum", obs_x, obs_x, t1, t2, channel))
            if top <= 1e-9:
                assert obs.eigenvalues == pytest.approx((0.0,), abs=1e-9)
            else:
                assert obs.eigenvalues == pytest.approx((-top, top), abs=1e-10)

    def test_kind_validation(self):
        channel = precession_channel((0, 0, 1))
        with pytest.raises(ValueError, match="kind"):
            TwoTimeOperator("anticommutator", Observable(SIGMA_X), Observable(SIGMA_X), 0.0, 1.0, channel)

    def test_dimension_validation(self):
        channel = precession_channel((0, 0, 1))
        with pytest.raises(ValueError, match="dimension"):
            TwoTimeOperator("sum", Observable(np.eye(3)), Observable(SIGMA_X), 0.0, 1.0, channel)


class TestTpmCorrelator:
    def test_requires_time_ordering(self):
        channel = precession_channel((0, 0, 1))
        obs = Observable(SIGMA_X)
        rho = DensityMatrix.maximally_mixed(2)
        with pytest.raises(ValueError, match="t2 > t1"):
            tpm_correlator(obs, obs, 1.0, 1.0, channel, rho)

    def test_coincides_when_start_is_dephased(self):
        rng = np.random.default_rng(50)
        for dim in (2, 3):
            for _ in range(50):
                a, b, h, t1, t2, _ = random_instance(dim, rng)
                channel = ChannelFamily(h)
                rho0 = dephased_start_state(a, channel, t1, rng)
                op = TwoTimeOperator("product", a, b, t1, t2, channel)
                gap = abs(tpm_correlator(a, b, t1, t2, channel, rho0) - heisenberg_correlator(op, rho0))
                assert gap <= 1e-10

    def test_qubit_pm1_observables_always_coincide(self):
        rng = np.random.default_rng(51)
        sigma = (SIGMA_X, SIGMA_Y, SIGMA_Z)
        for _ in range(1000):
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            m = rng.standard_normal(3)
            m /= np.linalg.norm(m)
            a = Observable(sum(ni * s for ni, s in zip(n, sigma)))
            b = Observable(sum(mi * s for mi, s in zip(m, sigma)))
            h = oracles.random_hermitian_matrix(2, rng)
            channel = ChannelFamily(h)
            t1 = rng.uniform(0.0, 1.0)
            t2 = t1 + rng.uniform(0.1, 1.0)
            rho0 = DensityMatrix(oracles.random_state_matrix(2, rng))
            op = TwoTimeOperator("product", a, b, t1, t2, channel)
            gap = abs(tpm_correlator(a, b, t1, t2, channel, rho0) - heisenberg_correlator(op, rho0))
            assert gap <= 1e-10

    def test_cross_term_cancellation_identity(self):
        # For spectrum {+1, -1}: sum_a a alpha rho alpha = {A, rho} / 2.
        rng = np.random.default_rng(52)
        for _ in range(100):
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            a = Observable(n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z)
            rho = oracles.random_state_matrix(2, rng)
            signed = sum(val * (proj @ rho @ proj) for val, proj in a.spectrum)
            anticom = 0.5 * (a.matrix @ rho + rho @ a.matrix)
            assert np.max(np.abs(signed - anticom)) <= 1e-12

    def test_qutrit_fixture_gap(self):
        fx = qutrit_gap_fixture()
        tpm = tpm_correlator(fx.A, fx.B, fx.t1, fx.t2, fx.channel, fx.rho0)
        op = TwoTimeOperator("product", fx.A, fx.B, fx.t1, fx.t2, fx.channel)
        heis = heisenberg_correlator(op, fx.rho0)
        assert abs(tpm - heis) > 1e-6
        # both values against the brute-force enumeration oracle
        h = fx.channel.hamiltonian
        assert tpm == pytest.approx(oracles.tpm_bruteforce(fx.A.matrix, fx.B.matrix, h, fx.t1, fx.t2, fx.rho0.matrix), abs=1e-12)
        assert heis == pytest.approx(oracles.heisenberg_bruteforce(fx.A.matrix, fx.B.matrix, h, fx.t1, fx.t2, fx.rho0.matrix), abs=1e-12)
        # frozen values: protocol 0, Heisenberg 1/(2 sqrt(2))
        assert tpm == pytest.approx(0.0, abs=1e-12)
        assert heis == pytest.approx(0.35355339059327373, abs=1e-12)

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(53)
        for dim in (2, 3):
            for _ in range(25):
                a, b, h, t1, t2, rho0 = random_instance(dim, rng)
                value = tpm_correlator(a, b, t1, t2, ChannelFamily(h), rho0)
                expected = oracles.tpm_bruteforce(a.matrix, b.matrix, h, t1, t2, rho0.matrix)
                assert value == pytest.approx(expected, abs=1e-10)

    def test_joint_distribution_is_normalized(self):
        rng = np.random.default_rng(54)
        a = Observable(np.diag([1.0, 1.0, -1.0]).astype(complex))  # degenerate first quantity
        b = Observable(oracles.random_hermitian_matrix(3, rng))
        channel = ChannelFamily(oracles.random_hermitian_matrix(3, rng))
        rho0 = DensityMatrix(oracles.random_state_matrix(3, rng))
        a_vals, _, joint = tpm_joint_distribution(a, b, 0.2, 1.1, channel, rho0)
        assert len(a_vals) == 2
        assert np.all(joint >= 0.0)
        assert np.all(joint <= 1.0)
        assert joint.sum() == pytest.approx(1.0, abs=1e-10)

    def test_zero_marginal_branch_is_skipped(self):
        channel = ChannelFamily(np.zeros((2, 2)))
        a = Observable(SIGMA_Z)
        b = Observable(SIGMA_X)
        rho0 = DensityMatrix.from_ket([1, 0])  # no weight on the -1 outcome
        _, _, joint = tpm_joint_distribution(a, b, 0.0, 1.0, channel, rho0)
        assert np.all(joint[0] == 0.0)  # ascending eigenvalue order: row 0 is a = -1
        assert joint.sum() == pytest.approx(1.0, abs=1e-12)
        assert tpm_correlator(a, b, 0.0, 1.0, channel, rho0) == pytest.approx(0.0, abs=1e-12)


PHASE_MESSAGE = "phase E*t must be finite, got inf at time 1e+308"


@pytest.mark.parametrize(
    "correlate, message",
    [
        # A non-finite time is rejected where it enters, naming its parameter: a TwoTimeOperator's when it is built.
        (lambda fx, channel: tpm_correlator(fx.A, fx.B, -math.inf, 1.0, channel, fx.rho0), "t1 must be finite, got -inf"),
        (lambda fx, channel: tpm_correlator(fx.A, fx.B, 0.0, math.inf, channel, fx.rho0), "t2 must be finite, got inf"),
        (lambda fx, channel: heisenberg_correlator(TwoTimeOperator("product", fx.A, fx.B, 0.0, math.inf, channel), fx.rho0),
         "t2 must be finite, got inf"),
        (lambda fx, channel: TwoTimeOperator("product", fx.A, fx.B, math.inf, 1.0, channel), "t1 must be finite, got inf"),
        # Finite times whose phases E t leave the float range.
        (lambda fx, channel: tpm_correlator(fx.A, fx.B, 1e308, 1.5e308, channel, fx.rho0), PHASE_MESSAGE),
        (lambda fx, channel: heisenberg_correlator(TwoTimeOperator("product", fx.A, fx.B, 0.0, 1e308, channel), fx.rho0),
         PHASE_MESSAGE),
        (lambda fx, channel: lambda_operator(fx.A.projectors[2], fx.rho0, 1e308, channel), PHASE_MESSAGE),
    ],
    ids=["tpm-t1-minus-inf", "tpm-t2-inf", "heisenberg-t2-inf", "operator-t1-inf", "tpm-t1-1e308", "heisenberg-t2-1e308",
         "lambda-t1-1e308"],
)
def test_rejects_non_finite_times(correlate, message):
    channel = ChannelFamily(np.diag([0.0, 1.0, 2.0]).astype(complex))
    with pytest.raises(ValueError) as info:
        correlate(qutrit_gap_fixture(), channel)
    assert str(info.value) == message


HUGE_Z, HUGE_X = Observable(1e300 * SIGMA_Z), Observable(1e300 * SIGMA_X)
MAX_Z, MAX_X, MAX_D = (Observable(1.7e308 * m) for m in (SIGMA_Z, SIGMA_X, np.diag([1.0, 0.5])))


@pytest.mark.parametrize(
    "compute, message",
    [
        # E[ab] = (-1e300)(+-1e300) for the protocol; C12 = {A1, B2}/2 for the trace form (its entries inf - inf).
        (lambda up: tpm_correlator(HUGE_Z, HUGE_X, 0.0, 1.0, ChannelFamily(SIGMA_Z), up), "correlator must be finite, got -inf"),
        (lambda up: heisenberg_correlator(TwoTimeOperator("product", HUGE_Z, HUGE_X, 0.0, 1.0, ChannelFamily(SIGMA_Z)), up),
         "C12 must be finite, got nan"),
        (lambda up: realize(TwoTimeOperator("sum", MAX_Z, MAX_Z, 0.0, 1.0, ChannelFamily(SIGMA_Z))), "C12 must be finite, got inf"),
        # A finite C12, entries up to 1.7e308, whose trace form Tr(C12 rho0) overflows as it is summed.
        (lambda up: heisenberg_correlator(TwoTimeOperator("sum", MAX_X, MAX_D, 0.0, 1.0, ChannelFamily(SIGMA_Z)),
                                          DensityMatrix.from_ket([1.0, 1.0])), "correlator must be finite, got inf"),
    ],
    ids=["tpm-product", "heisenberg-product", "realize-sum", "heisenberg-trace"],
)
def test_an_overflowing_two_time_result_raises_one_value_error(compute, message):
    # Any RuntimeWarning fails the test (pyproject.toml): the overflow is computed silently, then rejected by name.
    with pytest.raises(ValueError) as info:
        compute(DensityMatrix.from_ket([1.0, 0.0]))
    assert str(info.value) == message


class TestStackKernels:
    def test_spurious_imaginary_part_in_any_row_is_rejected(self):
        # A non-Hermitian "state" in the second row makes its trace form complex.
        rho = np.array([np.eye(2) / 2.0, [[0.5, 0.25j], [0.0, 0.5]]], dtype=complex)
        with pytest.raises(ArithmeticError, match="spurious imaginary part 2.500e-01"):
            _trace_forms(np.array([SIGMA_X, SIGMA_X], dtype=complex), rho)

    def test_imaginary_part_is_checked_per_unit_of_each_operator(self):
        # Tr(s sigma_x rho) of a "state" with off-diagonal entries i d has imaginary part 2 s d. The 1e6 sigma_x row's
        # 1e-7 is 1e-13 per unit of max |C12| and passes; beside it, the unit row's 1e-11 still fails.
        rho = np.array([[[0.5, 5e-14j], [5e-14j, 0.5]], [[0.5, 5e-12j], [5e-12j, 0.5]]])
        c12 = np.array([1e6 * SIGMA_X, SIGMA_X])
        assert _trace_forms(c12[:1], rho[:1]).tolist() == [0.0]
        with pytest.raises(ArithmeticError, match=r"^correlator has spurious imaginary part 1.000e-11$"):
            _trace_forms(c12, rho)

    def test_conditional_sums_are_checked_in_every_row(self):
        # A second-row "unitary" scaled by sqrt(2) doubles that row's evolved states and breaks only its conditional sums.
        frame = tuple(np.concatenate([part] * 2) for part in Observable(SIGMA_Z)._frame)
        identities = np.array([np.eye(2)] * 2, dtype=complex)
        u21 = identities * np.array([1.0, math.sqrt(2.0)])[:, None, None]
        with pytest.raises(ArithmeticError, match="conditional distribution sums to 2"):
            _tpm_joints(frame, frame, identities, u21, identities / 2.0)

    def test_weighted_starts_commute_with_a_degenerate_a(self, monkeypatch):
        # An (n, d) rho0 holds each start's weights w: _tpm_gaps builds the state V_A diag(w) V_A^dag at t1 from its own
        # decomposition of A, so it commutes with A whatever frame eigh picks in the degenerate eigenspace, its spectrum
        # is w, and the gap is within IDENTITY_TOL. The built states are read where _tpm_joints receives them.
        rng = np.random.default_rng(53)
        frames = np.linalg.qr(rng.standard_normal((8, 3, 3)) + 1j * rng.standard_normal((8, 3, 3)))[0]
        a = frames * np.array([1.0, 1.0, -1.0]) @ frames.conj().swapaxes(1, 2)
        b, h = (np.array([oracles.random_hermitian_matrix(3, rng) for _ in range(8)]) for _ in range(2))
        t1 = rng.uniform(0.0, 1.0, 8)
        t2 = t1 + rng.uniform(0.1, 1.0, 8)
        w = rng.uniform(0.1, 1.0, (8, 3))
        w /= w.sum(axis=1, keepdims=True)
        states, joints = [], _tpm_joints
        monkeypatch.setattr("twotime.correlators._tpm_joints", lambda *args: states.append(args[4]) or joints(*args))
        gaps = _tpm_gaps(a, b, h, t1, t2, w)
        (rho0,) = states
        assert rho0.shape == (8, 3, 3)
        for k in range(8):
            u = ChannelFamily(h[k]).unitary_at(t1[k])
            start = u @ rho0[k] @ u.conj().T
            assert np.max(np.abs(a[k] @ start - start @ a[k])) <= 1e-12
            assert np.allclose(np.linalg.eigvalsh(start), np.sort(w[k]), rtol=0.0, atol=1e-12)
        assert gaps.max() <= IDENTITY_TOL
        assert np.array_equal(_tpm_gaps(a, b, h, t1, t2, rho0), gaps)

    def test_one_row_protocol_is_a_row_of_the_stack(self):
        # tpm_joint_distribution is the n = 1 view of _tpm_joints: its joint is bitwise the instance's row of a
        # stacked run, at the first slots of the eigenspaces (a degenerate A leaves zero rows at the others).
        rng = np.random.default_rng(52)
        for dim, degenerate in ((2, [0.5, 0.5]), (3, [-1.0, 1.0, 1.0])):
            instances = [random_instance(dim, rng) for _ in range(6)]
            basis = np.linalg.eigh(oracles.random_hermitian_matrix(dim, rng))[1]
            instances[2] = (Observable(basis @ np.diag(degenerate) @ basis.conj().T), *instances[2][1:])
            a, b, h, t1, t2, rho0 = (np.array([getattr(x, "matrix", x) for x in column]) for column in zip(*instances))
            (_, *a_frame), (_, *b_frame) = _spectra(a), _spectra(b)
            _, energies, modes = _eighs(h, "hamiltonian")
            joints = _tpm_joints(a_frame, b_frame, _unitaries(energies, modes, t1), _unitaries(energies, modes, t2 - t1), rho0)
            assert not a_frame[2][2].all()
            for n, (a_n, b_n, h_n, t1_n, t2_n, rho0_n) in enumerate(instances):
                _, _, joint = tpm_joint_distribution(a_n, b_n, t1_n, t2_n, ChannelFamily(h_n), rho0_n)
                assert np.array_equal(joint, joints[n][np.ix_(a_frame[2][n], b_frame[2][n])])
                assert not joints[n][~a_frame[2][n]].any() and not joints[n][:, ~b_frame[2][n]].any()


class TestLambdaOperator:
    def setup_method(self):
        self.channel = ChannelFamily(np.zeros((2, 2)))
        self.minus_z = (np.eye(2, dtype=complex) - SIGMA_Z) / 2.0

    def test_commuting_case_returns_projector(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        report = lambda_operator(self.minus_z, rho, 0.0, self.channel)
        assert np.max(np.abs(report.matrix - self.minus_z)) <= 1e-12
        assert report.physical

    def test_equator_state_is_nonphysical(self):
        rho = bloch_to_state((1.0, 0.0, 0.0))  # theta = pi/2
        report = lambda_operator(self.minus_z, rho, 0.0, self.channel)
        nu = np.array([np.trace(report.matrix @ s).real for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)])
        assert np.linalg.norm(nu) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert not report.physical
        assert report.trace == pytest.approx(1.0, abs=1e-12)

    def test_south_pole_is_physical(self):
        rho = bloch_to_state((0.0, 0.0, -1.0))  # theta = pi
        report = lambda_operator(self.minus_z, rho, 0.0, self.channel)
        nu = np.array([np.trace(report.matrix @ s).real for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)])
        assert np.linalg.norm(nu) == pytest.approx(1.0, abs=1e-12)
        assert report.physical

    def test_unconditioned_outcome(self):
        rho = DensityMatrix.from_ket([1, 0])
        with pytest.raises(ValueError, match="unconditioned outcome"):
            lambda_operator(self.minus_z, rho, 0.0, self.channel)

    def test_physicality_iff_commuting_for_pure_qubit(self):
        # Sweep pure states; cross-check the norm against the closed form.
        for theta in np.linspace(0.05, math.pi, 60):
            direction = (math.sin(theta), 0.0, math.cos(theta))
            rho = bloch_to_state(direction)
            report = lambda_operator(self.minus_z, rho, 0.0, self.channel)
            nu = np.array([np.trace(report.matrix @ s).real for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)])
            closed_nu, closed_norm = bloch_lambda_nu(direction)
            assert np.max(np.abs(nu - closed_nu)) <= 1e-10
            assert np.linalg.norm(nu) == pytest.approx(closed_norm, abs=1e-10)
            commutes = np.max(np.abs(self.minus_z @ rho.matrix - rho.matrix @ self.minus_z)) <= 1e-10
            assert report.physical == commutes

    def test_rejects_non_projector(self):
        with pytest.raises(ValueError, match="idempotent"):
            lambda_operator(SIGMA_X * 0.5, DensityMatrix.maximally_mixed(2), 0.0, self.channel)

    @pytest.mark.parametrize("projector, defect", [(SIGMA_X * 0.5, "5.000e-01"), (np.diag([0.0, 1.0 + 2e-10]), "2.000e-10")])
    def test_non_projector_message_gives_the_defect(self, projector, defect):
        with pytest.raises(ValueError, match=rf"^projector is not idempotent: max \|P\^2 - P\| = {defect}$"):
            lambda_operator(projector, DensityMatrix.maximally_mixed(2), 0.0, self.channel)

    def test_evolution_enters_through_t1(self):
        channel = precession_channel((0, 0, 1))
        rho0 = bloch_to_state((1.0, 0.0, 0.0))
        # after a half turn the state points along -x; still on the equator
        report = lambda_operator(self.minus_z, rho0, math.pi, channel)
        nu = np.array([np.trace(report.matrix @ s).real for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)])
        assert np.linalg.norm(nu) == pytest.approx(math.sqrt(2.0), abs=1e-10)
        assert nu[0] == pytest.approx(-1.0, abs=1e-10)


class TestPrepareEigenstate:
    def test_irreality_vanishes_in_eigenstate_preparations(self):
        rng = np.random.default_rng(60)
        for index in range(40):
            dim = 2 if index % 2 == 0 else 3
            kind = "product" if index % 4 < 2 else "sum"
            a, b, h, t1, t2, _ = random_instance(dim, rng)
            op = TwoTimeOperator(kind, a, b, t1, t2, ChannelFamily(h))
            realized = realize(op)
            for k in range(len(realized.spectrum)):
                rho = prepare_eigenstate(op, k)
                assert irreality(realized, rho).irreality <= 1e-10

    def test_mixtures_of_eigenstates_have_zero_irreality(self):
        rng = np.random.default_rng(61)
        a, b, h, t1, t2, _ = random_instance(3, rng)
        op = TwoTimeOperator("product", a, b, t1, t2, ChannelFamily(h))
        realized = realize(op)
        weights = rng.uniform(0.1, 1.0, len(realized.spectrum))
        weights /= weights.sum()
        mix = sum(
            w * prepare_eigenstate(op, k).matrix for k, w in enumerate(weights)
        )
        assert irreality(realized, DensityMatrix(mix)).irreality <= 1e-10

    def test_top_eigenstate_expectation(self):
        channel = precession_channel((0, 0, 1))
        obs_x = Observable(SIGMA_X)
        t1, t2 = 0.4, 1.5
        op = TwoTimeOperator("sum", obs_x, obs_x, t1, t2, channel)
        top_index = len(realize(op).spectrum) - 1
        rho = prepare_eigenstate(op, top_index)
        value = heisenberg_correlator(op, rho)
        assert value == pytest.approx(2.0 * abs(math.cos((t2 - t1) / 2.0)), abs=1e-10)

    @staticmethod
    def sum_operator():
        return TwoTimeOperator("sum", Observable(SIGMA_X), Observable(SIGMA_X), 0.0, 1.0, precession_channel((0, 0, 1)))

    @pytest.mark.parametrize(
        "k, error, message",
        [(5, IndexError, "eigenvalue index 5 out of range"), (-1, IndexError, "eigenvalue index -1 out of range"),
         (1.0, TypeError, "'float' object cannot be interpreted as an integer"),
         (np.False_, TypeError, "object cannot be interpreted as an integer"),
         (np.True_, TypeError, "object cannot be interpreted as an integer")],
        ids=["past-the-end", "negative", "float", "numpy-false", "numpy-true"],
    )
    def test_index_out_of_range(self, k, error, message):
        # k is taken as an index: a float or a numpy bool is none (a numpy bool once indexed projectors as a mask).
        with pytest.raises(error, match=message):
            prepare_eigenstate(self.sum_operator(), k)

    def test_a_bool_selects_as_a_list_index_does(self):
        op = self.sum_operator()
        for k in (False, True):
            assert np.array_equal(prepare_eigenstate(op, k).matrix, prepare_eigenstate(op, int(k)).matrix)


def _qubit_parts():
    return Observable(SIGMA_X), Observable(SIGMA_Z), ChannelFamily(SIGMA_Z / 2.0), DensityMatrix.maximally_mixed(3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda x, z, ch, rho3: relative_entropy(DensityMatrix.maximally_mixed(2), rho3), "rho dim 2, eta dim 3"),
        (lambda x, z, ch, rho3: TwoTimeOperator("sum", Observable(np.eye(3)), x, 0.0, 1.0, ch), "A dim 3, B dim 2, channel dim 2"),
        (lambda x, z, ch, rho3: heisenberg_correlator(TwoTimeOperator("sum", x, z, 0.0, 1.0, ch), rho3),
         "state dim 3, operator dim 2"),
        (lambda x, z, ch, rho3: tpm_joint_distribution(x, z, 0.0, 1.0, ch, rho3), "A dim 2, B dim 2, channel dim 2, state dim 3"),
        (lambda x, z, ch, rho3: lambda_operator(np.diag([1.0, 0.0]), rho3, 0.0, ChannelFamily(np.eye(3))),
         "projector dim 2, state dim 3, channel dim 3"),
        (lambda x, z, ch, rho3: dephase(z, rho3), "observable dim 2, state dim 3"),
        (lambda x, z, ch, rho3: complementarity_bound_check(rho3, x, z), "first dim 2, second dim 2, state dim 3"),
        (lambda x, z, ch, rho3: ch.propagate_state(rho3.matrix, 0.0), "matrix dim 3, channel dim 2"),
    ],
    ids=["relative_entropy", "TwoTimeOperator", "heisenberg_correlator", "tpm_joint_distribution", "lambda_operator",
         "dephase", "complementarity_bound_check", "propagate_state"],
)
def test_every_dimension_check_raises_one_message_naming_every_part(call, message):
    with pytest.raises(ValueError) as info:
        call(*_qubit_parts())
    assert str(info.value) == f"dimension mismatch: {message}"
