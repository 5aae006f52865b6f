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
from twotime.correlators import _tpm_joints, _trace_forms
from twotime.dynamics import ChannelFamily, KrausChannel, evolve_observable, evolve_state
from twotime.qcore import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    Observable,
    bloch_to_state,
    random_density_matrix,
    relative_entropy,
)
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

    def test_rejects_kraus_channel(self):
        obs = Observable(SIGMA_X)
        kraus = KrausChannel([np.eye(2, dtype=complex)])
        op = TwoTimeOperator("product", obs, obs, 0.0, 1.0, kraus)
        with pytest.raises(TypeError, match="unitary"):
            heisenberg_correlator(op, DensityMatrix.maximally_mixed(2))


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

    def test_kraus_hook_drives_the_protocol(self):
        # First outcome is a = +1 with certainty; the dephasing step then
        # shrinks the coherence, so E[ab] = sqrt(1 - p).
        p = 0.25
        kraus = KrausChannel([
            np.diag([1.0, math.sqrt(1.0 - p)]).astype(complex),
            np.diag([0.0, math.sqrt(p)]).astype(complex),
        ])
        a = Observable(SIGMA_X)
        rho0 = DensityMatrix.from_ket([1.0, 1.0])
        _, _, joint = tpm_joint_distribution(a, a, 0.0, 1.0, kraus, rho0)
        assert joint.sum() == pytest.approx(1.0, abs=1e-10)
        value = tpm_correlator(a, a, 0.0, 1.0, kraus, rho0)
        assert value == pytest.approx(math.sqrt(1.0 - p), abs=1e-12)


@pytest.mark.parametrize(
    "correlate",
    [
        lambda fx, channel: tpm_correlator(fx.A, fx.B, -math.inf, 1.0, channel, fx.rho0),
        lambda fx, channel: tpm_correlator(fx.A, fx.B, 0.0, math.inf, channel, fx.rho0),
        lambda fx, channel: heisenberg_correlator(TwoTimeOperator("product", fx.A, fx.B, 0.0, math.inf, channel), fx.rho0),
        # Finite times whose phases E t leave the float range.
        lambda fx, channel: tpm_correlator(fx.A, fx.B, 1e308, 1.5e308, channel, fx.rho0),
        lambda fx, channel: heisenberg_correlator(TwoTimeOperator("product", fx.A, fx.B, 0.0, 1e308, channel), fx.rho0),
        lambda fx, channel: lambda_operator(fx.A.projectors[2], fx.rho0, 1e308, channel),
    ],
    ids=["tpm-t1-minus-inf", "tpm-t2-inf", "heisenberg-t2-inf", "tpm-t1-1e308", "heisenberg-t2-1e308", "lambda-t1-1e308"],
)
def test_rejects_non_finite_times(correlate):
    channel = ChannelFamily(np.diag([0.0, 1.0, 2.0]).astype(complex))
    with pytest.raises(ValueError, match="time must be finite"):
        correlate(qutrit_gap_fixture(), channel)


class TestStackKernels:
    def test_spurious_imaginary_part_in_any_row_is_rejected(self):
        # A non-Hermitian "state" in the second row makes its trace form complex.
        rho = np.array([np.eye(2) / 2.0, [[0.5, 0.25j], [0.0, 0.5]]], dtype=complex)
        with pytest.raises(ArithmeticError, match="spurious imaginary part 2.500e-01"):
            _trace_forms(np.array([SIGMA_X, SIGMA_X], dtype=complex), rho)

    def test_conditional_sums_are_checked_in_every_row(self):
        # An evolution that doubles the second row's states breaks only that row's conditional sums.
        projectors = np.array([Observable(SIGMA_Z).projectors] * 2)
        rho_t1 = np.array([np.eye(2) / 2.0] * 2, dtype=complex)
        with pytest.raises(ArithmeticError, match="conditional distribution sums to 2"):
            _tpm_joints(projectors, projectors, rho_t1, lambda s: s * np.array([1.0, 2.0])[:, None, None, None])


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

    def test_index_out_of_range(self):
        channel = precession_channel((0, 0, 1))
        op = TwoTimeOperator("sum", Observable(SIGMA_X), Observable(SIGMA_X), 0.0, 1.0, channel)
        with pytest.raises(IndexError):
            prepare_eigenstate(op, 5)


def _qubit_parts():
    return Observable(SIGMA_X), Observable(SIGMA_Z), ChannelFamily(SIGMA_Z / 2.0), DensityMatrix.maximally_mixed(3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda x, z, ch, rho3: relative_entropy(DensityMatrix.maximally_mixed(2), rho3), "rho dim 2, eta dim 3"),
        (lambda x, z, ch, rho3: evolve_state(ch, rho3, 1.0), "channel dim 2, state dim 3"),
        (lambda x, z, ch, rho3: evolve_observable(ch, Observable(np.eye(3)), 1.0), "channel dim 2, observable dim 3"),
        (lambda x, z, ch, rho3: TwoTimeOperator("sum", Observable(np.eye(3)), x, 0.0, 1.0, ch), "A dim 3, B dim 2, channel dim 2"),
        (lambda x, z, ch, rho3: heisenberg_correlator(TwoTimeOperator("sum", x, z, 0.0, 1.0, ch), rho3),
         "state dim 3, operator dim 2"),
        (lambda x, z, ch, rho3: tpm_joint_distribution(x, z, 0.0, 1.0, ch, rho3), "A dim 2, B dim 2, channel dim 2, state dim 3"),
        (lambda x, z, ch, rho3: lambda_operator(np.diag([1.0, 0.0]), rho3, 0.0, ChannelFamily(np.eye(3))),
         "projector dim 2, state dim 3, channel dim 3"),
        (lambda x, z, ch, rho3: dephase(z, rho3), "observable dim 2, state dim 3"),
        (lambda x, z, ch, rho3: complementarity_bound_check(rho3, x, z), "first dim 2, second dim 2, state dim 3"),
    ],
    ids=["relative_entropy", "evolve_state", "evolve_observable", "TwoTimeOperator", "heisenberg_correlator",
         "tpm_joint_distribution", "lambda_operator", "dephase", "complementarity_bound_check"],
)
def test_every_dimension_check_raises_one_message_naming_every_part(call, message):
    with pytest.raises(ValueError) as info:
        call(*_qubit_parts())
    assert str(info.value) == f"dimension mismatch: {message}"
