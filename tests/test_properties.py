"""Hypothesis property tests of the irreality, the protocol, the realized two-time operator, the state check, the
admission of a complementary pair and the closed-form qubit decomposition.

Matrices come from a drawn seed; observables get a drawn integer spectrum in a random
basis, so repeated entries give degenerate observables.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from twotime import qcore
from twotime.correlators import TwoTimeOperator, heisenberg_correlator, realize, tpm_joint_distribution
from twotime.dynamics import ChannelFamily
from twotime.qcore import PSD_FLOOR, DensityMatrix, Observable, _states, random_hermitian, von_neumann_entropy
from twotime.realism import complementarity_bound_check, dephase, irreality
from twotime.spinlab import precession_channel


def unitary(dim, rng):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q


def state(dim, rank, rng):
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real)


def conjugated(u, matrix):
    return u @ matrix @ u.conj().T


@st.composite
def systems(draw):
    """(dim, rng, [spectrum, spectrum], rank of the state)."""
    dim = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spectra = [draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)) for _ in range(2)]
    return dim, rng, spectra, draw(st.integers(1, dim))


def observable(spectrum, rng):
    return conjugated(unitary(len(spectrum), rng), np.diag(spectrum).astype(complex))


@given(systems())
def test_irreality_is_non_negative_and_vanishes_on_dephased_states(system):
    dim, rng, (spectrum, _), rank = system
    a = Observable(observable(spectrum, rng))
    rho = state(dim, rank, rng)
    assert irreality(a, rho).irreality >= -1e-12
    assert abs(irreality(a, dephase(a, rho)).irreality) <= 1e-12


@given(systems())
def test_irreality_is_the_entropy_difference_of_the_dephased_state_bitwise(system):
    # The path through two DensityMatrix objects as reference.
    dim, rng, (spectrum, _), rank = system
    a = Observable(observable(spectrum, rng))
    rho = state(dim, rank, rng)
    s_dephased, s_state = von_neumann_entropy(dephase(a, rho)), von_neumann_entropy(rho)
    report = irreality(a, rho)
    assert (report.irreality, report.entropy_dephased, report.entropy_state) == (s_dephased - s_state, s_dephased, s_state)


@given(systems())
def test_irreality_bounds_the_dephasing_defect(system):
    # Pinsker's inequality for J = S(rho || Phi_A(rho)): J >= ||rho - Phi_A(rho)||_1^2 / 2, so J = 0 only on
    # fixed points of Phi_A.
    dim, rng, (spectrum, _), rank = system
    a = Observable(observable(spectrum, rng))
    rho = state(dim, rank, rng)
    trace_norm = np.abs(np.linalg.eigvalsh(rho.matrix - dephase(a, rho).matrix)).sum()
    assert irreality(a, rho).irreality >= 0.5 * trace_norm**2 - 1e-12


@given(systems(), st.floats(-2.0, 2.0), st.floats(0.01, 3.0))
def test_tpm_joint_distribution_is_normalized(system, t1, dt):
    dim, rng, (spec_a, spec_b), rank = system
    a, b = Observable(observable(spec_a, rng)), Observable(observable(spec_b, rng))
    channel = ChannelFamily(random_hermitian(dim, rng))
    a_values, b_values, joint = tpm_joint_distribution(a, b, t1, t1 + dt, channel, state(dim, rank, rng))
    assert joint.shape == (len(a_values), len(b_values))
    assert np.all(joint >= 0.0)
    assert abs(joint.sum() - 1.0) <= 1e-10


@given(systems(), st.sampled_from(["A degenerate", "B degenerate", "both degenerate", "dephased start"]),
       st.floats(-2.0, 2.0), st.floats(0.01, 3.0))
def test_tpm_joint_distribution_matches_the_lueders_oracle(system, case, t1, dt):
    # Cell by cell against explicit Lueders branches. A dephased start has rho_t1 = Phi_A(sigma), so every branch
    # is one block of rho_t1.
    dim, rng, spectra, rank = system
    spec_a, spec_b = (list(spectrum) for spectrum in spectra)
    if case in ("A degenerate", "both degenerate"):
        spec_a[1] = spec_a[0]
    if case in ("B degenerate", "both degenerate"):
        spec_b[1] = spec_b[0]
    a, b, h, rho0 = observable(spec_a, rng), observable(spec_b, rng), random_hermitian(dim, rng), state(dim, rank, rng).matrix
    if case == "dephased start":
        dephased = sum(alpha @ rho0 @ alpha for _, alpha in oracles.grouped_projectors(a))
        rho0 = oracles.schrodinger_conjugate(h, -t1, dephased)
    _, _, joint = tpm_joint_distribution(Observable(a), Observable(b), t1, t1 + dt, ChannelFamily(h), DensityMatrix(rho0))
    expected = oracles.tpm_joint_bruteforce(a, b, h, t1, t1 + dt, rho0)
    assert joint.shape == expected.shape
    assert np.max(np.abs(joint - expected)) <= 1e-12


@given(systems(), st.sampled_from(["product", "sum"]), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_realize_is_hermitian_and_commutes_with_a_change_of_basis(system, kind, t1, t2):
    dim, rng, (spec_a, spec_b), _ = system
    a, b, h = observable(spec_a, rng), observable(spec_b, rng), random_hermitian(dim, rng)
    c = realize(TwoTimeOperator(kind, Observable(a), Observable(b), t1, t2, ChannelFamily(h)))
    assert np.array_equal(c.matrix, c.matrix.conj().T)
    # Projectors of eigenvalues closer than this are too ill-conditioned to compare.
    assume(np.all(np.diff(c.eigenvalues) > 1e-6))
    v = unitary(dim, rng)
    rotated = TwoTimeOperator(
        kind, Observable(conjugated(v, a)), Observable(conjugated(v, b)), t1, t2, ChannelFamily(conjugated(v, h))
    )
    c_v = realize(rotated)
    assert c_v.eigenvalues.shape == c.eigenvalues.shape
    assert np.max(np.abs(c_v.eigenvalues - c.eigenvalues)) <= 1e-10
    assert np.max(np.abs(c_v.projectors - conjugated(v, c.projectors))) <= 1e-8


@given(systems(), st.sampled_from(["product", "sum"]), st.integers(0, 150))
def test_scaling_both_constituents_changes_no_operator_check(system, kind, k):
    # The Hermiticity and imaginary-part checks are per unit of max(1, max |C12|), so (s A, s B) with s = 10**k is
    # accepted exactly when (A, B) is, though C12's roundoff grows as s**2 (product) or s (sum).
    dim, rng, (spec_a, spec_b), rank = system
    a, b, h, rho = observable(spec_a, rng), observable(spec_b, rng), random_hermitian(dim, rng), state(dim, rank, rng)

    def accepted(s):
        op = TwoTimeOperator(kind, Observable(s * a), Observable(s * b), 0.3, 1.1, ChannelFamily(h))
        try:
            realize(op)
            heisenberg_correlator(op, rho)
        except (ValueError, ArithmeticError):
            return False
        return True

    assert accepted(10.0**k) == accepted(1.0)


@given(st.integers(0, 2**32 - 1), st.integers(0, 150))
def test_grouping_is_scale_covariant(seed, k):
    # Eigenvalues merge within GROUP_TOL_DEFAULT per unit of max(1, max |A|), so the degenerate pair of
    # A = U diag(1, 1, -1) U^dag stays one group of s A for s = 10**k, though eigh's roundoff between them grows as s.
    a = conjugated(unitary(3, np.random.default_rng(seed)), np.diag([1.0, 1.0, -1.0]).astype(complex))
    assert len(Observable(10.0**k * a).eigenvalues) == 2


def unbiased_pair(dim, rng):
    # Observables with distinct eigenvalues in a random basis and in its Fourier-conjugate basis.
    u = unitary(dim, rng)
    fourier = np.exp(2j * math.pi * np.outer(range(dim), range(dim)) / dim) / math.sqrt(dim)
    distinct = np.diag(np.arange(dim, dtype=float)).astype(complex)
    return Observable(conjugated(u, distinct)), Observable(conjugated(u @ fourier, distinct))


@given(systems())
def test_complementarity_bound_for_mutually_unbiased_bases(system):
    dim, rng, _, rank = system
    first, second = unbiased_pair(dim, rng)
    assert complementarity_bound_check(state(dim, rank, rng), first, second).slack >= -1e-10


@st.composite
def pairs(draw):
    """(A, B, rng), d = 2..4: a random pair; a degenerate A (in the standard basis, where eigh returns the identity
    frame, or in a random one) with B nondegenerate in its Fourier-conjugate basis; a mutually unbiased pair; or two
    nondegenerate observables in one basis."""
    dim, rng = draw(st.integers(2, 4)), np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "degenerate", "unbiased", "conjugate"]))
    if kind == "random":
        return random_hermitian(dim, rng), random_hermitian(dim, rng), rng
    u = unitary(dim, rng) if kind != "degenerate" or draw(st.booleans()) else np.eye(dim)
    fourier = np.exp(2j * math.pi * np.outer(range(dim), range(dim)) / dim) / math.sqrt(dim)
    spectrum = np.arange(dim, dtype=float)
    if kind == "degenerate":
        spectrum[draw(st.integers(1, dim - 1))] = spectrum[0]
    second = u if kind == "conjugate" else u @ fourier
    return conjugated(u, np.diag(spectrum)), conjugated(second, np.diag(rng.permutation(dim) - 0.5)), rng


@given(pairs())
def test_complementarity_admits_a_pair_exactly_when_its_overlap_constant_is_least(pair):
    # The frame admission (both nondegenerate, max |(V_A^dag V_B)_ij|^2 <= 1/d + MEASUREMENT_TOL) decides as the
    # brute-force constant c = max_ab ||alpha_a beta_b||^2 does against 1/d + 1e-10.
    a, b, rng = pair
    dim = len(a)
    try:
        complementarity_bound_check(state(dim, dim, rng), Observable(a), Observable(b))
        admitted = True
    except ValueError as exc:
        assert str(exc) == "composed dephasings of the pair do not yield the maximally mixed state"
        admitted = False
    assert admitted == (oracles.overlap_constant(a, b) <= 1.0 / dim + 1e-10)


@given(systems())
def test_complementarity_entropies_are_the_irreality_reports_bitwise(system):
    dim, rng, _, rank = system
    first, second = unbiased_pair(dim, rng)
    rho = state(dim, rank, rng)
    report = complementarity_bound_check(rho, first, second)
    one, other = irreality(first, rho), irreality(second, rho)
    assert (report.entropy_first, report.entropy_second) == (one.entropy_dephased, other.entropy_dephased)
    assert report.entropy_state == one.entropy_state == other.entropy_state


@st.composite
def floor_stacks(draw):
    """(n, d, d) unit-trace Hermitian stacks, d = 2..8, each matrix in its own random basis with its least
    eigenvalue drawn from [-1e-9, 1e-3], half the time within 1% of PSD_FLOOR."""
    dim = draw(st.integers(2, 8))
    near_floor = st.floats(PSD_FLOOR * 1.01, PSD_FLOOR * 0.99)
    lows = draw(st.lists(st.one_of(st.floats(-1e-9, 1e-3), near_floor), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = []
    for low in lows:
        rest = rng.uniform(0.1, 1.0, dim - 1)
        spectrum = np.concatenate([[low], low + (1.0 - dim * low) * rest / rest.sum()])
        stack.append(conjugated(unitary(dim, rng), np.diag(spectrum).astype(complex)))
    return np.array(stack)


def accepts(stack, solver):
    try:
        _states(stack, solver=solver)
    except ValueError:
        return False
    return True


@given(floor_stacks())
def test_cholesky_gate_agrees_with_eigvalsh_away_from_the_floor(stack):
    # Within 1e-14 of the floor the two may differ: that is the factorization's backward error.
    least = np.linalg.eigvalsh((stack + stack.conj().swapaxes(1, 2)) / 2.0)[:, 0]
    assume(np.all(np.abs(least - PSD_FLOOR) > 1e-14))
    assert accepts(stack, None) == accepts(stack, "eigvalsh") == bool(np.all(least >= PSD_FLOOR))


@st.composite
def diagonal_stacks(draw):
    """(n, d) complex diagonals, d = 2..8: each row a probability vector whose first entry may be 0, PSD_FLOOR or just
    below it, with possibly an imaginary part or a trace offset on either side of its 1e-12 bound, or a NaN."""
    dim, rng = draw(st.integers(2, 8)), np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = st.sampled_from([None] * 4 + [0.0, PSD_FLOOR, np.nextafter(PSD_FLOOR, -1.0), PSD_FLOOR * 1.001])
    imaginary = st.sampled_from([0.0] * 8 + [0.49e-12, -0.49e-12, 0.51e-12, -0.51e-12])  # Hermiticity defect 2 |Im|
    offset = st.sampled_from([0.0] * 8 + [0.99e-12, -0.99e-12, 1.01e-12, -1.01e-12])
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        row = rng.uniform(0.1, 1.0, dim).astype(complex)
        first = draw(low)
        row[0] = row[0] if first is None else first
        row[1:] *= (1.0 - row[0].real) / row[1:].sum()
        row[draw(st.integers(0, dim - 1))] += 1j * draw(imaginary)
        row[draw(st.integers(0, dim - 1))] += draw(offset)
        if draw(st.integers(0, 19)) == 0:
            row[draw(st.integers(0, dim - 1))] = draw(st.sampled_from([complex(math.nan, 0.0), complex(0.5, math.nan)]))
        rows.append(row)
    return np.array(rows)


@settings(max_examples=300)
@given(diagonal_stacks())
def test_diagonal_stacks_are_checked_as_their_diagonal_matrices(diagonals):
    # _states of (n, d) diagonals accepts exactly when it accepts the diagonal matrices, with the same message, and
    # returns their symmetrized diagonals, whose real parts are the spectrum.
    outcomes = []
    for stack in (diagonals, diagonals[:, :, None] * np.eye(diagonals.shape[1])):
        try:
            outcomes.append(_states(stack))
        except ValueError as exc:
            outcomes.append(str(exc))
    if isinstance(outcomes[1], str):
        assert outcomes[0] == outcomes[1]
    else:
        (m, spectrum), (matrices, eigs) = outcomes
        assert np.array_equal(m, np.diagonal(matrices, axis1=1, axis2=2)) and np.array_equal(spectrum, m.real)
        assert np.array_equal(np.sort(spectrum, axis=1), eigs)


@st.composite
def scaled_matrices(draw):
    """d = 1..4 complex matrices: a Hermitian part with entries of real and imaginary parts in [-1, 1], plus an
    anti-Hermitian part scaled to entries up to 1e-8 (or none), the sum scaled by 10**k, k in [-300, 307]."""
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g, s = rng.uniform(-1.0, 1.0, (2, dim, dim)) + 1j * rng.uniform(-1.0, 1.0, (2, dim, dim))
    skew = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e-8)))
    hermitian, anti = (g + g.conj().T) / 2.0, skew * (s - s.conj().T) / 2.0
    return (hermitian + anti) * 10.0 ** draw(st.integers(-300, 307))


@given(scaled_matrices())
@example(np.array([[0.0, 1e308], [-1e308, 0.0]], dtype=complex))  # max |H - H^dag| past the float max
@example(np.full((2, 2), 1e308, dtype=complex))  # finite entries, eigenvalue 2e308
def test_observables_and_hamiltonians_share_one_checked_decomposition(matrix):
    # A Hamiltonian that fails the check fails it as an observable with the same message; one that passes is
    # symmetrized bitwise as the observable's matrix (an Observable may still fail its own projector checks).
    try:
        hamiltonian = ChannelFamily(matrix).hamiltonian
    except ValueError as exc:
        with pytest.raises(ValueError, match="^" + re.escape(str(exc).replace("hamiltonian", "observable")) + "$"):
            Observable(matrix)
        return
    try:
        observable = Observable(matrix).matrix
    except ValueError:
        return
    assert observable.tobytes() == hamiltonian.tobytes()


@st.composite
def near_degenerate_qubits(draw):
    """[[c + h, b], [b*, c - h]]: h = 0 or +-10**[-17, 0] / 2, |b| = 0 or 10**[-300, 0] at any phase, c in [-1, 1] (0
    among them, where a - c keeps its 1e-17); as drawn, times 1e-300, or scaled to a largest entry of 7e307, where
    every eigenvalue (at most 7e307 + hypot(7e307, 7e307)) is still finite."""
    centre = draw(st.just(0.0) | st.floats(-1.0, 1.0))
    half = draw(st.sampled_from([0.0, 0.5, -0.5])) * 10.0 ** draw(st.floats(-17.0, 0.0))
    b = draw(st.sampled_from([0.0, 1.0])) * 10.0 ** draw(st.floats(-300.0, 0.0)) * np.exp(1j * draw(st.floats(0.0, 6.3)))
    m = np.array([[centre + half, b], [np.conj(b), centre - half]])
    scale = draw(st.sampled_from([1.0, 1e-300, 7e307 / max(np.abs(m).max(), 1.0)]))
    return m * scale


@given(near_degenerate_qubits())
@example(np.diag([1e308, -1e308]).astype(complex))
@example(np.array([[1e308, 1e308], [1e308, -1e308]], dtype=complex))  # eigenvalues +-sqrt(2) 1e308
@example(np.array([[1.0, 1e-320], [1e-320, 1.0]], dtype=complex))  # r / 2 subnormal: too few bits for a closed-form frame
def test_closed_form_qubit_decomposition_matches_lapack(matrix):
    # qcore._eighs decomposes a 2 x 2 stack in closed form: its eigenvalues ascend and match eigh's within
    # RECONSTRUCTION_TOL per unit of _scales, and its frame passes the Gram check of _spectra (MEASUREMENT_TOL / 3 at
    # d = 2) and rebuilds the matrix within RECONSTRUCTION_TOL per unit of _scales.
    (m,), (values,), (vectors,) = qcore._eighs(matrix[None], "observable")
    scale = qcore._scales(m[None])[0]
    assert values[0] <= values[1]
    assert np.max(np.abs(values - np.linalg.eigh(m)[0])) <= qcore.RECONSTRUCTION_TOL * scale
    assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(2))) <= qcore.MEASUREMENT_TOL / 3
    assert np.max(np.abs(vectors * values @ vectors.conj().T - m)) <= qcore.RECONSTRUCTION_TOL * scale


@given(st.floats(0.0, 7.0), st.floats(0.0, 7.0))
def test_spin_product_still_groups_as_a_multiple_of_one(t1, t2):
    # Criterion 07's {Sx(t1), Sy(t2)} / 2 under precession about z is sin(t2 - t1) / 4 times 1 up to roundoff: the
    # closed-form decomposition of its qubit matrix leaves one eigenvalue, that multiple.
    sx, sy = Observable(qcore.SIGMA_X / 2.0), Observable(qcore.SIGMA_Y / 2.0)
    realized = realize(TwoTimeOperator("product", sx, sy, t1, t2, precession_channel((0.0, 0.0, 1.0))))
    assert len(realized.eigenvalues) == 1
    assert abs(realized.eigenvalues[0] - math.sin(t2 - t1) / 4.0) <= qcore.IDENTITY_TOL
