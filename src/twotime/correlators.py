"""Two-time correlators: sequential-measurement protocol vs. Heisenberg form.

Two routes to a correlation between a quantity measured at t1 and another at
t2 > t1:

* :func:`tpm_correlator` simulates the two-point-measurement protocol —
  projective measurement at t1 with Lueders update, evolution, projective
  measurement at t2 — and averages the product of outcomes.
* :func:`heisenberg_correlator` evaluates Tr(C12 rho0), where C12 is a single
  Hermitian two-time operator built from Heisenberg-picture observables:
  the symmetrized product {A1, B2}/2 or the sum A1 + B2.

The two generally disagree. They coincide whenever the evolved state at t1
is already dephased in the first observable's eigenbasis, and (by cross-term
cancellation) for every qubit observable with spectrum {+1, -1} under unitary
dynamics. :func:`qutrit_gap_fixture` ships a three-level instance with a
finite gap.

:func:`lambda_operator` exposes the conditional operator that the Heisenberg
form implicitly substitutes for the post-measurement projector; it is
generally not a valid state.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ChannelFamily, _hamiltonians, _require_unitary, _unitaries
from .qcore import IMAGINARY_TOL, MARGINAL_TOL, MEASUREMENT_TOL, OPERATOR_HERMITICITY_TOL, PSD_FLOOR
from .qcore import DensityMatrix, Observable, _as_square_complex, _readonly, _same_dim, _spectra, _states, _symmetrized

_KINDS = ("product", "sum")


@dataclass(frozen=True)
class TwoTimeOperator:
    """Specification of a Hermitian operator built from A at t1 and B at t2.

    kind "product" realizes {A1, B2}/2; kind "sum" realizes A1 + B2. The
    channel must be a unitary family (the realization uses the Heisenberg
    direction).
    """

    kind: str
    A: Observable
    B: Observable
    t1: float
    t2: float
    channel: ChannelFamily

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        _same_dim(A=self.A.dim, B=self.B.dim, channel=self.channel.dim)


@dataclass(frozen=True)
class LambdaReport:
    """The conditional operator {alpha, rho_t1} / (2 Tr(alpha rho_t1)).

    ``physical`` is True when the minimum eigenvalue clears -1e-10, i.e. when
    the operator happens to be a valid state.
    """

    matrix: np.ndarray
    min_eigenvalue: float
    trace: float
    physical: bool


def _two_time_matrices(kind: str, a: np.ndarray, b: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    # {A1, B2}/2 or A1 + B2 for (n, d, d) stacks of A, B and the unitaries at t1 and t2. Hermitian
    # only up to roundoff: callers symmetrize it through the Hermitian check.
    a1 = u1.conj().swapaxes(1, 2) @ a @ u1
    b2 = u2.conj().swapaxes(1, 2) @ b @ u2
    if kind == "product":
        return 0.5 * (a1 @ b2 + b2 @ a1)
    return a1 + b2


def _two_time_matrix(op: TwoTimeOperator) -> np.ndarray:
    _require_unitary(op.channel)
    u1, u2 = (op.channel.unitary_at(t)[None] for t in (op.t1, op.t2))
    return _two_time_matrices(op.kind, op.A.matrix[None], op.B.matrix[None], u1, u2)[0]


def realize(op: TwoTimeOperator) -> Observable:
    """Realize a two-time operator as a single Observable with its spectrum.

    Heisenberg-evolves both constituents and combines them; degenerate
    eigenvalues of the result are grouped (the spin product {Sx(t1), Sy(t2)}/2,
    for instance, is proportional to the identity).
    """
    return Observable(_two_time_matrix(op))


def heisenberg_correlator(op: TwoTimeOperator, rho0: DensityMatrix) -> float:
    """Tr(C12 rho0) for the realized two-time operator; real up to roundoff."""
    _same_dim(state=rho0.dim, operator=op.channel.dim)
    return float(_trace_forms(_two_time_matrix(op)[None], rho0.matrix[None])[0])


def _trace_forms(c12: np.ndarray, rho0: np.ndarray) -> np.ndarray:
    # Tr(C12 rho0) for (n, d, d) stacks, each C12 passing the Hermitian check first.
    values = np.trace(_symmetrized(c12, "two-time operator", OPERATOR_HERMITICITY_TOL) @ rho0, axis1=1, axis2=2)
    spurious = np.flatnonzero(np.abs(values.imag) > IMAGINARY_TOL)
    if spurious.size:
        raise ArithmeticError(f"correlator has spurious imaginary part {values.imag[spurious[0]]:.3e}")
    return values.real


def tpm_joint_distribution(A: Observable, B: Observable, t1: float, t2: float, channel, rho0: DensityMatrix):
    """Joint outcome distribution of the two-point-measurement protocol.

    Returns (a_values, b_values, joint) where joint[i, j] is the probability
    of outcome a_i at t1 followed by b_j at t2; a_values and b_values are the
    read-only ``eigenvalues`` arrays of A and B. The update after the first
    measurement is the Lueders projection alpha rho alpha / Tr(alpha rho);
    for rank-1 projectors the conditional probabilities reduce to
    Tr[beta phi*(alpha)]. Outcomes whose first-measurement marginal is below
    1e-12 contribute zero rows and are skipped.
    """
    _same_dim(A=A.dim, B=B.dim, channel=channel.dim, state=rho0.dim)
    if not t2 > t1:
        raise ValueError(f"the protocol requires t2 > t1, got t1={t1!r}, t2={t2!r}")
    rho_t1 = channel.propagate_state(rho0.matrix, t1)[None]
    joint = _tpm_joints(A.projectors[None], B.projectors[None], rho_t1, lambda s: channel.propagate_state(s, t2 - t1))
    return A.eigenvalues, B.eigenvalues, joint[0]


def _tpm_joints(a_projectors: np.ndarray, b_projectors: np.ndarray, rho_t1: np.ndarray, evolve) -> np.ndarray:
    # joint[n, i, j] for (n, k, d, d) stacks of A's and B's projectors (zero ones give zero rows and
    # columns) and the (n, d, d) states at t1; evolve carries an (n, k, d, d) stack of states to t2.
    branches = a_projectors @ rho_t1[:, None] @ a_projectors
    marginals = np.trace(branches, axis1=2, axis2=3).real
    kept = ~(marginals <= MARGINAL_TOL)  # a NaN branch is kept, so the sum check below rejects it
    evolved = evolve(branches / np.where(kept, marginals, 1.0)[..., None, None])
    conditional = np.einsum("nbij,nkji->nkb", b_projectors, evolved).real
    sums = conditional.sum(axis=2)[kept]
    off = np.flatnonzero(~(np.abs(sums - 1.0) <= MEASUREMENT_TOL))
    if off.size:
        raise ArithmeticError(f"conditional distribution sums to {sums[off[0]]:.15g}")
    return np.where(kept[..., None], marginals[..., None] * np.clip(conditional, 0.0, 1.0), 0.0)


def _checked_instances(a, b, h, *times):
    """_spectra of (n, d, d) stacks of A and B, and the unitaries of an H stack at each (n,) array of times."""
    _, energies, modes = _hamiltonians(h)
    return _spectra(a), _spectra(b), [_unitaries(energies, modes, t) for t in times]


def _tpm_gaps(a, b, h, t1, t2, rho0) -> np.ndarray:
    """|protocol - Heisenberg| of every instance in stacks of A, B, H (n, d, d), times (n,) and
    states (n, d, d), each matrix checked as Observable, ChannelFamily and DensityMatrix check it."""
    (a, a_values, a_projectors), (b, b_values, b_projectors), (u1, u2, u21) = _checked_instances(a, b, h, t1, t2, t2 - t1)
    rho0, _ = _states(rho0)
    rho_t1 = u1 @ rho0 @ u1.conj().swapaxes(1, 2)
    joint = _tpm_joints(a_projectors, b_projectors, rho_t1, lambda s: u21[:, None] @ s @ u21.conj().swapaxes(1, 2)[:, None])
    protocol = (a_values[:, None] @ joint @ b_values[:, :, None])[:, 0, 0]
    return np.abs(protocol - _trace_forms(_two_time_matrices("product", a, b, u1, u2), rho0))


def tpm_correlator(A: Observable, B: Observable, t1: float, t2: float, channel, rho0: DensityMatrix) -> float:
    """Correlator of the two-point-measurement protocol: E[a * b].

    Accepts either a unitary family or the fixed-Kraus hook as the channel;
    t2 must be strictly later than t1.
    """
    a_values, b_values, joint = tpm_joint_distribution(A, B, t1, t2, channel, rho0)
    return float(a_values @ joint @ b_values)


def lambda_operator(projector, rho0: DensityMatrix, t1: float, channel) -> LambdaReport:
    """Conditional operator the Heisenberg form assigns to one t1 outcome.

    For the outcome projector alpha and evolved state rho_t1, this is
    {alpha, rho_t1} / (2 Tr(alpha rho_t1)) — unit trace and Hermitian, but
    with negative eigenvalues whenever alpha and rho_t1 fail to commute badly
    enough. When they commute and alpha is rank one, it equals alpha itself.
    """
    alpha = _symmetrized(_as_square_complex(projector), "projector", OPERATOR_HERMITICITY_TOL)
    if not np.max(np.abs(alpha @ alpha - alpha)) <= MEASUREMENT_TOL:
        raise ValueError("projector must be idempotent")
    _same_dim(projector=alpha.shape[0], state=rho0.dim, channel=channel.dim)
    rho_t1 = channel.propagate_state(rho0.matrix, t1)
    denom = np.trace(alpha @ rho_t1).real
    if denom <= MARGINAL_TOL:
        raise ValueError(f"unconditioned outcome: Tr(alpha rho_t1) = {denom:.3e}")
    lam = (alpha @ rho_t1 + rho_t1 @ alpha) / (2.0 * denom)
    lam = (lam + lam.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(lam)
    min_eig = float(eigs[0])
    return LambdaReport(
        matrix=_readonly(lam),
        min_eigenvalue=min_eig,
        trace=float(lam.trace().real),
        physical=min_eig >= PSD_FLOOR,
    )


def prepare_eigenstate(op: TwoTimeOperator, k: int) -> DensityMatrix:
    """State supported on the k-th distinct eigenvalue of the realized operator.

    Indexing follows the ascending spectrum. A degenerate eigenvalue yields
    the maximally mixed state on its eigenspace, which is basis independent
    and leaves the realized operator an exact fixed point of its dephasing,
    so the operator's irreality vanishes in the prepared state. To prepare
    several eigenstates of one operator, realize it once and call
    ``Observable.eigenstate``.
    """
    return realize(op).eigenstate(k)


@dataclass(frozen=True)
class CorrelatorInstance:
    """A complete (A, B, times, channel, preparation) correlator scenario."""

    A: Observable
    B: Observable
    t1: float
    t2: float
    channel: ChannelFamily
    rho0: DensityMatrix


def qutrit_gap_fixture() -> CorrelatorInstance:
    """Three-level instance where the two correlator routes disagree.

    A is the diagonal quantity diag(1, 0, -1), B the spin-1 x component,
    the evolution is trivial (H = 0) and the preparation is the coherent
    superposition (|0> + |1>)/sqrt(2). The protocol correlator vanishes (B
    has zero diagonal in A's eigenbasis), while Tr(C12 rho0) = 1/(2 sqrt(2)).
    """
    a = Observable(np.diag([1.0, 0.0, -1.0]).astype(complex))
    sx1 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / math.sqrt(2.0)
    b = Observable(sx1)
    channel = ChannelFamily(np.zeros((3, 3), dtype=complex))
    rho0 = DensityMatrix.from_ket([1.0, 1.0, 0.0])
    return CorrelatorInstance(A=a, B=b, t1=0.0, t2=1.0, channel=channel, rho0=rho0)
