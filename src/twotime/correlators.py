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
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .dynamics import ChannelFamily, _unitaries
from .qcore import IMAGINARY_TOL, MARGINAL_TOL, MEASUREMENT_TOL, OPERATOR_HERMITICITY_TOL, PSD_FLOOR, DensityMatrix, Observable
from .qcore import _as_square_complex, _eighs, _finite, _matmul, _numbers, _readonly, _require, _same_dim, _scales, _spectra
from .qcore import _states, _symmetrized, _typed
from .realism import _dephased_in_frame

_KINDS = ("product", "sum")


@dataclass(frozen=True)
class TwoTimeOperator:
    """Specification of a Hermitian operator built from A at t1 and B at t2.

    kind "product" realizes {A1, B2}/2; kind "sum" realizes A1 + B2, each
    constituent in the Heisenberg picture of the unitary channel.
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
        _same_dim(A=_typed(self.A, Observable, "A").dim, B=_typed(self.B, Observable, "B").dim,
                  channel=_typed(self.channel, ChannelFamily, "channel").dim)
        for name in ("t1", "t2"):  # finite numbers; realizing the operator checks each phase E*t, as unitary_at does
            _numbers(getattr(self, name), name)


LambdaReport = namedtuple("LambdaReport", "matrix min_eigenvalue trace physical")


@np.errstate(over="ignore", invalid="ignore")  # a product or sum past the float max is inf or nan: rejected below
def _two_time_matrices(kind: str, a: np.ndarray, b: np.ndarray, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    # {A1, B2}/2 or A1 + B2 for (n, d, d) stacks of A, B and the unitaries at t1 and t2, each entry finite. Hermitian
    # only up to roundoff: callers symmetrize it through the Hermitian check.
    a1 = _matmul(_matmul(u1.conj().swapaxes(1, 2), a), u1)
    b2 = _matmul(_matmul(u2.conj().swapaxes(1, 2), b), u2)
    c12 = 0.5 * (_matmul(a1, b2) + _matmul(b2, a1)) if kind == "product" else a1 + b2
    _finite(C12=c12.view(float))
    return c12


def _two_time_matrix(op: TwoTimeOperator) -> np.ndarray:
    u1, u2 = (op.channel.unitary_at(t)[None] for t in (op.t1, op.t2))
    return _two_time_matrices(op.kind, op.A.matrix[None], op.B.matrix[None], u1, u2)[0]


def realize(op: TwoTimeOperator) -> Observable:
    """Realize a two-time operator as a single Observable with its spectrum.

    Heisenberg-evolves both constituents and combines them; degenerate
    eigenvalues of the result are grouped (the spin product {Sx(t1), Sy(t2)}/2,
    for instance, is proportional to the identity).
    """
    return Observable(_two_time_matrix(_typed(op, TwoTimeOperator, "op")))


def heisenberg_correlator(op: TwoTimeOperator, rho0: DensityMatrix) -> float:
    """Tr(C12 rho0) for the realized two-time operator; real up to roundoff."""
    _same_dim(state=_typed(rho0, DensityMatrix, "rho0").dim, operator=_typed(op, TwoTimeOperator, "op").channel.dim)
    return float(_trace_forms(_two_time_matrix(op)[None], rho0.matrix[None])[0])


@np.errstate(over="ignore", invalid="ignore")  # a trace past the float max is inf or nan: rejected below
def _trace_forms(c12: np.ndarray, rho0: np.ndarray) -> np.ndarray:
    # Tr(C12 rho0) for (n, d, d) stacks, each C12 passing the Hermitian check first; both checks per unit of _scales(C12).
    scale = _scales(c12)
    values = np.trace(_matmul(_symmetrized(c12, "two-time operator", OPERATOR_HERMITICITY_TOL * scale), rho0), axis1=1, axis2=2)
    _finite(correlator=values.view(float))
    _require(~(np.abs(values.imag) > IMAGINARY_TOL * scale), "correlator has spurious imaginary part {imag:.3e}",
             ArithmeticError, imag=values.imag)
    return values.real


def tpm_joint_distribution(A: Observable, B: Observable, t1: float, t2: float, channel: ChannelFamily, rho0: DensityMatrix):
    """Joint outcome distribution of the two-point-measurement protocol.

    Returns (a_values, b_values, joint) where joint[i, j] is the probability
    of outcome a_i at t1 followed by b_j at t2; a_values and b_values are the
    read-only ``eigenvalues`` arrays of A and B. The update after the first
    measurement is the Lueders projection alpha rho alpha / Tr(alpha rho);
    for rank-1 projectors the conditional probabilities reduce to
    Tr[beta phi*(alpha)]. Outcomes whose first-measurement marginal is below
    1e-12 contribute zero rows and are skipped.
    """
    _same_dim(A=_typed(A, Observable, "A").dim, B=_typed(B, Observable, "B").dim,
              channel=_typed(channel, ChannelFamily, "channel").dim, state=_typed(rho0, DensityMatrix, "rho0").dim)
    _require(_numbers(t1, "t1") < _numbers(t2, "t2"), "the protocol requires t2 > t1, got t1={t1!r}, t2={t2!r}", t1=t1, t2=t2)
    u1, u21 = (channel.unitary_at(t)[None] for t in (t1, t2 - t1))
    joint = _tpm_joints(A._frame, B._frame, u1, u21, rho0.matrix[None])
    return A.eigenvalues, B.eigenvalues, joint[0][np.ix_(A._frame[2][0], B._frame[2][0])]


def _tpm_joints(a_frame, b_frame, u1, u21, rho0) -> np.ndarray:
    # joint[n, i, j] for _spectra's (eigenvalues, V, starts) stacks of A and B, the (n, d, d) unitaries at t1 and over
    # t2 - t1 and the (n, d, d) initial states; outcome pairs sit at their eigenspaces' first slots, zeros elsewhere.
    # With x = V_A^dag Phi_A(rho_t1) V_A and T = V_B^dag U21 V_A, p(a, b) sums Re[(T x)_ki conj(T_ki)] over the slots
    # i of a and k of b: S[n, s, i] is True when slot i lies in the eigenspace whose first slot is s.
    x = _dephased_in_frame(*a_frame[:2], _matmul(_matmul(u1, rho0), u1.conj().swapaxes(1, 2)))
    t = _matmul(_matmul(b_frame[1].conj().swapaxes(1, 2), u21), a_frame[1])
    a_sums, b_sums = ((v[:, :, None] == v[:, None, :]) & starts[:, :, None] for v, _, starts in (a_frame, b_frame))
    marginals = (a_sums @ np.diagonal(x, axis1=1, axis2=2).real[..., None])[..., 0]
    kept = ~(marginals <= MARGINAL_TOL)  # a NaN branch is kept, so the sum check below rejects it
    conditional = a_sums @ (_matmul(t, x) * t.conj()).real.swapaxes(1, 2) @ b_sums.swapaxes(1, 2)
    conditional /= np.where(kept, marginals, 1.0)[..., None]
    sums = conditional.sum(axis=2)[kept]
    _require(np.abs(sums - 1.0) <= MEASUREMENT_TOL, "conditional distribution sums to {s:.15g}", ArithmeticError, s=sums)
    return np.where(kept[..., None], marginals[..., None] * np.clip(conditional, 0.0, 1.0), 0.0)


def _tpm_gaps(a, b, h, t1, t2, rho0) -> np.ndarray:
    """|protocol - Heisenberg| of every instance in stacks of A, B, H (n, d, d), times (n,) and
    states (n, d, d), each matrix checked as Observable, ChannelFamily and DensityMatrix check it. An (n, d) rho0
    holds weights w instead: the state at t1 is V_A diag(w) V_A^dag in A's frame, evolved back to t = 0."""
    (_, energies, modes), (a, *a_frame), (b, *b_frame) = _eighs(h, "hamiltonian"), _spectra(a), _spectra(b)
    u1, u2, u21 = (_unitaries(energies, modes, t) for t in (t1, t2, t2 - t1))
    if rho0.ndim == 2:
        back = _matmul(u1.conj().swapaxes(1, 2), a_frame[1])  # U1^dag V_A
        rho0 = _matmul(back * rho0[:, None], back.conj().swapaxes(1, 2))
    rho0, _ = _states(rho0, solver=None)
    joint = _tpm_joints(a_frame, b_frame, u1, u21, rho0)
    protocol = (a_frame[0][:, None] @ joint @ b_frame[0][:, :, None])[:, 0, 0]
    return np.abs(protocol - _trace_forms(_two_time_matrices("product", a, b, u1, u2), rho0))


def tpm_correlator(A: Observable, B: Observable, t1: float, t2: float, channel: ChannelFamily, rho0: DensityMatrix) -> float:
    """Correlator of the two-point-measurement protocol: E[a * b]; t2 must be strictly later than t1."""
    a_values, b_values, joint = tpm_joint_distribution(A, B, t1, t2, channel, rho0)
    with np.errstate(over="ignore", invalid="ignore"):  # an E[ab] past the float max is inf or nan: rejected below
        correlator = a_values @ joint @ b_values
    _finite(correlator=correlator)
    return float(correlator)


def lambda_operator(projector, rho0: DensityMatrix, t1: float, channel: ChannelFamily) -> LambdaReport:
    """Conditional operator the Heisenberg form assigns to one t1 outcome.

    For the outcome projector alpha and evolved state rho_t1, this is
    {alpha, rho_t1} / (2 Tr(alpha rho_t1)) — unit trace and Hermitian, but
    with negative eigenvalues whenever alpha and rho_t1 fail to commute badly
    enough. When they commute and alpha is rank one, it equals alpha itself.
    ``physical`` is True when the minimum eigenvalue clears -1e-10, i.e. when
    the operator happens to be a valid state.
    """
    alpha = _symmetrized(_as_square_complex(projector)[None], "projector", OPERATOR_HERMITICITY_TOL)[0]
    with np.errstate(over="ignore", invalid="ignore"):  # P^2 of entries past sqrt(float max) is inf or nan: rejected
        defect = np.max(np.abs(alpha @ alpha - alpha))
    _require(defect <= MEASUREMENT_TOL, "projector is not idempotent: max |P^2 - P| = {defect:.3e}", defect=defect)
    _same_dim(projector=alpha.shape[0], state=_typed(rho0, DensityMatrix, "rho0").dim,
              channel=_typed(channel, ChannelFamily, "channel").dim)
    lam, eigs = _lambdas(alpha, channel.propagate_state(rho0.matrix, t1)[None])
    return LambdaReport(matrix=_readonly(lam[0]), min_eigenvalue=float(eigs[0, 0]), trace=float(lam[0].trace().real),
                        physical=bool(eigs[0, 0] >= PSD_FLOOR))


def _lambdas(alpha: np.ndarray, rho_t1: np.ndarray):
    """The conditional operators of a checked projector and an (n, d, d) stack of states at t1, symmetrized, with
    their ascending eigenvalues from one eigvalsh over the stack."""
    denom = np.trace(product := _matmul(alpha, rho_t1), axis1=1, axis2=2).real
    _require(~(denom <= MARGINAL_TOL), "unconditioned outcome: Tr(alpha rho_t1) = {denom:.3e}", denom=denom)
    lam = (product + _matmul(rho_t1, alpha)) / (2.0 * denom)[:, None, None]
    lam = (lam + lam.conj().swapaxes(1, 2)) / 2.0
    return lam, np.linalg.eigvalsh(lam)


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


# A complete correlator scenario: Observables A and B, times t1 < t2, a ChannelFamily and the DensityMatrix rho0.
CorrelatorInstance = namedtuple("CorrelatorInstance", "A B t1 t2 channel rho0")


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
