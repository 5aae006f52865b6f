"""Dephasing maps and the entropic irreality of an observable in a state.

An observable A is "real" for a preparation rho when a nonselective
projective measurement of A leaves rho unchanged: rho = Phi_A(rho), with
Phi_A(rho) = sum_a alpha_a rho alpha_a over A's eigenprojectors. The
irreality J(A|rho) = S(Phi_A(rho)) - S(rho) quantifies the violation of that
condition; it is non-negative and vanishes exactly on the fixed points.

The same quantity equals min over states sigma of S(rho || Phi_A(sigma)),
with the minimum at sigma = rho. The entropy-difference form is used for all
computation (it is always finite); :func:`min_form_check` verifies the
minimum characterization by random sampling.
"""

import math
from collections import namedtuple
from functools import cache

import numpy as np

from .qcore import MEASUREMENT_TOL, SIGMA_X, SIGMA_Y, DensityMatrix, Observable, _blocks, _count, _entropies, _floor
from .qcore import _ginibres, _matmul, _relative_entropies, _same_dim, _states, _typed, _unit_traces


IrrealityReport = namedtuple("IrrealityReport", "irreality entropy_dephased entropy_state")
MinFormReport = namedtuple("MinFormReport", "irreality identity_gap min_margin infinite_samples n_samples")
ComplementarityReport = namedtuple("ComplementarityReport", "lhs rhs slack entropy_first entropy_second entropy_state")


def dephase(A: Observable, rho: DensityMatrix) -> DensityMatrix:
    """Nonselective projective measurement of A: sum_a alpha_a rho alpha_a."""
    _same_dim(observable=_typed(A, Observable, "A").dim, state=_typed(rho, DensityMatrix, "rho").dim)
    return DensityMatrix(_dephased(*A._frame[:2], rho.matrix[None])[0])


def _dephased_in_frame(values: np.ndarray, vectors: np.ndarray, states: np.ndarray) -> np.ndarray:
    # V^dag Phi_A(rho) V of (n, d, d) states for _spectra's (n, d) eigenvalues and (n, d, d) V of A (a stack of one
    # broadcasts against the other): V^dag rho V with the entries between different eigenspaces of A zeroed.
    return (values[:, :, None] == values[:, None, :]) * _matmul(_matmul(vectors.conj().swapaxes(1, 2), states), vectors)


def _dephased(values: np.ndarray, vectors: np.ndarray, states: np.ndarray) -> np.ndarray:
    # Phi_A(rho) of (n, d, d) states in the lab basis: _dephased_in_frame's image rotated back, V x V^dag.
    return _matmul(_matmul(vectors, _dephased_in_frame(values, vectors, states)), vectors.conj().swapaxes(1, 2))


def _irrealities(values: np.ndarray, vectors: np.ndarray, states: np.ndarray, eigs: np.ndarray):
    """Columns (J, S(Phi_A(rho)), S(rho)) of _dephased_in_frame's A, checked (n, d, d) states and their (n, d)
    eigenvalues (a stack of one broadcasts against the other): each dephased image, rotated back to the lab basis,
    passes the state check, then its entropy."""
    _, dephased_eigs = _states(_dephased(values, vectors, states))
    s_dephased, s_state = _entropies(dephased_eigs), _entropies(eigs)
    return s_dephased - s_state, s_dephased, s_state


def irreality(A: Observable, rho: DensityMatrix) -> IrrealityReport:
    """Entropic distance of rho from being an A-reality state (nats): J(A|rho) = S(Phi_A(rho)) - S(rho), both entropies."""
    _same_dim(observable=_typed(A, Observable, "A").dim, state=_typed(rho, DensityMatrix, "rho").dim)
    columns = _irrealities(*A._frame[:2], rho.matrix[None], rho.eigenvalues()[None])
    return IrrealityReport(*(float(column[0]) for column in columns))


def min_form_check(A: Observable, rho: DensityMatrix, n_samples: int = 500, seed=0) -> MinFormReport:
    """Verify the variational form of the irreality by random sampling.

    Checks S(rho || Phi_A(rho)) = J(A|rho) and that no sampled sigma yields a
    smaller relative entropy; +inf samples count as satisfying the bound. The samples
    are the first ``n_samples`` states ``random_density_matrix(d, default_rng(seed))`` gives.
    Each sample and its dephased image pass the density-matrix check (on its diagonal when A is nondegenerate).
    ``identity_gap`` is |S(rho || Phi_A(rho)) - J(A|rho)|; ``min_margin`` the smallest S(rho || Phi_A(sigma)) - J(A|rho)
    over the finite sampled values (infinite samples trivially satisfy the bound and are only counted).
    """
    n_samples, seed = _count(n_samples, "n_samples"), _count(seed, "seed")
    report = irreality(A, rho)
    # Scored in A's eigenbasis V (relative entropy is unitarily invariant), where Phi_A(sigma) is _dephased_in_frame's
    # image. With every eigenspace one-dimensional (each slot starts one) it is diagonal: its spectrum and rho's
    # weights are diagonals, and (V^dag sigma V)_ii = sum_jk sigma_jk conj(V_ji) V_ki is one product on one BLAS thread.
    (frame,), (starts,) = A._frame[1:]
    rho_in_frame = frame.conj().T @ rho.matrix @ frame
    to_diagonal = (frame.conj()[:, None] * frame).reshape(-1, rho.dim) if starts.all() else None
    weights = np.diagonal(rho_in_frame).real

    def scores(sigmas):  # S(rho || Phi_A(sigma)) of a checked (n, d, d) stack, each image checked as a state first
        if to_diagonal is not None:  # the (n, d) image diagonals
            return _relative_entropies(weights, report.entropy_state, _states(sigmas.reshape(len(sigmas), -1) @ to_diagonal)[1])
        # Two d x d matmuls per sigma: an (n, d^2) x (d^2, d^2) superoperator product would wake BLAS threads.
        q, basis = np.linalg.eigh(_unit_traces(_dephased_in_frame(*A._frame[:2], sigmas)))
        _floor(q[:, 0])  # eigh's own spectrum decides the floor, so each image is factorized once
        return _relative_entropies(np.einsum("nji,nji->ni", basis.conj(), _matmul(rho_in_frame, basis)).real,
                                   report.entropy_state, q)

    identity_gap = abs(float(scores(rho.matrix[None])[0]) - report.irreality)  # Phi_A(rho) scored as each sample
    rng, d = np.random.default_rng(seed), rho.dim
    values = np.empty(n_samples)
    for block in _blocks(n_samples, d):
        values[block] = scores(_states(_ginibres(rng.standard_normal((len(values[block]), 2, d, d))), solver=None)[0])
    finite = values[np.isfinite(values)]
    return MinFormReport(irreality=report.irreality, identity_gap=identity_gap, n_samples=n_samples,
                         min_margin=float(finite.min() - report.irreality) if finite.size else math.inf,
                         infinite_samples=len(values) - finite.size)


_qubit_pair = cache(lambda: (Observable(SIGMA_X), Observable(SIGMA_Y)))  # the default pair, built on first use


def complementarity_bound_check(rho: DensityMatrix, first: Observable = None, second: Observable = None) -> ComplementarityReport:
    """Check S(Phi_first(rho)) + S(Phi_second(rho)) >= ln d + S(rho).

    Takes both observables or neither; with neither, uses the qubit pair
    (sigma_x, sigma_y). The bound holds for any pair whose overlap constant c = max_ab ||alpha_a beta_b||^2 takes
    its least value 1/d (Maassen and Uffink; the composed dephasings then fully depolarize). A degenerate pair has
    c >= 2/d, so c is read from the frames of a nondegenerate one, as max_ij |(V_A^dag V_B)_ij|^2; a pair with c
    above 1/d + MEASUREMENT_TOL is rejected before use. The record holds both sides, the slack lhs - rhs and the
    three entropies.
    """
    if (first is None) != (second is None):
        raise ValueError("give both observables of the pair or neither")
    if _typed(rho, DensityMatrix, "rho").dim != 2 and first is None:
        raise ValueError(f"default observables are the qubit pair; got state dim {rho.dim}")
    first, second = _qubit_pair() if first is None else (first, second)
    _same_dim(first=_typed(first, Observable, "first").dim, second=_typed(second, Observable, "second").dim, state=rho.dim)
    values, vectors, starts = (np.concatenate(pair) for pair in zip(first._frame, second._frame))
    if not (starts.all() and np.abs(vectors[0].conj().T @ vectors[1]).max() ** 2 <= 1.0 / rho.dim + MEASUREMENT_TOL):
        raise ValueError("composed dephasings of the pair do not yield the maximally mixed state")
    _, dephased, state = _irrealities(values, vectors, rho.matrix[None], rho.eigenvalues()[None])
    (s_first, s_second), (s_state,) = dephased.tolist(), state.tolist()
    lhs = s_first + s_second
    rhs = math.log(rho.dim) + s_state
    return ComplementarityReport(lhs=lhs, rhs=rhs, slack=lhs - rhs,
                                 entropy_first=s_first, entropy_second=s_second, entropy_state=s_state)
