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
from dataclasses import dataclass

import numpy as np

from .qcore import (
    MEASUREMENT_TOL,
    SIGMA_X,
    SIGMA_Y,
    STACK_BLOCK,
    DensityMatrix,
    Observable,
    _entropies,
    _ginibre_states,
    _relative_entropies,
    _same_dim,
    _states,
    relative_entropy,
    von_neumann_entropy,
)


@dataclass(frozen=True)
class IrrealityReport:
    irreality: float
    entropy_dephased: float
    entropy_state: float


@dataclass(frozen=True)
class MinFormReport:
    """Result of sampling the variational form of the irreality.

    ``identity_gap`` is |S(rho || Phi_A(rho)) - J(A|rho)|; ``min_margin`` the
    smallest S(rho || Phi_A(sigma)) - J(A|rho) over the finite sampled values
    (infinite samples trivially satisfy the bound and are only counted).
    """

    irreality: float
    identity_gap: float
    min_margin: float
    infinite_samples: int
    n_samples: int


@dataclass(frozen=True)
class ComplementarityReport:
    """Both sides of S(Phi_A(rho)) + S(Phi_B(rho)) >= ln d + S(rho)."""

    lhs: float
    rhs: float
    slack: float
    entropy_first: float
    entropy_second: float
    entropy_state: float


def dephase(A: Observable, rho: DensityMatrix) -> DensityMatrix:
    """Nonselective projective measurement of A: sum_a alpha_a rho alpha_a."""
    _same_dim(observable=A.dim, state=rho.dim)
    return DensityMatrix(_dephase(A.projectors, rho.matrix))


def _dephase(projectors, m: np.ndarray) -> np.ndarray:
    # sum_a alpha_a M alpha_a for one matrix M of shape (d, d) or a stack (n, d, d).
    return sum(proj @ m @ proj for proj in projectors)


def _eigenstate_irrealities(projectors: np.ndarray) -> np.ndarray:
    """irreality(A, A.eigenstate(k)).irreality of each nonzero slot k of (n, k, d, d) projector stacks as
    _spectra pads them, 0 in the zero slots; STACK_BLOCK eigenstates at a time."""
    values = np.zeros(projectors.shape[:2])
    rows = np.argwhere(projectors.any(axis=(2, 3)))
    for n, k in (rows[start:start + STACK_BLOCK].T for start in range(0, len(rows), STACK_BLOCK)):
        slots = projectors[n, k]
        states, eigs = _states(slots / np.rint(np.trace(slots, axis1=1, axis2=2).real)[:, None, None])
        _, dephased_eigs = _states(_dephase(projectors[n].swapaxes(0, 1), states))
        values[n, k] = _entropies(dephased_eigs) - _entropies(eigs)
    return values


def irreality(A: Observable, rho: DensityMatrix) -> IrrealityReport:
    """Entropic distance of rho from being an A-reality state (nats)."""
    s_state = von_neumann_entropy(rho)
    s_dephased = von_neumann_entropy(dephase(A, rho))
    return IrrealityReport(
        irreality=s_dephased - s_state,
        entropy_dephased=s_dephased,
        entropy_state=s_state,
    )


def min_form_check(A: Observable, rho: DensityMatrix, n_samples: int = 500, seed=0) -> MinFormReport:
    """Verify the variational form of the irreality by random sampling.

    Checks S(rho || Phi_A(rho)) = J(A|rho) and that no sampled sigma yields a
    smaller relative entropy; +inf samples count as satisfying the bound. The samples
    are the first ``n_samples`` states ``random_density_matrix(d, default_rng(seed))`` gives.
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples}")
    j = irreality(A, rho).irreality
    identity_gap = abs(relative_entropy(rho, dephase(A, rho)) - j)
    # In a basis V that block-diagonalizes A's projectors, V^dag Phi_A(sigma) V is V^dag sigma V with the entries
    # between A's eigenspaces zeroed, and relative entropy is unitarily invariant.
    labels, frame = np.linalg.eigh(sum(k * proj for k, proj in enumerate(A.projectors)))
    mask = np.rint(labels)[:, None] == np.rint(labels)[None, :]
    rho_in_frame, s_rho = frame.conj().T @ rho.matrix @ frame, von_neumann_entropy(rho)
    rng = np.random.default_rng(seed)
    values = np.empty(n_samples)
    for start in range(0, n_samples, STACK_BLOCK):
        block = values[start:start + STACK_BLOCK]
        sigmas, _ = _states(_ginibre_states(rho.dim, len(block), rng))
        # Two d x d matmuls per sigma: an (n, d^2) x (d^2, d^2) superoperator product would wake BLAS threads.
        _, spectrum = _states(mask * (frame.conj().T @ sigmas @ frame), vectors=True)
        block[:] = _relative_entropies(rho_in_frame, s_rho, *spectrum)
    finite = values[np.isfinite(values)]
    return MinFormReport(
        irreality=j,
        identity_gap=identity_gap,
        min_margin=float(finite.min() - j) if finite.size else math.inf,
        infinite_samples=len(values) - finite.size,
        n_samples=n_samples,
    )


def complementarity_bound_check(rho: DensityMatrix, first: Observable = None, second: Observable = None) -> ComplementarityReport:
    """Check S(Phi_first(rho)) + S(Phi_second(rho)) >= ln d + S(rho).

    Takes both observables or neither; with neither, uses the qubit pair
    (sigma_x, sigma_y). The bound holds for any pair whose overlap constant
    c = max_ab ||alpha_a beta_b||^2 takes its least value 1/d (Maassen and
    Uffink; the composed dephasings then fully depolarize); a pair with c above
    1/d + MEASUREMENT_TOL is rejected before use.
    """
    if (first is None) != (second is None):
        raise ValueError("give both observables of the pair or neither")
    if first is None:
        if rho.dim != 2:
            raise ValueError(f"default observables are the qubit pair; got state dim {rho.dim}")
        first = Observable(SIGMA_X)
        second = Observable(SIGMA_Y)
    _same_dim(first=first.dim, second=second.dim, state=rho.dim)
    overlaps = np.linalg.norm(first.projectors[:, None] @ second.projectors[None], ord=2, axis=(2, 3))
    if not np.max(overlaps) ** 2 <= 1.0 / rho.dim + MEASUREMENT_TOL:
        raise ValueError("composed dephasings of the pair do not yield the maximally mixed state")
    s_first = von_neumann_entropy(dephase(first, rho))
    s_second = von_neumann_entropy(dephase(second, rho))
    s_state = von_neumann_entropy(rho)
    lhs = s_first + s_second
    rhs = math.log(rho.dim) + s_state
    return ComplementarityReport(
        lhs=lhs,
        rhs=rhs,
        slack=lhs - rhs,
        entropy_first=s_first,
        entropy_second=s_second,
        entropy_state=s_state,
    )
