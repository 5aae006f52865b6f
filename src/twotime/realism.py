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
    DensityMatrix,
    Observable,
    _ginibre_states,
    _relative_entropies,
    _states,
    relative_entropy,
    von_neumann_entropy,
)

MIN_FORM_BLOCK = 64  # samples drawn, checked and scored per stacked LAPACK call


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
    if A.dim != rho.dim:
        raise ValueError(f"dimension mismatch: observable dim {A.dim}, state dim {rho.dim}")
    return DensityMatrix(_dephase(A.projectors, rho.matrix))


def _dephase(projectors, m: np.ndarray) -> np.ndarray:
    # sum_a alpha_a M alpha_a for one matrix M of shape (d, d) or a stack (n, d, d).
    return sum(proj @ m @ proj for proj in projectors)


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
    rng = np.random.default_rng(seed)
    values = np.empty(n_samples)
    for start in range(0, n_samples, MIN_FORM_BLOCK):
        block = values[start:start + MIN_FORM_BLOCK]
        sigmas, _ = _states(_ginibre_states(rho.dim, len(block), rng))
        dephased, _ = _states(_dephase(A.projectors, sigmas))
        block[:] = _relative_entropies(rho, dephased)
    finite = values[np.isfinite(values)]
    return MinFormReport(
        irreality=j,
        identity_gap=identity_gap,
        min_margin=float(finite.min() - j) if finite.size else math.inf,
        infinite_samples=len(values) - finite.size,
        n_samples=n_samples,
    )


def _composed_dephasing_is_depolarizing(first: Observable, second: Observable) -> bool:
    # Phi_second(Phi_first(.)) must send every matrix unit E_ij to
    # delta_ij * identity / d for the entropic bound below to apply.
    d = first.dim
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)  # E_ij at index i*d + j
    targets = np.eye(d).reshape(d * d, 1, 1) * np.eye(d) / d
    composed = _dephase(second.projectors, _dephase(first.projectors, units))
    return bool(np.max(np.abs(composed - targets)) <= MEASUREMENT_TOL)


def complementarity_bound_check(rho: DensityMatrix, first: Observable = None, second: Observable = None) -> ComplementarityReport:
    """Check S(Phi_first(rho)) + S(Phi_second(rho)) >= ln d + S(rho).

    With no observables given, uses the qubit pair (sigma_x, sigma_y). The
    bound holds for any pair whose composed dephasings fully depolarize
    (monotonicity of relative entropy under channels); the pair is validated
    before use.
    """
    if first is None or second is None:
        if rho.dim != 2:
            raise ValueError(f"default observables are the qubit pair; got state dim {rho.dim}")
        first = Observable(SIGMA_X)
        second = Observable(SIGMA_Y)
    if not (first.dim == second.dim == rho.dim):
        raise ValueError("observables and state must share one dimension")
    if not _composed_dephasing_is_depolarizing(first, second):
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
