"""One-parameter evolution families generated by time-independent Hamiltonians.

A :class:`ChannelFamily` provides both directions of a unitary family
U_t = exp(-i H t) (hbar = 1): the state map rho -> U_t rho U_t^dag and the
observable map A -> U_t^dag A U_t. For unitary families the adjoint of the
state map at time t equals the observable map at -t, which is what the
two-time correlator machinery in :mod:`twotime.correlators` relies on; those
operations therefore accept unitary families only.

:class:`KrausChannel` is a deliberately minimal non-unitary hook for the
sequential-measurement simulator: a fixed Kraus map applied once per
propagation segment, with no time parameterization.
"""

import math

import numpy as np

from .qcore import MEASUREMENT_TOL, OPERATOR_HERMITICITY_TOL, DensityMatrix, Observable
from .qcore import _as_square_complex, _readonly, _same_dim, _symmetrized


class ChannelFamily:
    """Unitary evolution family generated by a Hermitian Hamiltonian.

    U_t is computed from the spectral decomposition of H, which is exact to
    machine precision at the intended dimensions (d <= ~8). For spin systems
    driven at a Larmor frequency the natural time variable is the
    dimensionless phase tau = omega * t; build the family with H = S_h
    (omega = 1) and pass tau as the time.
    """

    unitary = True

    def __init__(self, hamiltonian):
        h, energies, modes = _hamiltonians(_as_square_complex(hamiltonian)[None])
        self._hamiltonian = _readonly(h[0])
        self._energies, self._modes = energies[0], modes[0]

    @property
    def hamiltonian(self) -> np.ndarray:
        return self._hamiltonian

    @property
    def dim(self) -> int:
        return self._hamiltonian.shape[0]

    def unitary_at(self, t: float) -> np.ndarray:
        return _unitaries(self._energies[None], self._modes[None], np.array([t], dtype=float))[0]

    def propagate_state(self, matrix: np.ndarray, t: float) -> np.ndarray:
        """Schrodinger direction: U_t M U_t^dag."""
        u = self.unitary_at(t)
        return u @ matrix @ u.conj().T

    def propagate_observable(self, matrix: np.ndarray, t: float) -> np.ndarray:
        """Heisenberg direction: U_t^dag M U_t."""
        u = self.unitary_at(t)
        return u.conj().T @ matrix @ u


def _hamiltonians(stack: np.ndarray):
    """Check an (n, d, d) stack of Hamiltonians as Hermitian; returns it symmetrized, with its eigh (energies, modes)."""
    h = _symmetrized(stack, "hamiltonian", OPERATOR_HERMITICITY_TOL)
    return (h, *np.linalg.eigh(h))


def _unitaries(energies: np.ndarray, modes: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i H t) for an (n, d) stack of H's eigenvalues, (n, d, d) of its eigenvectors and (n,) times."""
    for t, row in zip(times.tolist(), energies.tolist()):
        # Every phase E t must be finite; a float product, so an overflow gives inf without a warning.
        if not math.isfinite(t * max(map(abs, row))):
            raise ValueError(f"time must be finite and keep every phase E*t finite, got {t!r}")
    phases = np.exp(energies * (-1j * times)[:, None])
    return (modes * phases[:, None, :]) @ modes.conj().swapaxes(1, 2)


class KrausChannel:
    """Fixed single-step Kraus map sum_k K_k M K_k^dag.

    The map is applied once per propagation segment regardless of the
    duration argument; it exists only so the sequential-measurement protocol
    can be driven with non-unitary noise. It carries no Heisenberg direction
    and is rejected by the two-time operator machinery.
    """

    unitary = False

    def __init__(self, kraus_ops):
        ops = [_as_square_complex(k) for k in kraus_ops]
        if not ops:
            raise ValueError("at least one Kraus operator is required")
        d = ops[0].shape[0]
        if any(k.shape != (d, d) for k in ops):
            raise ValueError("Kraus operators must share one square shape")
        total = sum(k.conj().T @ k for k in ops)
        defect = np.max(np.abs(total - np.eye(d)))
        if not defect <= MEASUREMENT_TOL:
            raise ValueError(f"Kraus operators are not trace preserving: |sum K^dag K - 1| = {defect:.3e}")
        self._ops = [_readonly(k.copy()) for k in ops]

    @property
    def kraus_ops(self):
        return list(self._ops)

    @property
    def dim(self) -> int:
        return self._ops[0].shape[0]

    def propagate_state(self, matrix: np.ndarray, t: float) -> np.ndarray:
        # t is ignored: one application per segment.
        out = np.zeros_like(np.asarray(matrix, dtype=complex))
        for k in self._ops:
            out += k @ matrix @ k.conj().T
        return out


def _require_unitary(channel):
    if not getattr(channel, "unitary", False):
        raise TypeError("Heisenberg evolution requires a unitary channel family")


def evolve_state(channel, rho: DensityMatrix, t: float) -> DensityMatrix:
    """Evolve a state forward: the Schrodinger-picture map of the channel."""
    _same_dim(channel=channel.dim, state=rho.dim)
    return DensityMatrix(channel.propagate_state(rho.matrix, t))


def evolve_observable(channel, obs: Observable, t: float) -> Observable:
    """Heisenberg-picture evolution U_t^dag A U_t; preserves the spectrum.

    Requires a unitary family; the Kraus hook has no observable direction.
    """
    _require_unitary(channel)
    _same_dim(channel=channel.dim, observable=obs.dim)
    return Observable(channel.propagate_observable(obs.matrix, t))
