"""One-parameter unitary families generated by time-independent Hamiltonians.

A :class:`ChannelFamily` gives U_t = exp(-i H t) (hbar = 1) and the state map
rho -> U_t rho U_t^dag. Evolution in this package is unitary only: the
two-time operators of :mod:`twotime.correlators` are built in the Heisenberg
picture, A -> U_t^dag A U_t, which a non-unitary map does not have.
"""

import numpy as np

from .qcore import _as_square_complex, _eighs, _matmul, _numbers, _readonly, _require, _same_dim


class ChannelFamily:
    """Unitary evolution family generated by a Hermitian Hamiltonian.

    U_t is computed from the spectral decomposition of H, which is exact to
    machine precision at the intended dimensions (d <= ~8). For spin systems
    driven at a Larmor frequency the natural time variable is the
    dimensionless phase tau = omega * t; build the family with H = S_h
    (omega = 1) and pass tau as the time.
    """

    def __init__(self, hamiltonian):
        h, energies, modes = _eighs(_as_square_complex(hamiltonian)[None], "hamiltonian")
        self._hamiltonian = _readonly(h[0])
        self._energies, self._modes = energies[0], modes[0]

    @property
    def hamiltonian(self) -> np.ndarray:
        return self._hamiltonian

    @property
    def dim(self) -> int:
        return self._hamiltonian.shape[0]

    def unitary_at(self, t: float) -> np.ndarray:
        return _unitaries(self._energies[None], self._modes[None], np.array([_numbers(t, "time")]))[0]

    def propagate_state(self, matrix: np.ndarray, t: float) -> np.ndarray:
        """Schrodinger direction: U_t M U_t^dag of a finite square matrix M of the channel's dimension."""
        m = _as_square_complex(matrix)
        _same_dim(matrix=m.shape[0], channel=self.dim)
        u = self.unitary_at(t)
        with np.errstate(over="ignore", invalid="ignore"):  # entries near the float max can overflow: checked as a matrix
            return _as_square_complex(u @ m @ u.conj().T)


def _unitaries(energies: np.ndarray, modes: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i H t) for an (n, d) stack of H's eigenvalues, (n, d, d) of its eigenvectors and (n,) times."""
    with np.errstate(over="ignore"):  # finite times and energies: only an overflowing phase is not finite
        largest = times * np.abs(energies).max(axis=1)
    _require(np.isfinite(largest), "phase E*t must be finite, got {e!r} at time {t!r}", e=largest, t=times)
    phases = np.exp(energies * (-1j * times)[:, None])
    return _matmul(modes * phases[:, None, :], modes.conj().swapaxes(1, 2))
