"""Independent brute-force oracles the tests check the library against.

Nothing here goes through the library's channel or spectral machinery:
unitaries come from scipy's Pade-based expm, decompositions from raw eigh
with explicit outcome grouping, and derivatives from finite differences.
"""

import numpy as np
import scipy.linalg


def expm_unitary(hamiltonian, t):
    return scipy.linalg.expm(-1j * np.asarray(hamiltonian, dtype=complex) * t)


def heisenberg_conjugate(hamiltonian, t, operator):
    u = expm_unitary(hamiltonian, t)
    return u.conj().T @ operator @ u


def schrodinger_conjugate(hamiltonian, t, state):
    u = expm_unitary(hamiltonian, t)
    return u @ state @ u.conj().T


def grouped_projectors(matrix, tol=1e-8):
    """Outcome projectors of a Hermitian matrix, grouping close eigenvalues."""
    w, v = np.linalg.eigh(matrix)
    outcomes = []
    start = 0
    for stop in range(1, len(w) + 1):
        if stop == len(w) or w[stop] - w[stop - 1] > tol:
            block = v[:, start:stop]
            outcomes.append((float(w[start:stop].mean()), block @ block.conj().T))
            start = stop
    return outcomes


def tpm_bruteforce(a_mat, b_mat, hamiltonian, t1, t2, rho0):
    """Sequential-measurement correlator by explicit outcome enumeration."""
    rho_t1 = schrodinger_conjugate(hamiltonian, t1, rho0)
    u_dt = expm_unitary(hamiltonian, t2 - t1)
    total = 0.0
    for a, alpha in grouped_projectors(a_mat):
        branch = alpha @ rho_t1 @ alpha
        pa = np.trace(branch).real
        if pa <= 1e-12:
            continue
        evolved = u_dt @ (branch / pa) @ u_dt.conj().T
        for b, beta in grouped_projectors(b_mat):
            total += a * b * pa * np.trace(beta @ evolved).real
    return total


def heisenberg_bruteforce(a_mat, b_mat, hamiltonian, t1, t2, rho0, kind="product"):
    """Tr(C12 rho0) with C12 assembled from expm-conjugated constituents."""
    a1 = heisenberg_conjugate(hamiltonian, t1, a_mat)
    b2 = heisenberg_conjugate(hamiltonian, t2, b_mat)
    c = 0.5 * (a1 @ b2 + b2 @ a1) if kind == "product" else a1 + b2
    return np.trace(c @ rho0).real


def relative_entropy_logm(rho, eta, tol=1e-12):
    """Tr[rho (ln rho - ln eta)] with scipy's logm, each log taken on its matrix's support.

    +inf when rho carries weight outside the support of eta.
    """

    def support_and_log(m):
        w, v = np.linalg.eigh(m)
        s = v[:, w > tol]  # orthonormal basis of the support
        return s @ s.conj().T, s @ scipy.linalg.logm(s.conj().T @ m @ s) @ s.conj().T

    p_eta, log_eta = support_and_log(np.asarray(eta, dtype=complex))
    if np.trace(rho - p_eta @ rho).real > 1e-10:
        return np.inf
    _, log_rho = support_and_log(np.asarray(rho, dtype=complex))
    return float(np.trace(rho @ (log_rho - log_eta)).real)


def random_state_matrix(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / m.trace().real


def random_hermitian_matrix(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0
