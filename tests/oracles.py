"""Independent brute-force oracles the tests check the library against.

Nothing here goes through the library's channel or spectral machinery:
unitaries come from scipy's Pade-based expm, decompositions from raw eigh
with explicit outcome grouping, and derivatives from finite differences.
"""

import math

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


def overlap_constant(a_mat, b_mat):
    """Maassen and Uffink's c = max_ab ||alpha_a beta_b||^2 over the grouped eigenprojectors of two Hermitian
    matrices, each operator norm the largest singular value of the product."""
    return max(np.linalg.svd(alpha @ beta, compute_uv=False)[0] ** 2
               for _, alpha in grouped_projectors(a_mat) for _, beta in grouped_projectors(b_mat))


def projector_residuals(projectors):
    """(max |P_i P_j - delta_ij P_i| over every pair, max |sum_i P_i - 1|) of a (k, d, d) projector stack."""
    p = np.asarray(projectors)
    pairs = max(np.max(np.abs(pi @ pj - (i == j) * pi)) for i, pi in enumerate(p) for j, pj in enumerate(p))
    return float(pairs), float(np.max(np.abs(p.sum(axis=0) - np.eye(p.shape[-1]))))


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


def tpm_joint_bruteforce(a_mat, b_mat, hamiltonian, t1, t2, rho0):
    """p(a, b) of the sequential-measurement protocol, rows and columns in grouped_projectors' outcome order: each
    Lueders branch alpha rho_t1 alpha / p(a), evolved and measured explicitly; p(a) <= 1e-12 gives a zero row."""
    rho_t1 = schrodinger_conjugate(hamiltonian, t1, rho0)
    u_dt = expm_unitary(hamiltonian, t2 - t1)
    a_outcomes, b_outcomes = grouped_projectors(a_mat), grouped_projectors(b_mat)
    joint = np.zeros((len(a_outcomes), len(b_outcomes)))
    for i, (_, alpha) in enumerate(a_outcomes):
        branch = alpha @ rho_t1 @ alpha
        pa = np.trace(branch).real
        if pa <= 1e-12:
            continue
        evolved = u_dt @ (branch / pa) @ u_dt.conj().T
        for j, (_, beta) in enumerate(b_outcomes):
            joint[i, j] = pa * np.trace(beta @ evolved).real
    return joint


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


def binary_entropy(u):
    """-u ln u - (1-u) ln(1-u) of one float in [0, 1], in nats, through math.log alone."""
    return 0.0 if u in (0.0, 1.0) else -u * math.log(u) - (1.0 - u) * math.log(1.0 - u)


def exp(x):
    """e**x of one float through math.exp alone."""
    return math.exp(x)


def square(x):
    """x**2 of one float as Python's pow rounds it, inf where pow raises OverflowError."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def random_state_matrix(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / m.trace().real


def random_hermitian_matrix(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def table_text(header, columns, sep):
    """A table as the per-row writer formatted it: a header line, then "%s" for string cells and "%.12g" for numbers."""
    row = sep.join("%s" if isinstance(column[0], str) else "%.12g" for column in columns) + "\n"
    return (sep.join(header) + "\n" + "".join(row % cells for cells in zip(*columns))).encode()
