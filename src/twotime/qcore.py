"""States, observables, entropies, and Bloch-sphere geometry for small Hilbert spaces.

Everything here is dense complex linear algebra intended for dimensions up to
about 8. All entropies are in nats. hbar = 1 throughout; spin-1/2 component
observables carry an explicit factor 1/2 relative to the Pauli matrices.
"""

import math

import numpy as np

# Tolerances, each named for what it guards. A check written ``not defect <= TOL`` also rejects NaN.
STATE_TOL = 1e-12  # max |rho - rho^dag| and |Tr rho - 1| of a density matrix
OPERATOR_HERMITICITY_TOL = 1e-10  # max |H - H^dag| of observables, Hamiltonians, projectors
PSD_FLOOR = -1e-10  # lowest eigenvalue of a state, and of a physical conditional operator
GROUP_TOL_DEFAULT = 1e-9  # eigenvalues closer than this share one projector
MEASUREMENT_TOL = 1e-10  # projector algebra; sum P_a = sum K^dag K = sum_b p(b|a) = 1; overlap constant c vs 1/d
RECONSTRUCTION_TOL = 1e-9  # max |sum a P_a - A| of a spectral decomposition
UNIT_NORM_TOL = 1e-12  # ||v| - 1| of a unit vector; excess of a Bloch norm over 1
SUPPORT_TOL = 1e-12  # eta-eigenvalue treated as zero in a relative entropy
SUPPORT_WEIGHT_TOL = 1e-10  # rho-weight on that null space that makes it infinite
NEGATIVE_ENTROPY_TOL = 1e-9  # roundoff below zero clamped in a relative entropy
PROBABILITY_TOL = 1e-12  # binary-entropy argument outside [0, 1] that is clamped
MARGINAL_TOL = 1e-12  # first-outcome probability treated as zero
IMAGINARY_TOL = 1e-12  # imaginary part of a correlator of Hermitian operators
POLE_TOL = 1e-12  # distance of 1 - z.r1 from the conditional Bloch pole
UNCERTAINTY_TOL = 1e-12  # roundoff allowed below a Gaussian uncertainty bound
BOUND_TOL = 1e-9  # irreality-sum slack allowed below the purity bound
IDENTITY_TOL = 1e-10  # residual of an exact identity: correlator gap, lambda Bloch norm, eigenstate irreality
FIXTURE_GAP_MIN = 1e-6  # gap the qutrit fixture must exceed
PRECESSION_TOL = 1e-12  # closed-form precession vs channel; field component of torque
FINITE_DIFF_TOL = 1e-8  # central difference vs analytic torque
FINITE_DIFF_STEP = 1e-5  # step of that central difference
STACK_BLOCK = 64  # matrices drawn, checked and scored per stacked LAPACK call

LN2 = math.log(2.0)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr

SIGMA_X = _readonly(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = _readonly(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = _readonly(np.array([[1, 0], [0, -1]], dtype=complex))
SIGMA = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def _as_square_complex(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {m.shape}")
    return m


def _same_dim(**dims) -> None:
    """Raise one message naming every part's dimension unless all of ``dims`` (name=dim) agree."""
    if len(set(dims.values())) > 1:
        raise ValueError("dimension mismatch: " + ", ".join(f"{name} dim {dim}" for name, dim in dims.items()))


def _symmetrized(m: np.ndarray, what: str, tol: float) -> np.ndarray:
    # (M + M^dag) / 2 of a matrix or an (n, d, d) stack, once max |M - M^dag| over it is within tol (NaN or inf fails).
    adjoint = m.conj().swapaxes(-1, -2)
    defect = float(np.max(np.abs(m - adjoint)))
    if not defect <= tol:
        raise ValueError(f"{what} is not Hermitian: max |H - H^dag| = {defect:.3e}")
    return (m + adjoint) / 2.0


def _states(stack: np.ndarray, vectors: bool = False):
    """Check an (n, d, d) stack of density matrices: each one Hermitian and of unit trace within
    ``STATE_TOL``, with no eigenvalue below ``PSD_FLOOR``. Returns (symmetrized stack, eigenvalues), the
    eigenvalues as (eigenvalues, eigenvectors) of one eigh with ``vectors``."""
    m = _symmetrized(stack, "density matrix", STATE_TOL)
    traces = np.trace(m, axis1=1, axis2=2)
    off = np.flatnonzero(np.abs(traces - 1.0) > STATE_TOL)
    if off.size:
        raise ValueError(f"density matrix trace is {traces[off[0]]:.15g}, expected 1")
    spectrum = np.linalg.eigh(m) if vectors else np.linalg.eigvalsh(m)
    eigs = spectrum[0] if vectors else spectrum
    low = np.flatnonzero(eigs[:, 0] < PSD_FLOOR)
    if low.size:
        raise ValueError(f"density matrix is not positive semidefinite: min eigenvalue = {eigs[low[0], 0]:.3e}")
    return m, spectrum


class DensityMatrix:
    """A d x d Hermitian, unit-trace, positive-semidefinite matrix.

    Construction validates all three properties (tolerances 1e-12, 1e-12 and
    -1e-10 on the minimum eigenvalue) and the stored matrix is read-only.
    """

    def __init__(self, matrix):
        m, eigs = _states(_as_square_complex(matrix)[None])
        self._matrix = _readonly(m[0])
        self._eigs = _readonly(eigs[0])

    @classmethod
    def from_ket(cls, ket) -> "DensityMatrix":
        """Pure state |psi><psi| from a (not necessarily normalized) state vector."""
        v = np.asarray(ket, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise ValueError("cannot build a state from the zero vector")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in ascending order (read-only)."""
        return self._eigs

    def purity(self) -> float:
        return float(np.vdot(self._matrix, self._matrix).real)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, purity={self.purity():.6g})"


def _spectra(stack: np.ndarray):
    """Check and decompose an (n, d, d) stack of observables as ``Observable`` does. Returns the
    symmetrized stack, (n, d) eigenvalues and (n, d, d, d) projectors: slot k holds its eigenvector's
    group mean, and a merged group's projector sits in its first slot, with zero projectors in the
    rest (they keep sum P = 1 and P_i P_j = delta_ij P_i)."""
    m = _symmetrized(stack, "observable", OPERATOR_HERMITICITY_TOL)
    values, vectors = np.linalg.eigh(m)
    cols = vectors.swapaxes(1, 2)
    projs = cols[..., :, None] @ cols.conj()[..., None, :]
    merged = np.diff(values, axis=1) <= GROUP_TOL_DEFAULT
    for n in np.flatnonzero(merged.any(axis=1)):
        edges = [0, *(np.flatnonzero(~merged[n]) + 1).tolist(), m.shape[1]]
        for a, b in zip(edges[:-1], edges[1:]):
            projs[n, a:b] = 0.0
            projs[n, a] = vectors[n, :, a:b] @ vectors[n, :, a:b].conj().T
            values[n, a:b] = values[n, a:b].sum() / (b - a)
    projs = (projs + projs.conj().swapaxes(-1, -2)) / 2.0
    eye = np.eye(m.shape[1])
    # P_i P_j - delta_ij P_i for every pair, as one (n, d, d, d, d) stack.
    pairs = projs[:, :, None] @ projs[:, None] - eye[..., None, None] * projs[:, :, None]
    for message, residual, tol in (
        ("projectors are not orthogonal/idempotent", pairs, MEASUREMENT_TOL),
        ("projectors do not resolve the identity", projs.sum(axis=1) - eye, MEASUREMENT_TOL),
        ("spectral decomposition does not reconstruct the matrix", np.einsum("nk,nkij->nij", values, projs) - m, RECONSTRUCTION_TOL),
    ):
        failed = np.flatnonzero(~(np.abs(residual).reshape(len(m), -1).max(axis=1) <= tol))
        if failed.size:
            raise ValueError(f"{message}: matrix {failed[0]} of {len(m)}")
    return m, values, projs


class Observable:
    """A Hermitian matrix with its grouped spectral decomposition cached.

    ``eigenvalues`` is a read-only (k,) array of the distinct eigenvalues in
    ascending order, separated by more than ``GROUP_TOL_DEFAULT`` (closer
    eigenvalues share one projector and are averaged); ``projectors`` is the
    read-only (k, d, d) stack of their eigenprojectors.
    """

    def __init__(self, matrix):
        m, eigenvalues, projectors = _spectra(_as_square_complex(matrix)[None])
        groups = np.flatnonzero(projectors[0].any(axis=(1, 2)))
        self._matrix = _readonly(m[0])
        self._eigenvalues = _readonly(eigenvalues[0, groups])
        self._projectors = _readonly(projectors[0, groups])

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigenvalues

    @property
    def projectors(self) -> np.ndarray:
        return self._projectors

    @property
    def spectrum(self):
        """(eigenvalue, projector) pairs in ascending eigenvalue order."""
        return list(zip(self._eigenvalues.tolist(), self._projectors))

    def eigenstate(self, k: int) -> DensityMatrix:
        """Maximally mixed state on the eigenspace of the k-th distinct eigenvalue (ascending)."""
        if not 0 <= k < len(self._eigenvalues):
            raise IndexError(f"eigenvalue index {k} out of range for {len(self._eigenvalues)} distinct eigenvalues")
        proj = self._projectors[k]
        return DensityMatrix(proj / int(round(proj.trace().real)))

    def __repr__(self):
        vals = ", ".join(f"{v:.6g}" for v in self._eigenvalues.tolist())
        return f"Observable(dim={self.dim}, eigenvalues=[{vals}])"


class BlochVector:
    """Real 3-vector r with ||r|| <= 1 parameterizing a qubit state."""

    def __init__(self, components):
        vec = np.asarray(components, dtype=float)
        if vec.shape != (3,):
            raise ValueError(f"Bloch vector must have 3 real components, got shape {vec.shape}")
        self._norm = float(_bloch_norms(vec[None])[0])
        self._vec = _readonly(vec.copy())

    @classmethod
    def from_angles(cls, r: float, theta: float, phi: float) -> "BlochVector":
        st = math.sin(theta)
        return cls((r * st * math.cos(phi), r * st * math.sin(phi), r * math.cos(theta)))

    @property
    def components(self) -> np.ndarray:
        return self._vec

    @property
    def r(self) -> float:
        """Norm of the vector."""
        return self._norm

    @property
    def theta(self) -> float:
        """Polar angle in [0, pi]; 0 for the zero vector."""
        if self._norm == 0.0:
            return 0.0
        return float(math.acos(min(1.0, max(-1.0, self._vec[2] / self._norm))))

    @property
    def phi(self) -> float:
        """Azimuthal angle in [0, 2*pi)."""
        if self._vec[0] == 0.0 and self._vec[1] == 0.0:
            return 0.0
        return float(math.atan2(self._vec[1], self._vec[0]) % (2.0 * math.pi))

    def __repr__(self):
        x, y, z = self._vec
        return f"BlochVector(({x:.6g}, {y:.6g}, {z:.6g}))"


def _bloch_norms(vectors: np.ndarray) -> np.ndarray:
    """Norms of the rows of an (n, 3) array, each bitwise np.linalg.norm of its row (sqrt of the BLAS dot
    it uses; a row sum can differ in the last ulp); a row of norm above 1 + UNIT_NORM_TOL, or NaN, is rejected."""
    norms = np.sqrt((vectors[:, None, :] @ vectors[:, :, None])[:, 0, 0])
    bad = np.flatnonzero(~(norms <= 1.0 + UNIT_NORM_TOL))
    if bad.size:
        raise ValueError(f"Bloch vector norm {norms[bad[0]]:.15g} is not finite or exceeds 1")
    return norms


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -Tr(rho ln rho) in nats; 0*ln(0) is taken as 0.

    Eigenvalues in [-1e-10, 0) are clamped to zero before the log; anything
    more negative is already rejected by the DensityMatrix invariants.
    """
    return float(_entropies(rho.eigenvalues()[None])[0])


def _entropies(eigs: np.ndarray) -> np.ndarray:
    # von_neumann_entropy of every row of an (n, d) stack of state eigenvalues.
    p = np.maximum(eigs, 0.0)
    entropies = -np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0).sum(axis=1)
    return np.where(entropies < 0.0, 0.0, entropies)  # as max(S, 0.0) does, keeping a -0.0


def relative_entropy(rho: DensityMatrix, eta: DensityMatrix) -> float:
    """Relative entropy Tr[rho (ln rho - ln eta)] in nats.

    Returns +inf when the support of rho is not contained in the support of
    eta (an eta-eigenvalue below 1e-12 carrying rho-weight above 1e-10).
    """
    _same_dim(rho=rho.dim, eta=eta.dim)
    return float(_relative_entropies(rho.matrix, von_neumann_entropy(rho), *np.linalg.eigh(eta.matrix[None]))[0])


def _relative_entropies(rho: np.ndarray, entropy: float, q: np.ndarray, basis: np.ndarray) -> np.ndarray:
    # relative_entropy(rho, eta) for a state matrix rho of that entropy and each eta of a checked stack given by its eigh.
    weights = np.einsum("nji,nji->ni", basis.conj(), rho @ basis).real
    null = q < SUPPORT_TOL
    infinite = np.any(null & (weights > SUPPORT_WEIGHT_TOL), axis=1)
    cross = (weights * np.log(np.where(null, 1.0, q))).sum(axis=1)  # log 1 = 0 on the null space
    values = np.where(infinite, math.inf, -entropy - cross)
    negative = np.flatnonzero(values < -NEGATIVE_ENTROPY_TOL)
    if negative.size:
        raise ArithmeticError(f"relative entropy evaluated to {values[negative[0]]:.3e} < 0")
    return np.where(values < 0.0, 0.0, values)


def binary_entropy(u):
    """-u ln u - (1-u) ln(1-u) for u in [0, 1], in nats; elementwise over an array.

    Inputs within 1e-12 outside the unit interval are clamped; anything
    further out, or NaN, is rejected. Every entry rounds as the scalar
    formula does on that float alone.
    """
    values = np.asarray(u, dtype=float)
    outside = ~((values >= -PROBABILITY_TOL) & (values <= 1.0 + PROBABILITY_TOL))
    if outside.any():
        raise ValueError(f"binary entropy argument {float(values[outside][0])!r} outside [0, 1]")
    p = np.clip(values, 0.0, 1.0).reshape(-1)
    inner = np.flatnonzero((p > 0.0) & (p < 1.0))
    q = p[inner]
    h = np.zeros_like(p)
    h[inner] = -q * _each(math.log, q) - (1.0 - q) * _each(math.log, 1.0 - q)
    return float(h[0]) if values.ndim == 0 else h.reshape(values.shape)


def _each(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` of every entry as a Python float: math's rounding, which numpy's own
    sin, cos and log do not always share (they can differ in the last ulp)."""
    return np.fromiter(map(fn, values.tolist()), float, len(values))


def bloch_to_state(r) -> DensityMatrix:
    """Qubit state (1 + r . sigma) / 2 from a Bloch vector (or 3-sequence)."""
    vec = r if isinstance(r, BlochVector) else BlochVector(r)
    x, y, z = vec.components
    m = 0.5 * (np.eye(2, dtype=complex) + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)
    return DensityMatrix(m)


def state_to_bloch(rho: DensityMatrix) -> BlochVector:
    """Bloch vector of a qubit state via r_i = Tr(rho sigma_i)."""
    if rho.dim != 2:
        raise ValueError(f"Bloch extraction requires a qubit state, got dim {rho.dim}")
    comps = [float(np.trace(rho.matrix @ s).real) for s in SIGMA]
    return BlochVector(comps)


def random_density_matrix(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random state from a normalized Ginibre matrix G G^dag."""
    return DensityMatrix(_ginibre_states(dim, 1, rng)[0])


def _ginibre_states(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    # n unchecked states as an (n, d, d) stack, bitwise those of n successive random_density_matrix calls.
    g = rng.standard_normal((n, 2, dim, dim))
    g = g[:, 0] + 1j * g[:, 1]
    m = g @ g.conj().swapaxes(1, 2)
    return m / np.trace(m, axis1=1, axis2=2).real[:, None, None]


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix with Gaussian entries."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0
