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
MEASUREMENT_TOL = 1e-10  # projector algebra; sum P_a = sum K^dag K = sum_b p(b|a) = 1; Phi_B Phi_A depolarizes
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
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _hermitian(matrix, what: str, tol: float = OPERATOR_HERMITICITY_TOL) -> np.ndarray:
    """The symmetrized matrix, once max |H - H^dag| is within ``tol`` (a NaN or inf entry fails)."""
    return _symmetrized(_as_square_complex(matrix), what, tol)


def _symmetrized(m: np.ndarray, what: str, tol: float) -> np.ndarray:
    # _hermitian's check for a matrix or an (n, d, d) stack, taken over the whole stack.
    adjoint = m.conj().swapaxes(-1, -2)
    defect = float(np.max(np.abs(m - adjoint)))
    if not defect <= tol:
        raise ValueError(f"{what} is not Hermitian: max |H - H^dag| = {defect:.3e}")
    return (m + adjoint) / 2.0


def _states(stack: np.ndarray):
    """Check an (n, d, d) stack of density matrices: each one Hermitian and of unit trace within
    ``STATE_TOL``, with no eigenvalue below ``PSD_FLOOR``. Returns (symmetrized stack, eigenvalues)."""
    m = _symmetrized(stack, "density matrix", STATE_TOL)
    traces = np.trace(m, axis1=1, axis2=2)
    off = np.flatnonzero(np.abs(traces - 1.0) > STATE_TOL)
    if off.size:
        raise ValueError(f"density matrix trace is {traces[off[0]]:.15g}, expected 1")
    eigs = np.linalg.eigvalsh(m)
    low = np.flatnonzero(eigs[:, 0] < PSD_FLOOR)
    if low.size:
        raise ValueError(f"density matrix is not positive semidefinite: min eigenvalue = {eigs[low[0], 0]:.3e}")
    return m, eigs


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


def spectral_decompose(matrix, group_tol: float = GROUP_TOL_DEFAULT):
    """Decompose a Hermitian matrix into (eigenvalue, projector) pairs.

    Eigenvalues closer than ``group_tol`` are merged into a single projector,
    so degenerate operators (e.g. multiples of the identity) come out with the
    correct coarse-grained spectrum. Projectors are orthogonal, idempotent and
    sum to the identity; ``sum(eig * proj)`` reconstructs the input.

    Raises ValueError for non-Hermitian input, quoting the defect.
    """
    return _grouped_spectrum(_hermitian(matrix, "matrix"), group_tol)


def _grouped_spectrum(h: np.ndarray, group_tol: float):
    eigvals, eigvecs = np.linalg.eigh(h)
    spectrum = []
    start = 0
    for stop in range(1, len(eigvals) + 1):
        if stop == len(eigvals) or eigvals[stop] - eigvals[stop - 1] > group_tol:
            block = eigvecs[:, start:stop]
            proj = block @ block.conj().T
            proj = (proj + proj.conj().T) / 2.0
            spectrum.append((float(eigvals[start:stop].mean()), _readonly(proj)))
            start = stop
    return spectrum


class Observable:
    """A Hermitian matrix with its grouped spectral decomposition cached.

    ``spectrum`` is a list of (eigenvalue, projector) pairs in ascending
    eigenvalue order; distinct eigenvalues are separated by more than
    ``GROUP_TOL_DEFAULT``.
    """

    def __init__(self, matrix):
        self._matrix = _readonly(_hermitian(matrix, "observable"))
        self._spectrum = _grouped_spectrum(self._matrix, GROUP_TOL_DEFAULT)
        projs = np.array(self.projectors)
        # P_i P_j = delta_ij P_i for every pair, as one (k, k, d, d) comparison.
        pairs = projs[:, None] @ projs[None, :] - np.eye(len(projs))[:, :, None, None] * projs[:, None]
        if not np.max(np.abs(pairs)) <= MEASUREMENT_TOL:
            raise ValueError("projectors are not orthogonal/idempotent")
        if not np.max(np.abs(projs.sum(axis=0) - np.eye(self.dim))) <= MEASUREMENT_TOL:
            raise ValueError("projectors do not resolve the identity")
        rebuilt = np.tensordot(np.array(self.eigenvalues), projs, axes=1)
        if not np.max(np.abs(rebuilt - self._matrix)) <= RECONSTRUCTION_TOL:
            raise ValueError("spectral decomposition does not reconstruct the matrix")

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def spectrum(self):
        return list(self._spectrum)

    @property
    def eigenvalues(self):
        return tuple(val for val, _ in self._spectrum)

    @property
    def projectors(self):
        return tuple(proj for _, proj in self._spectrum)

    def eigenstate(self, k: int) -> DensityMatrix:
        """Maximally mixed state on the eigenspace of the k-th distinct eigenvalue (ascending)."""
        if not 0 <= k < len(self._spectrum):
            raise IndexError(f"eigenvalue index {k} out of range for {len(self._spectrum)} distinct eigenvalues")
        _, proj = self._spectrum[k]
        return DensityMatrix(proj / int(round(proj.trace().real)))

    def __repr__(self):
        vals = ", ".join(f"{v:.6g}" for v in self.eigenvalues)
        return f"Observable(dim={self.dim}, eigenvalues=[{vals}])"


class BlochVector:
    """Real 3-vector r with ||r|| <= 1 parameterizing a qubit state."""

    def __init__(self, components):
        vec = np.asarray(components, dtype=float)
        if vec.shape != (3,):
            raise ValueError(f"Bloch vector must have 3 real components, got shape {vec.shape}")
        norm = float(np.linalg.norm(vec))
        if not norm <= 1.0 + UNIT_NORM_TOL:
            raise ValueError(f"Bloch vector norm {norm:.15g} is not finite or exceeds 1")
        self._vec = _readonly(vec.copy())
        self._norm = norm

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


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -Tr(rho ln rho) in nats; 0*ln(0) is taken as 0.

    Eigenvalues in [-1e-10, 0) are clamped to zero before the log; anything
    more negative is already rejected by the DensityMatrix invariants.
    """
    p = np.maximum(rho.eigenvalues(), 0.0)
    pos = p[p > 0.0]
    return max(float(-(pos * np.log(pos)).sum()), 0.0)


def relative_entropy(rho: DensityMatrix, eta: DensityMatrix) -> float:
    """Relative entropy Tr[rho (ln rho - ln eta)] in nats.

    Returns +inf when the support of rho is not contained in the support of
    eta (an eta-eigenvalue below 1e-12 carrying rho-weight above 1e-10).
    """
    if rho.dim != eta.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {eta.dim}")
    return float(_relative_entropies(rho, eta.matrix[None])[0])


def _relative_entropies(rho: DensityMatrix, etas: np.ndarray) -> np.ndarray:
    # relative_entropy(rho, eta) for every eta of a checked (n, d, d) stack, with one stacked eigh.
    q, basis = np.linalg.eigh(etas)
    weights = np.einsum("nji,jk,nki->ni", basis.conj(), rho.matrix, basis).real
    null = q < SUPPORT_TOL
    infinite = np.any(null & (weights > SUPPORT_WEIGHT_TOL), axis=1)
    cross = (weights * np.log(np.where(null, 1.0, q))).sum(axis=1)  # log 1 = 0 on the null space
    values = np.where(infinite, math.inf, -von_neumann_entropy(rho) - cross)
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


def random_bloch_states(r: float, n: int, seed) -> list:
    """n Bloch vectors of fixed norm r with theta ~ U[0, pi], phi ~ U[0, 2*pi).

    Sampling is uniform in the angles (not area-uniform on the sphere). The
    same seed always yields the identical sequence.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"radius {r!r} outside [0, 1]")
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, math.pi, n)
    phis = rng.uniform(0.0, 2.0 * math.pi, n)
    return [BlochVector.from_angles(r, t, p) for t, p in zip(thetas, phis)]


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
