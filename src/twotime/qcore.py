"""States, observables, entropies, and Bloch-sphere geometry for small Hilbert spaces.

Everything here is dense complex linear algebra intended for dimensions up to
about 8. All entropies are in nats. hbar = 1 throughout; spin-1/2 component
observables carry an explicit factor 1/2 relative to the Pauli matrices.
"""

import functools
import math
import numbers
import operator

import numpy as np

# Tolerances, each named for what it guards; a check written ``not defect <= TOL`` also rejects NaN. An "absolute" one
# guards a quantity of fixed size; one "per unit of _scales(M)" grows with max(1, max |M|), as M's roundoff does.
STATE_TOL = 1e-12  # max |rho - rho^dag| and |Tr rho - 1| of a density matrix; absolute: unit trace bounds its entries
OPERATOR_HERMITICITY_TOL = 1e-10  # max |H - H^dag|, per unit of _scales(H); absolute for a projector (entries <= 1)
PSD_FLOOR = -1e-10  # lowest eigenvalue of a state, and of a physical conditional operator; absolute: both have unit trace
GROUP_TOL_DEFAULT = 1e-9  # eigenvalues closer than this share one projector, per unit of _scales(A)
MEASUREMENT_TOL = 1e-10  # projector algebra; sum_b p(b|a) = 1; overlap constant c vs 1/d; absolute: all of unit size
RECONSTRUCTION_TOL = 1e-9  # max |sum a P_a - A| of a spectral decomposition, per unit of _scales(A)
UNIT_NORM_TOL = 1e-12  # ||v| - 1| of a unit vector; excess of a Bloch norm over 1; absolute: unit length
SUPPORT_TOL = 1e-12  # eta-eigenvalue treated as zero in a relative entropy; absolute: eta has unit trace
SUPPORT_WEIGHT_TOL = 1e-10  # rho-weight on that null space that makes it infinite; absolute: a probability
NEGATIVE_ENTROPY_TOL = 1e-9  # roundoff below zero clamped in a relative entropy; absolute: nats of unit-trace states
PROBABILITY_TOL = 1e-12  # binary-entropy argument outside [0, 1] that is clamped; absolute: a probability
MARGINAL_TOL = 1e-12  # first-outcome probability treated as zero; absolute: a probability
IMAGINARY_TOL = 1e-12  # imaginary part of Tr(C12 rho) for a Hermitian C12, per unit of _scales(C12)
POLE_TOL = 1e-12  # distance of 1 - z.r1 from the conditional Bloch pole; absolute: unit vectors
UNCERTAINTY_TOL = 1e-12  # roundoff allowed below a Gaussian uncertainty bound; absolute: hbar = 1 fixes the bounds' scale
BOUND_TOL = 1e-9  # irreality-sum slack allowed below the purity bound; absolute: nats, at most 2 ln 2
IDENTITY_TOL = 1e-10  # residual of an identity (correlator gap, lambda norm, eigenstate J); absolute: unit-scale draws
FIXTURE_GAP_MIN = 1e-6  # gap the qutrit fixture must exceed; absolute: the gap is 1 / (2 sqrt 2)
PRECESSION_TOL = 1e-12  # closed-form precession vs channel; field component of torque; absolute: Pauli entries are unit
FINITE_DIFF_TOL = 1e-8  # central difference vs analytic torque; absolute: Pauli entries are unit
FINITE_DIFF_STEP = 1e-5  # step of that central difference; absolute: a phase in radians
STACK_BYTES = 36 * 1024  # bytes of d x d complex matrices (16 d^2 each) drawn, checked and scored per stacked call
CELL_TIE_MARGIN = 1e-3  # distance from a rounding tie, per unit of a cell's twelfth digit, below which Python formats it

LN2 = math.log(2.0)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr

SIGMA_X = _readonly(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = _readonly(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = _readonly(np.array([[1, 0], [0, -1]], dtype=complex))
SIGMA = (SIGMA_X, SIGMA_Y, SIGMA_Z)
_PLUS_MINUS = _readonly(np.array([-2.0, 2.0]))  # _eigh2's eigenvalues mean -+ r, ascending, r at half scale


def _as_square_complex(matrix) -> np.ndarray:
    m = _numbers(matrix, "matrix", 2, complex)
    if m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {m.shape}")
    return m


def _require(ok, message: str, error=ValueError, **columns) -> None:
    """Raise error(message), filled with the named columns' entries as Python floats, at the first row where ok fails."""
    if not (ok is True or np.asarray(ok).all()):  # argmin of a boolean array is its first False, in the order .flat counts
        raise error(message.format(**{name: float(np.asarray(column).flat[np.argmin(ok)]) for name, column in columns.items()}))


def _finite(**columns) -> None:
    # For quantities computed from checked inputs; a parameter's finiteness is _numbers' rule (tests/test_surface.py).
    for name, column in columns.items():
        _require(np.isfinite(column), name + " must be finite, got {value!r}", value=column)


def _numbers(value, name: str, ndim=0, dtype=float):
    """The one ingress rule: value as a Python float (ndim 0) or a new ndim-D array of dtype, its entries finite int, uint
    or float (or complex, for dtype=complex); a bool, str, bytes, None, an object, another rank, NaN or inf raises a
    ValueError naming it, before any arithmetic could warn on it."""
    array = np.asarray(value)
    if array.dtype.kind not in ("iufc" if dtype is complex else "iuf") or array.ndim != ndim:
        raise ValueError(f"{name} must be a real number, got {value}" if ndim == 0 else f"{name} must be a {ndim}-D array "
                         f"of {'numbers' if dtype is complex else 'real numbers'}, got {array.dtype} of shape {array.shape}")
    array = array.astype(dtype)
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite, got {array[~np.isfinite(array)][0]}")
    return float(array) if ndim == 0 else array


def _count(value, name: str, low=0) -> int:
    # value as a Python int; a ValueError naming it unless it is an integer >= low, 0 or 1 (2.0 and True are not).
    count = int(value) if isinstance(value, numbers.Integral) and not isinstance(value, bool) else -1
    if count < low:
        raise ValueError(f"{name} must be a {'positive' if low else 'non-negative'} integer, got {value}")
    return count


def _typed(value, kind: type, name: str):  # value, once it is a kind: else a TypeError naming the parameter and the kind
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be of type {kind.__name__}, got {type(value).__name__}")
    return value


def _same_dim(**dims) -> None:
    """Raise one message naming every part's dimension unless all of ``dims`` (name=dim) agree."""
    if len(set(dims.values())) > 1:
        raise ValueError("dimension mismatch: " + ", ".join(f"{name} dim {dim}" for name, dim in dims.items()))


def _symmetrized(m: np.ndarray, what: str, tol) -> np.ndarray:
    # M/2 + M^dag/2 of an (n, d, d) stack, or of an (n, d) stack of diagonals (a diagonal's adjoint is its conjugate),
    # once each max |M - M^dag| <= tol, a float or one per matrix; NaN or inf fails.
    half, adjoint = m * 0.5, np.conjugate(m if m.ndim == 2 else m.swapaxes(1, 2), order="C")
    adjoint *= 0.5  # in place: np.conjugate copies even a real m (whose .conj() is m), C-ordered as each pass below reads it
    with np.errstate(over="ignore"):  # halved first, so only a defect past the float max overflows (to inf)
        gaps = np.abs(half - adjoint)
        # A stack-wide max <= the least finite tol passes every matrix; otherwise (NaN too) each one's defect decides.
        if not 2.0 * gaps.max(initial=0.0) <= (tol if type(tol) is float else tol.min(initial=math.inf)) < math.inf:
            defect = 2.0 * gaps.reshape(len(m), -1).max(axis=1)
            _require((defect <= tol) & (defect < math.inf), what + " is not Hermitian: max |H - H^dag| = {e:.3e}", e=defect)
    return np.add(half, adjoint, out=half)


def _scales(stack: np.ndarray) -> np.ndarray:
    # max(1, max |M|) of each matrix of an (n, d, d) stack: the unit of the checks that are relative to a matrix's size.
    with np.errstate(over="ignore"):  # an |M_ij| past the float max makes the scale inf
        return np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))


def _eighs(stack: np.ndarray, what: str):
    """Check an (n, d, d) stack of ``what`` as Hermitian with a finite spectrum; returns it symmetrized, with its eigh."""
    m = _symmetrized(stack, what, OPERATOR_HERMITICITY_TOL * _scales(stack))
    values, vectors = (_eigh2 if m.shape[1] == 2 else np.linalg.eigh)(m)
    _require(np.isfinite(values), what + " eigenvalue {e!r} is not finite", e=values)
    return m, values, vectors


def _eigh2(m: np.ndarray):
    """np.linalg.eigh of an (n, 2, 2) Hermitian stack [[a, b], [b*, c]] by the symmetric Schur step (Golub & Van Loan 8.5):
    eigenvalues mean -+ r (mean, half = a/2 +- c/2, r = hypot(half, |b|)); frame [[-p, b], [b*, p]] / hypot(p, |b|), p = r + |half|,
    conjugated with rows swapped where half > 0. At half scale only an eigenvalue overflows; LAPACK takes r / 2 = 0 or subnormal."""
    with np.errstate(all="ignore"):
        vectors = m * 0.5
        r = np.hypot(half := (vectors[:, 0, 0] - vectors[:, 1, 1]).real * 0.5, size := np.abs(vectors[:, 0, 1]))
        values = (vectors[:, 0, 0] + vectors[:, 1, 1]).real[:, None] + r[:, None] * _PLUS_MINUS
        vectors[:, 0, 0], vectors[:, 1, 1] = -(p := r + np.abs(half)), p
        np.copyto(vectors, vectors[:, ::-1].conj(), where=(half > 0.0)[:, None, None])
        vectors /= np.hypot(p, size)[:, None, None]
    if np.count_nonzero(low := r < 2.0**-1022):  # 2**-1022, the least normal float
        values[low], vectors[low] = np.linalg.eigh(m[low])
    return values, vectors


def _unit_traces(stack: np.ndarray) -> np.ndarray:
    """The symmetrized stack, once each density matrix is Hermitian and of unit trace within ``STATE_TOL``; an
    (n, d) stack holds the diagonals of diagonal matrices, checked with the messages those matrices get."""
    m = _symmetrized(stack, "density matrix", STATE_TOL)
    traces = (m if m.ndim == 2 else m.diagonal(axis1=1, axis2=2)).sum(axis=1)  # as np.trace sums a diagonal
    _require(np.abs(traces - 1.0) <= STATE_TOL, "density matrix trace is {t:.15g}, expected 1", t=traces.real)
    return m


def _floor(low: np.ndarray) -> None:  # each state's least eigenvalue must not lie below PSD_FLOOR
    _require(~(low < PSD_FLOOR), "density matrix is not positive semidefinite: min eigenvalue = {low:.3e}", low=low)


def _states(stack: np.ndarray, solver="eigvalsh"):
    """``_unit_traces`` and ``_floor`` of a stack of density matrices. Returns (symmetrized stack, spectrum), the
    spectrum None with ``solver=None``. An (n, d, d) stack's spectrum is eigvalsh's; with ``solver=None`` one Cholesky
    factorization of M - PSD_FLOOR * 1 checks the floor, and only when that fails does eigvalsh decide, and name the
    first state below it. An (n, d) stack's spectrum is its real diagonals."""
    m = _unit_traces(stack)
    if solver is None and m.ndim == 3:
        try:
            (shifted := m.copy()).reshape(len(m), -1)[:, :: m.shape[1] + 1] -= PSD_FLOOR  # M - PSD_FLOOR * 1, on its diagonal
            np.linalg.cholesky(shifted)
            return m, None
        except np.linalg.LinAlgError:  # some state may be below the floor: eigvalsh decides, as without the gate
            pass
    spectrum = m.real if m.ndim == 2 else np.linalg.eigvalsh(m)
    _floor(spectrum.min(axis=1))  # eigvalsh's first column
    return m, spectrum if solver else None


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
        """Pure state |psi><psi| from a (not necessarily normalized) finite state vector."""
        parts = _numbers(ket, "ket", 1, complex).view(float)  # a new contiguous array, so its float view is valid
        largest = np.abs(parts).max(initial=0.0)
        _require(largest != 0.0, "cannot build a state from the zero vector")
        v = np.ldexp(parts, -math.frexp(largest)[1]).view(complex)  # exact: the largest part in [0.5, 1), no square overflows
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        dim = _count(dim, "dim", low=1)
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
    """Check and decompose an (n, d, d) stack of observables as ``Observable`` does: the symmetrized stack, (n, d)
    eigenvalues (those within GROUP_TOL_DEFAULT per unit of _scales share an eigenspace, whose slots all hold their
    mean), _eighs' (n, d, d) eigenvectors V and (n, d) ``starts``, True in each eigenspace's first slot. With V's one
    check e = max |V^dag V - 1| <= MEASUREMENT_TOL / (d + 1), the eigenprojectors P_g = V_g V_g^dag of slices V_g of V
    keep every entry of P_g P_h - delta_gh P_g and of sum P - 1 = V V^dag - 1 within (1 + d e) d e < MEASUREMENT_TOL."""
    m, values, vectors = _eighs(stack, "observable")
    scales, adjoints = _scales(m)[:, None, None], vectors.conj().swapaxes(1, 2)  # each scale broadcast over its matrix
    with np.errstate(over="ignore"):  # a gap between eigenvalues near +-float max is inf, which is not merged
        merged = np.diff(values, axis=1) <= GROUP_TOL_DEFAULT * scales[:, 0]
    starts = np.concatenate([np.ones((len(m), 1), bool), ~merged], axis=1)
    for n in np.flatnonzero(merged.any(axis=1)):
        for space in np.split(values[n], np.flatnonzero(starts[n])[1:]):  # views of each eigenspace's slots
            with np.errstate(over="ignore"):  # a sum past the float max: the mean is then the sum of the shares
                total = space.sum()
            space[:] = total / len(space) if np.isfinite(total) else (space / len(space)).sum()
    row, where = np.broadcast_to(np.arange(len(m))[:, None, None], m.shape), f": matrix {{row:.0f}} of {len(m)}"
    gram = np.abs(_matmul(adjoints, vectors) - np.eye(m.shape[1]))
    _require(gram <= MEASUREMENT_TOL / (m.shape[1] + 1), "projectors are not orthogonal/idempotent" + where, row=row)
    fit = np.abs(_matmul(vectors * values[:, None, :], adjoints) - m)
    _require(fit <= RECONSTRUCTION_TOL * scales, "spectral decomposition does not reconstruct the matrix" + where, row=row)
    return m, values, vectors, starts


class Observable:
    """A Hermitian matrix with its grouped spectral decomposition cached.

    ``eigenvalues`` is a read-only (k,) array of the distinct eigenvalues in
    ascending order, separated by more than ``GROUP_TOL_DEFAULT`` per unit of
    max(1, max |A|) (closer eigenvalues share one projector and are averaged,
    so ``Observable(s * A)`` groups as ``Observable(A)``); ``projectors`` is the
    read-only (k, d, d) stack of their eigenprojectors, formed on first use.
    """

    def __init__(self, matrix):
        m, values, vectors, starts = _spectra(_as_square_complex(matrix)[None])
        self._matrix = _readonly(m[0])
        self._frame = tuple(map(_readonly, (values, vectors, starts)))  # _spectra's stacks of one: the kernels' input
        self._eigenvalues = _readonly(values[0, starts[0]])

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigenvalues

    @functools.cached_property
    def projectors(self) -> np.ndarray:
        _, (vectors,), (starts,) = self._frame  # V_g V_g^dag of each eigenspace's columns V_g, as views of V
        projectors = np.array([v @ v.conj().T for v in np.split(vectors, np.flatnonzero(starts)[1:], axis=1)])
        return _readonly((projectors + projectors.conj().swapaxes(1, 2)) / 2.0)

    @property
    def spectrum(self):
        """(eigenvalue, projector) pairs in ascending eigenvalue order."""
        return list(zip(self._eigenvalues.tolist(), self.projectors))

    def eigenstate(self, k: int) -> DensityMatrix:
        """Maximally mixed state on the eigenspace of the k-th distinct eigenvalue (ascending); k is an index."""
        k = operator.index(k)  # a float or numpy bool raises TypeError; a bool would index projectors as a mask
        if not 0 <= k < len(self._eigenvalues):
            raise IndexError(f"eigenvalue index {k} out of range for {len(self._eigenvalues)} distinct eigenvalues")
        proj = self.projectors[k]
        return DensityMatrix(proj / int(round(proj.trace().real)))

    def __repr__(self):
        vals = ", ".join(f"{v:.6g}" for v in self._eigenvalues.tolist())
        return f"Observable(dim={self.dim}, eigenvalues=[{vals}])"


class BlochVector:
    """Real 3-vector r with ||r|| <= 1 parameterizing a qubit state."""

    def __init__(self, components):
        vec = _numbers(components, "Bloch vector", 1)
        if vec.shape != (3,):
            raise ValueError(f"Bloch vector must have 3 real components, got shape {vec.shape}")
        self._norm = float(_bloch_norms(vec[None])[0])
        self._vec = _readonly(vec)

    @classmethod
    def from_angles(cls, r: float, theta: float, phi: float) -> "BlochVector":
        r, theta, phi = _numbers(r, "r"), _numbers(theta, "theta"), _numbers(phi, "phi")
        st = np.sin(theta)
        return cls((r * st * np.cos(phi), r * st * np.sin(phi), r * np.cos(theta)))

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


def _rows(d: int) -> int:
    # Rows of d x d complex matrices (16 d^2 bytes each) in STACK_BYTES: the most one stacked LAPACK call takes.
    return max(1, STACK_BYTES // (16 * d * d))


def _blocks(n: int, d: int):
    return map(slice, range(0, n, rows := _rows(d)), range(rows, n + rows, rows))  # range(n) in slices of _rows(d), lazily


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for complex stacks as one float64 matmul, where @ makes one zgemm call per matrix: a's (..., m, d) entries
    x + iy as (..., m, 2d) floats, times the (..., 2d, 2k) floats whose rows 2j and 2j + 1 are row j of b and of 1j * b."""
    rows = np.ascontiguousarray(np.concatenate((b, 1j * b), -1))  # concatenate keeps a non-C layout of its inputs
    b_floats = rows.view(float).reshape(*rows.shape[:-2], -1, rows.shape[-1])
    return np.matmul(np.ascontiguousarray(a, complex).view(float), b_floats).view(complex)


def _norms(vectors: np.ndarray) -> np.ndarray:
    # Each row's norm of an (n, 3) array, bitwise np.linalg.norm's (sqrt of its BLAS dot; a row sum can differ by an ulp).
    with np.errstate(over="ignore"):  # an overflowed norm is inf, which every caller rejects
        return np.sqrt((vectors[:, None, :] @ vectors[:, :, None])[:, 0, 0])


def _bloch_norms(vectors: np.ndarray) -> np.ndarray:
    """``_norms`` of an (n, 3) array; a row of norm above 1 + UNIT_NORM_TOL, or NaN, is rejected."""
    norms = _norms(vectors)
    _require(norms <= 1.0 + UNIT_NORM_TOL, "Bloch vector norm {norm:.15g} is not finite or exceeds 1", norm=norms)
    return norms


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -Tr(rho ln rho) in nats; 0*ln(0) is taken as 0.

    Eigenvalues in [-1e-10, 0) are clamped to zero before the log; anything
    more negative is already rejected by the DensityMatrix invariants.
    """
    return float(_entropies(_typed(rho, DensityMatrix, "rho").eigenvalues()[None])[0])


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
    _same_dim(rho=_typed(rho, DensityMatrix, "rho").dim, eta=_typed(eta, DensityMatrix, "eta").dim)
    q, basis = np.linalg.eigh(eta.matrix[None])
    weights = np.einsum("nji,nji->ni", basis.conj(), _matmul(rho.matrix, basis)).real  # <v|rho|v> on each eigenvector v of eta
    return float(_relative_entropies(weights, von_neumann_entropy(rho), q)[0])


def _relative_entropies(weights: np.ndarray, entropy: float, q: np.ndarray) -> np.ndarray:
    # relative_entropy(rho, eta) for a state rho of that entropy and each eta of a checked stack given by its (n, d)
    # eigenvalues q, from rho's weights on their eigenvectors: (n, d), or one (d,) row shared by every eta.
    null = q < SUPPORT_TOL
    infinite = (null & (weights > SUPPORT_WEIGHT_TOL)).any(axis=1)
    cross = (weights * np.log(np.where(null, 1.0, q))).sum(axis=1)  # log 1 = 0 on the null space
    values = np.where(infinite, math.inf, -entropy - cross)
    _require(~(values < -NEGATIVE_ENTROPY_TOL), "relative entropy evaluated to {v:.3e} < 0", ArithmeticError, v=values)
    return np.where(values < 0.0, 0.0, values)


def binary_entropy(u):
    """-u ln u - (1-u) ln(1-u) for u in [0, 1], in nats; elementwise over an array.

    Inputs within 1e-12 outside the unit interval are clamped; anything
    further out, or NaN, is rejected. Every entry rounds as the formula does
    on that float alone, with numpy's log (not always math.log's last ulp).
    """
    values = _numbers(u, "binary entropy argument", np.ndim(u))
    inside = (values >= -PROBABILITY_TOL) & (values <= 1.0 + PROBABILITY_TOL)
    _require(inside, "binary entropy argument {u!r} outside [0, 1]", u=values)
    p = np.clip(values, 0.0, 1.0).reshape(-1)
    inner = np.flatnonzero((p > 0.0) & (p < 1.0))
    q = p[inner]
    h = np.zeros_like(p)
    h[inner] = -q * np.log(q) - (1.0 - q) * np.log(1.0 - q)
    return float(h[0]) if np.ndim(values) == 0 else h.reshape(values.shape)


def bloch_to_state(r) -> DensityMatrix:
    """Qubit state (1 + r . sigma) / 2 from a Bloch vector (or 3-sequence)."""
    vec = r if isinstance(r, BlochVector) else BlochVector(r)
    return DensityMatrix(_bloch_states(vec.components[None])[0])


def _bloch_states(vectors: np.ndarray) -> np.ndarray:
    # Unchecked (n, 2, 2) states (1 + r . sigma) / 2 of the rows of an (n, 3) array of Bloch vectors.
    x, y, z = (vectors[:, i, None, None] for i in range(3))
    return 0.5 * (np.eye(2, dtype=complex) + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


def random_density_matrix(dim: int, rng: "np.random.Generator") -> DensityMatrix:
    """Full-rank random state from a normalized Ginibre matrix G G^dag."""
    dim = _count(dim, "dim", low=1)
    return DensityMatrix(_ginibres(_typed(rng, np.random.Generator, "rng").standard_normal((2, dim, dim))))


def _ginibres(normals: np.ndarray) -> np.ndarray:
    # Unchecked states G G^dag / Tr from (..., 2, d, d) standard normals: real parts of each G, then imaginary parts.
    g = np.empty(normals.shape[:-3] + normals.shape[-2:], complex)
    g.real, g.imag = normals[..., 0, :, :], normals[..., 1, :, :]
    m = _matmul(g, g.conj().swapaxes(-1, -2))
    return (m.view(float) * (1.0 / m.trace(axis1=-2, axis2=-1).real[..., None, None])).view(complex)  # m / trace, bitwise


def random_hermitian(dim: int, rng: "np.random.Generator") -> np.ndarray:
    """Random Hermitian matrix with Gaussian entries."""
    dim = _count(dim, "dim", low=1)
    return _hermitians(_typed(rng, np.random.Generator, "rng").standard_normal((2, dim, dim)))


def _hermitians(normals: np.ndarray) -> np.ndarray:
    # (G + G^dag) / 2 from (..., 2, d, d) standard normals: real parts of each G, then imaginary parts.
    g = np.empty(normals.shape[:-3] + normals.shape[-2:], complex)
    g.real, g.imag = normals[..., 0, :, :], normals[..., 1, :, :]
    return (g + g.conj().swapaxes(-1, -2)) / 2.0
