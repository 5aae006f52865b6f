"""Closed-form spin-1/2 precession, torque observables, and irreality scans.

A spin-1/2 in a constant field along the unit vector h precesses with
dimensionless phase tau = omega * t. The Heisenberg-picture Pauli vector is

    sigma(tau) = sigma cos(tau) + (h x sigma) sin(tau) + h (h . sigma) (1 - cos(tau)),

with the standard right-handed cross product. Its tau-derivative is the
dimensionless instantaneous torque, always orthogonal to the field. At
tau = 2*pi with h = z the torque x component is -sigma_y while the spin x
component is sigma_x; the two do not commute, so their irrealities obey a
purity-dependent trade-off: for a state of Bloch radius r,

    J(torque_x | rho) + J(spin_x | rho) >= ln 2 - H_bin((1 + r) / 2),

tight on the equator at phi in {0, pi/2, pi, 3*pi/2} and vanishing only at
r = 0. :func:`figure1_scan` samples this trade-off over randomly drawn
(theta, phi) pairs, band by band in r, together with the analytic equatorial
boundary curves.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .dynamics import ChannelFamily
from .qcore import LN2, POLE_TOL, SIGMA, UNIT_NORM_TOL, BlochVector, _bloch_norms, _each, _readonly, binary_entropy

CURVE_POINTS = 360  # evenly spaced phi values of each radius' equatorial boundary curve


@dataclass(frozen=True)
class PrecessionConfig:
    """Field direction (unit 3-vector) and dimensionless phase tau = omega*t."""

    h_hat: np.ndarray
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "h_hat", _unit_vector(self.h_hat))
        object.__setattr__(self, "tau", float(self.tau))


@dataclass(frozen=True)
class TorquePair:
    """Irrealities of the torque and spin x components in one Bloch state."""

    irr_torque: float
    irr_spin: float
    r: float
    theta: float
    phi: float


def _unit_vector(vector) -> np.ndarray:
    v = np.asarray(vector, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= UNIT_NORM_TOL:
        raise ValueError(f"expected a unit vector, got norm {norm:.15g}")
    return _readonly(v.copy())


def _field_algebra(h):
    sx, sy, sz = SIGMA
    h_dot_sigma = h[0] * sx + h[1] * sy + h[2] * sz
    cross = (
        h[1] * sz - h[2] * sy,
        h[2] * sx - h[0] * sz,
        h[0] * sy - h[1] * sx,
    )
    return h_dot_sigma, cross


def pauli_heisenberg(cfg: PrecessionConfig):
    """Heisenberg-evolved Pauli vector sigma(tau) as three 2x2 matrices."""
    h, tau = cfg.h_hat, cfg.tau
    c, s = math.cos(tau), math.sin(tau)
    h_dot_sigma, cross = _field_algebra(h)
    return tuple(
        sigma_i * c + cross_i * s + h[i] * h_dot_sigma * (1.0 - c)
        for i, (sigma_i, cross_i) in enumerate(zip(SIGMA, cross))
    )


def finite_torque(h_hat, tau1: float, tau2: float):
    """Mean dimensionless torque over [tau1, tau2]: (sigma(tau2) - sigma(tau1)) / (tau2 - tau1)."""
    if tau2 == tau1:
        raise ValueError("tau2 == tau1: use instantaneous_torque for the zero-interval limit")
    before = pauli_heisenberg(PrecessionConfig(h_hat, tau1))
    after = pauli_heisenberg(PrecessionConfig(h_hat, tau2))
    dtau = tau2 - tau1
    return tuple((a - b) / dtau for a, b in zip(after, before))


def instantaneous_torque(h_hat, tau: float):
    """d sigma(tau) / d tau: (h x sigma) cos(tau) + (h (h . sigma) - sigma) sin(tau).

    Orthogonal to the field as an operator identity: h . T = 0.
    """
    h = _unit_vector(h_hat)
    c, s = math.cos(tau), math.sin(tau)
    h_dot_sigma, cross = _field_algebra(h)
    return tuple(
        cross_i * c + (h[i] * h_dot_sigma - sigma_i) * s
        for i, (sigma_i, cross_i) in enumerate(zip(SIGMA, cross))
    )


def precession_channel(h_hat) -> ChannelFamily:
    """Unitary family for precession about h with omega = 1, so t = tau."""
    h = _unit_vector(h_hat)
    h_dot_sigma, _ = _field_algebra(h)
    return ChannelFamily(h_dot_sigma / 2.0)


def torque_irreality_pair(r_vec) -> TorquePair:
    """Closed-form irrealities of the 2*pi torque and spin x components.

    For rho with Bloch vector r of radius r = ||r||:

        J(torque_x | rho) = H_bin((1 + |y . r|) / 2) - H_bin((1 + r) / 2)
        J(spin_x   | rho) = H_bin((1 + |x . r|) / 2) - H_bin((1 + r) / 2)

    (the torque x component has the sigma_y eigenbasis, the spin x component
    the sigma_x eigenbasis, and dephasing a qubit state in the basis of a
    unit Bloch axis keeps only that axis component).
    """
    vec = r_vec if isinstance(r_vec, BlochVector) else BlochVector(r_vec)
    (irr_spin,), (irr_torque,) = _irrealities(vec.components[None, :])
    return TorquePair(irr_torque=float(irr_torque), irr_spin=float(irr_spin), r=vec.r, theta=vec.theta, phi=vec.phi)


def _irrealities(vectors: np.ndarray):
    """Columns (irr_spin, irr_torque) of :func:`torque_irreality_pair` for the rows of an (N, 3) array.

    Each row rounds as one ``BlochVector`` does, and rows outside the ball are rejected as it rejects them.
    """
    norms = _bloch_norms(vectors)
    base = binary_entropy((1.0 + norms) / 2.0)
    return (
        binary_entropy((1.0 + np.abs(vectors[:, 0])) / 2.0) - base,
        binary_entropy((1.0 + np.abs(vectors[:, 1])) / 2.0) - base,
    )


def bound_rhs(r: float) -> float:
    """Purity-dependent lower bound ln 2 - H_bin((1 + r) / 2) on the irreality sum."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"radius {r!r} outside [0, 1]")
    return LN2 - binary_entropy((1.0 + r) / 2.0)


def bloch_lambda_nu(r_hat1):
    """Bloch vector nu = (r1 - z) / (1 - z . r1) of the conditional operator.

    This is the Bloch-form of :func:`twotime.correlators.lambda_operator` for
    a pure qubit state of direction r1 and the -1 outcome projector along z.
    Its norm is 1 / |sin(theta / 2)| >= 1, so the operator lies outside the
    Bloch ball except at theta = pi.
    """
    r1 = _unit_vector(r_hat1)
    denom = 1.0 - r1[2]
    if denom <= POLE_TOL:
        raise ValueError("pole: the conditional Bloch vector diverges as r1 -> z")
    nu = (r1 - np.array([0.0, 0.0, 1.0])) / denom
    return nu, float(np.linalg.norm(nu))


# numpy's SeedSequence (numpy/random/bit_generator.pyx) and PCG64 (pcg64.h) constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _hasher(const: int, mult: int):
    # SeedSequence's hashmix: each call advances the shared constant.
    def hashed(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ (value >> 16)

    return hashed


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def _seed_state(seed, band, index):
    """``SeedSequence(seed, spawn_key=(band, i)).generate_state(4, np.uint64)`` per row, as four uint64 columns."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    words = [(seed >> shift) & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    # With a spawn key, the run entropy is zero-padded to the pool size.
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.full(len(index), w, dtype=np.uint32) for w in words] + [band, index]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashed = _hasher(_INIT_B, _MULT_B)
    state = [hashed(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    return [state[2 * k] | (state[2 * k + 1] << 32) for k in range(4)]


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """state * MULT + inc mod 2**128, the state as (hi, lo) uint64 columns."""
    a0, a1 = lo & _MASK32, lo >> 32
    b0, b1 = _PCG_MULT_LO & _MASK32, _PCG_MULT_LO >> 32
    p01, p10 = a0 * b1, a1 * b0
    carry = ((a0 * b0) >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (carry >> 32) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    lo = lo * _PCG_MULT_LO + inc_lo
    return hi + inc_hi + (lo < inc_lo), lo


def row_angles(seed, band, index):
    """(theta, phi) columns, each row drawn from its own random stream.

    Row ``(band[j], index[j])`` takes the first two draws of
    ``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(band[j], index[j])))``,
    ``uniform(0, pi)`` then ``uniform(0, 2*pi)``, bit for bit, with the seeding
    and PCG64 arithmetic done on whole columns. Keying every row on its own
    stream makes any partitioning of a scan produce the same rows.
    """
    band, index = (np.asarray(k, dtype=np.int64) for k in np.broadcast_arrays(band, index))
    if np.any((band < 0) | (band > _MASK32) | (index < 0) | (index > _MASK32)):
        raise ValueError("band and sample indices must lie in [0, 2**32)")
    seed_hi, seed_lo, seq_hi, seq_lo = _seed_state(seed, band.astype(np.uint32), index.astype(np.uint32))
    inc_hi, inc_lo = (seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1
    lo = inc_lo + seed_lo
    hi, lo = _pcg_step(inc_hi + seed_hi + (lo < seed_lo), lo, inc_hi, inc_lo)
    draws = []
    for high in (math.pi, 2.0 * math.pi):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR output, then next_double and uniform's low + (high - low) * u.
        xored, rot = hi ^ lo, hi >> 58
        out = (xored >> rot) | (xored << ((64 - rot) & 63))
        draws.append(0.0 + (high - 0.0) * ((out >> 11) * (1.0 / 9007199254740992.0)))
    return tuple(draws)


def _scan_table(r, theta, phi) -> dict:
    # Components in BlochVector.from_angles' operation order, through math's sin and cos.
    r_sin_theta = r * _each(math.sin, theta)
    vectors = np.stack([r_sin_theta * _each(math.cos, phi), r_sin_theta * _each(math.sin, phi),
                        r * _each(math.cos, theta)], axis=1)
    irr_spin, irr_torque = _irrealities(vectors)
    return {"r": r, "theta": theta, "phi": phi, "irr_spin": irr_spin, "irr_torque": irr_torque}


def figure1_scan(r_values, n: int, seed):
    """Irreality trade-off scan: n random (theta, phi) samples per radius.

    Returns two column tables (scatter, curves), each a dict of equal-length
    arrays keyed r, theta, phi, irr_spin and irr_torque. The scatter table
    holds the n sampled rows of each radius in turn, row i of band b drawn by
    :func:`row_angles` (uniform in theta and phi separately); the curve table
    the analytic equatorial boundary (theta = pi/2) of each radius at
    ``CURVE_POINTS`` evenly spaced phi values.
    """
    r_values = [float(r) for r in r_values]
    for r in r_values:
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"radius {r!r} outside [0, 1]")
    bands = len(r_values)
    theta, phi = row_angles(seed, np.repeat(np.arange(bands), n), np.tile(np.arange(n), bands))
    curve_phi = 2.0 * math.pi * np.arange(CURVE_POINTS) / CURVE_POINTS
    return (
        _scan_table(np.repeat(r_values, n), theta, phi),
        _scan_table(np.repeat(r_values, CURVE_POINTS), np.full(bands * CURVE_POINTS, math.pi / 2.0),
                    np.tile(curve_phi, bands)),
    )
