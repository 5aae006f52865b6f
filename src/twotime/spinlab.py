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
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .dynamics import ChannelFamily
from .qcore import LN2, POLE_TOL, SIGMA, UNIT_NORM_TOL, BlochVector, _bloch_components, _bloch_norms, _count, _norms, _numbers
from .qcore import _readonly, _require, binary_entropy

CURVE_POINTS = 360  # evenly spaced phi values of each radius' equatorial boundary curve
SCAN_BLOCK = 8192  # scatter rows drawn and scored per step: bounds the scan's temporaries, not its output


@dataclass(frozen=True)
class PrecessionConfig:
    """Field direction (unit 3-vector) and dimensionless phase tau = omega*t, which must be finite."""

    h_hat: np.ndarray
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "h_hat", _unit_vector(self.h_hat))
        object.__setattr__(self, "tau", _numbers(self.tau, "tau"))


TorquePair = namedtuple("TorquePair", "irr_torque irr_spin r theta phi")


def _unit_vector(vector) -> np.ndarray:
    v = _numbers(vector, "unit vector", 1)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    _unit_vectors(v[None])
    return _readonly(v)


def _unit_vectors(vectors: np.ndarray) -> None:
    # Each row of an (n, 3) array must have norm 1 within UNIT_NORM_TOL.
    norms = _norms(vectors)
    _require(np.abs(norms - 1.0) <= UNIT_NORM_TOL, "expected a unit vector, got norm {norm:.15g}", norm=norms)


def _field_algebra(h):
    # (n, 2, 2) stacks of h . sigma, h x sigma by component and the Hamiltonian (h . sigma) / 2, for (n, 3) unit h.
    sx, sy, sz = SIGMA
    h0, h1, h2 = h.T[..., None, None]
    h_dot_sigma = h0 * sx + h1 * sy + h2 * sz
    return h_dot_sigma, (h1 * sz - h2 * sy, h2 * sx - h0 * sz, h0 * sy - h1 * sx), h_dot_sigma / 2.0


def _precession(h, tau):
    """sigma(tau) and the torque d sigma / d tau as (n, 3, 2, 2) stacks, for (n, 3) unit field directions and (n,)
    finite phases."""
    c, s = np.cos(tau)[:, None, None], np.sin(tau)[:, None, None]
    h_dot_sigma, cross, _ = _field_algebra(h)
    along = [h_i * h_dot_sigma for h_i in h.T[..., None, None]]
    evolved = [sigma_i * c + cross_i * s + along_i * (1.0 - c) for sigma_i, cross_i, along_i in zip(SIGMA, cross, along)]
    torque = [cross_i * c + (along_i - sigma_i) * s for sigma_i, cross_i, along_i in zip(SIGMA, cross, along)]
    return np.stack(evolved, axis=1), np.stack(torque, axis=1)


def pauli_heisenberg(cfg: PrecessionConfig):
    """Heisenberg-evolved Pauli vector sigma(tau) as three 2x2 matrices."""
    return tuple(_precession(cfg.h_hat[None], np.array([cfg.tau]))[0][0])


def instantaneous_torque(h_hat, tau: float):
    """d sigma(tau) / d tau: (h x sigma) cos(tau) + (h (h . sigma) - sigma) sin(tau).

    Orthogonal to the field as an operator identity: h . T = 0.
    """
    return tuple(_precession(_unit_vector(h_hat)[None], np.array([_numbers(tau, "tau")]))[1][0])


def precession_channel(h_hat) -> ChannelFamily:
    """Unitary family for precession about h with omega = 1, so t = tau."""
    return ChannelFamily(_field_algebra(_unit_vector(h_hat)[None])[2][0])


def torque_irreality_pair(r_vec) -> TorquePair:
    """Closed-form irrealities of the 2*pi torque and spin x components in one Bloch state, with its r, theta, phi.

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

    Rows round as ``BlochVector`` does, or are rejected as it rejects them.
    """
    base = binary_entropy((1.0 + _bloch_norms(vectors)) / 2.0)
    return (
        binary_entropy((1.0 + np.abs(vectors[:, 0])) / 2.0) - base,
        binary_entropy((1.0 + np.abs(vectors[:, 1])) / 2.0) - base,
    )


def bound_rhs(r: float) -> float:
    """Purity-dependent lower bound ln 2 - H_bin((1 + r) / 2) on the irreality sum."""
    return LN2 - binary_entropy((1.0 + _radii(r, 0)) / 2.0)


def _radii(r, ndim=1):
    """The radius rule: r as a float (ndim 0) or an (n,) float column, each radius a real number in [0, 1]."""
    r = _numbers(r, "radius", ndim)
    _require((r >= 0.0) & (r <= 1.0), "radius {r!r} outside [0, 1]", r=r)
    return r


def bloch_lambda_nu(r_hat1):
    """Bloch vector nu = (r1 - z) / (1 - z . r1) of the conditional operator.

    This is the Bloch-form of :func:`twotime.correlators.lambda_operator` for
    a pure qubit state of direction r1 and the -1 outcome projector along z.
    Its norm is 1 / |sin(theta / 2)| >= 1, so the operator lies outside the
    Bloch ball except at theta = pi.
    """
    nu, norm = _lambda_nus(_unit_vector(r_hat1)[None])
    return nu[0], float(norm[0])


def _lambda_nus(r1: np.ndarray):
    # bloch_lambda_nu of every row of an (n, 3) array: nu as (n, 3) and its norms, each unit direction checked.
    _unit_vectors(r1)
    x, y, z = r1.T
    # 1 - z without its cancellation near the pole: (x^2 + y^2) / (1 + z) there; |z| keeps the other branch finite.
    denom = np.where(z > 0.0, (x * x + y * y) / (1.0 + np.abs(z)), 1.0 - z)
    _require(~(denom <= POLE_TOL), "pole: the conditional Bloch vector diverges as r1 -> z")
    nu = np.stack([x / denom, y / denom, np.full(len(r1), -1.0)], axis=1)
    return nu, _norms(nu)


# numpy's SeedSequence (numpy/random/bit_generator.pyx) and PCG64 (pcg64.h) constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _hasher(const: int, mult: int):
    # SeedSequence's hashmix: each call advances the shared constant, hashed.const.
    def hashed(value):
        value = value ^ hashed.const
        hashed.const = hashed.const * mult & _MASK32
        value = value * hashed.const
        return value ^ (value >> 16)

    hashed.const = const
    return hashed


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def _seed_state(seed, band, index):
    """``SeedSequence(seed, spawn_key=(band, i)).generate_state(4, np.uint64)`` per row, as four uint64 columns."""
    seed = _count(seed, "seed")
    # numpy's pool after the seed's words, as 1-element uint32 arrays: a uint32 scalar product that wraps warns (an error
    # under the suite's warning filter), an array wraps silently. hashmix resumes past its 16 calls that fill and mix the
    # pool and 4 per seed word beyond the pool's 4.
    pool = np.split(np.random.SeedSequence(seed).pool, _POOL_SIZE)
    hashmix = _hasher(_INIT_A * pow(_MULT_A, 16 + 4 * max(-(-seed.bit_length() // 32) - _POOL_SIZE, 0), 2**32) & _MASK32, _MULT_A)
    for word in (band, index):
        pool = [_mix(entry, hashmix(word)) for entry in pool]
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
    stream makes any partitioning of a scan produce the same rows. Keys must be
    integers (integer-valued floats pass) in [0, 2**32), in 1-D columns once broadcast.
    """
    band, index = np.broadcast_arrays(band, index)
    for name, keys in (("band", band), ("sample", index)):  # not truncated: 1.9 would take row 1's stream
        _require(_numbers(keys, "band and sample keys", 1) == np.round(keys), name + " key {key!r} is not an integer", key=keys)
    _require(~((band < 0) | (band > _MASK32) | (index < 0) | (index > _MASK32)), "band and sample indices must lie in [0, 2**32)")
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
    irr_spin, irr_torque = _irrealities(np.stack(_bloch_components(r, theta, phi), axis=1))
    return {"r": r, "theta": theta, "phi": phi, "irr_spin": irr_spin, "irr_torque": irr_torque}


def figure1_scan(r_values, n: int, seed):
    """Irreality trade-off scan: n random (theta, phi) samples per radius.

    Returns two column tables (scatter, curves), each a dict of equal-length
    arrays keyed r, theta, phi, irr_spin and irr_torque. The scatter table
    holds the n sampled rows of each radius in turn, row i of band b drawn by
    :func:`row_angles` (uniform in theta and phi separately); the curve table
    the analytic equatorial boundary (theta = pi/2) of each radius at
    ``CURVE_POINTS`` evenly spaced phi values. The scatter is drawn and scored
    ``SCAN_BLOCK`` rows at a time; no row depends on the split.
    """
    n, r_values = _count(n, "n"), _radii(r_values)
    bands, rows = len(r_values), len(r_values) * n
    # Filled in place: joining the blocks at the end would hold every block and the whole table at once.
    scatter = {key: np.empty(rows) for key in ("r", "theta", "phi", "irr_spin", "irr_torque")}
    for start in range(0, rows, SCAN_BLOCK):
        band, index = np.divmod(np.arange(start, min(start + SCAN_BLOCK, rows)), n)  # row k: sample k % n of band k // n
        for key, column in _scan_table(r_values[band], *row_angles(seed, band, index)).items():
            scatter[key][start:start + SCAN_BLOCK] = column
    curve_phi = 2.0 * math.pi * np.arange(CURVE_POINTS) / CURVE_POINTS
    return (
        scatter,
        _scan_table(np.repeat(r_values, CURVE_POINTS), np.full(bands * CURVE_POINTS, math.pi / 2.0),
                    np.tile(curve_phi, bands)),
    )
