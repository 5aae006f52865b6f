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
from dataclasses import dataclass

import numpy as np

from .dynamics import ChannelFamily
from .qcore import LN2, POLE_TOL, SIGMA, UNIT_NORM_TOL, BlochVector, _readonly, binary_entropy


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


@dataclass(frozen=True)
class ScanRow:
    """One record of the irreality trade-off scan."""

    r: float
    theta: float
    phi: float
    irr_spin: float
    irr_torque: float
    bound_rhs: float
    is_curve: bool


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
    x, y, _ = vec.components
    base = binary_entropy((1.0 + vec.r) / 2.0)
    return TorquePair(
        irr_torque=binary_entropy((1.0 + abs(y)) / 2.0) - base,
        irr_spin=binary_entropy((1.0 + abs(x)) / 2.0) - base,
        r=vec.r,
        theta=vec.theta,
        phi=vec.phi,
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


def _sample_row(seed, r_index: int, sample_index: int):
    # Per-row stream keyed on (seed, band index, sample index) so any
    # partitioning of the scan across workers reproduces identical output.
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r_index, sample_index)))
    theta = rng.uniform(0.0, math.pi)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return theta, phi


def figure1_scan(r_values, n: int, seed, curve_points: int = 360):
    """Irreality trade-off scan: n random (theta, phi) samples per radius.

    Returns ScanRow records: for each r first the n scatter rows (sampling is
    uniform in theta and phi separately), then for each r the analytic
    equatorial boundary curve at ``curve_points`` evenly spaced phi values
    (is_curve = True). Every row carries the purity bound for its radius.
    """
    r_values = [float(r) for r in r_values]
    for r in r_values:
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"radius {r!r} outside [0, 1]")
    rows = []
    for r_index, r in enumerate(r_values):
        rhs = bound_rhs(r)
        for sample_index in range(n):
            theta, phi = _sample_row(seed, r_index, sample_index)
            pair = torque_irreality_pair(BlochVector.from_angles(r, theta, phi))
            rows.append(ScanRow(r, theta, phi, pair.irr_spin, pair.irr_torque, rhs, False))
    half_pi = math.pi / 2.0
    for r in r_values:
        rhs = bound_rhs(r)
        for j in range(curve_points):
            phi = 2.0 * math.pi * j / curve_points
            pair = torque_irreality_pair(BlochVector.from_angles(r, half_pi, phi))
            rows.append(ScanRow(r, half_pi, phi, pair.irr_spin, pair.irr_torque, rhs, True))
    return rows
