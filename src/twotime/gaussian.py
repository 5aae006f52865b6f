"""Closed-form displacement statistics of a free Gaussian wave packet.

For a particle of mass m moving freely, the position at time t is
X_t = X + P t / m, and the displacement over [t1, t2] is the single operator
P (t2 - t1) / m. Everything about a Gaussian preparation is then second-moment
algebra: no grids, no truncation. hbar = 1; restore units by multiplying the
uncertainty bounds by hbar.

The commutators [X_1, X_2] = [X_k, delta_12] = i (t2 - t1) / m force

    dX_1 * dX_2 >= (t2 - t1) / (2 m)
    d(delta_12) * (dX_1 + dX_2) >= (t2 - t1) / m,

so the displacement and its endpoint positions can never all be sharp at
once. The displacement alone can be: d(delta_12) = dp * (t2 - t1) / m goes to
zero for a near-momentum-eigenstate while the position spreads blow up.
"""

import math
from dataclasses import dataclass

from .qcore import UNCERTAINTY_TOL


def _finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _squared(x: float) -> float:
    # x**2 as ** rounds it (not always as x * x does), but inf where ** would raise OverflowError.
    try:
        return x**2
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class GaussianPrep:
    """Gaussian state: means (x0, p0), spreads (dx, dp), symmetric covariance.

    Validity requires the covariance-corrected uncertainty condition
    dx^2 dp^2 - xp_corr^2 >= 1/4.
    """

    x0: float
    p0: float
    dx: float
    dp: float
    xp_corr: float = 0.0

    def __post_init__(self):
        _finite(x0=self.x0, p0=self.p0, dx=self.dx, dp=self.dp, xp_corr=self.xp_corr)
        if self.dx <= 0.0 or self.dp <= 0.0:
            raise ValueError(f"spreads must be positive, got dx={self.dx!r}, dp={self.dp!r}")
        det = _squared(self.dx) * _squared(self.dp) - _squared(self.xp_corr)
        _finite(covariance_determinant=det)
        if det < 0.25 - UNCERTAINTY_TOL:
            raise ValueError(f"covariance determinant {det:.15g} violates the uncertainty floor 1/4")


@dataclass(frozen=True)
class FreeParticle:
    mass: float

    def __post_init__(self):
        _finite(mass=self.mass)
        if self.mass <= 0.0:
            raise ValueError(f"mass must be positive, got {self.mass!r}")


@dataclass(frozen=True)
class UncertaintyReport:
    """Measured left-hand sides, bounds and slacks of both trade-offs."""

    spread_t1: float
    spread_t2: float
    displacement_spread: float
    product_value: float
    product_bound: float
    product_slack: float
    weighted_value: float
    weighted_bound: float
    weighted_slack: float


def displacement_stats(g: GaussianPrep, fp: FreeParticle, t1: float, t2: float):
    """Mean and spread of the displacement over [t1, t2].

    mean = p0 (t2 - t1) / m, spread = dp (t2 - t1) / m. The dp -> 0 limit
    makes the displacement definite for any bounded interval.
    """
    _finite(t1=t1, t2=t2)
    if t2 < t1:
        raise ValueError(f"interval must be ordered, got t1={t1!r}, t2={t2!r}")
    dt = t2 - t1
    mean, spread = g.p0 * dt / fp.mass, g.dp * dt / fp.mass
    _finite(displacement_mean=mean, displacement_spread=spread)
    return mean, spread


def position_spread(g: GaussianPrep, fp: FreeParticle, t: float) -> float:
    """Spread of X_t = X + P t / m: sqrt(dx^2 + (dp t / m)^2 + 2 xp_corr t / m)."""
    _finite(t=t)
    if t < 0.0:
        raise ValueError(f"time must be non-negative, got {t!r}")
    variance = _squared(g.dx) + _squared(g.dp * t / fp.mass) + 2.0 * g.xp_corr * t / fp.mass
    _finite(position_variance=variance)
    if variance < 0.0:
        raise ValueError(f"position variance {variance:.15g} is negative: inconsistent covariance")
    return math.sqrt(variance)


def uncertainty_report(g: GaussianPrep, fp: FreeParticle, t1: float, t2: float) -> UncertaintyReport:
    """Evaluate both displacement/position trade-offs for one preparation."""
    _finite(t1=t1, t2=t2)
    if not t2 > t1:
        raise ValueError(f"interval must satisfy t2 > t1, got t1={t1!r}, t2={t2!r}")
    dt = t2 - t1
    dx1 = position_spread(g, fp, t1)
    dx2 = position_spread(g, fp, t2)
    _, d_disp = displacement_stats(g, fp, t1, t2)
    product_value = dx1 * dx2
    product_bound = dt / (2.0 * fp.mass)
    weighted_value = d_disp * (dx1 + dx2)
    weighted_bound = dt / fp.mass
    return UncertaintyReport(
        spread_t1=dx1,
        spread_t2=dx2,
        displacement_spread=d_disp,
        product_value=product_value,
        product_bound=product_bound,
        product_slack=product_value - product_bound,
        weighted_value=weighted_value,
        weighted_bound=weighted_bound,
        weighted_slack=weighted_value - weighted_bound,
    )
