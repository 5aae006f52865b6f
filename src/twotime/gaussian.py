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

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .qcore import UNCERTAINTY_TOL, _finite, _numbers, _require


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
        _preps(*(_numbers(getattr(self, name), name) for name in ("x0", "p0", "dx", "dp", "xp_corr")))


@np.errstate(over="ignore", invalid="ignore")  # overflow to inf and inf - inf to nan pass silently, as with floats
def _preps(x0, p0, dx, dp, xp_corr) -> None:
    _require((dx > 0.0) & (dp > 0.0), "spreads must be positive, got dx={dx!r}, dp={dp!r}", dx=dx, dp=dp)
    det = np.square(dx) * np.square(dp) - np.square(xp_corr)
    _finite(covariance_determinant=det)
    _require(det >= 0.25 - UNCERTAINTY_TOL, "covariance determinant {det:.15g} violates the uncertainty floor 1/4", det=det)


@dataclass(frozen=True)
class FreeParticle:
    mass: float

    def __post_init__(self):
        _masses(_numbers(self.mass, "mass"))


def _masses(mass) -> None:
    _require(mass > 0.0, "mass must be positive, got {mass!r}", mass=mass)


UncertaintyReport = namedtuple("UncertaintyReport", "spread_t1 spread_t2 displacement_spread product_value product_bound "
                                                   "product_slack weighted_value weighted_bound weighted_slack")


@np.errstate(over="ignore", invalid="ignore")
def displacement_stats(g: GaussianPrep, fp: FreeParticle, t1: float, t2: float):
    """Mean and spread of the displacement over [t1, t2].

    mean = p0 (t2 - t1) / m, spread = dp (t2 - t1) / m. The dp -> 0 limit
    makes the displacement definite for any bounded interval.
    """
    p0, dp, mass, t1, t2 = map(_numbers, (g.p0, g.dp, fp.mass, t1, t2), ("p0", "dp", "mass", "t1", "t2"))
    _require(t2 >= t1, "interval must be ordered, got t1={t1!r}, t2={t2!r}", t1=t1, t2=t2)
    mean, spread = p0 * (t2 - t1) / mass, dp * (t2 - t1) / mass  # inf on overflow, rejected here
    _finite(displacement_mean=mean, displacement_spread=spread)
    return float(mean), float(spread)


def uncertainty_report(g: GaussianPrep, fp: FreeParticle, t1: float, t2: float) -> UncertaintyReport:
    """Evaluate both displacement/position trade-offs for one preparation: the measured left-hand sides, bounds and
    slacks of each."""
    values = map(_numbers, (g.dx, g.dp, g.xp_corr, fp.mass, t1, t2), ("dx", "dp", "xp_corr", "mass", "t1", "t2"))
    return UncertaintyReport(*map(float, _uncertainties(*values)))


@np.errstate(over="ignore", invalid="ignore")
def _uncertainties(dx, dp, xp_corr, mass, t1, t2):
    # The UncertaintyReport fields, in order, for checked preparations, masses and finite times: as columns, or as floats.
    _require(t2 > t1, "interval must satisfy t2 > t1, got t1={t1!r}, t2={t2!r}", t1=t1, t2=t2)
    spreads = []
    for t in (t1, t2):
        _require(t >= 0.0, "time must be non-negative, got {t!r}", t=t)
        variance = np.square(dx) + np.square(dp * t / mass) + 2.0 * xp_corr * t / mass
        _finite(position_variance=variance)
        _require(variance >= 0.0, "position variance {variance:.15g} is negative: inconsistent covariance", variance=variance)
        spreads.append(np.sqrt(variance))
    dx1, dx2 = spreads
    dt = t2 - t1
    d_disp = dp * dt / mass
    _finite(displacement_spread=d_disp)
    product_value, product_bound = dx1 * dx2, dt / (2.0 * mass)
    weighted_value, weighted_bound = d_disp * (dx1 + dx2), dt / mass
    return (dx1, dx2, d_disp, product_value, product_bound, product_value - product_bound,
            weighted_value, weighted_bound, weighted_value - weighted_bound)
