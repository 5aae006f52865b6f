import math
import re
import sys

import numpy as np
import pytest

import oracles
from twotime import cli
from twotime.gaussian import (
    FreeParticle,
    GaussianPrep,
    displacement_stats,
    uncertainty_report,
)


def random_prep(rng):
    dx = math.exp(rng.uniform(-1.0, 1.0))
    dp = (0.5 / dx) * math.exp(rng.uniform(0.0, 1.5))
    c_max = math.sqrt(dx**2 * dp**2 - 0.25)
    corr = rng.uniform(-1.0, 1.0) * 0.999 * c_max
    return GaussianPrep(x0=rng.uniform(-3.0, 3.0), p0=rng.uniform(-3.0, 3.0), dx=dx, dp=dp, xp_corr=corr)


class TestGaussianPrep:
    def test_rejects_non_positive_spreads(self):
        with pytest.raises(ValueError, match="positive"):
            GaussianPrep(x0=0.0, p0=0.0, dx=0.0, dp=1.0)

    def test_rejects_sub_heisenberg_preparation(self):
        with pytest.raises(ValueError, match="uncertainty"):
            GaussianPrep(x0=0.0, p0=0.0, dx=0.5, dp=0.5)

    def test_rejects_excess_covariance(self):
        with pytest.raises(ValueError, match="uncertainty"):
            GaussianPrep(x0=0.0, p0=0.0, dx=1.0, dp=1.0, xp_corr=0.9)

    def test_minimal_wave_packet_is_allowed(self):
        GaussianPrep(x0=0.0, p0=1.0, dx=1.0, dp=0.5)

    def test_rejects_non_positive_mass(self):
        with pytest.raises(ValueError, match="mass"):
            FreeParticle(0.0)


class TestDisplacementStats:
    def test_zero_interval(self):
        g = GaussianPrep(x0=0.0, p0=1.0, dx=1.0, dp=0.5)
        assert displacement_stats(g, FreeParticle(1.0), 2.0, 2.0) == (0.0, 0.0)

    def test_mean_and_spread(self):
        g = GaussianPrep(x0=-1.0, p0=2.0, dx=1.0, dp=0.5)
        mean, spread = displacement_stats(g, FreeParticle(1.0), 1.0, 4.0)
        assert mean == 6.0
        assert spread == 1.5

    def test_spread_is_exactly_dp_dt_over_m(self):
        rng = np.random.default_rng(90)
        for _ in range(200):
            g = random_prep(rng)
            m = math.exp(rng.uniform(-1.0, 1.0))
            t1 = rng.uniform(0.0, 2.0)
            t2 = t1 + rng.uniform(0.0, 3.0)
            _, spread = displacement_stats(g, FreeParticle(m), t1, t2)
            assert spread == g.dp * (t2 - t1) / m

    def test_mean_independent_of_x0_and_linear_in_p0(self):
        base = GaussianPrep(x0=0.0, p0=1.5, dx=1.0, dp=0.5)
        shifted = GaussianPrep(x0=7.0, p0=1.5, dx=1.0, dp=0.5)
        doubled = GaussianPrep(x0=0.0, p0=3.0, dx=1.0, dp=0.5)
        fp = FreeParticle(2.0)
        assert displacement_stats(base, fp, 0.0, 2.0) == displacement_stats(shifted, fp, 0.0, 2.0)
        assert displacement_stats(doubled, fp, 0.0, 2.0)[0] == 2.0 * displacement_stats(base, fp, 0.0, 2.0)[0]

    def test_rejects_reversed_interval(self):
        g = GaussianPrep(x0=0.0, p0=0.0, dx=1.0, dp=0.5)
        with pytest.raises(ValueError, match="ordered"):
            displacement_stats(g, FreeParticle(1.0), 2.0, 1.0)

    def test_sharp_momentum_limit_makes_displacement_definite(self):
        # dp -> 0 at fixed dx*dp >= 1/2 means dx -> infinity; the
        # displacement spread vanishes while the position spreads blow up.
        fp = FreeParticle(1.0)
        for dp in (1e-3, 1e-6, 1e-9):
            g = GaussianPrep(x0=0.0, p0=2.0, dx=0.5 / dp, dp=dp)
            mean, spread = displacement_stats(g, fp, 0.0, 3.0)
            assert mean == 6.0
            assert spread == 3.0 * dp
            assert uncertainty_report(g, fp, 0.0, 3.0).spread_t1 == 0.5 / dp


class TestPositionSpread:
    # The spreads of X_t1 and X_t2 are uncertainty_report's spread_t1 and spread_t2, one kernel for both.
    def test_initial_time(self):
        g = GaussianPrep(x0=0.0, p0=0.0, dx=1.3, dp=0.5)
        assert uncertainty_report(g, FreeParticle(1.0), 0.0, 1.0).spread_t1 == 1.3

    def test_ballistic_spreading(self):
        g = GaussianPrep(x0=0.0, p0=0.0, dx=1.0, dp=0.5)
        report = uncertainty_report(g, FreeParticle(1.0), 0.0, 2.0)
        assert (report.spread_t1, report.spread_t2) == (1.0, pytest.approx(math.sqrt(2.0), abs=1e-15))

    def test_rejects_negative_time(self):
        g = GaussianPrep(x0=0.0, p0=0.0, dx=1.0, dp=0.5)
        with pytest.raises(ValueError, match=r"^time must be non-negative, got -0.5$"):
            uncertainty_report(g, FreeParticle(1.0), -0.5, 1.0)

    def test_variance_of_displacement_consistency(self):
        # Var(X2 - X1) from the joint second moments must equal the
        # displacement spread squared: the dx and xp_corr terms cancel.
        rng = np.random.default_rng(91)
        for _ in range(200):
            g = random_prep(rng)
            m = math.exp(rng.uniform(-1.0, 1.0))
            t1 = rng.uniform(0.0, 2.0)
            t2 = t1 + rng.uniform(0.01, 3.0)
            report = uncertainty_report(g, FreeParticle(m), t1, t2)
            var1, var2 = report.spread_t1**2, report.spread_t2**2
            cov12 = g.dx**2 + (t1 + t2) * g.xp_corr / m + t1 * t2 * g.dp**2 / m**2
            _, spread = displacement_stats(g, FreeParticle(m), t1, t2)
            assert var1 + var2 - 2.0 * cov12 == pytest.approx(spread**2, rel=1e-10, abs=1e-12)
            assert report.displacement_spread == spread


class TestUncertaintyReport:
    def test_both_bounds_hold_over_random_sweep(self):
        rng = np.random.default_rng(92)
        for _ in range(1000):
            g = random_prep(rng)
            fp = FreeParticle(math.exp(rng.uniform(-1.0, 1.0)))
            t1 = rng.uniform(0.0, 2.0)
            t2 = t1 + rng.uniform(0.01, 3.0)
            report = uncertainty_report(g, fp, t1, t2)
            assert report.product_slack >= -1e-12
            assert report.weighted_slack >= -1e-12

    def test_short_interval_degenerates(self):
        g = GaussianPrep(x0=0.0, p0=0.0, dx=1.0, dp=0.5)
        report = uncertainty_report(g, FreeParticle(1.0), 1.0, 1.0 + 1e-12)
        assert report.product_bound == pytest.approx(0.0, abs=1e-11)
        assert report.weighted_bound == pytest.approx(0.0, abs=1e-11)
        assert report.product_slack >= 0.0

    def test_rejects_non_increasing_interval(self):
        g = GaussianPrep(x0=0.0, p0=0.0, dx=1.0, dp=0.5)
        with pytest.raises(ValueError, match="t2 > t1"):
            uncertainty_report(g, FreeParticle(1.0), 1.0, 1.0)

    def test_reports_no_mean_so_checks_none(self):
        # p0 (t2 - t1) / m overflows here, but the report holds no mean: only displacement_stats rejects it.
        g, fp = GaussianPrep(0.0, 1e300, 1.0, 1.0), FreeParticle(1e-10)
        assert uncertainty_report(g, fp, 0.0, 10.0).displacement_spread == 1e11
        with pytest.raises(ValueError, match=r"^displacement_mean must be finite, got inf$"):
            displacement_stats(g, fp, 0.0, 10.0)


_G = GaussianPrep(x0=0.0, p0=0.0, dx=1.0, dp=0.5)
_FP = FreeParticle(1.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: GaussianPrep(0.0, 0.0, dx=math.nan, dp=1.0),
        lambda: GaussianPrep(0.0, 0.0, dx=math.inf, dp=1.0),
        lambda: GaussianPrep(math.nan, 0.0, dx=1.0, dp=1.0),
        lambda: GaussianPrep(0.0, -math.inf, dx=1.0, dp=1.0),
        lambda: GaussianPrep(0.0, 0.0, dx=1.0, dp=1.0, xp_corr=math.nan),
        lambda: FreeParticle(math.nan),
        lambda: FreeParticle(math.inf),
        lambda: uncertainty_report(_G, _FP, 0.0, math.nan),
        lambda: uncertainty_report(_G, _FP, -math.inf, 1.0),
        lambda: displacement_stats(_G, _FP, 0.0, math.nan),
        lambda: displacement_stats(_G, _FP, math.nan, 1.0),
        lambda: displacement_stats(_G, _FP, 0.0, math.inf),
        lambda: uncertainty_report(_G, _FP, math.nan, 1.0),
        lambda: uncertainty_report(_G, _FP, 0.0, math.inf),
    ],
    ids=[
        "prep-dx-nan", "prep-dx-inf", "prep-x0-nan", "prep-p0-minus-inf", "prep-corr-nan", "mass-nan", "mass-inf",
        "spread-t-nan", "spread-t-inf", "stats-t2-nan", "stats-t1-nan", "stats-t2-inf", "report-t1-nan", "report-t2-inf",
    ],
)
def test_rejects_non_finite_input(build):
    with pytest.raises(ValueError, match="must be finite"):
        build()


@pytest.mark.parametrize(
    "build, name, value",
    [
        (lambda v: GaussianPrep(v, 0.0, 1.0, 1.0), "x0", [0.0, 1.0]),
        (lambda v: GaussianPrep(0.0, 0.0, v, 1.0), "dx", [1.0, 2.0]),
        (lambda v: GaussianPrep(0.0, 0.0, 1.0, 1.0, xp_corr=v), "xp_corr", np.array([0.0])),
        (lambda v: FreeParticle(v), "mass", [1.0, 2.0]),
        (lambda v: displacement_stats(_G, _FP, v, 1.0), "t1", [0.0, 0.5]),
        (lambda v: displacement_stats(_G, _FP, 0.0, v), "t2", (1.0,)),
        (lambda v: uncertainty_report(_G, _FP, v, 1.0), "t1", [0.0]),
        (lambda v: uncertainty_report(_G, _FP, 0.0, v), "t2", [[1.0]]),
        # np.ndim of these is 0 and numpy converts each to a float, so the type check names them.
        (lambda v: GaussianPrep(v, 0.0, 1.0, 1.0), "x0", "1.5"),
        (lambda v: GaussianPrep(v, 0.0, 1.0, 1.0), "x0", b"1"),
        (lambda v: FreeParticle(v), "mass", True),
        (lambda v: GaussianPrep(0.0, 0.0, 1.0, 1.0, xp_corr=v), "xp_corr", np.bool_(False)),
    ],
    ids=["prep-x0", "prep-dx", "prep-corr-array", "mass", "stats-t1", "stats-t2", "report-t1", "report-t2",
         "prep-x0-str", "prep-x0-bytes", "mass-bool", "prep-corr-numpy-bool"],
)
def test_rejects_a_field_or_time_that_is_not_one_number(build, name, value):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be a real number, got {value}")):
        build(value)


@pytest.mark.parametrize(
    "build, quantity",
    [
        (lambda: GaussianPrep(0.0, 0.0, dx=1e200, dp=1.0), "covariance_determinant"),
        (lambda: uncertainty_report(_G, _FP, 0.0, 1e200), "position_variance"),
        (lambda: displacement_stats(_G, FreeParticle(1e-300), 0.0, 1e300), "displacement_spread"),
        # A square past the float range is inf, so each is rejected by name: 1 - inf = -inf, inf * 0 = nan, dp t / m = inf.
        (lambda: GaussianPrep(0.0, 0.0, dx=1.0, dp=1.0, xp_corr=1e200), "covariance_determinant"),
        (lambda: GaussianPrep(0.0, 0.0, dx=1e200, dp=1e-200), "covariance_determinant"),
        (lambda: uncertainty_report(_G, FreeParticle(1e-300), 0.0, 1e10), "position_variance"),
    ],
    ids=["prep-determinant", "spread-variance", "stats-spread", "prep-corr-determinant", "prep-inf-times-zero",
         "spread-dp-t-over-m"],
)
def test_rejects_finite_input_whose_result_overflows(build, quantity):
    with pytest.raises(ValueError, match=f"{quantity} must be finite"):
        build()


def test_messages_quote_python_floats():
    # A numpy scalar input is quoted as the float it holds, as a Python float input is.
    with pytest.raises(ValueError, match=r"^spreads must be positive, got dx=-1.0, dp=1.0$"):
        GaussianPrep(0.0, 0.0, dx=np.float64(-1.0), dp=1.0)
    with pytest.raises(ValueError, match=r"^t1 must be finite, got nan$"):
        uncertainty_report(_G, _FP, np.float64(math.nan), 1.0)


class TestNumpyRoundingAgainstMath:
    # The gaussian kernels and report displacement take numpy's exp and square of whole columns; each is within 4 ulp
    # of the pure-math oracle (the measured worst is 1 ulp), and both overflow to inf where math and ** raise.
    def test_numpy_exp_is_within_4_ulp_of_math_exp(self, monkeypatch):
        arguments, exp = [], np.exp
        monkeypatch.setattr(np, "exp", lambda x: arguments.append(x) or exp(x))
        for seed in (cli.DEFAULT_SEED, 1, 777):
            assert cli.main(["--seed", str(seed), "report", "displacement"]) == 0
        assert len(arguments) == 9  # dx, dp's factor and the mass, at each seed
        x = np.concatenate([*arguments, np.random.default_rng(95).uniform(-1.0, 1.5, 100_000)])
        expected = np.array([oracles.exp(value) for value in x.tolist()])
        assert np.all(np.abs(exp(x) - expected) <= 4 * np.spacing(expected))

    def test_numpy_square_is_within_4_ulp_of_pow(self):
        # 1e5 floats across 1e-160..1e160 and the floats around the root of the float max, past which both are inf.
        rng = np.random.default_rng(96)
        root = math.sqrt(sys.float_info.max)
        edge = [root, -root, np.nextafter(root, math.inf), -np.nextafter(root, math.inf), sys.float_info.max]
        x = np.concatenate([10.0 ** rng.uniform(-160.0, 160.0, 100_000) * rng.choice([-1.0, 1.0], 100_000), edge])
        expected = np.array([oracles.square(value) for value in x.tolist()])
        with np.errstate(over="ignore"):
            squares = np.square(x)
        past = np.abs(x) > root
        assert np.all(np.abs(squares[~past] - expected[~past]) <= 4 * np.spacing(expected[~past]))
        assert np.count_nonzero(past) > 1_000 and np.all(squares[past] == math.inf) and np.all(expected[past] == math.inf)
