import math
import random
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from twotime import qcore, spinlab
from twotime.qcore import SIGMA_X, SIGMA_Y, SIGMA_Z, BlochVector, Observable, bloch_to_state
from twotime.realism import irreality
from twotime.spinlab import (
    PrecessionConfig,
    bloch_lambda_nu,
    bound_rhs,
    figure1_scan,
    instantaneous_torque,
    pauli_heisenberg,
    row_angles,
    torque_irreality_pair,
)

LN2 = math.log(2.0)
Z_HAT = np.array([0.0, 0.0, 1.0])


def random_direction(rng):
    vec = rng.standard_normal(3)
    return vec / np.linalg.norm(vec)


class TestPauliHeisenberg:
    def test_zero_phase_returns_paulis(self):
        out = pauli_heisenberg(PrecessionConfig(Z_HAT, 0.0))
        for got, expected in zip(out, (SIGMA_X, SIGMA_Y, SIGMA_Z)):
            assert np.max(np.abs(got - expected)) <= 1e-15

    def test_matches_exponential_conjugation(self):
        rng = np.random.default_rng(80)
        for _ in range(100):
            h = random_direction(rng)
            tau = rng.uniform(-4.0 * math.pi, 4.0 * math.pi)
            out = pauli_heisenberg(PrecessionConfig(h, tau))
            generator = (h[0] * SIGMA_X + h[1] * SIGMA_Y + h[2] * SIGMA_Z) / 2.0
            for i, sigma_i in enumerate((SIGMA_X, SIGMA_Y, SIGMA_Z)):
                expected = oracles.heisenberg_conjugate(generator, tau, sigma_i)
                assert np.max(np.abs(out[i] - expected)) <= 1e-12

    def test_component_algebra(self):
        rng = np.random.default_rng(81)
        h = random_direction(rng)
        out = pauli_heisenberg(PrecessionConfig(h, 1.234))
        for component in out:
            assert np.max(np.abs(component - component.conj().T)) <= 1e-14
            assert abs(component.trace()) <= 1e-14
            assert np.max(np.abs(component @ component - np.eye(2))) <= 1e-13

    def test_field_component_is_conserved(self):
        rng = np.random.default_rng(82)
        h = random_direction(rng)
        reference = h[0] * SIGMA_X + h[1] * SIGMA_Y + h[2] * SIGMA_Z
        for tau in np.linspace(-7.0, 7.0, 15):
            out = pauli_heisenberg(PrecessionConfig(h, tau))
            along_field = sum(h[i] * out[i] for i in range(3))
            assert np.max(np.abs(along_field - reference)) <= 1e-12

    def test_rejects_non_unit_field(self):
        with pytest.raises(ValueError, match="unit"):
            PrecessionConfig(np.array([0.0, 0.0, 2.0]), 0.0)


def mean_torque(h, tau1, tau2):
    # The mean torque over [tau1, tau2]: the difference quotient of pauli_heisenberg.
    before, after = (pauli_heisenberg(PrecessionConfig(h, tau)) for tau in (tau1, tau2))
    return [(b - a) / (tau2 - tau1) for a, b in zip(before, after)]


class TestTorque:
    def test_full_revolution_averages_to_zero(self):
        for component in mean_torque(Z_HAT, 0.0, 2.0 * math.pi):
            assert np.max(np.abs(component)) <= 1e-12

    def test_small_interval_matches_instantaneous(self):
        rng = np.random.default_rng(83)
        h = random_direction(rng)
        tau = 0.9
        width = 1e-6
        mean = mean_torque(h, tau - width / 2.0, tau + width / 2.0)
        instant = instantaneous_torque(h, tau)
        for m, t in zip(mean, instant):
            assert np.max(np.abs(m - t)) <= 1e-6

    def test_orthogonal_to_field(self):
        rng = np.random.default_rng(85)
        for _ in range(30):
            h = random_direction(rng)
            tau = rng.uniform(-8.0, 8.0)
            torque = instantaneous_torque(h, tau)
            along = sum(h[i] * torque[i] for i in range(3))
            assert np.max(np.abs(along)) <= 1e-12

    def test_full_turn_about_z(self):
        torque = instantaneous_torque(Z_HAT, 2.0 * math.pi)
        # z x sigma componentwise: (-sigma_y, sigma_x, 0); the x component
        # shares its eigenprojectors with sigma_y, so dephasing in it and in
        # sigma_y are the same map.
        assert np.max(np.abs(torque[0] + SIGMA_Y)) <= 1e-12
        assert np.max(np.abs(torque[1] - SIGMA_X)) <= 1e-12
        assert np.max(np.abs(torque[2])) <= 1e-12

    def test_matches_central_difference(self):
        rng = np.random.default_rng(86)
        step = 1e-5
        for _ in range(30):
            h = random_direction(rng)
            tau = rng.uniform(-6.0, 6.0)
            plus = pauli_heisenberg(PrecessionConfig(h, tau + step))
            minus = pauli_heisenberg(PrecessionConfig(h, tau - step))
            instant = instantaneous_torque(h, tau)
            for i in range(3):
                finite_diff = (plus[i] - minus[i]) / (2.0 * step)
                assert np.max(np.abs(finite_diff - instant[i])) <= 1e-8


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PrecessionConfig(Z_HAT, math.nan), "tau must be finite, got nan"),
        (lambda: instantaneous_torque(Z_HAT, math.nan), "tau must be finite, got nan"),
        (lambda: instantaneous_torque(Z_HAT, math.inf), "tau must be finite, got inf"),
    ],
    ids=["config-nan", "torque-nan", "torque-inf"],
)
def test_rejects_non_finite_phases(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestTorqueIrrealityPair:
    def test_maximally_mixed_vanishes(self):
        pair = torque_irreality_pair((0.0, 0.0, 0.0))
        assert pair.irr_torque == 0.0
        assert pair.irr_spin == 0.0

    def test_pure_x_state(self):
        pair = torque_irreality_pair(BlochVector.from_angles(1.0, math.pi / 2.0, 0.0))
        assert pair.irr_torque == pytest.approx(LN2, abs=1e-12)
        assert pair.irr_spin == pytest.approx(0.0, abs=1e-12)
        assert pair.irr_torque + pair.irr_spin == pytest.approx(bound_rhs(1.0), abs=1e-12)

    def test_matches_entropy_pipeline(self):
        rng = np.random.default_rng(87)
        torque_x = Observable(instantaneous_torque(Z_HAT, 2.0 * math.pi)[0])
        spin_x = Observable(SIGMA_X)
        sigma_y_obs = Observable(SIGMA_Y)
        for _ in range(300):
            vec = BlochVector.from_angles(
                rng.uniform(0.0, 1.0), rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)
            )
            rho = bloch_to_state(vec)
            pair = torque_irreality_pair(vec)
            assert pair.irr_torque == pytest.approx(irreality(torque_x, rho).irreality, abs=1e-10)
            assert pair.irr_torque == pytest.approx(irreality(sigma_y_obs, rho).irreality, abs=1e-10)
            assert pair.irr_spin == pytest.approx(irreality(spin_x, rho).irreality, abs=1e-10)

    def test_pair_is_non_negative(self):
        rng = np.random.default_rng(88)
        for _ in range(200):
            vec = BlochVector.from_angles(
                rng.uniform(0.0, 1.0), rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)
            )
            pair = torque_irreality_pair(vec)
            assert pair.irr_torque >= -1e-10
            assert pair.irr_spin >= -1e-10
            assert pair.irr_torque + pair.irr_spin >= bound_rhs(pair.r) - 1e-9


class TestBoundRhs:
    def test_endpoints(self):
        assert bound_rhs(0.0) == pytest.approx(0.0, abs=1e-15)
        assert bound_rhs(1.0) == pytest.approx(LN2, abs=1e-15)

    def test_frozen_value(self):
        assert bound_rhs(0.8) == pytest.approx(0.3680642071684971, abs=1e-12)

    def test_monotone(self):
        grid = np.linspace(0.0, 1.0, 101)
        values = [bound_rhs(r) for r in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bound_rhs(1.2)


class TestBlochLambdaNu:
    def test_south_pole(self):
        nu, norm = bloch_lambda_nu((0.0, 0.0, -1.0))
        assert np.allclose(nu, [0.0, 0.0, -1.0], atol=1e-14)
        assert norm == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize(
        "theta,expected",
        [(math.pi / 2.0, math.sqrt(2.0)), (math.pi / 3.0, 2.0)],
    )
    def test_known_norms(self, theta, expected):
        direction = (math.sin(theta), 0.0, math.cos(theta))
        _, norm = bloch_lambda_nu(direction)
        assert norm == pytest.approx(expected, abs=1e-12)

    def test_norm_formula_over_degree_grid(self):
        # 1-degree grid; near theta = 0 the rounding of cos(theta) in the
        # input vector limits the achievable agreement, so the tolerance is
        # 1e-10 here and 1e-12 away from the pole.
        for i in range(1, 181):
            theta = i * math.pi / 180.0
            direction = (math.sin(theta), 0.0, math.cos(theta))
            _, norm = bloch_lambda_nu(direction)
            assert norm == pytest.approx(1.0 / abs(math.sin(theta / 2.0)), abs=1e-10)
            assert norm >= 1.0 - 1e-12

    def test_norm_formula_away_from_pole(self):
        for theta in np.linspace(0.1, math.pi, 120):
            direction = (math.sin(theta), 0.0, math.cos(theta))
            _, norm = bloch_lambda_nu(direction)
            assert norm == pytest.approx(1.0 / abs(math.sin(theta / 2.0)), abs=1e-12)

    @pytest.mark.parametrize("theta", [1e-2, 1e-4, 2e-6, math.pi / 3.0, 2.0, math.pi])
    def test_norm_is_accurate_to_a_few_ulps_near_the_pole(self, theta):
        # 1 - z cancels as theta -> 0: formed directly, the norm's relative error grows like 1e-16 / theta^2. At theta =
        # 2e-6, 1 - z = 2e-12 is just outside POLE_TOL.
        nu, norm = bloch_lambda_nu((math.sin(theta), 0.0, math.cos(theta)))
        assert norm == pytest.approx(1.0 / math.sin(theta / 2.0), rel=1e-15) and nu[2] == -1.0

    def test_pole_error(self):
        with pytest.raises(ValueError, match="pole"):
            bloch_lambda_nu((0.0, 0.0, 1.0))

    def test_rejects_non_unit_vector(self):
        with pytest.raises(ValueError, match="unit"):
            bloch_lambda_nu((0.5, 0.0, 0.0))
        # An overflowed norm is inf, rejected without numpy's overflow warning (an error under pyproject.toml).
        with pytest.raises(ValueError, match=r"^expected a unit vector, got norm inf$"):
            bloch_lambda_nu((1e200, 0.0, 0.0))


def rows(table):
    """The rows of a figure1 column table, as records with one attribute per column."""
    return [SimpleNamespace(**dict(zip(table, cells))) for cells in zip(*(c.tolist() for c in table.values()))]


class TestFigure1Scan:
    def test_row_counts_and_layout(self):
        scatter, curves = figure1_scan([0.2, 1.0], 25, seed=1)
        assert len(rows(scatter)) == 50
        assert len(rows(curves)) == 720
        assert all(len(column) == len(table["r"]) for table in (scatter, curves) for column in table.values())
        assert all(r.theta == math.pi / 2.0 for r in rows(curves))

    def test_bound_holds_everywhere(self):
        for table in figure1_scan([0.2, 0.5, 0.8, 1.0], 500, seed=2):
            for row in rows(table):
                assert row.irr_spin + row.irr_torque - bound_rhs(row.r) >= -1e-9

    def test_deterministic_and_per_row_stream_derivation(self):
        a = figure1_scan([0.3, 0.9], 40, seed=77)
        b = figure1_scan([0.3, 0.9], 40, seed=77)
        for table_a, table_b in zip(a, b):
            assert table_a.keys() == table_b.keys()
            assert all(np.array_equal(table_a[k], table_b[k]) for k in table_a)
        # every row's angles come from its own (seed, band index, sample
        # index) stream, so any partitioning across workers is equivalent
        scatter = rows(a[0])
        for r_index in range(2):
            for sample_index in range(40):
                rng = np.random.default_rng(
                    np.random.SeedSequence(entropy=77, spawn_key=(r_index, sample_index))
                )
                row = scatter[r_index * 40 + sample_index]
                assert row.theta == rng.uniform(0.0, math.pi)
                assert row.phi == rng.uniform(0.0, 2.0 * math.pi)

    def test_band_minimum_sits_on_the_equator_curve(self):
        scatter_table, _ = figure1_scan([0.5, 1.0], 10_000, seed=3)
        for radius in (0.5, 1.0):
            scatter = [r for r in rows(scatter_table) if r.r == radius]
            best = min(scatter, key=lambda row: row.irr_spin + row.irr_torque)
            best_sum = best.irr_spin + best.irr_torque
            assert best_sum >= bound_rhs(radius) - 1e-9
            assert best_sum - bound_rhs(radius) <= 5e-3
            assert abs(best.theta - math.pi / 2.0) <= 0.2

    def test_equality_only_on_equator_at_quarter_turns(self):
        for table in figure1_scan([0.5, 1.0], 2000, seed=4):
            for row in rows(table):
                slack = row.irr_spin + row.irr_torque - bound_rhs(row.r)
                if slack <= 1e-8:
                    assert abs(row.theta - math.pi / 2.0) <= 1e-4
                    quarter = row.phi % (math.pi / 2.0)
                    assert min(quarter, math.pi / 2.0 - quarter) <= 1e-4

    def test_zero_radius_band_collapses(self):
        for table in figure1_scan([0.0], 50, seed=5):
            for row in rows(table):
                assert abs(row.irr_spin) <= 1e-12
                assert abs(row.irr_torque) <= 1e-12

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            figure1_scan([0.5, 1.1], 10, seed=0)

    @pytest.mark.parametrize("n", [2.5, -1, 2.0, "3", None, True, False])
    def test_rejects_a_sample_count_that_is_not_a_non_negative_integer(self, n):
        # 2.5 once reached numpy as a broadcast error, and -1 as "negative dimensions are not allowed".
        with pytest.raises(ValueError, match=rf"^n must be a non-negative integer, got {n}$"):
            figure1_scan([0.5], n, seed=1)

    def test_takes_any_integer_sample_count(self):
        assert len(figure1_scan([0.5], 0, seed=1)[0]["r"]) == 0
        numpy_count, python_count = (figure1_scan([0.5], n, seed=1)[0]["theta"] for n in (np.int64(3), 3))
        assert numpy_count.tolist() == python_count.tolist()

    @pytest.mark.parametrize(
        "radii, n",
        [([0.4], spinlab.SCAN_BLOCK - 1), ([0.4], spinlab.SCAN_BLOCK), ([0.4], spinlab.SCAN_BLOCK + 1),
         ([0.2, 0.6, 1.0], 3000), ([0.7], 50), ([0.3, 0.9], 0), ([], 7)],
        ids=["block-minus-1", "block", "block-plus-1", "bands-inside-a-block", "one-band", "n-0", "no-radius"],
    )
    def test_blocks_equal_the_one_shot_scan(self, radii, n):
        bands = np.repeat(np.arange(len(radii)), n)
        expected = spinlab._scan_table(np.repeat(np.array(radii, dtype=float), n),
                                       *row_angles(11, bands, np.tile(np.arange(n), len(radii))))
        scatter, _ = figure1_scan(radii, n, seed=11)
        assert scatter.keys() == expected.keys()
        for key, column in expected.items():
            assert (scatter[key].dtype, scatter[key].tobytes()) == (column.dtype, column.tobytes())

    def test_default_scan_peak_beyond_its_tables(self):
        # Drawn and scored SCAN_BLOCK rows at a time, the default scan takes about 1.7 MB beyond its 1.66 MB of
        # output; drawn in one piece, its whole-column seeding and PCG64 temporaries took 5.75 MB beyond it.
        figure1_scan([0.5], 10, seed=1)  # first-call caches are not the scan's
        tracemalloc.start()
        try:
            tables = figure1_scan([0.2, 0.5, 0.8, 1.0], 10_000, seed=20240001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(column.nbytes for table in tables for column in table.values())
        assert peak - returned <= 3_000_000


class TestRowAngles:
    def test_matches_numpy_generator(self):
        # Seed 0, one-word seeds, seeds of 2 to 7 words (more than the
        # 4-word pool from 2**128 on) and band/sample indices up to 2**32 - 1.
        picker = random.Random(20240001)
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**127, 2**128, 2**128 + 1, 2**155, 2**223 + 7]
        seeds += [picker.getrandbits(picker.choice([16, 32, 48, 64, 100, 128, 129, 160, 224])) for _ in range(1190)]
        for seed in seeds:
            band = picker.choice([0, 1, 3, picker.getrandbits(32)])
            index = picker.choice([0, picker.randrange(10_000), picker.getrandbits(32)])
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(band, index)))
            theta, phi = row_angles(seed, [band], [index])
            assert theta[0] == rng.uniform(0.0, math.pi)
            assert phi[0] == rng.uniform(0.0, 2.0 * math.pi)

    def test_every_default_scan_row(self):
        band, index = np.divmod(np.arange(40_000), 10_000)
        theta, phi = row_angles(20240001, band, index)
        for j in range(0, 40_000, 37):
            rng = np.random.default_rng(np.random.SeedSequence(20240001, spawn_key=(int(band[j]), int(index[j]))))
            assert theta[j] == rng.uniform(0.0, math.pi)
            assert phi[j] == rng.uniform(0.0, 2.0 * math.pi)

    @pytest.mark.parametrize("words", [1, 2, 5, 7])
    def test_a_column_equals_its_one_row_calls(self, words):
        # The seed words are hashed once, as length-1 columns, then broadcast into each row's band and sample phase.
        picker = random.Random(words)
        seed = picker.getrandbits(32 * words) | 1 << (32 * words - 1)
        band = np.array([picker.choice([0, 1, 3, picker.getrandbits(32)]) for _ in range(64)])
        index = np.array([picker.choice([0, picker.randrange(10_000), picker.getrandbits(32)]) for _ in range(64)])
        theta, phi = row_angles(seed, band, index)
        rows = [row_angles(seed, [b], [i]) for b, i in zip(band.tolist(), index.tolist())]
        assert theta.tolist() == [t[0] for t, _ in rows]
        assert phi.tolist() == [p[0] for _, p in rows]

    def test_a_multi_word_seed_matches_numpy_under_the_warning_filter(self):
        # The pool and every hash are 1-element uint32 arrays, which wrap mod 2**32 silently; a uint32 scalar product that
        # wraps warns instead, and a RuntimeWarning is an error under the suite's filter.
        seed = 2**160 + 12345
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            theta, phi = row_angles(seed, [0, 1], [2, 3])
            with pytest.raises(RuntimeWarning, match="overflow encountered in scalar multiply"):
                np.uint32(spinlab._MIX_MULT_L) * np.uint32(spinlab._MULT_A)
        for j, (band, index) in enumerate([(0, 2), (1, 3)]):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(band, index)))
            assert (theta[j], phi[j]) == (rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))

    @pytest.mark.parametrize("seed, band, index", [(-1, 0, 0), (7, -1, 0), (7, 0, 2**32), (7, 0.5, 0), (7, 0, 1.5),
                                                   (7, True, 0), (7, 1, False)])
    def test_rejects_negative_or_wide_keys(self, seed, band, index):
        with pytest.raises(ValueError) as error:
            row_angles(seed, [band, band], [index, index])
        for name, key in (("band", band), ("sample", index)):
            # A fractional key is named, not truncated to the stream of another row; nor is a bool read as 0 or 1.
            if isinstance(key, bool):
                assert str(error.value) == "band and sample keys must be a 1-D array of real numbers, got bool of shape (2,)"
            elif key % 1:
                assert str(error.value) == f"{name} key {key} is not an integer"

    def test_rejects_a_seed_that_is_not_an_integer(self):
        with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got 1.5$"):
            row_angles(1.5, [0], [0])

    @pytest.mark.parametrize("shape", [(), (2, 3)])
    def test_rejects_keys_that_are_not_one_column(self, shape):
        # A scalar key once failed in the seeding as "len() of unsized object", a 2-D one as a numpy broadcast error.
        keys = np.zeros(shape, dtype=int)
        with pytest.raises(ValueError) as error:
            row_angles(7, keys, keys)
        assert str(error.value) == f"band and sample keys must be a 1-D array of real numbers, got int64 of shape {shape}"


class TestIrrealityKernel:
    def test_norm_is_bitwise_np_linalg_norm(self):
        # The column kernel and BlochVector share qcore._bloch_norms, which must
        # give np.linalg.norm's float in every row.
        rng = np.random.default_rng(89)
        vectors = rng.uniform(-1.0, 1.0, (5000, 3)) * rng.uniform(0.0, 1.0, (5000, 1)) / math.sqrt(3.0)
        expected = [float(np.linalg.norm(v)) for v in vectors]
        assert qcore._bloch_norms(vectors).tolist() == expected

    def test_columns_match_the_scalar_formula(self):
        # Bitwise, so every entry must round like numpy's log of that float alone, wherever it sits in a column
        # (numpy's log differs from math.log in the last ulp on some inputs; the kernel follows numpy's).
        def entropy(u):
            u = np.float64(u)
            return 0.0 if u in (0.0, 1.0) else float(-u * np.log(u) - (1.0 - u) * np.log(1.0 - u))

        rng = np.random.default_rng(90)
        vectors = rng.uniform(-1.0, 1.0, (20_000, 3)) * rng.uniform(0.0, 1.0, (20_000, 1)) / math.sqrt(3.0)
        irr_spin, irr_torque = spinlab._irrealities(vectors)
        for j, vec in enumerate(vectors.tolist()):
            base = entropy((1.0 + float(np.linalg.norm(vectors[j]))) / 2.0)
            assert irr_spin[j] == entropy((1.0 + abs(vec[0])) / 2.0) - base
            assert irr_torque[j] == entropy((1.0 + abs(vec[1])) / 2.0) - base
        for j in (0, 1, 7, 19_999):  # the one-row path
            pair = torque_irreality_pair(vectors[j])
            assert (pair.irr_spin, pair.irr_torque) == (irr_spin[j], irr_torque[j])

    def test_binary_entropy_is_the_same_float_in_any_layout(self):
        # Strided, offset, non-contiguous and 0-d calls give each float the entry the contiguous column gives it.
        u = np.random.default_rng(91).uniform(0.0, 1.0, 30_001)
        whole = qcore.binary_entropy(u)
        assert qcore.binary_entropy(u[1::3]).tolist() == whole[1::3].tolist()
        assert qcore.binary_entropy(u[5:10_005]).tolist() == whole[5:10_005].tolist()
        assert qcore.binary_entropy(u[:30_000].reshape(100, 300).T).tolist() == whole[:30_000].reshape(100, 300).T.tolist()
        assert [qcore.binary_entropy(value) for value in u[:3_000].tolist()] == whole[:3_000].tolist()
        assert [qcore.binary_entropy(np.float64(value)) for value in u[-3_000:]] == whole[-3_000:].tolist()

    def test_binary_entropy_is_within_4_ulp_of_the_math_oracle(self):
        # The column kernel against a pure-math oracle on 1e5 draws, both tails included; the measured worst is 2 ulp.
        rng = np.random.default_rng(92)
        tails = 10.0 ** -rng.uniform(1.0, 300.0, 20_000)
        u = np.concatenate([rng.uniform(0.0, 1.0, 60_000), tails, 1.0 - tails])
        h = qcore.binary_entropy(u)
        expected = np.array([oracles.binary_entropy(value) for value in u.tolist()])
        assert np.all(np.abs(h - expected) <= 4 * np.spacing(expected))
        assert np.count_nonzero(h) == np.count_nonzero(expected) == len(u) - np.count_nonzero(u == 1.0)

    @pytest.mark.parametrize("func", ["sin", "cos"])
    def test_numpy_trig_is_math_trig_on_the_scan_angles(self, func):
        # The scan, lambda and precession columns take numpy's sin and cos; their tables stay byte-identical because
        # this build's numpy rounds both exactly as math does over the angles they use.
        rng = np.random.default_rng(93)
        theta, phi = row_angles(94, np.repeat(np.arange(4), 25_000), np.tile(np.arange(25_000), 4))
        lambda_theta = np.arange(1, 181) * math.pi / 180  # cli's lambda grid, and the curve grid and its theta below
        angles = np.concatenate([theta, phi, lambda_theta, lambda_theta / 2.0, 2.0 * math.pi * np.arange(360) / 360,
                                 [math.pi / 2.0], rng.uniform(-4.0 * math.pi, 4.0 * math.pi, 100_000)])
        assert getattr(np, func)(angles).tolist() == [getattr(math, func)(angle) for angle in angles.tolist()]

    def test_scan_rows_match_the_scalar_pair(self):
        for table in figure1_scan([0.2, 0.8, 1.0], 300, seed=6):
            for row in rows(table):
                pair = torque_irreality_pair(BlochVector.from_angles(row.r, row.theta, row.phi))
                assert (row.irr_spin, row.irr_torque) == (pair.irr_spin, pair.irr_torque)

    def test_scan_components_are_from_angles_bitwise(self, monkeypatch):
        # One formula: the scan's columns and BlochVector.from_angles' floats both come from qcore._bloch_components, in
        # the per-float order (r * sin(theta)) * cos(phi) that the reference tables were written with. The angles are
        # among those whose numpy trig is math's (test_numpy_trig_is_math_trig_on_the_scan_angles).
        theta, phi = row_angles(94, np.zeros(5_000), np.arange(5_000))
        r = np.r_[0.0, 1.0, np.random.default_rng(95).uniform(0.0, 1.0, 4_998)]
        columns = np.stack(qcore._bloch_components(r, theta, phi), axis=1)
        rows = list(zip(r.tolist(), theta.tolist(), phi.tolist()))
        assert columns.tolist() == [BlochVector.from_angles(*row).components.tolist() for row in rows]
        assert columns.tolist() == [[r * math.sin(t) * math.cos(p), r * math.sin(t) * math.sin(p), r * math.cos(t)]
                                    for r, t, p in rows]
        calls = []
        monkeypatch.setattr(spinlab, "_bloch_components", lambda *args: calls.append(args) or qcore._bloch_components(*args))
        table = spinlab._scan_table(r, theta, phi)
        assert len(calls) == 1 and table["irr_spin"].tolist() == spinlab._irrealities(columns)[0].tolist()

    @pytest.mark.parametrize("bad", [(1.0, 1e-5, 0.0), (math.nan, 0.0, 0.0)])
    def test_rejects_rows_outside_the_ball(self, bad):
        vectors = np.array([(0.1, 0.2, 0.3), bad])
        with pytest.raises(ValueError, match="not finite or exceeds 1"):
            spinlab._irrealities(vectors)
