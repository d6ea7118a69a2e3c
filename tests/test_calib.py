"""Monte Carlo operating characteristics and threshold calibration."""

import math

import numpy as np
import pytest

from quickdetect import (
    CalibrationError,
    CalibrationSpec,
    DetectorConfig,
    GaussianChangeModel,
    PerformanceEstimate,
    design_coefficients,
    estimate_arl,
    estimate_sadd,
    estimate_stadd,
    solve_threshold,
)
from quickdetect.detect import _cusum_path, _sr_path


def flat_increments(value):
    return lambda x: np.full(np.shape(x), value)


class TestPathEvaluators:
    def test_cusum_block_matches_recursion(self, rng):
        for w0 in (0.0, 1.7):
            z = rng.normal(0.0, 1.0, size=200)
            path = _cusum_path(w0, z)
            w = w0
            for j, increment in enumerate(z):
                w = max(0.0, w + increment)
                assert path[j] == pytest.approx(w, rel=1e-12, abs=1e-12)

    def test_sr_block_matches_recursion(self, rng):
        for r0 in (0.0, 3.25):
            z = rng.normal(0.0, 0.5, size=200)
            path = _sr_path(r0, z)
            r = r0
            for j, increment in enumerate(z):
                r = (1.0 + r) * math.exp(increment)
                assert path[j] == pytest.approx(r, rel=1e-9)

    def test_sr_log_route_for_extreme_increments(self, rng):
        # increments of this size overflow the linear form; the evaluator
        # must fall back to log space, stay exact while representable, and
        # past float range may saturate to inf -- which still crosses any
        # threshold correctly
        z = rng.normal(0.0, 1.0, size=40) + np.linspace(0.0, 400.0, 40)
        path = _sr_path(0.0, z)
        assert np.all(path > 0.0)
        log_r = -np.inf
        logs = []
        for increment in z:
            log_r = increment + np.logaddexp(0.0, log_r)
            logs.append(float(log_r))
        for j, expected in enumerate(logs):
            if expected < 709.0:
                assert math.log(path[j]) == pytest.approx(expected, rel=1e-9)
            else:
                assert path[j] > 1e300  # saturated, compares above any level
        # crossing detection against a huge threshold picks the right step
        first = int(np.nonzero(path >= 1e250)[0][0])
        assert logs[first] >= 250.0 * math.log(10.0) > logs[first - 1]

    def test_sr_integer_exactness(self):
        # ratio identically 1 keeps R_n = n exactly in the linear route
        path = _sr_path(0.0, np.zeros(100))
        np.testing.assert_array_equal(path, np.arange(1.0, 101.0))


class TestDetectorConfig:
    def test_exact_increments_are_llr(self, unit_shift_model, rng):
        from quickdetect import llr

        config = DetectorConfig(kind="cusum", model=unit_shift_model)
        x = rng.normal(size=50)
        np.testing.assert_allclose(
            config.log_increments(x), llr(unit_shift_model, x)
        )

    def test_score_increments_standardize_first(self, unit_shift_model):
        params = design_coefficients(q=0.9, delta=0.5)
        config = DetectorConfig(
            kind="cusum", model=unit_shift_model, mode="score", score=params
        )
        from quickdetect import linear_quadratic_score

        x = np.array([0.0, 1.0, -2.0])
        # pre-change moments are (0, 1), so standardization is the identity
        np.testing.assert_allclose(
            config.log_increments(x), linear_quadratic_score(params, x)
        )

    def test_degenerate_score_refused(self, unit_shift_model):
        degenerate = design_coefficients(1.0, 0.0)
        with pytest.raises(ValueError, match="identically-zero score"):
            DetectorConfig(
                kind="cusum", model=unit_shift_model, mode="score", score=degenerate
            )

    def test_score_mode_needs_params(self, unit_shift_model):
        with pytest.raises(ValueError, match="score mode needs"):
            DetectorConfig(kind="cusum", model=unit_shift_model, mode="score")

    def test_increment_fn_shape_checked(self, unit_shift_model):
        bad = DetectorConfig(
            kind="cusum",
            model=unit_shift_model,
            increment_fn=lambda x: np.zeros(3),
        )
        with pytest.raises(ValueError, match="shape"):
            bad.log_increments(np.zeros(5))


class TestDegenerateStream:
    """Ratio identically one: the SR statistic is exactly R_n = n."""

    def test_arl_is_exactly_the_threshold(self, unit_shift_model):
        config = DetectorConfig(
            kind="sr", model=unit_shift_model, increment_fn=flat_increments(0.0)
        )
        spec = CalibrationSpec(gamma=60.0, replications=500, seed=1)
        est = estimate_arl(config, 60.0, spec)
        assert est.value == 60.0
        assert est.std_error == 0.0
        assert est.cap_hits == 0

    def test_solver_returns_the_threshold_itself(self, unit_shift_model):
        config = DetectorConfig(
            kind="sr", model=unit_shift_model, increment_fn=flat_increments(0.0)
        )
        spec = CalibrationSpec(gamma=60.0, replications=500, seed=1)
        threshold, est = solve_threshold(config, spec)
        assert threshold == 60.0
        assert est.value == 60.0


class TestArlEstimation:
    def test_deterministic(self, unit_shift_model):
        config = DetectorConfig(kind="cusum", model=unit_shift_model)
        spec = CalibrationSpec(gamma=50.0, replications=2_000, seed=9)
        first = estimate_arl(config, 3.0, spec)
        second = estimate_arl(config, 3.0, spec)
        assert first.value == second.value
        assert first.std_error == second.std_error

    def test_common_random_numbers_make_arl_monotone(self, unit_shift_model):
        # identical substreams across thresholds: every replication's stop
        # time is nondecreasing in the threshold, hence so is the mean
        spec = CalibrationSpec(gamma=50.0, replications=1_000, seed=5)
        for kind, thresholds in (
            ("cusum", [1.0, 2.0, 3.0, 4.0]),
            ("sr", [5.0, 20.0, 80.0]),
        ):
            config = DetectorConfig(kind=kind, model=unit_shift_model)
            values = [estimate_arl(config, t, spec).value for t in thresholds]
            assert values == sorted(values)

    def test_martingale_lower_bounds_small_scale(self, unit_shift_model):
        spec = CalibrationSpec(gamma=100.0, replications=10_000, seed=2)
        sr = DetectorConfig(kind="sr", model=unit_shift_model)
        est = estimate_arl(sr, 10.0, spec)
        assert est.value >= 10.0 - 3.0 * est.std_error
        cusum = DetectorConfig(kind="cusum", model=unit_shift_model)
        est = estimate_arl(cusum, 1.0, spec)
        assert est.value >= math.exp(1.0) - 3.0 * est.std_error

    def test_cap_hits_rejected_when_frequent(self, unit_shift_model):
        config = DetectorConfig(kind="sr", model=unit_shift_model)
        spec = CalibrationSpec(gamma=5.0, replications=100, seed=3)
        with pytest.raises(CalibrationError, match="cap"):
            estimate_arl(config, 1e9, spec)


class TestDelayEstimation:
    def test_sadd_below_arl_and_deterministic(self, unit_shift_model):
        config = DetectorConfig(kind="cusum", model=unit_shift_model)
        spec = CalibrationSpec(gamma=100.0, replications=4_000, seed=7)
        sadd = estimate_sadd(config, 3.0, spec)
        arl = estimate_arl(config, 3.0, spec)
        assert 0.0 < sadd.value < arl.value
        assert sadd.metric == "sadd"
        again = estimate_sadd(config, 3.0, spec)
        assert again.value == sadd.value

    def test_stadd_one_for_always_alarming_detector(self, unit_shift_model):
        config = DetectorConfig(
            kind="cusum", model=unit_shift_model, increment_fn=flat_increments(10.0)
        )
        spec = CalibrationSpec(
            gamma=5.0, replications=200, seed=4, nu_stationary=50
        )
        est = estimate_stadd(config, 5.0, spec)
        assert est.value == 1.0
        assert est.std_error == 0.0

    def test_stationarity_check_failure_surfaces(self, unit_shift_model):
        # a deterministic climb of 0.1/step with h=10 alarms every 100th
        # step, so the delay depends on nu mod 100 and nu-doubling disagrees
        config = DetectorConfig(
            kind="cusum", model=unit_shift_model, increment_fn=flat_increments(0.1)
        )
        spec = CalibrationSpec(
            gamma=150.0, replications=100, seed=4, nu_stationary=50
        )
        with pytest.raises(CalibrationError, match="stationarity check failed"):
            estimate_stadd(config, 10.0, spec)

    def test_stadd_between_one_and_sadd(self, unit_shift_model):
        # a random mid-cycle statistic can only shorten the delay relative
        # to a cold start
        spec = CalibrationSpec(
            gamma=100.0, replications=3_000, seed=8, nu_stationary=500
        )
        config = DetectorConfig(kind="sr", model=unit_shift_model)
        stadd = estimate_stadd(config, 90.0, spec)
        sadd = estimate_sadd(config, 90.0, spec)
        slack = 2.0 * math.hypot(stadd.std_error, sadd.std_error)
        assert 1.0 <= stadd.value <= sadd.value + slack


class TestSolver:
    def test_exact_cusum_within_tolerance_and_bound(self, unit_shift_model):
        spec = CalibrationSpec(gamma=50.0, replications=3_000, seed=6)
        config = DetectorConfig(kind="cusum", model=unit_shift_model)
        threshold, est = solve_threshold(config, spec)
        assert abs(est.value - 50.0) <= 0.02 * 50.0
        # ARL(h = log gamma) >= gamma, so the calibrated h cannot exceed it
        assert threshold <= math.log(50.0) + 1e-12

    def test_exact_sr_within_tolerance_and_bound(self, unit_shift_model):
        spec = CalibrationSpec(gamma=50.0, replications=3_000, seed=6)
        config = DetectorConfig(kind="sr", model=unit_shift_model)
        threshold, est = solve_threshold(config, spec)
        assert abs(est.value - 50.0) <= 0.02 * 50.0
        assert threshold <= 50.0 + 1e-12

    def test_deterministic(self, unit_shift_model):
        spec = CalibrationSpec(gamma=30.0, replications=2_000, seed=13)
        config = DetectorConfig(kind="cusum", model=unit_shift_model)
        assert solve_threshold(config, spec) == solve_threshold(config, spec)

    def test_score_mode_round_trip(self):
        # faint fitted design: the solver must expand past log(gamma) on its
        # own because no exact-likelihood bracket applies
        model = GaussianChangeModel(-0.0029, 0.2266, 0.0199, 0.2306)
        params = design_coefficients(0.2266 / 0.2306, 0.0228 / 0.2266)
        config = DetectorConfig(kind="cusum", model=model, mode="score", score=params)
        spec = CalibrationSpec(gamma=25.0, replications=2_000, seed=17)
        threshold, est = solve_threshold(config, spec)
        assert abs(est.value - 25.0) <= 0.02 * 25.0
        check = estimate_arl(config, threshold, spec)
        assert check.value == est.value


class TestSpecValidation:
    def test_run_cap(self):
        assert CalibrationSpec(gamma=7.5).run_cap == 750
        assert CalibrationSpec(gamma=7.2).run_cap == 720

    def test_bad_values(self):
        with pytest.raises(ValueError, match="gamma"):
            CalibrationSpec(gamma=1.0)
        with pytest.raises(ValueError, match="relative_tolerance"):
            CalibrationSpec(gamma=10.0, relative_tolerance=0.0)
        with pytest.raises(ValueError, match="nu_stationary"):
            CalibrationSpec(gamma=10.0, nu_stationary=0)

    def test_performance_estimate_validation(self):
        with pytest.raises(ValueError, match="finite"):
            PerformanceEstimate("arl", float("nan"), 0.0, 10, 1.0)
        with pytest.raises(ValueError, match="cap hits"):
            PerformanceEstimate("arl", 1.0, 0.0, 10, 1.0, cap_hits=11)
