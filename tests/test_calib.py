"""Monte Carlo operating characteristics and threshold calibration."""

import bisect
import math
import re

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
from quickdetect import calib
from quickdetect.detect import _BLOCK, KINDS, _advance_with_resets, _cusum_path, _path, _sr_path


def keyed_rng(seed, stream, r):
    """Oracle generator of one replication, seeded through numpy's own SeedSequence."""
    return np.random.default_rng(np.random.SeedSequence([seed, stream, r]))


HST = GaussianChangeModel(-0.0029, 0.2266, 0.0199, 0.2306)
HST_SCORE = design_coefficients(0.2266 / 0.2306, 0.0228 / 0.2266)


class FixedIncrements(DetectorConfig):
    """A detector whose log increments are ``fn`` of the observations."""

    def __init__(self, fn, **kwargs):
        super().__init__(**kwargs)
        object.__setattr__(self, "fn", fn)

    def log_increments(self, x):
        return self.fn(np.asarray(x, dtype=float))


def flat_increments(value, **kwargs):
    """A detector whose every log increment is ``value``."""
    return FixedIncrements(lambda x: np.full(np.shape(x), value), **kwargs)


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
        config = DetectorConfig(kind="cusum", model=unit_shift_model, score=params)
        from quickdetect import linear_quadratic_score

        x = np.array([0.0, 1.0, -2.0])
        # pre-change moments are (0, 1), so standardization is the identity
        np.testing.assert_allclose(
            config.log_increments(x), linear_quadratic_score(params, x)
        )


class TestDegenerateStream:
    """Ratio identically one: the SR statistic is exactly R_n = n."""

    def test_arl_is_exactly_the_threshold(self, unit_shift_model):
        config = flat_increments(0.0, kind="sr", model=unit_shift_model)
        spec = CalibrationSpec(gamma=60.0, replications=500, seed=1)
        est = estimate_arl(config, 60.0, spec)
        assert est.value == 60.0
        assert est.std_error == 0.0
        assert est.cap_hits == 0

    def test_an_alarm_at_the_cap_is_no_cap_hit(self, unit_shift_model):
        # gamma = 1.2 caps runs at 120 steps, where R_n first reaches 120
        config = flat_increments(0.0, kind="sr", model=unit_shift_model)
        spec = CalibrationSpec(gamma=1.2, replications=50, seed=1)
        est = estimate_arl(config, 120.0, spec)
        assert (est.value, est.cap_hits) == (120.0, 0)
        with pytest.raises(CalibrationError, match="50/50 runs hit the 120-step cap"):
            estimate_arl(config, 120.5, spec)

    def test_solver_returns_the_threshold_itself(self, unit_shift_model):
        # every run alarms at step ceil(A), so the ARL is exactly 60 on (59, 60]
        config = flat_increments(0.0, kind="sr", model=unit_shift_model)
        spec = CalibrationSpec(gamma=60.0, replications=500, seed=1)
        threshold, est = solve_threshold(config, spec)
        assert 59.0 < threshold <= 60.0
        assert est.value == 60.0
        assert est.std_error == 0.0


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

    @pytest.mark.parametrize(
        "estimate, metric",
        [
            (estimate_arl, "ARL"),
            (estimate_sadd, "SADD"),
            pytest.param(
                lambda config, threshold, spec: estimate_stadd([config], [threshold], spec),
                "STADD",
                id="estimate_stadd-STADD",
            ),
        ],
    )
    def test_every_estimator_states_the_cap_alike(self, estimate, metric, unit_shift_model):
        # no CUSUM path climbs to 1e9 within the 500-step cap, before or after the change
        config = DetectorConfig(kind="cusum", model=unit_shift_model)
        spec = CalibrationSpec(gamma=5.0, replications=100, seed=3, nu_stationary=10)
        text = f"100/100 runs hit the 500-step cap estimating {metric} at threshold 1e+09"
        with pytest.raises(CalibrationError, match=f"^{re.escape(text)}; at most 1% may$"):
            estimate(config, 1e9, spec)


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
        config = flat_increments(10.0, kind="cusum", model=unit_shift_model)
        spec = CalibrationSpec(
            gamma=5.0, replications=200, seed=4, nu_stationary=50
        )
        [est] = estimate_stadd([config], [5.0], spec)
        assert est.value == 1.0
        assert est.std_error == 0.0

    def test_stationarity_check_failure_surfaces(self, unit_shift_model):
        # a deterministic climb of 0.1/step with h=10 alarms every 100th
        # step, so the delay depends on nu mod 100 and nu-doubling disagrees
        config = flat_increments(0.1, kind="cusum", model=unit_shift_model)
        spec = CalibrationSpec(
            gamma=150.0, replications=100, seed=4, nu_stationary=50
        )
        with pytest.raises(CalibrationError, match="^cusum stationarity check failed"):
            estimate_stadd([config], [10.0], spec)

    def test_stadd_between_one_and_sadd(self, unit_shift_model):
        # a random mid-cycle statistic can only shorten the delay relative
        # to a cold start
        spec = CalibrationSpec(
            gamma=100.0, replications=3_000, seed=8, nu_stationary=500
        )
        config = DetectorConfig(kind="sr", model=unit_shift_model)
        [stadd] = estimate_stadd([config], [90.0], spec)
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
        # faint fitted design: the ARL at log(gamma) is far above gamma, so
        # the solver must halve its way down with no exact-likelihood bound
        model = GaussianChangeModel(-0.0029, 0.2266, 0.0199, 0.2306)
        params = design_coefficients(0.2266 / 0.2306, 0.0228 / 0.2266)
        config = DetectorConfig(kind="cusum", model=model, score=params)
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
        with pytest.raises(ValueError, match="gamma must exceed 1"):
            CalibrationSpec(gamma=1.0)
        for gamma in (math.inf, math.nan):
            with pytest.raises(ValueError, match="gamma must be finite"):
                CalibrationSpec(gamma=gamma)
        with pytest.raises(ValueError, match="nu_stationary"):
            CalibrationSpec(gamma=10.0, nu_stationary=0)
        # a float fails later in range(), a float seed is truncated, and a bool is 0 or 1
        for field, value in [
            ("replications", 100.5),
            ("replications", 100.0),
            ("nu_stationary", 300.5),
            ("nu_stationary", True),
            ("seed", 1.5),
            ("seed", False),
            ("seed", np.True_),
            ("seed", "1"),
        ]:
            with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
                CalibrationSpec(gamma=10.0, **{field: value})
        spec = CalibrationSpec(gamma=10.0, replications=np.int64(100), seed=np.uint32(1))
        assert estimate_sadd(detector("cusum", "exact"), 2.0, spec).replications == 100

    def test_performance_estimate_validation(self):
        with pytest.raises(ValueError, match="finite"):
            PerformanceEstimate("arl", float("nan"), 0.0, 10, 1.0)
        with pytest.raises(ValueError, match="cap hits"):
            PerformanceEstimate("arl", 1.0, 0.0, 10, 1.0, cap_hits=11)


def first_crossing(config, threshold, rng, cap, regime, state=0.0):
    """Oracle: one run from ``state`` at one threshold, in whole blocks."""
    consumed = 0
    while consumed < cap:
        block = min(_BLOCK, cap - consumed)
        z = config.log_increments(config.sample(rng, block, regime))
        path = _path(config.kind, state, z)
        hits = np.nonzero(path >= threshold)[0]
        if hits.size:
            return consumed + int(hits[0]) + 1
        state = float(path[-1])
        consumed += block
    return None


def oracle_mean(config, threshold, spec, regime="pre", stream=calib._STREAM_ARL):
    """Oracle: full mean over fresh runs, capped runs at the cap."""
    times = []
    cap_hits = 0
    for r in range(spec.replications):
        rng = keyed_rng(spec.seed, stream, r)
        t = first_crossing(config, threshold, rng, spec.run_cap, regime)
        if t is None:
            cap_hits += 1
            t = spec.run_cap
        times.append(t)
    times = np.array(times, dtype=float)
    return times.mean(), times.std(ddof=1) / math.sqrt(times.size), cap_hits


def detector(kind, mode):
    if mode == "exact":
        return DetectorConfig(kind=kind, model=GaussianChangeModel(0.0, 1.0, 1.0, 1.0))
    return DetectorConfig(kind=kind, model=HST, score=HST_SCORE)


#: thresholds from a few steps to well past the cap of gamma = 5 (500 steps)
LADDERS = {
    ("cusum", "exact"): np.geomspace(0.05, 9.0, 9),
    ("sr", "exact"): np.geomspace(1.1, 5000.0, 9),
    ("cusum", "score"): np.geomspace(0.005, 3.0, 9),
    ("sr", "score"): np.geomspace(1.1, 3000.0, 9),
}


def fresh_runs(config, spec, regime="pre", stream=calib._STREAM_ARL):
    """One store over every replication of ``stream``, all starting at zero."""
    rngs = [keyed_rng(spec.seed, stream, r) for r in range(spec.replications)]
    return calib._Runs(config, regime, spec.run_cap, rngs, np.zeros(spec.replications))


def as_optional(times, capped):
    """Stop times as the oracle gives them: None where capped."""
    return [None if c else int(t) for t, c in zip(times, capped)]


class SteadyStream:
    """Stands in for a generator: every draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def normal(self, loc, scale, size):
        return np.full(size, self.value)


def run_maxima(config, spec, rng):
    """Oracle: one fresh run's running maximum at every step to the cap, in whole blocks."""
    state, paths = 0.0, []
    for consumed in range(0, spec.run_cap, _BLOCK):
        z = config.log_increments(config.sample(rng, min(_BLOCK, spec.run_cap - consumed), "pre"))
        paths.append(_path(config.kind, state, z))
        state = float(paths[-1][-1])
    return np.maximum.accumulate(np.concatenate(paths))


def curve_oracle(config, spec, rng_of=None):
    """Oracle: the step of the exact Monte Carlo ARL curve nearest gamma.

    Each replication is drawn whole to the cap.  The ARL steps up just above
    each running maximum that some run holds before the cap; on the step
    above height ``u`` each run stops at its first step whose running maximum
    exceeds ``u``, or at the cap.  Of the steps with a positive lower end,
    returns the one whose ARL is nearest gamma as ``(lower end, upper end)``,
    with each run's running maxima.
    """
    rng_of = rng_of or (lambda r: keyed_rng(spec.seed, calib._STREAM_ARL, r))
    maxima = [run_maxima(config, spec, rng_of(r)) for r in range(spec.replications)]
    heights = np.unique([m[:-1] for m in maxima])

    def arl(k):  # on (heights[k], heights[k + 1]]
        return np.mean(
            [min(np.searchsorted(m, heights[k], "right") + 1, spec.run_cap) for m in maxima]
        )

    # the curve is nondecreasing, so the nearest step is next to where it reaches gamma
    k = bisect.bisect_left(range(heights.size), spec.gamma, key=arl)
    k = min(
        (j for j in (k - 1, k) if 0 <= j < heights.size and heights[j] > 0),
        key=lambda j: abs(arl(j) - spec.gamma),
    )
    return heights[k], heights[k + 1] if k + 1 < heights.size else np.inf, maxima


class TestLadderStore:
    """One path per run answers every threshold as a fresh run does."""

    @pytest.mark.parametrize("kind,mode", sorted(LADDERS))
    def test_stop_times_match_fresh_runs_in_any_order(self, kind, mode):
        config = detector(kind, mode)
        thresholds = [float(t) for t in LADDERS[kind, mode]]
        shuffled = list(np.random.default_rng(5).permutation(thresholds))
        # one array of rows, and several with a partial last one
        for replications in (40, calib._ROWS + 37):
            spec = CalibrationSpec(gamma=5.0, replications=replications, seed=3)
            expected = {
                t: [
                    first_crossing(
                        config, t, keyed_rng(3, calib._STREAM_ARL, r), spec.run_cap, "pre"
                    )
                    for r in range(spec.replications)
                ]
                for t in thresholds
            }
            answers = [t for times in expected.values() for t in times]
            assert None in answers  # some runs reach the cap ...
            assert any(t is not None for t in answers)  # ... and some alarm
            for order in (thresholds, thresholds[::-1], shuffled):
                runs = fresh_runs(config, spec)
                for t in order:
                    assert as_optional(*runs.stop_times(t)) == expected[t], (order, t)

    @pytest.mark.parametrize("kind,threshold", [("cusum", 4.0), ("sr", 60.0)])
    def test_one_shot_estimates_match_fresh_runs(self, kind, threshold):
        config = detector(kind, "exact")
        # one row chunk, and more than one with a partial last chunk
        for replications in (40, 200, calib._ROWS + 37):
            spec = CalibrationSpec(gamma=50.0, replications=replications, seed=4)
            for estimate, regime, stream in (
                (estimate_arl, "pre", calib._STREAM_ARL),
                (estimate_sadd, "post", calib._STREAM_SADD),
            ):
                est = estimate(config, threshold, spec)
                expected = oracle_mean(config, threshold, spec, regime, stream)
                assert (est.value, est.std_error, est.cap_hits) == expected

    @pytest.mark.parametrize("kind", ["cusum", "sr"])
    @pytest.mark.parametrize("mode", ["exact", "score"])
    def test_a_short_first_round_moves_no_stop_time(self, kind, mode):
        # these stores draw a 32-step first round, then whole blocks; the
        # oracle draws whole blocks from the start.  On the HST model the
        # first threshold ends every run within 32 steps, the second ends
        # runs on both sides of step 32, h = 1.97 / A = 917 (the score's
        # thresholds at gamma = 1000) runs to hundreds of steps, and the last
        # caps many runs at gamma = 5's cap of 500
        config = DetectorConfig(kind=kind, model=HST, score=HST_SCORE if mode == "score" else None)
        thresholds = {"cusum": (0.1, 0.8, 1.97, 6.0), "sr": (10.0, 25.0, 917.0, 1e4)}[kind]
        spec = CalibrationSpec(gamma=5.0, replications=calib._ROWS + 37, seed=3)
        rows = range(spec.replications)
        second = np.random.default_rng(9).uniform(0.0, thresholds[-2], rows.stop)

        def oracle(threshold, starts, cap=spec.run_cap):
            return [
                first_crossing(
                    config, threshold, keyed_rng(3, calib._STREAM_SADD, r), cap, "post",
                    float(starts[r]),
                )
                for r in rows
            ]

        def store(starts, cap=spec.run_cap):
            rngs = [keyed_rng(3, calib._STREAM_SADD, r) for r in rows]
            return calib._Runs(config, "post", cap, rngs, starts, _BLOCK // 8)

        runs = store(np.zeros(rows.stop))
        answers = []
        for t in thresholds:
            expected = oracle(t, np.zeros(rows.stop))
            assert as_optional(*runs.stop_times(t)) == expected, t
            if t == thresholds[0]:
                assert max(expected) <= _BLOCK // 8
                assert np.all(runs.drawn == _BLOCK // 8)
            answers += expected
        assert None in answers  # capped runs ...
        assert any(t is not None and t > _BLOCK + _BLOCK // 8 for t in answers)  # ... third rounds
        assert any(t is not None and t <= _BLOCK // 8 for t in answers)  # ... first rounds

        # two starts per row read one stream, as estimate_stadd builds them
        starts = np.stack([np.zeros(rows.stop), second])
        both = store(starts)
        for t in thresholds[::-1]:
            times, capped = both.stop_times(t)
            for got, hit_cap, start in zip(times, capped, starts):
                assert as_optional(got, hit_cap) == oracle(t, start), t

        # a cap inside the first round
        times, capped = store(np.zeros(rows.stop), 20).stop_times(thresholds[1])
        assert 0 < capped.sum() < rows.stop
        assert as_optional(times, capped) == oracle(thresholds[1], np.zeros(rows.stop), 20)

        # a store's first round is a whole block unless it is told otherwise
        whole = fresh_runs(config, spec, "post", calib._STREAM_SADD)
        times, _ = whole.stop_times(thresholds[0])
        assert times.max() <= _BLOCK // 8
        assert np.all(whole.drawn == _BLOCK)

    @pytest.mark.parametrize(
        "medians,widths",
        [
            ((300, 3, 32, 33, 5), (_BLOCK, _BLOCK, _BLOCK // 8, _BLOCK // 8, _BLOCK)),
            ((3, 3, 3, 3, 3), (_BLOCK,) + 4 * (_BLOCK // 8,)),
            ((900, 700, 500, 300, 100), 5 * (_BLOCK,)),
        ],
    )
    def test_first_round_follows_the_run_before(self, monkeypatch, medians, widths):
        # each store draws a 32-step first round only when the median
        # stopping time of the store before it lay within 32 steps; a quarter
        # of each store's times are ten times the median, so a mean would
        # decide otherwise at a median of 32
        spec = CalibrationSpec(gamma=5.0, replications=4 * calib._ROWS + 9, seed=0)
        asked = []

        class FakeRuns:
            def __init__(self, config, regime, cap, rngs, states, first):
                asked.append(first)
                self.size = len(rngs)

            def stop_times(self, threshold):
                median = medians[len(asked) - 1]
                times = np.array([1, median, median, 10 * median] * calib._ROWS)
                return times[1 : self.size + 1], np.zeros(self.size, dtype=bool)

        monkeypatch.setattr(calib, "_Runs", FakeRuns)
        times, _ = calib._fresh_start_times(
            detector("cusum", "exact"), 1.0, spec, "post", calib._STREAM_SADD
        )
        assert tuple(asked) == widths
        assert times.size == spec.replications

    @pytest.mark.parametrize("kind", ["cusum", "sr"])
    def test_record_sums_to_the_lower_curve_between_rounds(self, kind):
        # after any round, the replications plus the weights below a height
        # sum the runs' lower bounds there: a run past it counts its stopping
        # time, a run still short its drawn steps (at most cap - 1) plus one
        config = detector(kind, "score")
        spec = CalibrationSpec(gamma=5.0, replications=calib._ROWS + 37, seed=3)
        rngs = [keyed_rng(3, calib._STREAM_ARL, r) for r in range(spec.replications)]
        runs = calib._Runs(config, "pre", spec.run_cap, rngs, np.zeros(spec.replications), 32)
        maxima = [
            run_maxima(config, spec, keyed_rng(3, calib._STREAM_ARL, r))
            for r in range(spec.replications)
        ]
        for drawn in (32, 288, 500):  # a short first round, then whole blocks to the cap
            runs.draw(runs.open())
            assert np.all(np.minimum(runs.drawn, spec.run_cap) == drawn)
            height, run, weight = runs.record()
            assert np.all(np.diff(height) >= 0.0)
            assert runs.lower_total() == spec.replications + weight.sum()
            for t in LADDERS[kind, "score"]:
                expected = 0
                for m in maxima:
                    alarm = np.searchsorted(m, t) + 1  # past the cap if the run never alarms
                    expected += alarm if alarm <= drawn else min(drawn, spec.run_cap - 1) + 1
                assert spec.replications + weight[height < t].sum() == expected, (drawn, t)

    def test_record_answers_without_drawing(self, unit_shift_model):
        config = DetectorConfig(kind="cusum", model=unit_shift_model)
        spec = CalibrationSpec(gamma=50.0, replications=calib._ROWS + 37, seed=2)
        runs = fresh_runs(config, spec)
        high, _ = runs.stop_times(4.0)
        drawn = runs.drawn.copy()
        low, _ = runs.stop_times(1.0)
        np.testing.assert_array_equal(runs.drawn, drawn)
        assert np.all(low <= high)


class TestCurveSolver:
    """The solver returns a threshold on the step of the exact ARL curve nearest gamma."""

    @staticmethod
    def check(config, spec, rng_of=None):
        low, high, maxima = curve_oracle(config, spec, rng_of)
        threshold, est = solve_threshold(config, spec)
        assert low < threshold <= high
        # each run stops at its first step whose path reaches the threshold
        times = np.array(
            [min(np.searchsorted(m, threshold) + 1, spec.run_cap) for m in maxima], dtype=float
        )
        capped = sum(m[-1] < threshold for m in maxima)
        se = times.std(ddof=1) / math.sqrt(times.size)
        assert (est.value, est.std_error, est.cap_hits) == (times.mean(), se, capped)
        assert abs(est.value - spec.gamma) <= 0.02 * spec.gamma
        return threshold, est

    @pytest.mark.parametrize("kind", ["cusum", "sr"])
    @pytest.mark.parametrize("mode,gamma", [("score", 25.0), ("exact", 30.0)])
    def test_solver_matches_the_curve_oracle(self, kind, mode, gamma):
        self.check(detector(kind, mode), CalibrationSpec(gamma=gamma, replications=300, seed=11))

    @pytest.mark.parametrize("kind", ["cusum", "sr"])
    def test_capped_runs_count_at_the_cap(self, kind, monkeypatch):
        # 3 of 400 runs never rise past their first steps, so at every
        # threshold above those they hit the 5000-step cap and add 37.5 of
        # the ARL of 50; the others climb by 0.01 per step
        def stream(r):
            return SteadyStream(-1.0 if r < 3 else 0.01)

        monkeypatch.setattr(calib, "substream", lambda seed, key, rows: [stream(r) for r in rows])
        config = FixedIncrements(lambda x: x, kind=kind, model=HST)
        _, est = self.check(config, CalibrationSpec(gamma=50.0, replications=400), stream)
        assert est.cap_hits == 3

    @pytest.mark.parametrize("kind", ["cusum", "sr"])
    @pytest.mark.parametrize("mode,gamma", [("score", 1000.0), ("exact", 300.0)])
    def test_each_round_draws_the_runs_the_rule_asks(self, kind, mode, gamma, monkeypatch):
        # each round must draw exactly the open runs short of min(reach, h0),
        # h0 counting only while some run is short of it, with reach the
        # least height where the lower curve reaches gamma
        spec = CalibrationSpec(gamma=gamma, replications=200, seed=11)
        h0 = math.log(gamma) if kind == "cusum" else gamma
        real_draw, rounds = calib._Runs.draw, []

        def checked_draw(runs, mask):
            n = runs.state.size
            height, _, weight = runs.record()
            total = n + np.cumsum(weight, dtype=np.int64)
            reach = np.inf
            if total.size and total[-1] >= gamma * n:
                reach = height[np.searchsorted(total, gamma * n)]
            open_ = runs.drawn[runs.row] < runs.cap
            by_h0 = open_ & (runs.top <= h0)
            expected = by_h0 if h0 < reach and by_h0.any() else open_ & (runs.top <= reach)
            np.testing.assert_array_equal(mask, expected)
            rounds.append(reach)
            real_draw(runs, mask)

        monkeypatch.setattr(calib._Runs, "draw", checked_draw)
        solve_threshold(detector(kind, mode), spec)
        assert np.inf in rounds and any(r < np.inf for r in rounds)

    def test_heights_that_tie_across_runs(self, unit_shift_model):
        # R_n = n in every run: one step per integer, the same in each run
        config = flat_increments(0.0, kind="sr", model=unit_shift_model)
        threshold, est = self.check(config, CalibrationSpec(gamma=60.0, replications=50))
        assert 59.0 < threshold <= 60.0 and est.value == 60.0


def stadd_delay_loop(config, threshold, rng_pre, rng_post, nu, cap):
    """Oracle: one replication's delay after a change at ``nu``, on its own."""
    state = 0.0
    consumed = 0
    while consumed < nu:
        block = min(_BLOCK, nu - consumed)
        z = config.log_increments(config.sample(rng_pre, block, "pre"))
        state, _ = _advance_with_resets(config.kind, state, z, threshold)
        consumed += block
    consumed = 0
    while consumed < cap:
        block = min(_BLOCK, cap - consumed)
        z = config.log_increments(config.sample(rng_post, block, "post"))
        path = _path(config.kind, state, z)
        hits = np.nonzero(path >= threshold)[0]
        if hits.size:
            return consumed + int(hits[0]) + 1
        state = float(path[-1])
        consumed += block
    return None


def stadd_loop(config, threshold, spec, nu):
    """Oracle: every replication's delay at ``nu`` from fresh generators (None: capped)."""
    return [
        stadd_delay_loop(
            config,
            threshold,
            keyed_rng(spec.seed, calib._STREAM_STADD_PRE, r),
            keyed_rng(spec.seed, calib._STREAM_STADD_POST, r),
            nu,
            spec.run_cap,
        )
        for r in range(spec.replications)
    ]


class TestBatchedStadd:
    """Row-batched STADD equals the per-replication loop, run once per change point."""

    @pytest.mark.parametrize(
        "kind, mode, threshold, nu",
        [
            ("cusum", "exact", 2.8, 300),  # nu inside a block
            ("sr", "exact", 50.0, 256),  # nu on a block boundary
            ("cusum", "score", 0.3, 100),  # nu and 2 nu in the first block
            ("sr", "score", 20.0, 300),
        ],
    )
    def test_equals_two_independent_loop_runs(self, kind, mode, threshold, nu, monkeypatch):
        spec = CalibrationSpec(
            gamma=20.0, replications=calib._ROWS + 37, seed=5, nu_stationary=nu
        )
        self.assert_equals_loop_runs(detector(kind, mode), threshold, spec, monkeypatch)

    @pytest.mark.parametrize("kind, threshold", [("cusum", 2.8), ("sr", 50.0)])
    def test_wide_walk_equals_loop_runs(self, kind, threshold, monkeypatch):
        # one full walk array of 8 * _ROWS rows, then a partial one of 37
        # rows, which the last store of runs reads
        spec = CalibrationSpec(
            gamma=20.0, replications=8 * calib._ROWS + 37, seed=5, nu_stationary=300
        )
        self.assert_equals_loop_runs(detector(kind, "exact"), threshold, spec, monkeypatch)

    @staticmethod
    def assert_equals_loop_runs(config, threshold, spec, monkeypatch):
        nu = spec.nu_stationary
        expected = [stadd_loop(config, threshold, spec, n) for n in (nu, 2 * nu)]
        assert all(d is not None for delays in expected for d in delays)

        generators, means = [], []
        real_substream, real_mean_se = calib.substream, calib.mean_se

        def counting_substream(*args):
            rngs = real_substream(*args)
            generators.extend(rngs)
            return rngs

        def recording_mean_se(values):
            means.append(np.array(values))
            return real_mean_se(values)

        monkeypatch.setattr(calib, "substream", counting_substream)
        monkeypatch.setattr(calib, "mean_se", recording_mean_se)
        [est] = estimate_stadd([config], [threshold], spec)
        assert len(generators) == 2 * spec.replications
        assert len(means) == 2
        for got, delays in zip(means, expected):
            np.testing.assert_array_equal(got, np.array(delays, dtype=float))
        assert (est.value, est.std_error, est.cap_hits) == real_mean_se(means[0]) + (0,)

    @pytest.mark.parametrize("kind, threshold", [("cusum", 2.8), ("sr", 50.0)])
    def test_the_walk_draws_each_step_once_in_blocks(self, kind, threshold, monkeypatch):
        # each replication's 2 nu pre-change steps are drawn once, and the
        # walk steps them in arrays of at most one (8 * _ROWS, _BLOCK) block
        shapes, drawn = [], {}
        real_step, real_sample = calib._step_with_resets, DetectorConfig.sample

        def recording_step(kind, state, z, threshold):
            shapes.append(z.shape)
            return real_step(kind, state, z, threshold)

        def counting_sample(self, rng, n, regime):
            if regime == "pre":
                drawn[rng] = drawn.get(rng, 0) + n
            return real_sample(self, rng, n, regime)

        monkeypatch.setattr(calib, "_step_with_resets", recording_step)
        monkeypatch.setattr(DetectorConfig, "sample", counting_sample)
        spec = CalibrationSpec(
            gamma=20.0, replications=8 * calib._ROWS + 37, seed=5, nu_stationary=300
        )
        estimate_stadd([detector(kind, "exact")], [threshold], spec)
        assert list(drawn.values()) == [600] * spec.replications
        rows, columns = np.array(shapes).T
        assert list(rows) == [8 * calib._ROWS] * 4 + [37] * 4
        # 2 nu = 600 steps per array: rounds of 256, 256 and 88, the second
        # cut at nu = 300
        assert list(columns) == [256, 44, 212, 88] * 2

    @pytest.mark.parametrize("mode", ["exact", "score"])
    def test_walked_states_match_the_one_row_loop(self, mode, monkeypatch):
        # the states at nu and 2 nu that the post-change runs start from
        configs = [detector(kind, mode) for kind in KINDS]
        thresholds = [TestSharedStaddWalk.THRESHOLDS[kind, mode] for kind in KINDS]
        spec = CalibrationSpec(
            gamma=20.0, replications=8 * calib._ROWS + 37, seed=5, nu_stationary=300
        )
        walked, real = [], calib._fresh_start_times

        def recording(config, threshold, spec, regime, stream, states=None):
            walked.append(states)
            return real(config, threshold, spec, regime, stream, states)

        monkeypatch.setattr(calib, "_fresh_start_times", recording)
        calib._stadd_delays(configs, thresholds, spec)
        nu, zeros = spec.nu_stationary, 0
        for r in range(spec.replications):
            rng = keyed_rng(spec.seed, calib._STREAM_STADD_PRE, r)
            z = configs[0].log_increments(configs[0].sample(rng, 2 * nu, "pre"))
            for config, threshold, states in zip(configs, thresholds, walked):
                state = 0.0
                for i, part in enumerate((z[:nu], z[nu:])):
                    state, _ = _advance_with_resets(config.kind, state, part, threshold)
                    assert (states[i, r] == 0.0) == (state == 0.0), (config.kind, i, r)
                    # CUSUM rounds in absolute terms: a state near zero is a
                    # difference of sums of the size of the threshold
                    assert abs(states[i, r] - state) <= 1e-12 * max(state, threshold), (
                        config.kind, i, r
                    )
                    zeros += state == 0.0
        assert zeros > 0

    def test_capped_runs_match_the_loop(self):
        # post-change drift 0.5 per step against h = 150: about 300 steps,
        # so many runs reach the cap of 300
        config = detector("cusum", "exact")
        spec = CalibrationSpec(gamma=3.0, replications=60, seed=2, nu_stationary=40)
        expected = [stadd_loop(config, 150.0, spec, n) for n in (40, 80)]
        [(delays, capped)] = calib._stadd_delays([config], [150.0], spec)
        for got, hit_cap, want in zip(delays, capped, expected):
            assert list(hit_cap) == [d is None for d in want]
            assert list(got) == [spec.run_cap if d is None else d for d in want]
        cap_hits = sum(d is None for d in expected[0])
        assert 0 < cap_hits < 60
        text = f"{cap_hits}/60 runs hit the 300-step cap estimating STADD at threshold 150"
        with pytest.raises(CalibrationError, match=f"^{text}; at most 1% may$"):
            estimate_stadd([config], [150.0], spec)


class TestSharedStaddWalk:
    """One call for several kinds draws the pre-change walk once and changes no bit."""

    THRESHOLDS = {
        ("cusum", "exact"): 2.8,
        ("sr", "exact"): 50.0,
        ("cusum", "score"): 0.3,
        ("sr", "score"): 20.0,
    }

    @staticmethod
    def spec(replications=calib._ROWS + 37):
        return CalibrationSpec(gamma=20.0, replications=replications, seed=5, nu_stationary=300)

    @pytest.mark.parametrize("mode", ["exact", "score"])
    def test_two_kinds_equal_two_one_kind_calls(self, mode):
        configs = [detector(kind, mode) for kind in KINDS]
        thresholds = [self.THRESHOLDS[kind, mode] for kind in KINDS]
        spec = self.spec(8 * calib._ROWS + 37)
        both = calib._stadd_delays(configs, thresholds, spec)
        for (delays, capped), config, threshold in zip(both, configs, thresholds):
            [(alone, alone_capped)] = calib._stadd_delays([config], [threshold], spec)
            np.testing.assert_array_equal(delays, alone)
            np.testing.assert_array_equal(capped, alone_capped)
        # value, standard error, cap hits and threshold, in the order given
        estimates = estimate_stadd(configs, thresholds, spec)
        assert estimates == [estimate_stadd([c], [h], spec)[0] for c, h in zip(configs, thresholds)]

    @pytest.mark.parametrize("count", [1, 2])
    def test_the_pre_change_walk_is_drawn_once(self, count, monkeypatch):
        spec = self.spec()
        configs = [detector(kind, "exact") for kind in KINDS][:count]
        thresholds = [self.THRESHOLDS[c.kind, "exact"] for c in configs]
        drawn = {"pre": 0, "post": 0}
        generators = []
        real_sample, real_substream = DetectorConfig.sample, calib.substream

        def counting_sample(self, rng, n, regime):
            drawn[regime] += n
            return real_sample(self, rng, n, regime)

        def counting_substream(*args):
            rngs = real_substream(*args)
            generators.extend(rngs)
            return rngs

        monkeypatch.setattr(DetectorConfig, "sample", counting_sample)
        monkeypatch.setattr(calib, "substream", counting_substream)
        estimate_stadd(configs, thresholds, spec)
        assert drawn["pre"] == spec.replications * 2 * spec.nu_stationary
        assert len(generators) == (1 + count) * spec.replications

    @pytest.mark.parametrize(
        "other",
        [
            DetectorConfig(kind="sr", model=GaussianChangeModel(0.0, 1.0, 0.5, 1.0)),
            DetectorConfig(kind="sr", model=HST),  # the model without its score
            DetectorConfig(kind="sr", model=HST, score=design_coefficients(0.9, 0.1)),
        ],
    )
    def test_a_mix_of_models_or_scores_is_refused(self, other):
        with pytest.raises(ValueError, match="share one model and score"):
            estimate_stadd([detector("cusum", "score"), other], [0.3, 20.0], self.spec())

    def test_one_threshold_per_detector(self):
        with pytest.raises(ValueError, match="one threshold per detector"):
            estimate_stadd([detector("cusum", "exact")], [2.8, 50.0], self.spec())
        with pytest.raises(ValueError, match="one threshold per detector"):
            estimate_stadd([], [], self.spec())

    def test_stationarity_failure_names_its_kind(self, unit_shift_model):
        # flat increments of 0.1: CUSUM at h = 0.05 alarms at every step, so
        # its delay is 1 at both change points; SR at A = 10 alarms every 7th
        # step, so its delay depends on nu mod 7 and nu-doubling disagrees
        configs = [flat_increments(0.1, kind=kind, model=unit_shift_model) for kind in KINDS]
        spec = CalibrationSpec(gamma=150.0, replications=100, seed=4, nu_stationary=50)
        with pytest.raises(CalibrationError, match="^sr stationarity check failed"):
            estimate_stadd(configs, [0.05, 10.0], spec)
