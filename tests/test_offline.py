"""Retrospective change-point statistic, estimation, and segmentation."""


import numpy as np
import pytest

from quickdetect import (
    BDTrace,
    SegmentationResult,
    bd_estimate,
    bd_segment,
    bd_statistic,
    null_threshold,
)


def direct_statistic(x, n):
    """Definition evaluated the slow way: scaled difference of the two means."""
    N = len(x)
    left = sum(x[:n]) / n
    right = sum(x[n:]) / (N - n)
    return np.sqrt(n * (N - n)) / N * (left - right)


def loop_null_threshold(length, sd, seed, replications=199, level=0.95):
    """The null threshold drawn and evaluated one fresh array per replication."""

    def trace_values(x):
        n_obs = x.size
        n = np.arange(1, n_obs)
        left_sums = np.cumsum(x)[:-1]
        total = left_sums[-1] + x[-1]
        left_mean = left_sums / n
        right_mean = (total - left_sums) / (n_obs - n)
        return np.sqrt(n * (n_obs - n)) / n_obs * (left_mean - right_mean)

    rng = np.random.default_rng(np.random.SeedSequence([seed, length, replications]))
    maxima = np.empty(replications)
    for r in range(replications):
        maxima[r] = np.max(np.abs(trace_values(rng.standard_normal(length))))
    maxima.sort()
    k = min(replications, int(np.ceil((replications + 1) * level)))
    return float(sd * maxima[k - 1])


class TestStatistic:
    def test_step_series_frozen_value(self):
        # 50 zeros then 50 ones, split at the true change: the scale factor
        # is sqrt(50*50)/100 = 1/2, the mean difference is -1
        x = np.concatenate([np.zeros(50), np.ones(50)])
        assert bd_statistic(x, 50) == pytest.approx(-0.5, abs=1e-15)

    def test_matches_direct_evaluation(self, rng):
        x = rng.normal(0.5, 2.0, size=37)
        for n in range(1, 37):
            assert bd_statistic(x, n) == pytest.approx(
                direct_statistic(x, n), rel=1e-12, abs=1e-14
            )

    def test_trace_matches_statistic(self, rng):
        x = rng.normal(size=80)
        _, trace = bd_estimate(x)
        assert trace.values.size == 79
        for n in (1, 7, 40, 79):
            assert trace.values[n - 1] == pytest.approx(
                bd_statistic(x, n), rel=1e-12, abs=1e-14
            )

    def test_split_bounds(self):
        x = np.arange(10.0)
        for n in (0, 10, -1):
            with pytest.raises(ValueError, match="split"):
                bd_statistic(x, n)


class TestExactProperties:
    def test_shift_invariance(self, rng):
        x = rng.normal(size=60)
        for n in (1, 20, 59):
            assert bd_statistic(x + 17.3, n) == pytest.approx(
                bd_statistic(x, n), abs=1e-10
            )

    def test_scale_equivariance(self, rng):
        x = rng.normal(size=60)
        for n in (5, 30):
            assert bd_statistic(2.5 * x, n) == pytest.approx(
                2.5 * bd_statistic(x, n), rel=1e-12
            )

    def test_reversal_antisymmetry(self, rng):
        x = rng.normal(size=45)
        reversed_x = x[::-1]
        for n in range(1, 45):
            assert bd_statistic(reversed_x, n) == pytest.approx(
                -bd_statistic(x, 45 - n), rel=1e-10, abs=1e-12
            )

    def test_trace_freezes_a_copy_of_the_callers_array(self):
        values = np.array([0.5, -1.5, 1.0])
        trace = BDTrace(values=values, abs_max_index=2, abs_max_value=1.5)
        values[0] = 9.0  # the caller's array stays writeable ...
        assert trace.values.tolist() == [0.5, -1.5, 1.0]  # ... and the trace keeps its own
        with pytest.raises(ValueError):
            trace.values[0] = 9.0

    def test_smallest_index_tie_break(self):
        # [a, b, b, a] has |Y(1)| == |Y(3)| by symmetry; the estimate must
        # pick the smaller index
        estimate, trace = bd_estimate(np.array([1.0, 0.0, 0.0, 1.0]))
        assert abs(trace.values[0]) == pytest.approx(abs(trace.values[2]))
        assert estimate == 1


class TestEstimationAccuracy:
    def test_single_change_localized(self):
        # 1-sigma mean shift at nu=500 in N=1000: the argmax estimate should
        # land within 20 of the truth in at least 95% of runs
        root = np.random.SeedSequence(1812)
        hits = 0
        reps = 400
        for child in root.spawn(reps):
            rng = np.random.default_rng(child)
            x = np.concatenate(
                [rng.normal(0.0, 1.0, 500), rng.normal(1.0, 1.0, 500)]
            )
            estimate, _ = bd_estimate(x)
            hits += abs(estimate - 500) <= 20
        assert hits / reps >= 0.95

    def test_estimate_is_deterministic(self, rng):
        x = rng.normal(size=200)
        first, _ = bd_estimate(x)
        second, _ = bd_estimate(x)
        assert first == second


class TestNullThreshold:
    def test_deterministic_and_scales_with_sd(self):
        a = null_threshold(300, 1.0, seed=9)
        b = null_threshold(300, 1.0, seed=9)
        c = null_threshold(300, 2.0, seed=9)
        assert a == b
        assert c == pytest.approx(2.0 * a, rel=1e-12)
        assert null_threshold(300, 1.0, seed=10) != a

    @pytest.mark.parametrize("length", [2, 3, 61, 1_000, 20_000])
    @pytest.mark.parametrize("seed", [0, 20261017])
    @pytest.mark.parametrize("replications", [1, 199])
    def test_bit_equal_to_the_per_replication_loop(self, length, seed, replications):
        for level in (0.80, 0.95, 0.99):
            expected = loop_null_threshold(length, 1.7, seed, replications, level)
            got = null_threshold(length, 1.7, seed, replications, level)
            assert got.hex() == expected.hex(), (level, got, expected)

    def test_level_ordering(self):
        lo = null_threshold(200, 1.0, seed=3, level=0.80)
        hi = null_threshold(200, 1.0, seed=3, level=0.99)
        assert lo < hi

    def test_holds_its_level(self):
        # the 95% threshold should be exceeded by roughly 5% of fresh null
        # series; allow a generous binomial margin around 10 of 200
        threshold = null_threshold(150, 1.0, seed=21, replications=199)
        rng = np.random.default_rng(77)
        exceed = 0
        for _ in range(200):
            x = rng.standard_normal(150)
            _, trace = bd_estimate(x)
            exceed += trace.abs_max_value > threshold
        assert exceed <= 22  # ~4 sd above the expected 10


class TestSegmentation:
    def test_two_changes_recovered(self):
        rng = np.random.default_rng(404)
        x = np.concatenate(
            [
                rng.normal(0.0, 1.0, 300),
                rng.normal(1.5, 1.0, 300),
                rng.normal(0.2, 1.0, 300),
            ]
        )
        result = bd_segment(x, min_segment=30, seed=2)
        assert len(result.change_points) == 2
        first, second = result.change_points
        assert abs(first - 300) <= 20
        assert abs(second - 600) <= 20
        # segments tile [0, 900) and their moments reflect the three regimes
        assert [m.interval for m in result.segments] == [
            (0, first),
            (first, second),
            (second, 900),
        ]
        means = [m.mean for m in result.segments]
        assert means[1] == max(means)

    def test_pure_noise_rarely_splits(self):
        root = np.random.SeedSequence(55)
        splits = 0
        for child in root.spawn(30):
            rng = np.random.default_rng(child)
            result = bd_segment(rng.standard_normal(200), seed=6)
            splits += len(result.change_points)
        # each root test is level ~5%; 30 runs should produce few splits
        assert splits <= 5

    def test_min_segment_honored(self, rng):
        x = rng.normal(size=50)
        result = bd_segment(x, min_segment=30, seed=0)
        assert result.change_points == ()
        assert "too short" in result.decisions[0].reason
        for m in result.segments:
            assert m.count == 50

    def test_explicit_threshold_respected(self):
        rng = np.random.default_rng(8)
        x = np.concatenate([rng.normal(0, 1, 100), rng.normal(3, 1, 100)])
        none = bd_segment(x, significance_threshold=1e9, min_segment=10)
        assert none.change_points == ()
        assert "within the null threshold" in none.decisions[0].reason
        some = bd_segment(x, significance_threshold=0.3, min_segment=10)
        assert len(some.change_points) >= 1

    def test_decision_log_covers_recursion(self):
        rng = np.random.default_rng(13)
        x = np.concatenate([rng.normal(0, 1, 200), rng.normal(2, 1, 200)])
        result = bd_segment(x, min_segment=30, seed=1)
        # one decision for the root plus one per child examined
        assert len(result.decisions) >= 3
        root_decision = result.decisions[0]
        assert (root_decision.start, root_decision.stop) == (0, 400)
        assert root_decision.split_at in result.change_points

    def test_validation(self):
        with pytest.raises(ValueError, match="min_segment"):
            bd_segment(np.arange(10.0), min_segment=1)
        with pytest.raises(ValueError, match="two observations"):
            bd_segment(np.array([1.0]))
        with pytest.raises(ValueError, match="strictly increasing"):
            SegmentationResult(
                change_points=(5, 5), segments=(), decisions=()
            )
