"""Retrospective change-point statistic, estimation, and segmentation."""


import itertools
import math
import threading

import numpy as np
import pytest

from quickdetect import (
    BDTrace,
    SegmentationResult,
    bd_estimate,
    bd_segment,
    bd_statistic,
    null_threshold,
    offline,
)
from quickdetect._rand import _ROWS, row_chunks, substream


def direct_statistic(x, n):
    """Definition evaluated the slow way: scaled difference of the two means."""
    N = len(x)
    left = sum(x[:n]) / n
    right = sum(x[n:]) / (N - n)
    return np.sqrt(n * (N - n)) / N * (left - right)


def loop_null_maxima(length, replications, seed):
    """``max |Y|`` of i.i.d. standard normal series, replication ``r`` keyed ``(seed, 21, length, r)``.

    The Monte Carlo null that ``null_threshold`` replaced, one fresh generator
    and array per replication.
    """

    def trace_values(x):
        n_obs = x.size
        n = np.arange(1, n_obs)
        left_sums = np.cumsum(x)[:-1]
        total = left_sums[-1] + x[-1]
        left_mean = left_sums / n
        right_mean = (total - left_sums) / (n_obs - n)
        return np.sqrt(n * (n_obs - n)) / n_obs * (left_mean - right_mean)

    maxima = np.empty(replications)
    for r in range(replications):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 21, length, r]))
        maxima[r] = np.max(np.abs(trace_values(rng.standard_normal(length))))
    return maxima


def mc_null_maxima(length, replications, seed):
    """The same null maxima, drawn as the package draws replications.

    Generators come one ``row_chunks`` range at a time from ``substream``; its
    stream ``21 + length * 2**32`` splits into the uint32 words ``21, length``,
    so replication ``r`` has the key ``(seed, 21, length, r)`` of
    :func:`loop_null_maxima`.  Each series is scanned by ``offline._trace_values``.
    """
    maxima = np.empty(replications)
    for rows in row_chunks(replications):
        for r, rng in zip(rows, substream(seed, 21 + (length << 32), rows), strict=True):
            maxima[r] = np.max(np.abs(offline._trace_values(rng.standard_normal(length))))
    return maxima


def full_sum_exceedance(b, length):
    """James, James & Siegmund's tail approximation, summed over every split on scipy's normal."""
    from scipy.stats import norm

    t = np.arange(1, length) / length
    x = b / np.sqrt(length * t * (1 - t))
    nu = (2 / x) * (norm.cdf(x / 2) - 0.5) / ((x / 2) * norm.cdf(x / 2) + norm.pdf(x / 2))
    return b * norm.pdf(b) * np.sum(nu / (t * (1 - t))) / length


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
        a = null_threshold(300, 1.0)
        assert null_threshold(300, 1.0) == a
        assert null_threshold(300, 2.0) == pytest.approx(2.0 * a, rel=1e-15)

    # R cases: one replication, part of one chunk, the last chunk one row
    # short, exactly full or one row into a fresh chunk, and several chunks;
    # the last case is one long series
    CASES = [
        *itertools.product([1, 25, 26, 27, _ROWS - 1, _ROWS, _ROWS + 1, 199], [0, 20261017],
                           [2, 3, 61, 1_000, 20_000]),
        (3, 4, 2**19 + 1_000),
    ]

    @pytest.mark.parametrize("replications,seed,length", CASES)
    def test_bit_equal_to_the_per_replication_loop(self, length, seed, replications):
        # the Monte Carlo oracle of the tail-probability test below
        got = mc_null_maxima(length, replications, seed)
        expected = loop_null_maxima(length, replications, seed)
        assert got.tobytes() == expected.tobytes()

    def test_worker_thread_does_not_outlive_the_call(self, monkeypatch):
        # the threshold is solved on the calling thread: no thread is started
        def refuse(thread):
            raise AssertionError(f"started thread {thread.name}")

        before = threading.active_count()
        monkeypatch.setattr(threading.Thread, "start", refuse)
        for length in (50, 20_000):
            null_threshold(length, 1.0)
        bd_segment(np.random.default_rng(5).standard_normal(2_000))
        assert threading.active_count() == before

    # a separate run of 4 000-40 000 null series per length put the
    # threshold's tail probability at 0.043-0.048 for level 0.95; the band
    # widens that by three binomial standard errors of this test's count
    @pytest.mark.parametrize("length,replications", [(60, 4_000), (1_000, 4_000), (5_000, 2_000),
                                                     (30_000, 1_000)])
    def test_monte_carlo_tail_probability_near_the_level(self, length, replications):
        threshold = null_threshold(length, 1.0)
        exceed = np.mean(mc_null_maxima(length, replications, seed=20261017) > threshold)
        se = math.sqrt(0.0455 * 0.9545 / replications)
        assert 0.043 - 3 * se <= exceed <= 0.048 + 3 * se

    @pytest.mark.parametrize("length", [131, 1_000, 1_001, 4_999, 5_000, 19_999, 20_000])
    def test_quadrature_matches_the_full_sum(self, length):
        tail = offline._exceedance(length)
        for b in (2.0, 3.0, 3.5, 4.0, 5.0):
            assert tail(b) == pytest.approx(full_sum_exceedance(b, length), rel=1e-5), b

    @pytest.mark.parametrize("length", [2, 3, 4, 61, 129, 130])
    def test_short_lengths_take_the_exact_path(self, length):
        points, weights = offline._split_nodes(length)
        half = (length - 1) // 2
        assert points.tolist() == [*range(1, half + 1), *([length / 2] if length % 2 == 0 else [])]
        assert weights.tolist() == [2.0] * half + [1.0] * (length % 2 == 0)
        tail = offline._exceedance(length)
        for b in (1.5, 3.0, 4.5):
            assert tail(b) == pytest.approx(full_sum_exceedance(b, length), rel=1e-13), b

    @pytest.mark.parametrize("level", [0.0, -0.02, 1.0, 2.0, -3.0, float("nan")])
    def test_level_outside_the_unit_interval_refused(self, level):
        with pytest.raises(ValueError, match="level"):
            null_threshold(50, 1.0, level=level)

    def test_level_below_the_approximation_refused(self):
        # at N = 2 the approximation's largest value on b >= 1 is about 0.21
        with pytest.raises(ValueError, match="level 0.5 lies below the tail approximation"):
            null_threshold(2, 1.0, level=0.5)
        assert null_threshold(2, 1.0, level=0.95) > 0.0

    @pytest.mark.parametrize("sd", [-1.0, float("nan"), float("inf")])
    def test_sd_negative_or_not_finite_refused(self, sd):
        with pytest.raises(ValueError, match="sd"):
            null_threshold(50, sd)

    def test_zero_sd_gives_zero(self):
        assert null_threshold(50, 0.0) == 0.0

    def test_level_ordering(self):
        lo = null_threshold(200, 1.0, level=0.80)
        hi = null_threshold(200, 1.0, level=0.99)
        assert lo < hi

    def test_holds_its_level(self):
        # the 95% threshold should be exceeded by roughly 5% of fresh null
        # series; allow a generous binomial margin around 10 of 200
        threshold = null_threshold(150, 1.0)
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
        result = bd_segment(x, min_segment=30)
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
            result = bd_segment(rng.standard_normal(200))
            splits += len(result.change_points)
        # each root test is level ~5%; 30 runs should produce few splits
        assert splits <= 5

    def test_min_segment_honored(self, rng):
        x = rng.normal(size=50)
        result = bd_segment(x, min_segment=30)
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
        result = bd_segment(x, min_segment=30)
        # one decision for the root plus one per child examined
        assert len(result.decisions) >= 3
        root_decision = result.decisions[0]
        assert (root_decision.start, root_decision.stop) == (0, 400)
        assert root_decision.split_at in result.change_points

    def test_one_decision_per_segment_parent_first(self):
        # a split, a split too close to the edge, a segment within the
        # threshold and one too short to scan, in the order visited
        x = np.concatenate([np.full(3, -6.0), np.zeros(57), np.full(50, 5.0), np.full(30, -5.0)])
        result = bd_segment(x, significance_threshold=0.5, min_segment=20)
        assert result.change_points == (60, 110)
        assert [(d.start, d.stop, d.split_at, d.reason) for d in result.decisions] == [
            (0, 140, 110, "max |Y| exceeds the null threshold"),
            (0, 110, 60, "max |Y| exceeds the null threshold"),
            (0, 60, None, "split at 3 would leave a segment shorter than 20"),
            (60, 110, None, "max |Y| within the null threshold"),
            (110, 140, None, "segment too short to split (30 < 40)"),
        ]
        assert [d.threshold for d in result.decisions[:4]] == [0.5] * 4
        assert [d.abs_max_value for d in result.decisions[:4]] == pytest.approx(
            [2.9170441490861942, 2.6390268679794366, 1.307669683062202, 0.0], abs=1e-12
        )
        assert math.isnan(result.decisions[4].abs_max_value)
        assert math.isnan(result.decisions[4].threshold)

    @pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan")])
    def test_threshold_not_positive_refused(self, threshold):
        # nan compares false with every max |Y|, so it would split pure noise
        x = np.random.default_rng(5).standard_normal(2_000)
        with pytest.raises(ValueError, match="significance_threshold"):
            bd_segment(x, significance_threshold=threshold, min_segment=30)

    def test_validation(self):
        with pytest.raises(ValueError, match="min_segment"):
            bd_segment(np.arange(10.0), min_segment=1)
        with pytest.raises(ValueError, match="two observations"):
            bd_segment(np.array([1.0]))
        with pytest.raises(ValueError, match="strictly increasing"):
            SegmentationResult(
                change_points=(5, 5), segments=(), decisions=()
            )
