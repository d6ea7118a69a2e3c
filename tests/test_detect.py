"""Detector recursions against brute-force definitions, and run mechanics."""

import math

import numpy as np
import pytest

from quickdetect import AlarmRecord, DetectionTrace, multi_cyclic_run, run_detector, to_ratios
from quickdetect.detect import _advance_with_resets, _cusum_path, _path, _sr_path

#: far above any statistic the test streams reach, so nothing alarms
NO_ALARM = 1e300


def brute_force_cusum(z):
    """W_n = max(0, max over k of the suffix sum z_k + ... + z_n), O(n^2)."""
    out = []
    for n in range(1, len(z) + 1):
        best = max(sum(z[k:n]) for k in range(n))
        out.append(max(0.0, best))
    return out


def brute_force_sr(r):
    """R_n = sum over k of the product r_k * ... * r_n, O(n^2)."""
    out = []
    for n in range(1, len(r) + 1):
        total = 0.0
        for k in range(n):
            prod = 1.0
            for j in range(k, n):
                prod *= r[j]
            total += prod
        out.append(total)
    return out


class TestRecursionsMatchDefinitions:
    def test_cusum(self, rng):
        for _ in range(20):
            z = rng.normal(0.1, 1.0, size=60)
            statistics = run_detector(z, kind="cusum", threshold=NO_ALARM).statistics
            expected = brute_force_cusum(list(z))
            for n in range(z.size):
                assert statistics[n] == pytest.approx(expected[n], rel=1e-9, abs=1e-12)

    def test_sr(self, rng):
        for _ in range(20):
            z = rng.normal(0.0, 0.4, size=60)
            statistics = multi_cyclic_run(z, kind="sr", threshold=NO_ALARM).statistics
            expected = brute_force_sr(list(np.exp(z)))
            for n in range(z.size):
                assert statistics[n] == pytest.approx(expected[n], rel=1e-9)

    def test_cusum_reflects_at_zero(self):
        trace = run_detector([-3.0, 1.5], kind="cusum", threshold=NO_ALARM)
        assert list(trace.statistics) == [0.0, 1.5]

    def test_statistics_never_negative(self, rng):
        z = rng.normal(-0.5, 1.0, size=500)
        w = multi_cyclic_run(z, kind="cusum", threshold=NO_ALARM).statistics
        r = multi_cyclic_run(z, kind="sr", threshold=NO_ALARM).statistics
        assert np.all(w >= 0.0)
        assert np.all(r > 0.0)


class TestMartingaleIdentity:
    def test_one_step_ratio_integrates_to_one(self, unit_shift_model, variance_model):
        # E_pre[exp(LLR)] = 1 is the identity that makes R_n - n a
        # martingale (by induction); verify it by quadrature, not MC
        from scipy import integrate, stats

        from quickdetect import llr

        for model in (unit_shift_model, variance_model):
            value, _ = integrate.quad(
                # evaluated in log space: exp(llr) alone overflows out where
                # the pre-change density is negligible
                lambda x: np.exp(
                    llr(model, x)
                    + stats.norm.logpdf(x, model.mu_pre, model.sigma_pre)
                ),
                -40,
                40,
                limit=200,
            )
            assert value == pytest.approx(1.0, abs=1e-9)

    def test_sr_minus_n_is_mean_zero(self, rng):
        # E_pre[R_n] = n; testable by direct simulation only while the
        # variance of R_n (which grows like e^{n I}) stays moderate, so use
        # small drifts and short horizons
        from quickdetect import GaussianChangeModel, llr

        cases = [
            (GaussianChangeModel(0.0, 1.0, 0.5, 1.0), 10),
            (GaussianChangeModel(0.0, 1.0, 0.3, 1.0), 25),
        ]
        for model, n in cases:
            reps = 100_000
            x = rng.normal(0.0, 1.0, size=(reps, n))
            ratios = np.exp(llr(model, x))
            r = np.zeros(reps)
            for j in range(n):
                r = (1.0 + r) * ratios[:, j]
            gap = r - n
            se = np.std(gap, ddof=1) / np.sqrt(reps)
            assert abs(np.mean(gap)) < 3.5 * se


class TestStepValidation:
    def test_increments_must_be_finite_and_1d(self):
        for runner in (run_detector, multi_cyclic_run):
            with pytest.raises(ValueError, match="finite"):
                runner([0.5, np.nan], kind="sr", threshold=1.0)
            with pytest.raises(ValueError, match="1-D"):
                runner(np.zeros((2, 2)), kind="cusum", threshold=1.0)

    def test_to_ratios_clamps(self):
        ratios = to_ratios([-1000.0, 0.0, 1000.0])
        assert np.all(np.isfinite(ratios))
        assert np.all(ratios > 0.0)
        assert ratios[1] == 1.0
        with pytest.raises(ValueError, match="finite"):
            to_ratios([np.nan])


class TestRunDetector:
    def test_alarm_at_crossing(self):
        trace = run_detector([0.4, 0.4, 0.4], kind="cusum", threshold=0.8)
        alarm = trace.first_alarm
        assert alarm is not None and alarm.stop_time == 2
        assert alarm.statistic_at_stop == pytest.approx(0.8)  # >= triggers

    def test_consumption_stops_at_alarm(self):
        trace = run_detector([1.0, 1.0, 1.0, 1.0], kind="cusum", threshold=1.5)
        assert trace.increments_consumed == 2

    def test_no_alarm_is_valid(self):
        trace = run_detector([0.1, -0.2, 0.1], kind="cusum", threshold=5.0)
        assert not trace.alarmed
        assert trace.first_alarm is None
        assert trace.increments_consumed == 3

    def test_trace_freezes_a_copy_of_the_callers_array(self):
        statistics = np.array([0.2, 0.9, 0.4])
        trace = DetectionTrace(kind="cusum", threshold=1.0, statistics=statistics, alarms=())
        statistics[0] = 7.0  # the caller's array stays writeable ...
        assert trace.statistics.tolist() == [0.2, 0.9, 0.4]  # ... and the trace keeps its own
        with pytest.raises(ValueError):
            trace.statistics[0] = 7.0

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            run_detector([], kind="cusum", threshold=1.0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="kind"):
            run_detector([1.0], kind="ewma", threshold=1.0)
        with pytest.raises(ValueError, match="threshold"):
            run_detector([1.0], kind="cusum", threshold=-1.0)

    def test_threshold_monotone_stop_times(self, rng):
        z = rng.normal(0.2, 1.0, size=2000)
        stops = []
        for h in (1.0, 2.0, 3.0, 4.0):
            trace = run_detector(z, kind="cusum", threshold=h)
            assert trace.alarmed
            stops.append(trace.first_alarm.stop_time)
        assert stops == sorted(stops)


class TestMultiCyclic:
    def test_restart_matches_fresh_detector(self):
        z = [2.0, 0.5, 0.7, 2.0, -1.0]
        trace = multi_cyclic_run(z, kind="cusum", threshold=1.5)
        # alarms at steps 1 and 4; after each, the statistic restarts from 0
        assert [a.global_time for a in trace.alarms] == [1, 4]
        np.testing.assert_allclose(trace.statistics, [2.0, 0.5, 1.2, 3.2, 0.0])
        assert [a.cycle_index for a in trace.alarms] == [1, 2]
        assert [a.stop_time for a in trace.alarms] == [1, 3]

    def test_consumes_whole_stream(self, rng):
        z = rng.normal(0.3, 1.0, size=300)
        trace = multi_cyclic_run(z, kind="cusum", threshold=2.0)
        assert trace.increments_consumed == 300

    def test_true_detection_after_change_point(self):
        z = [2.0, -1.0, -1.0, 2.0]
        trace = multi_cyclic_run(z, kind="cusum", threshold=1.5, change_point=2)
        # the step-1 alarm is false; the step-4 alarm is the true detection
        assert len(trace.alarms) == 2
        detection = trace.true_detection
        assert detection is not None and detection.global_time == 4
        assert trace.detection_delay == 2

    def test_no_change_point_means_no_detection(self):
        trace = multi_cyclic_run([2.0], kind="cusum", threshold=1.0)
        assert trace.true_detection is None
        assert trace.detection_delay is None

    def test_sr_cycles(self):
        # zero log increments are likelihood ratios of exactly 1
        trace = multi_cyclic_run([0.0] * 7, kind="sr", threshold=3.0)
        # R grows 1,2,3 -> alarm, restart: statistics are periodic
        np.testing.assert_allclose(
            trace.statistics, [1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0]
        )
        assert [a.global_time for a in trace.alarms] == [3, 6]


    @pytest.mark.parametrize("kind, threshold", [("cusum", 3.0), ("sr", 20.0)])
    def test_single_run_is_first_cycle(self, rng, kind, threshold):
        # random streams, some longer than a block, some without any alarm
        for _ in range(30):
            n = int(rng.integers(1, 800))
            z = rng.normal(rng.uniform(-0.5, 0.3), 1.0, n)
            single = run_detector(z, kind=kind, threshold=threshold)
            cyclic = multi_cyclic_run(z, kind=kind, threshold=threshold)
            first = cyclic.first_alarm
            cut = first.global_time if first else n
            np.testing.assert_array_equal(single.statistics, cyclic.statistics[:cut])
            assert single.first_alarm == first

    @pytest.mark.parametrize("kind, threshold", [("cusum", 4.0), ("sr", 50.0)])
    def test_restarts_match_scalar_recursion(self, rng, kind, threshold):
        z = rng.normal(0.05, 1.0, size=2000)
        statistic, expected, alarms = 0.0, [], []
        for step, increment in enumerate(z, start=1):
            if kind == "cusum":
                statistic = max(0.0, statistic + increment)
            else:
                statistic = (1.0 + statistic) * math.exp(increment)
            expected.append(statistic)
            if statistic >= threshold:
                alarms.append(step)
                statistic = 0.0
        trace = multi_cyclic_run(z, kind=kind, threshold=threshold)
        assert len(alarms) > 10
        assert [a.global_time for a in trace.alarms] == alarms
        np.testing.assert_allclose(trace.statistics, expected, rtol=1e-9, atol=1e-12)

    def test_sr_statistic_stays_finite(self):
        # an increment beyond float range saturates instead of becoming inf
        trace = multi_cyclic_run(np.array([0.0, 800.0, 0.0]), kind="sr", threshold=1e6)
        assert np.all(np.isfinite(trace.statistics))
        assert [a.global_time for a in trace.alarms] == [2]
        assert trace.statistics[2] == 1.0  # a fresh start after the alarm
        single = run_detector([0.0, 800.0], kind="sr", threshold=1e6)
        assert np.isfinite(single.first_alarm.statistic_at_stop)


def restart_loop(kind, state, z, threshold):
    """Oracle: one row's restart loop, a fresh 1-D kernel call after each alarm."""
    out = np.empty(z.size)
    alarms = []
    pos = 0
    while pos < z.size:
        path = _path(kind, state, z[pos:])
        hits = np.nonzero(path >= threshold)[0]
        end = z.size if hits.size == 0 else pos + int(hits[0]) + 1
        out[pos:end] = path[: end - pos]
        if hits.size == 0:
            return float(path[-1]), alarms, out
        alarms.append(end)
        state = 0.0
        pos = end
    return state, alarms, out


def mixed_rows(rng, rows, n):
    """Increment rows around zero, every third with a drift of 3 per step.

    The steep rows exceed the SR linear-arithmetic guard within the block,
    so an SR block over all rows mixes the linear and the log branch.
    """
    z = rng.normal(0.0, 1.0, size=(rows, n))
    z[::3] += 3.0
    return z


class TestBlockKernelsByRow:
    """Each row of a 2-D kernel call equals the 1-D call on that row, bit for bit."""

    @pytest.mark.parametrize("kernel", [_cusum_path, _sr_path])
    def test_path_rows(self, rng, kernel):
        z = mixed_rows(rng, 9, 256)
        state = rng.uniform(0.0, 5.0, 9)
        state[1] = 1e200  # an SR start above the linear guard
        path = kernel(state, z)
        for i in range(9):
            np.testing.assert_array_equal(path[i], kernel(state[i], z[i]))

    @pytest.mark.parametrize("kernel", [_cusum_path, _sr_path])
    def test_skipped_prefix_reads_as_a_fresh_start(self, rng, kernel):
        z = mixed_rows(rng, 9, 256)
        starts = np.array([0, 1, 5, 17, 100, 128, 200, 254, 255])
        skip = np.arange(256) < starts[:, None]
        path = kernel(np.zeros(9), z, skip)
        for i, start in enumerate(starts):
            np.testing.assert_array_equal(path[i, :start], 0.0)
            np.testing.assert_array_equal(path[i, start:], kernel(0.0, z[i, start:]))

    @pytest.mark.parametrize(
        "kind, threshold, drift", [("cusum", 3.0, 0.3), ("sr", 20.0, 0.0)]
    )
    def test_restart_loop_rows(self, rng, kind, threshold, drift):
        n = 256
        z = rng.normal(drift, 1.0, size=(40, n))
        z[::3] += 2.0  # steep rows: many alarms, SR rows in the log branch
        z[0, 0] = z[1, -1] = 50.0  # alarms at the first and the last column
        z[1, -2] = -50.0
        z[2, :] = -1.0  # no alarm at all
        state = rng.uniform(0.0, 1.0, 40)
        out = np.full(z.shape, np.nan)
        end, alarmed = _advance_with_resets(kind, state, z, threshold, out)
        expected = [restart_loop(kind, state[i], z[i], threshold) for i in range(40)]
        assert alarmed[0, 0] and alarmed[1, -1] and not alarmed[2].any()
        assert max(len(alarms) for _, alarms, _ in expected) > 5
        for i, (e_end, e_alarms, e_out) in enumerate(expected):
            assert end[i] == e_end, i
            assert list(np.flatnonzero(alarmed[i]) + 1) == e_alarms, i
            np.testing.assert_array_equal(out[i], e_out)
            one_end, one_alarmed = _advance_with_resets(kind, state[i], z[i], threshold)
            assert one_end == e_end
            np.testing.assert_array_equal(one_alarmed, alarmed[i])
        assert end[1] == 0.0  # a last-column alarm leaves a fresh start

    def test_degenerate_sr_rows_stay_integer(self):
        # ratio identically one: R_n = n exactly, from any integer start,
        # through restarts at different columns in different rows
        z = np.zeros((4, 20))
        state = np.array([0.0, 1.0, 2.0, 5.0])
        out = np.empty_like(z)
        end, alarmed = _advance_with_resets("sr", state, z, 7.0, out)
        for i, r0 in enumerate(state):
            expected = (r0 + np.arange(20.0)) % 7.0 + 1.0
            np.testing.assert_array_equal(out[i], expected)
            assert list(np.flatnonzero(alarmed[i]) + 1) == [
                t for t in range(1, 21) if expected[t - 1] == 7.0
            ]
            assert end[i] == (0.0 if expected[-1] == 7.0 else expected[-1])


class TestAlarmRecord:
    def test_validation(self):
        with pytest.raises(ValueError, match="times"):
            AlarmRecord(0, 0, 1.0, 1.0, 1)
        with pytest.raises(ValueError, match="threshold"):
            AlarmRecord(1, 1, 0.5, 1.0, 1)
        with pytest.raises(ValueError, match="cycle"):
            AlarmRecord(1, 1, 1.0, 1.0, 0)
