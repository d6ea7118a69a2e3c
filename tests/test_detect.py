"""Detector recursions against brute-force definitions, and run mechanics."""

import math

import numpy as np
import pytest

from quickdetect import DetectionTrace, multi_cyclic_run, run_detector, to_ratios
from quickdetect.detect import (
    _advance_with_resets,
    _cusum_path,
    _path,
    _sr_path,
    _step_with_resets,
)

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
        # martingale (by induction); verify it by quadrature, not MC: a
        # 200-node Gauss-Legendre rule on [-40, 40] resolves both integrands
        # to about 1e-14
        from quickdetect import llr

        nodes, weights = np.polynomial.legendre.leggauss(200)
        x = 40.0 * nodes
        for model in (unit_shift_model, variance_model):
            # evaluated in log space: exp(llr) alone overflows out where
            # the pre-change density is negligible
            log_pdf = -0.5 * ((x - model.mu_pre) / model.sigma_pre) ** 2 - math.log(
                model.sigma_pre * math.sqrt(2.0 * math.pi)
            )
            value = 40.0 * np.sum(weights * np.exp(llr(model, x) + log_pdf))
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
        assert trace.alarms.tolist() == [2]
        assert trace.statistics[-1] == pytest.approx(0.8)  # >= triggers

    def test_consumption_stops_at_alarm(self):
        trace = run_detector([1.0, 1.0, 1.0, 1.0], kind="cusum", threshold=1.5)
        assert trace.increments_consumed == 2

    def test_no_alarm_is_valid(self):
        trace = run_detector([0.1, -0.2, 0.1], kind="cusum", threshold=5.0)
        assert trace.alarms.size == 0
        assert trace.increments_consumed == 3

    def test_trace_freezes_a_copy_of_the_callers_array(self):
        statistics = np.array([0.2, 0.9, 0.4])
        trace = DetectionTrace(kind="cusum", threshold=1.0, statistics=statistics)
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
            assert trace.alarms.size == 1
            stops.append(int(trace.alarms[0]))
        assert stops == sorted(stops)


class TestMultiCyclic:
    def test_restart_matches_fresh_detector(self):
        z = [2.0, 0.5, 0.7, 2.0, -1.0]
        trace = multi_cyclic_run(z, kind="cusum", threshold=1.5)
        # alarms at steps 1 and 4; after each, the statistic restarts from 0
        assert trace.alarms.tolist() == [1, 4]
        np.testing.assert_allclose(trace.statistics, [2.0, 0.5, 1.2, 3.2, 0.0])
        # cycle lengths: steps from each restart to its alarm
        assert np.diff(trace.alarms, prepend=0).tolist() == [1, 3]

    def test_consumes_whole_stream(self, rng):
        z = rng.normal(0.3, 1.0, size=300)
        trace = multi_cyclic_run(z, kind="cusum", threshold=2.0)
        assert trace.increments_consumed == 300

    def test_sr_cycles(self):
        # zero log increments are likelihood ratios of exactly 1
        trace = multi_cyclic_run([0.0] * 7, kind="sr", threshold=3.0)
        # R grows 1,2,3 -> alarm, restart: statistics are periodic
        np.testing.assert_allclose(
            trace.statistics, [1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0]
        )
        assert trace.alarms.tolist() == [3, 6]

    @pytest.mark.parametrize("kind, threshold", [("cusum", 3.0), ("sr", 20.0)])
    def test_single_run_is_first_cycle(self, rng, kind, threshold):
        # random streams, some longer than a block, some without any alarm
        for _ in range(30):
            n = int(rng.integers(1, 800))
            z = rng.normal(rng.uniform(-0.5, 0.3), 1.0, n)
            single = run_detector(z, kind=kind, threshold=threshold)
            cyclic = multi_cyclic_run(z, kind=kind, threshold=threshold)
            cut = cyclic.alarms[0] if cyclic.alarms.size else n
            np.testing.assert_array_equal(single.statistics, cyclic.statistics[:cut])
            assert single.alarms.tolist() == cyclic.alarms[:1].tolist()

    @pytest.mark.parametrize(
        "kind, threshold, tie",
        [
            pytest.param("cusum", 4.0, (), id="cusum-4.0"),
            pytest.param("sr", 50.0, (), id="sr-50.0"),
            # the stream opens with a statistic exactly at the threshold
            pytest.param("cusum", 2.0, (1.0, 1.0), id="cusum-2.0-tie"),
            pytest.param("sr", 3.0, (0.0, 0.0, 0.0), id="sr-3.0-tie"),
        ],
    )
    def test_restarts_match_scalar_recursion(self, rng, kind, threshold, tie):
        z = np.concatenate([tie, rng.normal(0.05, 1.0, size=2000)])
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
        assert trace.alarms.tolist() == alarms
        np.testing.assert_allclose(trace.statistics, expected, rtol=1e-9, atol=1e-12)
        if tie:
            assert alarms[0] == len(tie) and trace.statistics[len(tie) - 1] == threshold
        single = run_detector(z, kind=kind, threshold=threshold)
        assert single.alarms.tolist() == alarms[:1]

    def test_sr_statistic_stays_finite(self):
        # an increment beyond float range saturates instead of becoming inf
        trace = multi_cyclic_run(np.array([0.0, 800.0, 0.0]), kind="sr", threshold=1e6)
        assert np.all(np.isfinite(trace.statistics))
        assert trace.alarms.tolist() == [2]
        assert trace.statistics[2] == 1.0  # a fresh start after the alarm
        single = run_detector([0.0, 800.0], kind="sr", threshold=1e6)
        assert single.alarms.tolist() == [2]
        assert np.isfinite(single.statistics[-1])


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
    """Each row of a 2-D kernel call equals the 1-D call on that row, bit for bit;
    the restart loop runs one row."""

    @pytest.mark.parametrize("kernel", [_cusum_path, _sr_path])
    def test_path_rows(self, rng, kernel):
        z = mixed_rows(rng, 9, 256)
        state = rng.uniform(0.0, 5.0, 9)
        state[1] = 1e200  # an SR start above the linear guard
        path = kernel(state, z)
        for i in range(9):
            np.testing.assert_array_equal(path[i], kernel(state[i], z[i]))

    @pytest.mark.parametrize(
        "kind, threshold, drift", [("cusum", 3.0, 0.3), ("sr", 20.0, 0.0)]
    )
    def test_restart_loop_rows(self, rng, kind, threshold, drift):
        z, state = restart_rows(rng, drift)
        expected = [restart_loop(kind, state[i], z[i], threshold) for i in range(len(z))]
        assert expected[0][1][0] == 1 and expected[1][1][-1] == z.shape[1]
        assert not expected[2][1]
        assert max(len(alarms) for _, alarms, _ in expected) > 5
        for i, (e_end, e_alarms, e_out) in enumerate(expected):
            out = np.full(z.shape[1], np.nan)
            end, alarmed = _advance_with_resets(kind, state[i], z[i], threshold, out)
            assert end == e_end, i
            assert list(np.flatnonzero(alarmed) + 1) == e_alarms, i
            np.testing.assert_array_equal(out, e_out)
        assert expected[1][0] == 0.0  # a last-column alarm leaves a fresh start

    def test_degenerate_sr_rows_stay_integer(self):
        # ratio identically one: R_n = n exactly, from any integer start,
        # through restarts at different columns in different rows, in the
        # restart loop and in the step walk alike
        z = np.zeros((4, 20))
        state = np.array([0.0, 1.0, 2.0, 5.0])
        walked = state.copy()
        _step_with_resets("sr", walked, z, 7.0)
        for i, r0 in enumerate(state):
            expected = (r0 + np.arange(20.0)) % 7.0 + 1.0
            out = np.empty(20)
            end, alarmed = _advance_with_resets("sr", r0, z[i], 7.0, out)
            np.testing.assert_array_equal(out, expected)
            assert list(np.flatnonzero(alarmed) + 1) == [
                t for t in range(1, 21) if expected[t - 1] == 7.0
            ]
            assert end == walked[i] == (0.0 if expected[-1] == 7.0 else expected[-1])


def restart_rows(rng, drift, rows=40, n=256):
    """Increment rows for the restart loops, with a start state per row.

    Every third row is steep (many alarms, SR rows in the log branch); row 0
    alarms at its first column, row 1 at its last, and row 2 never.
    """
    z = rng.normal(drift, 1.0, size=(rows, n))
    z[::3] += 2.0
    z[0, 0] = z[1, -1] = 50.0
    z[1, -2] = -50.0
    z[2, :] = -1.0
    return z, rng.uniform(0.0, 1.0, rows)


class TestStepWalk:
    """The column-at-a-time walk ends where the one-row restart loop does."""

    @pytest.mark.parametrize(
        "kind, threshold, drift", [("cusum", 3.0, 0.3), ("sr", 20.0, 0.0)]
    )
    def test_end_states_match_the_restart_loop(self, rng, kind, threshold, drift):
        z, state = restart_rows(rng, drift)
        walked = state.copy()
        _step_with_resets(kind, walked, z, threshold)
        for i in range(len(z)):
            end, _ = _advance_with_resets(kind, state[i], z[i], threshold)
            assert (walked[i] == 0.0) == (end == 0.0), i
            assert abs(walked[i] - end) <= 1e-12 * abs(end), i
        assert walked[1] == 0.0

    def test_an_overflowing_sr_ratio_alarms_and_restarts(self):
        # exp(800) is beyond float range; no warning escapes (the suite
        # turns warnings into errors)
        for z, end in (([0.0, 800.0], 0.0), ([0.0, 800.0, 0.0], 1.0)):
            state = np.zeros(1)
            _step_with_resets("sr", state, np.array([z]), 1e6)
            assert state[0] == end
