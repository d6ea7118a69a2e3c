"""Tests of the benchmark's own parts: references, span arithmetic, checks.

Run from the root of a source checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
UNIT = workloads.UNIT


def _unit_llr(regime):
    return workloads._gaussian_increments(UNIT, regime)


def test_sr_pre_change_mean_is_n():
    """``R_n - n`` is a zero-mean martingale before the change."""
    mu0, sd0, mu1, sd1 = 0.0, 1.0, 0.25, 1.0
    rng = np.random.default_rng(7)
    reps, steps = 40_000, 20
    z = reference.gaussian_llr(rng.normal(mu0, sd0, (reps, steps)), mu0, sd0, mu1, sd1)
    r = np.zeros(reps)
    for n in range(1, steps + 1):
        r = reference.step("sr", r, z[:, n - 1])
        mean, se = reference.mean_se(r)
        assert abs(mean - n) <= 4.0 * se, (n, mean, se)


@pytest.mark.parametrize("h", [1.0, 2.0, 3.0])
def test_cusum_arl_at_least_exp_h(h):
    times, capped = reference.stopping_times("cusum", h, _unit_llr("pre"), 4000, 10_000, np.random.default_rng(3))
    mean, se = reference.mean_se(times)
    assert capped == 0
    assert mean >= math.exp(h) - 3.0 * se


@pytest.mark.parametrize("a", [5.0, 20.0, 60.0])
def test_sr_arl_at_least_a(a):
    times, _ = reference.stopping_times("sr", a, _unit_llr("pre"), 4000, 10_000, np.random.default_rng(4))
    mean, se = reference.mean_se(times)
    assert mean >= a - 3.0 * se


def test_stopping_times_match_the_scalar_recursion():
    rng = np.random.default_rng(11)
    z = rng.normal(-0.5, 1.0, (50, 400))
    for kind, threshold in (("cusum", 3.0), ("sr", 30.0)):
        times, capped = reference.stopping_times(kind, threshold, lambda _rng, shape: z[:, : shape[1]], 50, 256, rng)
        for row, t in zip(z, times):
            _, alarms = reference.multi_cyclic(kind, row[:256], threshold)
            assert t == (alarms[0] if alarms else 256)
        assert capped == sum(1 for row in z if not reference.multi_cyclic(kind, row[:256], threshold)[1])


def test_zeta_matches_siegmund_for_a_small_shift():
    zeta, varkappa = reference.equal_variance_constants(0.25)
    assert math.isclose(zeta, math.exp(-0.583 * 0.25), rel_tol=1e-3)
    assert varkappa > 0.0


def test_score_design_is_the_llr():
    q, delta = 0.9, 0.3
    x = np.linspace(-4.0, 4.0, 17)
    c1, c2, c3 = reference.score_design(q, delta)
    llr = reference.gaussian_llr(x, 0.0, 1.0, delta, 1.0 / q)
    np.testing.assert_allclose(c1 * x + c2 * x * x - c3, llr, rtol=1e-12, atol=1e-12)


def _spans(rows):
    names = sorted({r[0] for r in rows})
    return tracing.Spans(
        names=names,
        name_id=[names.index(r[0]) for r in rows],
        parent=[r[1] for r in rows],
        start=[r[2] for r in rows],
        end=[r[3] for r in rows],
        count=[0] * len(rows),
    )


def test_self_time_subtracts_the_union_of_children():
    spans = _spans(
        [
            ("cli.main", -1, 0.0, 10.0),
            ("a", 0, 1.0, 4.0),
            ("b", 0, 3.0, 6.0),  # overlaps a
            ("c", 1, 2.0, 3.0),  # child of a
            ("d", 0, 9.0, 12.0),  # runs past its parent
        ]
    )
    np.testing.assert_allclose(spans.self_time(), [4.0, 2.0, 3.0, 1.0, 3.0])
    assert spans.inside("cli.main").tolist() == [False, True, True, True, True]
    assert spans.inside("a").tolist() == [False, False, False, True, False]


def test_arl_evaluations_count_generators_per_replication():
    rows = [("cli.main", -1, 0.0, 10.0), ("calib.solve_threshold", 0, 1.0, 9.0)]
    rows += [("rand.substream", 1, 1.0 + i, 1.5 + i) for i in range(6)]
    rows += [("rand.substream", 0, 9.5, 9.6)]  # outside the solve
    metrics = tracing.layer_metrics(_spans(rows), replications=3)
    assert metrics["calib.arl_evaluations"] == 2
    assert metrics["rand.substreams"] == 7
    assert metrics["cli.self_s"] == pytest.approx(10.0 - 8.0 - 0.1)
    assert metrics["calib.kernel_self_s"] == pytest.approx(8.0 - 3.0)


def _program():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from quickdetect import cli

    return cli


def _run(args, out: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert _program().main([*args, "--out", str(out)]) == 0


def _report_path(out: Path, command: str) -> Path:
    (path,) = out.glob(f"{command}-*.report.json")
    return path


def _alter(path: Path, section: str, name: str, change) -> None:
    report = json.loads(path.read_text())
    for entry in report["sections"][section]:
        if entry["name"] == name:
            entry["value"] = change(entry["value"])
    path.write_text(json.dumps(report))


def test_calibration_check_catches_a_threshold_off_by_ten_percent(tmp_path):
    replications = 400
    args = [
        "calibrate", "--mode", "exact", "--kind", "cusum", *workloads._model_flags(UNIT),
        "--gamma", "100", "--replications", str(replications), "--seed", "5",
    ]
    _run(args, tmp_path)
    path = _report_path(tmp_path, "calibrate")

    def problems():
        entries = workloads._section(json.loads(path.read_text()), "cusum")
        return workloads.check_calibration(UNIT, 100.0, replications, 5, entries, "cusum")

    assert problems() == []
    _alter(path, "cusum", "threshold", lambda h: 1.1 * h)
    assert any("reference ARL" in p for p in problems())


@pytest.fixture(scope="module")
def short_series(tmp_path_factory):
    """A 3000-observation series with a one-sd mean shift at 1200, and the
    program's outputs on it."""
    where = tmp_path_factory.mktemp("surveil")
    rng = np.random.default_rng(2)
    means = np.where(np.arange(3000) >= 1200, workloads.HST[0] + workloads.HST[1], workloads.HST[0])
    closes = 100.0 + np.concatenate(([0.0], np.cumsum(rng.normal(means, workloads.HST[1]))))
    csv_path = workloads.write_closes(where / "closes.csv", closes)
    _run(workloads.detect_args(csv_path, 1200), where / "detect")
    _run(["segment", "--input", str(csv_path), "--seed", "2"], where / "segment")
    return where, np.diff(closes)


def test_detect_check_catches_an_alarm_shifted_by_one_step(short_series, tmp_path):
    where, differences = short_series
    assert workloads.check_detect(where / "detect", differences, 1200) == []
    altered = tmp_path / "detect"
    altered.mkdir()
    for path in (where / "detect").iterdir():
        (altered / path.name).write_bytes(path.read_bytes())
    _alter(_report_path(altered, "detect"), "cusum", "alarm-1-step", lambda step: step + 1)
    assert any("alarms differ" in p for p in workloads.check_detect(altered, differences, 1200))


def test_detect_check_catches_a_changed_statistic(short_series, tmp_path):
    where, differences = short_series
    altered = tmp_path / "detect"
    altered.mkdir()
    for path in (where / "detect").iterdir():
        text = path.read_text()
        if path.name.endswith(".sr-trace.csv"):
            lines = text.splitlines()
            step, date, value, alarm = lines[10].split(",")
            lines[10] = ",".join([step, date, repr(float(value) * (1.0 + 1e-6)), alarm])
            text = "\n".join(lines) + "\n"
        (altered / path.name).write_text(text)
    assert any("statistics differ" in p for p in workloads.check_detect(altered, differences, 1200))


def _segment_report(where: Path) -> dict:
    return json.loads(_report_path(where / "segment", "segment").read_text())


def _with_change_points(report: dict, change_points: list[int]) -> dict:
    entries = [e for e in report["sections"]["estimate"] if not e["name"].startswith("change-point")]
    entries.append({"name": "change-points", "value": len(change_points)})
    entries += [{"name": f"change-point-{i}", "value": c} for i, c in enumerate(change_points, start=1)]
    return {**report, "sections": {**report["sections"], "estimate": entries}}


def test_segment_check_needs_a_change_point_near_each_break(short_series):
    where, differences = short_series
    report = _segment_report(where)
    assert workloads.check_segment(report, differences, [1200]) == []
    far = [1200 + 2 * workloads.SURVEIL_WINDOW]
    assert any("no change point" in p for p in workloads.check_segment(report, differences, far))


def test_segment_check_catches_a_spurious_change_point(short_series):
    where, differences = short_series
    report = _segment_report(where)
    estimate = workloads._section(report, "estimate")
    found = [estimate[f"change-point-{i}"]["value"] for i in range(1, estimate["change-points"]["value"] + 1)]
    spurious = _with_change_points(report, sorted([*found, 2500]))
    assert any("not where max |Y|" in p for p in workloads.check_segment(spurious, differences, [1200]))


def test_segment_check_bounds_the_number_of_change_points(short_series):
    where, differences = short_series
    many = _with_change_points(_segment_report(where), list(range(100, 2901, 100)))
    problems = workloads.check_segment(many, differences, [1200])
    assert any("change points for 1 planted breaks" in p for p in problems)
