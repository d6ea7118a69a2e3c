"""The three benchmark workloads: their inputs, commands and output checks.

Each workload is built from the benchmark seed alone.  Its commands are the
``quickdetect`` argument lists one pass runs, in order; ``check`` reads the
reports a pass wrote and returns, per command, the problems found by
comparing them with :mod:`reference` computations and with properties the
method must have.  An empty list means the command's outputs are right.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference

#: two-sided agreement between a program estimate and a reference estimate,
#: in combined standard errors; see README.md for why it is 4 and not 3
Z_AGREE = 4.0
#: one-sided bounds the method guarantees (martingale bounds, STADD <= SADD)
Z_BOUND = 3.0
#: the paper's claim, SR's stationary delay no worse than CUSUM's
Z_CLAIM = 2.0
RELATIVE_TOLERANCE = 0.02  # the CLI's default bisection tolerance

# calibrate-hst: the HST change model of acceptance criterion 9
HST = (-0.0029, 0.2266, 0.0199, 0.2306)
HST_GAMMA = 1000.0
HST_REPLICATIONS = 400
# simulate-unit: N(0,1) -> N(1,1), the stationary comparison of criterion 6
UNIT = (0.0, 1.0, 1.0, 1.0)
UNIT_GAMMA = 100.0
UNIT_NU = 1000
UNIT_REPLICATIONS = 500
#: reference replications per estimate (unrelated seed, same cap)
REFERENCE_REPLICATIONS = 10_000
# surveil-long: one long daily-close series with planted mean shifts
SURVEIL_OBSERVATIONS = 60_000
SURVEIL_BREAKS = 3
SURVEIL_SHIFT = HST[2] - HST[0]  # the HST change in mean, 0.1 pre-change sd
#: a planted break must have a change point this close; see README.md
SURVEIL_WINDOW = 6000
#: more change points than this is over-segmentation
SURVEIL_MAX_CHANGE_POINTS = 3 * SURVEIL_BREAKS
SURVEIL_MIN_SEGMENT = 30  # the CLI default
#: the HST score design that calibrate-hst calibrates
SURVEIL_Q = HST[1] / HST[3]
SURVEIL_DELTA = (HST[2] - HST[0]) / HST[1]
#: medians of the thresholds calibrate-hst reports on seeds 1-10 (gamma =
#: 1000), to three figures; see README.md
SURVEIL_THRESHOLD_H = 1.97
SURVEIL_THRESHOLD_A = 917.0


@dataclass
class Workload:
    name: str
    commands: list[tuple[str, list[str]]]
    check: Callable[[dict[str, Path]], dict[str, list[str]]]
    #: Monte Carlo replications of each command (0: no Monte Carlo)
    replications: int = 0
    #: how the inputs were made, for the run's printout
    inputs: dict = field(default_factory=dict)


def _model_flags(model) -> list[str]:
    mu0, sd0, mu1, sd1 = model
    return ["--mu-pre", repr(mu0), "--sigma-pre", repr(sd0), "--mu-post", repr(mu1), "--sigma-post", repr(sd1)]


def _report(out: Path, command: str) -> dict:
    (path,) = out.glob(f"{command}-*.report.json")
    return json.loads(path.read_text())


def _section(report: dict, title: str) -> dict[str, dict]:
    return {entry["name"]: entry for entry in report["sections"][title]}


def _reference_rng(seed: int, what: str) -> np.random.Generator:
    # keyed apart from the program's (seed, stream, replication) substreams
    return np.random.default_rng([0x5EED, seed, *what.encode()])


def _gaussian_increments(model, regime: str):
    mu0, sd0, mu1, sd1 = model
    mu, sd = (mu0, sd0) if regime == "pre" else (mu1, sd1)

    def draw(rng, shape):
        return reference.gaussian_llr(rng.normal(mu, sd, shape), mu0, sd0, mu1, sd1)

    return draw


def reference_estimate(model, kind, threshold, regime, gamma, seed):
    """Reference (mean, se, cap hits) of the stopping time at ``threshold``."""
    times, capped = reference.stopping_times(
        kind,
        threshold,
        _gaussian_increments(model, regime),
        REFERENCE_REPLICATIONS,
        int(math.ceil(100.0 * gamma)),
        _reference_rng(seed, f"{kind}-{regime}"),
    )
    mean, se = reference.mean_se(times)
    return mean, se, capped


def check_calibration(model, gamma, replications, seed, entries: dict, kind: str) -> list[str]:
    """ARL checks shared by ``calibrate`` and ``simulate`` reports."""
    problems = []
    threshold = entries["threshold"]["value"]
    arl = entries["monte-carlo-arl"]["value"]
    se = entries["monte-carlo-arl"]["std_error"]
    if abs(arl - gamma) > RELATIVE_TOLERANCE * gamma:
        problems.append(f"{kind}: ARL {arl} not within {RELATIVE_TOLERANCE:.0%} of gamma {gamma}")
    # simulate reports no cap hits; its threshold solve rejects more than 1%
    cap_hits = entries.get("cap-hits", {}).get("value", 0)
    if cap_hits > 0.01 * replications:
        problems.append(f"{kind}: {cap_hits} of {replications} runs hit the cap")
    ref, ref_se, _ = reference_estimate(model, kind, threshold, "pre", gamma, seed)
    allowed = RELATIVE_TOLERANCE * gamma + Z_AGREE * math.hypot(se, ref_se)
    if abs(ref - gamma) > allowed:
        problems.append(
            f"{kind}: reference ARL {ref:.2f} (se {ref_se:.2f}) at threshold {threshold} "
            f"is {abs(ref - gamma):.2f} from gamma, allowed {allowed:.2f}"
        )
    bound = math.exp(threshold) if kind == "cusum" else threshold
    if arl < bound - Z_BOUND * se:
        problems.append(f"{kind}: ARL {arl} below the martingale bound {bound}")
    return problems


def _calibrate_hst(seed: int, work: Path) -> Workload:
    args = [
        "calibrate", "--mode", "score", "--kind", "both", *_model_flags(HST),
        "--gamma", repr(HST_GAMMA), "--replications", str(HST_REPLICATIONS),
        "--seed", str(seed),
    ]

    def check(outs: dict[str, Path]) -> dict[str, list[str]]:
        report = _report(outs["calibrate"], "calibrate")
        problems = []
        for kind in ("cusum", "sr"):
            entries = _section(report, kind)
            problems += check_calibration(HST, HST_GAMMA, HST_REPLICATIONS, seed, entries, kind)
        return {"calibrate": problems}

    return Workload(
        "calibrate-hst", [("calibrate", args)], check, HST_REPLICATIONS,
        {"model": HST, "gamma": HST_GAMMA, "replications": HST_REPLICATIONS},
    )


def _simulate_unit(seed: int, work: Path) -> Workload:
    args = [
        "simulate", "--mode", "exact", "--kind", "both", *_model_flags(UNIT),
        "--gamma", repr(UNIT_GAMMA), "--nu", str(UNIT_NU),
        "--replications", str(UNIT_REPLICATIONS), "--seed", str(seed),
    ]

    def check(outs: dict[str, Path]) -> dict[str, list[str]]:
        report = _report(outs["simulate"], "simulate")
        problems = []
        constants = _section(report, "constants")
        zeta, varkappa = reference.equal_variance_constants(UNIT[2] - UNIT[0], UNIT[1])
        for name, want in (("zeta", zeta), ("varkappa", varkappa)):
            got = constants[name]["value"]
            if not math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0):
                problems.append(f"{name} {got!r} differs from the series value {want!r}")
        stadd = {}
        for kind in ("cusum", "sr"):
            entries = _section(report, kind)
            problems += check_calibration(UNIT, UNIT_GAMMA, UNIT_REPLICATIONS, seed, entries, kind)
            threshold = entries["threshold"]["value"]
            sadd = entries["monte-carlo-sadd"]
            ref, ref_se, _ = reference_estimate(UNIT, kind, threshold, "post", UNIT_GAMMA, seed)
            allowed = Z_AGREE * math.hypot(sadd["std_error"], ref_se)
            if abs(sadd["value"] - ref) > allowed:
                problems.append(
                    f"{kind}: SADD {sadd['value']} vs reference {ref:.4f}, allowed {allowed:.4f}"
                )
            stadd[kind] = entries["monte-carlo-stadd"]
            combined = math.hypot(stadd[kind]["std_error"], sadd["std_error"])
            if stadd[kind]["value"] > sadd["value"] + Z_BOUND * combined:
                problems.append(f"{kind}: STADD {stadd[kind]['value']} above SADD {sadd['value']}")
        combined = math.hypot(stadd["sr"]["std_error"], stadd["cusum"]["std_error"])
        if stadd["sr"]["value"] > stadd["cusum"]["value"] + Z_CLAIM * combined:
            problems.append(
                f"SR STADD {stadd['sr']['value']} exceeds CUSUM STADD "
                f"{stadd['cusum']['value']} by more than {Z_CLAIM} combined SE"
            )
        return {"simulate": problems}

    return Workload(
        "simulate-unit", [("simulate", args)], check, UNIT_REPLICATIONS,
        {"model": UNIT, "gamma": UNIT_GAMMA, "nu": UNIT_NU, "replications": UNIT_REPLICATIONS},
    )


def write_closes(path: Path, closes: np.ndarray) -> Path:
    """``Date,Close`` CSV, one business day per close from 1800-01-01 on.

    Closes are written with ``repr`` so that they read back bit for bit.
    """
    days = []
    day = dt.date(1800, 1, 1)
    while len(days) < closes.size:
        if day.weekday() < 5:
            days.append(day.isoformat())
        day += dt.timedelta(days=1)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["Date", "Close"])
        writer.writerows(zip(days, map(repr, closes.tolist())))
    return path


def surveil_series(seed: int) -> tuple[np.ndarray, list[int]]:
    """Daily closes with mean shifts planted at known difference indices.

    Differences are ``N(mu, 0.2266^2)``; ``mu`` starts at the HST pre-change
    mean and rises by :data:`SURVEIL_SHIFT` at each break.  Breaks are evenly
    spaced and shifted together by up to a quarter of the spacing, so the
    stretches at each mean have the same total length on every seed (it sets
    how many alarms ``detect`` reports, and with it the report's size).
    Returns the closes and the breaks (a break ``b`` means differences
    ``b, b+1, ...`` have the new mean).
    """
    rng = np.random.default_rng([seed, 0x5A17])
    n = SURVEIL_OBSERVATIONS
    spacing = n // (SURVEIL_BREAKS + 1)
    offset = int(rng.integers(-spacing // 4, spacing // 4 + 1))
    breaks = [spacing * (i + 1) + offset for i in range(SURVEIL_BREAKS)]
    means = np.full(n, HST[0])
    for b in breaks:
        means[b:] += SURVEIL_SHIFT
    steps = rng.normal(means, HST[1])
    path = np.concatenate(([0.0], np.cumsum(steps)))
    closes = 100.0 + (path - min(0.0, float(path.min())))
    return closes, breaks


def detect_args(csv_path: Path, train_end: int) -> list[str]:
    """``detect`` with the HST score design, standardised by the moments of
    the first ``train_end`` differences, and both calibrated thresholds."""
    return [
        "detect", "--input", str(csv_path), "--multi-cyclic", "--mode", "score", "--kind", "both",
        "--q", repr(SURVEIL_Q), "--delta", repr(SURVEIL_DELTA), "--train-end", str(train_end),
        "--threshold-h", repr(SURVEIL_THRESHOLD_H), "--threshold-a", repr(SURVEIL_THRESHOLD_A),
    ]


def _surveil_long(seed: int, work: Path) -> Workload:
    closes, breaks = surveil_series(seed)
    work.mkdir(parents=True, exist_ok=True)
    csv_path = write_closes(work / "closes.csv", closes)
    segment = ["segment", "--input", str(csv_path), "--seed", str(seed)]
    detect = [*detect_args(csv_path, breaks[0]), "--seed", str(seed)]
    differences = np.diff(closes)

    def check(outs: dict[str, Path]) -> dict[str, list[str]]:
        return {
            "segment": check_segment(_report(outs["segment"], "segment"), differences, breaks),
            "detect": check_detect(outs["detect"], differences, breaks[0]),
        }

    return Workload(
        "surveil-long", [("segment", segment), ("detect", detect)], check, 0,
        {"observations": int(differences.size), "breaks": breaks, "shift": SURVEIL_SHIFT,
         "q": SURVEIL_Q, "delta": SURVEIL_DELTA,
         "threshold_h": SURVEIL_THRESHOLD_H, "threshold_a": SURVEIL_THRESHOLD_A},
    )


def split_problems(differences: np.ndarray, change_points: list[int]) -> list[str]:
    """Replay the binary segmentation that produced ``change_points``.

    In every segment the recursion split, the split lies where the
    reference's ``max |Y|`` over that segment lies (equal to 1e-9 relative,
    so that exact ties cannot decide).  A change point that the recursion
    could not have made is reported.
    """
    problems = []

    def visit(lo: int, hi: int) -> None:
        inside = [c for c in change_points if lo < c < hi]
        if not inside:
            return
        y = np.abs(reference.mean_split_statistic(differences[lo:hi]))
        split = max(inside, key=lambda c: y[c - lo - 1])
        if y[split - lo - 1] < y.max() * (1.0 - 1e-9):
            problems.append(f"change point {split} is not where max |Y| over [{lo}, {hi}) lies")
            return
        visit(lo, split)
        visit(split, hi)

    visit(0, differences.size)
    return problems


def check_segment(report: dict, differences: np.ndarray, breaks: list[int]) -> list[str]:
    problems = []
    estimate = _section(report, "estimate")
    found = [estimate[f"change-point-{i}"]["value"] for i in range(1, estimate["change-points"]["value"] + 1)]
    y = np.abs(reference.mean_split_statistic(differences))
    best = estimate["best-split"]["value"]
    if not (1 <= best < differences.size and y[best - 1] >= y.max() * (1.0 - 1e-9)):
        problems.append(f"best split {best} is not where the reference's max |Y| lies")
    if not math.isclose(estimate["max-abs-statistic"]["value"], y.max(), rel_tol=1e-9, abs_tol=0.0):
        problems.append(f"max |Y| {estimate['max-abs-statistic']['value']!r} differs from the reference's {y.max()!r}")
    if len(found) > SURVEIL_MAX_CHANGE_POINTS:
        problems.append(f"{len(found)} change points for {len(breaks)} planted breaks")
    for b in breaks:
        if not any(abs(cp - b) <= SURVEIL_WINDOW for cp in found):
            problems.append(f"planted break {b} has no change point within {SURVEIL_WINDOW}")
    problems += split_problems(differences, found)
    for name, entry in _section(report, "segments").items():
        if name.endswith("-count") and entry["value"] < SURVEIL_MIN_SEGMENT:
            problems.append(f"{name} is {entry['value']}, below {SURVEIL_MIN_SEGMENT}")
    return problems


def check_detect(out: Path, differences: np.ndarray, train_end: int) -> list[str]:
    problems = []
    report = _report(out, "detect")
    scores = reference.design_scores(differences, train_end, SURVEIL_Q, SURVEIL_DELTA)
    for kind, threshold in (("cusum", SURVEIL_THRESHOLD_H), ("sr", SURVEIL_THRESHOLD_A)):
        want_stats, want_alarms = reference.multi_cyclic(kind, scores, threshold)
        entries = _section(report, kind)
        got_alarms = [entries[f"alarm-{i}-step"]["value"] for i in range(1, entries["alarms"]["value"] + 1)]
        if got_alarms != want_alarms:
            problems.append(f"{kind}: {len(got_alarms)} alarms differ from the reference's {len(want_alarms)}")
        (trace_path,) = out.glob(f"detect-*.{kind}-trace.csv")
        with trace_path.open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        if len(rows) != differences.size:
            problems.append(f"{kind}: {len(rows)} trace rows for {differences.size} observations")
            continue
        got = np.array([float(r["statistic"]) for r in rows])
        if not np.allclose(got, want_stats, rtol=1e-9, atol=0.0):
            problems.append(f"{kind}: trace statistics differ from the reference beyond 1e-9")
        flagged = [int(r["step"]) for r in rows if r["alarm"] == "1"]
        if flagged != want_alarms:
            problems.append(f"{kind}: trace alarm flags differ from the reference")
    return problems


WORKLOADS = {
    "calibrate-hst": _calibrate_hst,
    "simulate-unit": _simulate_unit,
    "surveil-long": _surveil_long,
}


def build(name: str, seed: int, work: Path) -> Workload:
    return WORKLOADS[name](seed, work)
