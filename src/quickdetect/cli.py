"""Command-line pipeline around the library.

Subcommands::

    returns     load a price CSV and write the difference series
    diagnose    moments, autocorrelation, histogram, Q-Q and lag pairs
    segment     offline change-point segmentation of the differences
    constants   renewal constants for a change model
    calibrate   Monte Carlo thresholds for a target false-alarm level
    detect      run detectors over a real series at given thresholds
    simulate    calibrated SR-vs-CUSUM comparison on synthetic data

Flags always override values from an optional ``--config`` JSON file.  Every
run derives all randomness from the single ``--seed``.  Reports are written
twice: a human-readable text file and a machine-readable JSON file, plus CSV
tables for traces and series.  File names contain the command and a hash of
the effective configuration, and report bodies contain no timestamps, so a
rerun with the same inputs reproduces identical bytes.

Exit codes: 0 success, 1 runtime failure (bad data, failed estimation),
2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from datetime import date
from functools import cached_property
from pathlib import Path

import numpy as np

from . import calib, detect, models, offline, renewal, series

_FLOAT = lambda text: float(text)  # noqa: E731 - argparse type alias
_KIND_CHOICES = detect.KINDS + ("both",)


class UsageError(ValueError):
    """A flag combination that cannot be executed (exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    """Effective configuration of one CLI run (file values + flag overrides)."""

    command: str
    input: str | None = None
    date_column: str = "Date"
    price_column: str = "Close"
    date_format: str | None = None
    seed: int = 0
    out: str = "."
    mu_pre: float | None = None
    sigma_pre: float | None = None
    mu_post: float | None = None
    sigma_post: float | None = None
    q: float | None = None
    delta: float | None = None
    kind: str = "both"
    mode: str = "score"
    threshold_a: float | None = None
    threshold_h: float | None = None
    multi_cyclic: bool = False
    train_end: int | None = None
    bins: int = 30
    max_lag: int = 40
    lags: tuple[int, ...] = (1, 2, 3, 11, 13)
    split: int | None = None
    min_segment: int = 30
    bd_threshold: float | None = None
    null_replications: int = 199
    gamma: float | None = None
    replications: int = 10_000
    relative_tolerance: float = 0.02
    max_iterations: int = 40
    nu: int = 1_000
    truncation: int = 100_000
    horizon: int = 4_000

    def __post_init__(self) -> None:
        if self.kind not in _KIND_CHOICES:
            raise ValueError(f"kind must be one of {_KIND_CHOICES}, got {self.kind!r}")
        if self.mode not in detect.MODES:
            raise ValueError(f"mode must be one of {detect.MODES}, got {self.mode!r}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.train_end is not None and self.train_end < 2:
            raise ValueError(f"--train-end must be at least 2, got {self.train_end}")
        object.__setattr__(self, "lags", tuple(int(k) for k in self.lags))

    def schema(self) -> series.CsvSchema:
        return series.CsvSchema(
            date_column=self.date_column,
            price_column=self.price_column,
            date_format=self.date_format,
        )

    @cached_property
    def loaded_input(self) -> tuple[str, series.PriceSeries]:
        """SHA-256 (hex) and prices of the ``--input`` file, read once per run."""
        path = Path(self.input)
        if not path.is_file():
            raise FileNotFoundError(f"no such file: {path}")
        data = path.read_bytes()
        return hashlib.sha256(data).hexdigest(), series.load_csv(data, self.schema())

    def canonical(self) -> dict:
        """Everything that affects results, in stable order (``out`` excluded).

        ``input`` enters as ``sha256:<hex>`` of the file's bytes, so every
        spelling of its path, and every copy of the file, hashes alike.
        """
        data = asdict(self)
        data.pop("out")
        data["lags"] = list(self.lags)
        if self.input:
            data["input"] = "sha256:" + self.loaded_input[0]
        return dict(sorted(data.items()))


@dataclass(frozen=True)
class ReportEntry:
    name: str
    value: float | int | str
    units: str = ""
    std_error: float | None = None


@dataclass(frozen=True)
class Report:
    """Results of one run: named sections of entries plus CSV-bound tables.

    Table cells are Python ``int``, ``float`` or ``str``; :func:`emit` hands
    the rows straight to :mod:`csv`, which writes a float as its ``repr``.
    """

    command: str
    config: RunConfig
    sections: tuple[tuple[str, tuple[ReportEntry, ...]], ...]
    tables: tuple[tuple[str, tuple[str, ...], tuple[tuple, ...]], ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(self.config.canonical(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]

    def render_text(self) -> str:
        lines = [
            f"command: {self.command}",
            f"config-hash: {self.config_hash}",
            f"seed: {self.config.seed}",
        ]
        for title, entries in self.sections:
            lines.append("")
            lines.append(f"[{title}]")
            for entry in entries:
                value = entry.value
                if isinstance(value, float):
                    value = f"{value:.10g}"
                text = f"{entry.name}: {value}"
                if entry.units:
                    text += f" {entry.units}"
                if entry.std_error is not None:
                    text += f" (se {entry.std_error:.4g})"
                lines.append(text)
        if self.notes:
            lines.append("")
            lines.append("[notes]")
            lines.extend(f"- {note}" for note in self.notes)
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        payload = {
            "command": self.command,
            "config_hash": self.config_hash,
            "seed": self.config.seed,
            "config": self.config.canonical(),
            "sections": {
                title: [asdict(entry) for entry in entries]
                for title, entries in self.sections
            },
            "tables": {name: len(rows) for name, _, rows in self.tables},
            "notes": list(self.notes),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def emit(report: Report, destination: str | Path) -> list[Path]:
    """Write the text/JSON reports and all CSV tables; return the paths."""
    destination = Path(destination)
    destination.mkdir(parents=True, exist_ok=True)
    stem = f"{report.command}-{report.config_hash}"
    paths = []
    text_path = destination / f"{stem}.report.txt"
    text_path.write_text(report.render_text())
    paths.append(text_path)
    json_path = destination / f"{stem}.report.json"
    json_path.write_text(report.render_json())
    paths.append(json_path)
    for name, header, rows in report.tables:
        table_path = destination / f"{stem}.{name}.csv"
        with table_path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
        paths.append(table_path)
    return paths


def _parse_schema(text: str) -> dict:
    """Parse ``date=COL,close=COL[,format=FMT]`` into config fields."""
    out: dict = {}
    mapping = {"date": "date_column", "close": "price_column", "format": "date_format"}
    for part in text.split(","):
        if "=" not in part:
            raise ValueError(f"schema parts must look like key=value, got {part!r}")
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in mapping:
            raise ValueError(f"unknown schema key {key!r} (use date, close, format)")
        out[mapping[key]] = value.strip()
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quickdetect",
        description="Sequential and offline change-point detection toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON file with defaults for any flag")
        p.add_argument("--seed", type=int, help="master seed for all randomness")
        p.add_argument("--out", help="output directory (default: current)")

    def with_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", help="price CSV file")
        p.add_argument(
            "--schema",
            help="column mapping date=COL,close=COL[,format=STRPTIME]",
        )

    def with_model(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mu-pre", type=_FLOAT, dest="mu_pre")
        p.add_argument("--sigma-pre", type=_FLOAT, dest="sigma_pre")
        p.add_argument("--mu-post", type=_FLOAT, dest="mu_post")
        p.add_argument("--sigma-post", type=_FLOAT, dest="sigma_post")
        p.add_argument("--q", type=_FLOAT, help="pre-change sd over post-change sd")
        p.add_argument("--delta", type=_FLOAT, help="standardized mean shift")

    p = sub.add_parser("returns", help="difference series from a price CSV")
    common(p)
    with_input(p)

    p = sub.add_parser("diagnose", help="moments and distribution diagnostics")
    common(p)
    with_input(p)
    p.add_argument("--bins", type=int)
    p.add_argument("--max-lag", type=int, dest="max_lag")
    p.add_argument("--lags", help="comma-separated lag list for scatter pairs")
    p.add_argument("--split", type=int, help="report moments left/right of this index")

    p = sub.add_parser("segment", help="offline change-point segmentation")
    common(p)
    with_input(p)
    p.add_argument("--min-segment", type=int, dest="min_segment")
    p.add_argument("--bd-threshold", type=_FLOAT, dest="bd_threshold")
    p.add_argument("--null-replications", type=int, dest="null_replications")

    p = sub.add_parser("constants", help="renewal constants of a change model")
    common(p)
    with_model(p)
    p.add_argument("--replications", type=int)
    p.add_argument("--truncation", type=int)
    p.add_argument("--horizon", type=int)

    p = sub.add_parser("calibrate", help="thresholds for a target ARL")
    common(p)
    with_model(p)
    p.add_argument("--gamma", type=_FLOAT)
    p.add_argument("--kind", choices=_KIND_CHOICES)
    p.add_argument("--mode", choices=detect.MODES)
    p.add_argument("--replications", type=int)
    p.add_argument("--relative-tolerance", type=_FLOAT, dest="relative_tolerance")
    p.add_argument("--max-iterations", type=int, dest="max_iterations")

    p = sub.add_parser("detect", help="run detectors over a series")
    common(p)
    with_input(p)
    with_model(p)
    p.add_argument("--kind", choices=_KIND_CHOICES)
    p.add_argument("--mode", choices=detect.MODES)
    p.add_argument("--threshold-a", type=_FLOAT, dest="threshold_a")
    p.add_argument("--threshold-h", type=_FLOAT, dest="threshold_h")
    p.add_argument("--train-end", type=int, dest="train_end")
    p.add_argument(
        "--multi-cyclic",
        action="store_true",
        dest="multi_cyclic",
        default=argparse.SUPPRESS,
        help="restart after each alarm instead of stopping",
    )

    p = sub.add_parser("simulate", help="calibrated SR-vs-CUSUM comparison")
    common(p)
    with_model(p)
    p.add_argument("--gamma", type=_FLOAT)
    p.add_argument("--kind", choices=_KIND_CHOICES)
    p.add_argument("--mode", choices=detect.MODES)
    p.add_argument("--replications", type=int)
    p.add_argument("--nu", type=int, help="change index for the stationary delay")
    p.add_argument("--relative-tolerance", type=_FLOAT, dest="relative_tolerance")
    p.add_argument("--truncation", type=int)
    p.add_argument("--horizon", type=int)

    return parser


def parse_config(argv: list[str]) -> RunConfig:
    """Parse flags, merge an optional config file (flags win), validate."""
    parser = build_parser()
    namespace = parser.parse_args(argv)
    given = {k: v for k, v in vars(namespace).items() if v is not None}
    command = given.pop("command")
    config_file = given.pop("config", None)
    merged: dict = {}
    if config_file:
        path = Path(config_file)
        if not path.is_file():
            raise FileNotFoundError(f"no such config file: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            raise ValueError(f"config file {path} is not valid JSON: {err}") from err
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        merged.update(loaded)
    merged.update(given)
    if "schema" in merged:
        merged.update(_parse_schema(merged.pop("schema")))
    if isinstance(merged.get("lags"), str):
        merged["lags"] = tuple(int(k) for k in merged["lags"].split(","))
    valid = {f.name for f in fields(RunConfig)} - {"command"}
    unknown = set(merged) - valid
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(command=command, **merged)


def _load_returns(config: RunConfig) -> tuple[series.PriceSeries, series.ReturnSeries]:
    if not config.input:
        raise UsageError("this command needs --input")
    prices = config.loaded_input[1]
    return prices, series.to_returns(prices)


def _require_model(config: RunConfig) -> models.GaussianChangeModel:
    """Change model from explicit moments, or from (q, delta) standardized."""
    explicit = (config.mu_pre, config.sigma_pre, config.mu_post, config.sigma_post)
    if all(v is not None for v in explicit):
        return models.GaussianChangeModel(*explicit)
    if any(v is not None for v in explicit):
        raise UsageError("give all four of --mu-pre/--sigma-pre/--mu-post/--sigma-post")
    if config.q is not None and config.delta is not None:
        return models.GaussianChangeModel(0.0, 1.0, config.delta, 1.0 / config.q)
    raise UsageError("give a model via moment flags or via --q/--delta")


def _score_params(config: RunConfig, model: models.GaussianChangeModel) -> models.ScoreParams:
    if config.q is not None and config.delta is not None:
        return models.design_coefficients(config.q, config.delta)
    std = model.standardized
    return models.design_coefficients(1.0 / std.sigma_post, std.mu_post)


def _calibration_spec(config: RunConfig) -> calib.CalibrationSpec:
    if config.gamma is None:
        raise UsageError("this command needs --gamma")
    return calib.CalibrationSpec(
        gamma=config.gamma,
        replications=config.replications,
        seed=config.seed,
        relative_tolerance=config.relative_tolerance,
        max_iterations=config.max_iterations,
        nu_stationary=config.nu,
    )


def _policy(config: RunConfig) -> renewal.EstimationPolicy:
    return renewal.EstimationPolicy(
        truncation=config.truncation,
        replications=config.replications,
        horizon=config.horizon,
        seed=config.seed,
    )


def _detector_config(
    config: RunConfig, kind: str, model: models.GaussianChangeModel
) -> calib.DetectorConfig:
    if config.mode == "exact":
        return calib.DetectorConfig(kind=kind, model=model, mode="exact")
    return calib.DetectorConfig(
        kind=kind, model=model, mode="score", score=_score_params(config, model)
    )


def _cmd_returns(config: RunConfig) -> Report:
    prices, returns = _load_returns(config)
    moments = series.estimate_moments(returns)
    dates = returns.dates
    entries = (
        ReportEntry("rows", len(prices), "prices"),
        ReportEntry("differences", len(returns), "observations"),
        ReportEntry("first-date", prices.timestamps[0].isoformat()),
        ReportEntry("last-date", prices.timestamps[-1].isoformat()),
        ReportEntry("mean", moments.mean, "price units"),
        ReportEntry("sd", moments.sd, "price units"),
    )
    table_rows = tuple(zip(map(date.isoformat, dates), returns.values.tolist()))
    return Report(
        command="returns",
        config=config,
        sections=(("series", entries),),
        tables=(("returns", ("date", "difference"), table_rows),),
    )


def _moment_entries(tag: str, m: series.MomentEstimate) -> tuple[ReportEntry, ...]:
    entries = [
        ReportEntry(f"{tag}-interval", f"[{m.interval[0]}, {m.interval[1]})"),
        ReportEntry(f"{tag}-count", m.count, "observations"),
        ReportEntry(f"{tag}-mean", m.mean, "price units"),
        ReportEntry(f"{tag}-sd", m.sd, f"price units (ddof={m.ddof})"),
    ]
    return tuple(entries)


def _cmd_diagnose(config: RunConfig) -> Report:
    _, returns = _load_returns(config)
    notes: list[str] = []
    sections = []
    if config.split is not None:
        pre = series.estimate_moments(returns, (0, config.split))
        post = series.estimate_moments(returns, (config.split, len(returns)))
        sections.append(("moments", _moment_entries("pre", pre) + _moment_entries("post", post)))
        for tag, m in (("pre", pre), ("post", post)):
            if m.is_degenerate:
                notes.append(f"{tag} range has zero variance")
    else:
        sections.append(("moments", _moment_entries("full", series.estimate_moments(returns))))
    correl = series.acf(returns, config.max_lag)
    bundle = series.diagnostics(returns, bins=config.bins, lags=config.lags)
    band = float(correl.band)
    outside = int(np.sum(np.abs(correl.values[1:]) > band))
    sections.append(
        (
            "autocorrelation",
            (
                ReportEntry("max-lag", config.max_lag, "lags"),
                ReportEntry("white-noise-band", band),
                ReportEntry("lags-outside-band", outside, "lags"),
            ),
        )
    )
    tables = [
        (
            "acf",
            ("lag", "autocorrelation", "band"),
            tuple(
                (k, v, band) for k, v in zip(correl.lags.tolist(), correl.values.tolist())
            ),
        ),
        (
            "histogram",
            ("left_edge", "right_edge", "count"),
            tuple(
                zip(
                    bundle.histogram.edges[:-1].tolist(),
                    bundle.histogram.edges[1:].tolist(),
                    bundle.histogram.counts.tolist(),
                )
            ),
        ),
        (
            "qq",
            ("theoretical", "empirical"),
            tuple(zip(bundle.qq.theoretical.tolist(), bundle.qq.empirical.tolist())),
        ),
    ]
    for lag, (x, y) in bundle.lag_pairs.items():
        tables.append(
            (
                f"lag{lag}",
                ("x", "y"),
                tuple(zip(x.tolist(), y.tolist())),
            )
        )
    return Report(
        command="diagnose",
        config=config,
        sections=tuple(sections),
        tables=tuple(tables),
        notes=tuple(notes),
    )


def _cmd_segment(config: RunConfig) -> Report:
    _, returns = _load_returns(config)
    estimate, trace = offline.bd_estimate(returns)
    result = offline.bd_segment(
        returns,
        significance_threshold=config.bd_threshold,
        min_segment=config.min_segment,
        seed=config.seed,
        null_replications=config.null_replications,
    )
    dates = returns.dates
    entries = [
        ReportEntry("best-split", estimate, "index"),
        ReportEntry("best-split-date", dates[estimate - 1].isoformat()),
        ReportEntry("max-abs-statistic", trace.abs_max_value),
        ReportEntry("change-points", len(result.change_points), "splits"),
    ]
    for i, cp in enumerate(result.change_points, start=1):
        entries.append(ReportEntry(f"change-point-{i}", cp, "index"))
        entries.append(ReportEntry(f"change-point-{i}-date", dates[cp - 1].isoformat()))
    seg_entries = []
    for i, m in enumerate(result.segments, start=1):
        seg_entries.extend(_moment_entries(f"segment-{i}", m))
    notes = tuple(
        f"[{d.start}, {d.stop}): {d.reason}"
        + (f" (split at {d.split_at})" if d.split_at is not None else "")
        for d in result.decisions
    )
    table_rows = tuple(zip(trace.split_indices.tolist(), trace.values.tolist()))
    return Report(
        command="segment",
        config=config,
        sections=(("estimate", tuple(entries)), ("segments", tuple(seg_entries))),
        tables=(("bd-trace", ("split", "statistic"), table_rows),),
        notes=notes,
    )


def _estimates(constants: renewal.RenewalConstants) -> dict[str, renewal.Estimate]:
    names = ("zeta", "varkappa", "beta0", "beta_inf", "c0", "c_inf")
    return {name.replace("_", "-"): getattr(constants, name) for name in names}


def _constants_entries(constants: renewal.RenewalConstants) -> tuple[ReportEntry, ...]:
    entries = [
        ReportEntry("i-f", constants.i_f, "nats"),
        ReportEntry("i-g", constants.i_g, "nats"),
    ]
    for name, est in _estimates(constants).items():
        se = est.std_error if est.replications else None
        entries.append(ReportEntry(name, est.value, "" if name == "zeta" else "nats", se))
    return tuple(entries)


def _cmd_constants(config: RunConfig) -> Report:
    model = _require_model(config)
    constants = renewal.estimate_constants(model, _policy(config))
    routes: dict[str, list[str]] = {}
    for name, est in _estimates(constants).items():
        reps = est.replications
        route = f"estimated by Monte Carlo ({reps} replications)" if reps else "computed exactly"
        routes.setdefault(route, []).append(name)
    return Report(
        command="constants",
        config=config,
        sections=(("constants", _constants_entries(constants)),),
        notes=tuple(f"{'/'.join(names)} {route}" for route, names in routes.items()),
    )


def _kinds(config: RunConfig) -> tuple[str, ...]:
    return detect.KINDS if config.kind == "both" else (config.kind,)


def _cmd_calibrate(config: RunConfig) -> Report:
    model = _require_model(config)
    spec = _calibration_spec(config)
    sections = []
    for kind in _kinds(config):
        detector = _detector_config(config, kind, model)
        threshold, estimate = calib.solve_threshold(detector, spec)
        sections.append(
            (
                f"{kind}",
                (
                    ReportEntry(
                        "threshold",
                        threshold,
                        "log-likelihood" if kind == "cusum" else "likelihood-ratio",
                    ),
                    ReportEntry(
                        "monte-carlo-arl",
                        estimate.value,
                        "observations",
                        estimate.std_error,
                    ),
                    ReportEntry("replications", estimate.replications, "runs"),
                    ReportEntry("cap-hits", estimate.cap_hits, "runs"),
                ),
            )
        )
    return Report(
        command="calibrate",
        config=config,
        sections=tuple(sections),
        notes=(
            f"target mean time to false alarm gamma={spec.gamma}",
            f"bisection tolerance {spec.relative_tolerance:.1%} of gamma",
        ),
    )


def _detect_increments(
    config: RunConfig, returns: series.ReturnSeries
) -> tuple[np.ndarray, tuple[str, ...]]:
    notes: list[str] = []
    if config.mode == "exact":
        model = _require_model(config)
        return models.llr(model, returns.values), tuple(notes)
    if config.q is not None and config.delta is not None:
        params = models.design_coefficients(config.q, config.delta)
        train = None if config.train_end is None else (0, config.train_end)
        moments = series.estimate_moments(returns, train)
        notes.append(
            f"standardized by moments over [{moments.interval[0]}, {moments.interval[1]})"
        )
    elif config.train_end is not None:
        pre = series.estimate_moments(returns, (0, config.train_end))
        post = series.estimate_moments(returns, (config.train_end, len(returns)))
        params = models.design_coefficients(
            q=pre.sd / post.sd, delta=(post.mean - pre.mean) / pre.sd
        )
        moments = pre
        notes.append(
            f"score design fitted from the split at {config.train_end}: "
            f"q={params.q:.6g}, delta={params.delta:.6g}"
        )
    else:
        raise UsageError("score mode needs --q/--delta or --train-end")
    standardized = series.standardize(returns, moments)
    return models.linear_quadratic_score(params, standardized.values), tuple(notes)


def _cmd_detect(config: RunConfig) -> Report:
    _, returns = _load_returns(config)
    increments, notes = _detect_increments(config, returns)
    iso_dates = list(map(date.isoformat, returns.dates))
    thresholds = {"cusum": config.threshold_h, "sr": config.threshold_a}
    sections = []
    tables = []
    ran_any = False
    for kind in _kinds(config):
        threshold = thresholds[kind]
        if threshold is None:
            continue
        ran_any = True
        runner = detect.multi_cyclic_run if config.multi_cyclic else detect.run_detector
        trace = runner(increments, kind=kind, threshold=threshold)
        entries = [
            ReportEntry("threshold", threshold),
            ReportEntry("observations", trace.increments_consumed, "observations"),
            ReportEntry("alarms", len(trace.alarms), "alarms"),
        ]
        for i, alarm in enumerate(trace.alarms, start=1):
            entries.append(ReportEntry(f"alarm-{i}-step", alarm.global_time, "index"))
            entries.append(
                ReportEntry(f"alarm-{i}-date", iso_dates[alarm.global_time - 1])
            )
            entries.append(
                ReportEntry(f"alarm-{i}-statistic", alarm.statistic_at_stop)
            )
        sections.append((kind, tuple(entries)))
        size = trace.statistics.size
        flags = np.zeros(size, dtype=int)
        flags[[a.global_time - 1 for a in trace.alarms]] = 1
        rows = zip(range(1, size + 1), iso_dates, trace.statistics.tolist(), flags.tolist())
        tables.append((f"{kind}-trace", ("step", "date", "statistic", "alarm"), tuple(rows)))
    if not ran_any:
        raise UsageError(
            "no detector to run: give --threshold-h (cusum) and/or --threshold-a (sr)"
        )
    return Report(
        command="detect",
        config=config,
        sections=tuple(sections),
        tables=tuple(tables),
        notes=notes,
    )


def _cmd_simulate(config: RunConfig) -> Report:
    model = _require_model(config)
    spec = _calibration_spec(config)
    constants = renewal.estimate_constants(model, _policy(config))
    sections = [("constants", _constants_entries(constants))]
    for kind in _kinds(config):
        detector = _detector_config(config, kind, model)
        threshold, arl = calib.solve_threshold(detector, spec)
        sadd = calib.estimate_sadd(detector, threshold, spec)
        stadd = calib.estimate_stadd(detector, threshold, spec)
        approx = renewal.delay_approx(kind, threshold, constants)
        entries = [
            ReportEntry("threshold", threshold),
            ReportEntry("monte-carlo-arl", arl.value, "observations", arl.std_error),
            ReportEntry("approx-arl", renewal.arl_approx(kind, threshold, constants), "observations"),
            ReportEntry("monte-carlo-sadd", sadd.value, "observations", sadd.std_error),
            ReportEntry("approx-sadd", approx["sadd"], "observations"),
            ReportEntry("monte-carlo-stadd", stadd.value, "observations", stadd.std_error),
        ]
        if "stadd" in approx:
            entries.append(ReportEntry("approx-stadd", approx["stadd"], "observations"))
        if "add_inf" in approx:
            entries.append(ReportEntry("approx-add-inf", approx["add_inf"], "observations"))
        sections.append((kind, tuple(entries)))
    return Report(
        command="simulate",
        config=config,
        sections=tuple(sections),
        notes=(
            "worst-case delay estimated with the change in force from the first step",
            f"stationary delay estimated at nu={spec.nu_stationary} "
            "(doubling checked within two combined standard errors)",
        ),
    )


_COMMANDS = {
    "returns": _cmd_returns,
    "diagnose": _cmd_diagnose,
    "segment": _cmd_segment,
    "constants": _cmd_constants,
    "calibrate": _cmd_calibrate,
    "detect": _cmd_detect,
    "simulate": _cmd_simulate,
}


def execute(config: RunConfig) -> Report:
    """Run one configured command and return its report."""
    return _COMMANDS[config.command](config)


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse, execute, emit; exit 0/1/2."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_config(argv)
    except SystemExit as err:  # argparse usage failure
        return int(err.code or 0)
    except (ValueError, FileNotFoundError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    try:
        report = execute(config)
        paths = emit(report, config.out)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - runtime failures exit 1
        print(f"error: {err}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
