"""Command-line pipeline around the library.

Subcommands::

    returns     load a price CSV and write the difference series
    diagnose    moments, autocorrelation, histogram, Q-Q and lag pairs
    segment     offline change-point segmentation of the differences
    constants   renewal constants for a change model
    calibrate   Monte Carlo thresholds for a target false-alarm level
    detect      run detectors over a real series at given thresholds
    simulate    calibrated SR-vs-CUSUM comparison on synthetic data

One table, ``_COMMANDS``, names each subcommand's runner, help line and
flags; the flags are ``RunConfig`` fields, spelled ``--`` plus the field name
with ``-`` for ``_``.  An optional ``--config`` JSON file may set only the
command's own flags.  A flag and a file key share one per-field type, read
from the field's annotation, and flags always override file values.  A file number in a float field reads as a float, so a
file and a flag that give one setting give one configuration hash.  What the
program can work out itself takes no setting: the renewal series and walks
run until they settle, and a threshold is read off the whole Monte Carlo ARL
curve.  Every run derives all randomness from the single ``--seed``.
Reports are written twice: a human-readable text file and a
machine-readable JSON file, plus CSV tables for traces and series.  A
table's columns stay numpy arrays, ranges or the series' own dates until
:func:`emit` turns each block of 4096 rows into text as it writes it, so no
table holds a Python object per cell, and a column that several tables hold
turns into text once.  File names contain the command and a hash of the
effective configuration, and report bodies contain no timestamps, so a
rerun with the same inputs reproduces identical bytes.

Each subcommand imports only the library modules it runs: its runner and
helpers import them when called, and at import time this module loads only
:mod:`quickdetect.detect` (for the detector kinds and modes).  A process
that finds no bytecode cache, as in a fresh checkout or under
``PYTHONDONTWRITEBYTECODE``, compiles every module it imports from source,
and the program starts again for each update of a live series, so
``segment`` never compiles the Monte Carlo code and ``calibrate`` never the
CSV code.

Exit codes: 0 success, 1 runtime failure (bad data, failed estimation),
2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from contextlib import ExitStack
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from . import detect

if TYPE_CHECKING:
    from . import calib, models, renewal, series

#: the settings that take one of a few words, as flags and in files
_CHOICES = {"kind": detect.KINDS + ("both",), "mode": detect.MODES}
#: the type that reads a flag of each annotation base; lags are written ``1,2,3``
_BASES = {"int": int, "float": float, "str": str, "bool": bool, "tuple[int, ...]": str}
#: rows :func:`emit` turns into text at a time
_EMIT_ROWS = 4096


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
    gamma: float | None = None
    replications: int = 10_000
    nu: int = 1_000

    def __post_init__(self) -> None:
        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                raise ValueError(f"{name} must be one of {choices}, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.train_end is not None and self.train_end < 2:
            raise ValueError(f"--train-end must be at least 2, got {self.train_end}")
        object.__setattr__(self, "lags", tuple(int(k) for k in self.lags))

    def schema(self) -> series.CsvSchema:
        from . import series

        return series.CsvSchema(
            date_column=self.date_column,
            price_column=self.price_column,
            date_format=self.date_format,
        )

    @cached_property
    def loaded_input(self) -> tuple[str, series.PriceSeries]:
        """SHA-256 (hex) and prices of the ``--input`` file, hashed as it is parsed.

        One chunked read feeds both, so the digest covers exactly the bytes
        parsed and the file is never held whole.
        """
        from . import series

        digest = hashlib.sha256()
        prices = series.load_csv(self.input, self.schema(), digest)
        return digest.hexdigest(), prices

    def canonical(self) -> dict:
        """Everything that affects results, in stable order (``out`` excluded).

        ``input`` enters as ``sha256:<hex>`` of the file's bytes, so every
        spelling of its path, and every copy of the file, hashes alike.
        """
        data = asdict(self)
        data.pop("out")
        if self.input:
            data["input"] = "sha256:" + self.loaded_input[0]
        return dict(sorted(data.items()))


#: each setting a flag or a file key gives, with its annotation; ``schema`` is
#: text that :func:`_parse_schema` spreads over three fields
_ANNOTATIONS = {f.name: f.type for f in fields(RunConfig)} | {"schema": "str"}


@dataclass(frozen=True)
class ReportEntry:
    name: str
    value: float | int | str
    units: str = ""
    std_error: float | None = None


@dataclass(frozen=True)
class Report:
    """Results of one run: named sections of entries plus CSV-bound tables.

    A table is ``(name, header, columns)``: equal-length columns, each a
    one-dimensional numpy array, a ``range``, or a sequence of dates or
    ``str`` cells.  Columns stay whole until :func:`emit` writes them, a block
    of rows at a time: it turns each block of an array into Python ``int`` and
    ``float`` cells, writes a float as its ``repr``, a date as its ISO form and
    ``\\r\\n`` after each row, the bytes :mod:`csv` would write; a ``str``
    cell that csv would quote is refused instead.  Tables may hold one column
    object together, as ``detect``'s traces of one length hold one range of
    steps and one tuple of dates.
    """

    config: RunConfig
    sections: tuple[tuple[str, tuple[ReportEntry, ...]], ...]
    tables: tuple[tuple[str, tuple[str, ...], tuple], ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name, header, columns in self.tables:
            if any(isinstance(c, np.ndarray) and c.ndim != 1 for c in columns):
                raise ValueError(f"table {name!r} has an array column that is not one-dimensional")
            if len(columns) != len(header) or len({len(c) for c in columns}) != 1:
                raise ValueError(f"table {name!r} needs one equal-length column per header")

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(self.config.canonical(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]

    def render_text(self) -> str:
        lines = [
            f"command: {self.config.command}",
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
            "command": self.config.command,
            "config_hash": self.config_hash,
            "seed": self.config.seed,
            "config": self.config.canonical(),
            "sections": {
                title: [vars(entry) for entry in entries]
                for title, entries in self.sections
            },
            "tables": {name: len(columns[0]) for name, _, columns in self.tables},
            "notes": list(self.notes),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cells(name: str, column) -> list[str]:
    """One block of a column as the text of its cells.

    An array turns into Python scalars first, whose ``str`` is their
    ``repr``; a date's ``str`` is its ISO form.  A column that can hold text
    is refused if a cell holds a mark that CSV would quote; numbers and
    ranges hold none.
    """
    cells = list(map(str, column.tolist() if isinstance(column, np.ndarray) else column))
    numeric = isinstance(column, range) or (
        isinstance(column, np.ndarray) and column.dtype.kind in "biuf"
    )
    if not numeric:
        joined = "".join(cells)
        if any(mark in joined for mark in ',"\r\n'):
            raise ValueError(f"table {name!r} has a cell that CSV would quote")
    return cells


def _rows(cells: list[list[str]]) -> str:
    """Rows of equal-length columns of cells as ``csv.writer`` writes them."""
    return "\r\n".join(map(",".join, zip(*cells))) + "\r\n"


def emit(report: Report, destination: str | Path) -> list[Path]:
    """Write the text/JSON reports and all CSV tables; return the paths.

    The tables are written together, ``_EMIT_ROWS`` rows of each at a time.
    A column that several tables hold, the same object, turns into text
    once per block for all of them, and only one block of text is alive.
    """
    destination = Path(destination)
    destination.mkdir(parents=True, exist_ok=True)
    stem = f"{report.config.command}-{report.config_hash}"
    paths = []
    text_path = destination / f"{stem}.report.txt"
    text_path.write_text(report.render_text())
    paths.append(text_path)
    json_path = destination / f"{stem}.report.json"
    json_path.write_text(report.render_json())
    paths.append(json_path)
    table_paths = [destination / f"{stem}.{name}.csv" for name, _, _ in report.tables]
    with ExitStack() as stack:
        handles = [stack.enter_context(path.open("w", newline="")) for path in table_paths]
        for handle, (name, header, _) in zip(handles, report.tables):
            handle.write(_rows([_cells(name, [cell]) for cell in header]))
        longest = max((len(columns[0]) for _, _, columns in report.tables), default=0)
        for start in range(0, longest, _EMIT_ROWS):
            text: dict[int, list[str]] = {}  # this block of each column, by id
            for handle, (name, _, columns) in zip(handles, report.tables):
                if start >= len(columns[0]):
                    continue
                for column in columns:
                    if id(column) not in text:
                        text[id(column)] = _cells(name, column[start : start + _EMIT_ROWS])
                handle.write(_rows([text[id(column)] for column in columns]))
    return paths + table_paths


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
    """One subparser per :data:`_COMMANDS` entry, each flag typed by its field."""
    parser = argparse.ArgumentParser(
        prog="quickdetect",
        description="Sequential and offline change-point detection toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags:
            options = {"help": _HELP.get(flag)}
            base = _BASES[_ANNOTATIONS.get(flag, "str").partition(" | ")[0]]  # --config: a path
            if base is bool:
                options.update(action="store_true", default=argparse.SUPPRESS)
            elif flag in _CHOICES:
                options["choices"] = _CHOICES[flag]
            else:
                options["type"] = base
            p.add_argument("--" + flag.replace("_", "-"), **options)
    return parser


def _file_value(value, annotation: str):
    """A JSON value as a field of this annotation holds it; ``TypeError`` if it does not fit.

    A bool is no number, a float field reads an int as a float (``OverflowError``
    if it has no float), and lags may also be a list of ints.
    """
    base, _, optional = annotation.partition(" | ")
    if value is None and optional:
        return None
    if base == "tuple[int, ...]" and isinstance(value, list):
        return tuple(_file_value(k, "int") for k in value)
    kind = _BASES[base]
    if isinstance(value, bool) != (kind is bool) or not isinstance(
        value, (int, float) if kind is float else kind
    ):
        raise TypeError(annotation)
    return kind(value)


def _check_file_types(loaded: dict, path: Path) -> dict:
    """Config-file values as their fields hold them; refuse one that does not fit."""
    typed = dict(loaded)  # parse_config refuses a key that is no flag of the command
    for key, value in loaded.items():
        if key not in _ANNOTATIONS:
            continue
        try:
            typed[key] = _file_value(value, _ANNOTATIONS[key])
        except (TypeError, OverflowError):
            raise ValueError(
                f"config file {path}: {key!r} takes {_ANNOTATIONS[key]}, got {json.dumps(value)}"
            ) from None
    return typed


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
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            raise ValueError(f"config file {path} is not valid JSON: {err}") from err
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        merged.update(_check_file_types(loaded, path))
        unknown = set(merged) - (set(_COMMANDS[command].flags) - {"config"})
        if unknown:
            raise ValueError(
                f"unknown config keys: {sorted(unknown)} ({command} reads only its own flags)"
            )
    merged.update(given)
    if "schema" in merged:
        merged.update(_parse_schema(merged.pop("schema")))
    if isinstance(merged.get("lags"), str):
        merged["lags"] = tuple(int(k) for k in merged["lags"].split(","))
    return RunConfig(command=command, **merged)


def _load_returns(config: RunConfig) -> tuple[series.PriceSeries, series.ReturnSeries]:
    from . import series

    if not config.input:
        raise UsageError("this command needs --input")
    prices = config.loaded_input[1]
    return prices, series.to_returns(prices)


def _refuse(unread: list[str], why: str) -> None:
    """Refuse model flags that this run would not read, naming them (usage error)."""
    flags = "/".join("--" + f.replace("_", "-") for f in unread)
    raise UsageError(f"{flags} would be ignored: {why}")


def _detector(
    config: RunConfig,
) -> tuple[models.GaussianChangeModel | None, models.ScoreParams | None]:
    """The change model and the score design that this run reads from its flags.

    ``(model, None)`` runs the model's exact LLR, and ``(model, design)`` the
    design's score on observations standardized by the model's pre-change
    moments.  ``detect --mode score`` standardizes by moments of the series:
    ``(None, design)`` with ``--q/--delta``, ``(None, None)`` for the design
    it fits at ``--train-end``.  Each model flag that the run would not read
    is refused beside the read it would miss, before any input is read.
    """
    from . import models

    moments = [f for f in _MOMENTS if getattr(config, f) is not None]
    pair = [f for f in ("q", "delta") if getattr(config, f) is not None]
    if len(pair) == 1:
        _refuse(pair, "give --q and --delta together")
    scored = config.mode == "score" and config.command != "constants"
    if config.command == "detect":
        if scored:
            if moments:
                _refuse(moments, "detect --mode score standardizes by moments of the series")
            if pair:
                return None, models.design_coefficients(config.q, config.delta)
            if config.train_end is None:
                raise UsageError("score mode needs --q/--delta or --train-end")
            return None, None
        if config.train_end is not None:
            _refuse(["train_end"], "detect --mode exact fits nothing to the series")
        if pair:
            _refuse(pair, "detect --mode exact reads its model from the four moment flags")
    if moments:
        if len(moments) < 4:
            raise UsageError("give all four of --mu-pre/--sigma-pre/--mu-post/--sigma-post")
        if pair and not scored:
            _refuse(pair, "next to the moment flags only a score design reads them")
        model = models.GaussianChangeModel(*(getattr(config, f) for f in _MOMENTS))
        if not scored:
            return model, None
        std = model.standardized
        target = (config.q, config.delta) if pair else (1.0 / std.sigma_post, std.mu_post)
        return model, models.design_coefficients(*target)
    if not pair:
        raise UsageError("give a model via the four moment flags, or --q/--delta outside detect")
    design = models.design_coefficients(config.q, config.delta)
    return design.model, design if scored else None


def _detect_thresholds(config: RunConfig) -> dict[str, float]:
    """The threshold of each detector that ``detect`` runs, by kind, decided before any input.

    A threshold flag of a kind that ``--kind`` does not select is refused.
    Of the selected kinds, those given a threshold run; a run with none is a
    usage error naming the flags it needs.
    """
    flags = {"cusum": "threshold_h", "sr": "threshold_a"}
    kinds = _kinds(config)
    for kind, flag in flags.items():
        if kind not in kinds and getattr(config, flag) is not None:
            _refuse([flag], f"--kind {config.kind} does not run {kind}")
    thresholds = {kind: getattr(config, flags[kind]) for kind in kinds}
    if all(t is None for t in thresholds.values()):
        needed = " and/or ".join(f"--{flags[k].replace('_', '-')} ({k})" for k in kinds)
        raise UsageError(f"no detector to run: give {needed}")
    return {kind: t for kind, t in thresholds.items() if t is not None}


def _calibration_spec(config: RunConfig) -> calib.CalibrationSpec:
    from . import calib

    if config.gamma is None:
        raise UsageError("this command needs --gamma")
    return calib.CalibrationSpec(
        gamma=config.gamma,
        replications=config.replications,
        seed=config.seed,
        nu_stationary=config.nu,
    )


def _policy(config: RunConfig) -> renewal.EstimationPolicy:
    from . import renewal

    return renewal.EstimationPolicy(replications=config.replications, seed=config.seed)


def _cmd_returns(config: RunConfig) -> Report:
    from . import series

    prices, returns = _load_returns(config)
    moments = series.estimate_moments(returns)
    entries = (
        ReportEntry("rows", len(prices), "prices"),
        ReportEntry("differences", len(returns), "observations"),
        ReportEntry("first-date", prices.timestamps[0].isoformat()),
        ReportEntry("last-date", prices.timestamps[-1].isoformat()),
        ReportEntry("mean", moments.mean, "price units"),
        ReportEntry("sd", moments.sd, "price units"),
    )
    columns = (returns.dates, returns.values)
    return Report(
        config=config,
        sections=(("series", entries),),
        tables=(("returns", ("date", "difference"), columns),),
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
    from . import series

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
            (correl.lags, correl.values, np.full(correl.values.size, band)),
        ),
        (
            "histogram",
            ("left_edge", "right_edge", "count"),
            (bundle.histogram.edges[:-1], bundle.histogram.edges[1:], bundle.histogram.counts),
        ),
        (
            "qq",
            ("theoretical", "empirical"),
            (bundle.qq.theoretical, bundle.qq.empirical),
        ),
    ]
    for lag, (x, y) in bundle.lag_pairs.items():
        tables.append((f"lag{lag}", ("x", "y"), (x, y)))
    return Report(
        config=config,
        sections=tuple(sections),
        tables=tuple(tables),
        notes=tuple(notes),
    )


def _cmd_segment(config: RunConfig) -> Report:
    from . import offline

    _, returns = _load_returns(config)
    estimate, trace = offline.bd_estimate(returns)
    result = offline.bd_segment(
        returns,
        significance_threshold=config.bd_threshold,
        min_segment=config.min_segment,
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
    columns = (trace.split_indices, trace.values)
    return Report(
        config=config,
        sections=(("estimate", tuple(entries)), ("segments", tuple(seg_entries))),
        tables=(("bd-trace", ("split", "statistic"), columns),),
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
    from . import renewal

    model, _ = _detector(config)
    constants = renewal.estimate_constants(model, _policy(config))
    routes: dict[str, list[str]] = {}
    for name, est in _estimates(constants).items():
        reps = est.replications
        route = f"estimated by Monte Carlo ({reps} replications)" if reps else "computed exactly"
        routes.setdefault(route, []).append(name)
    return Report(
        config=config,
        sections=(("constants", _constants_entries(constants)),),
        notes=tuple(f"{'/'.join(names)} {route}" for route, names in routes.items()),
    )


def _kinds(config: RunConfig) -> tuple[str, ...]:
    return detect.KINDS if config.kind == "both" else (config.kind,)


def _cmd_calibrate(config: RunConfig) -> Report:
    from . import calib

    model, score = _detector(config)
    spec = _calibration_spec(config)
    sections = []
    for kind in _kinds(config):
        detector = calib.DetectorConfig(kind, model, score)
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
        config=config,
        sections=tuple(sections),
        notes=(
            f"target mean time to false alarm gamma={spec.gamma}",
            "each threshold is the geometric midpoint of the step of the Monte Carlo ARL "
            f"curve nearest gamma; an ARL there more than {calib._MISS:.0%} from gamma is an error",
        ),
    )


def _varying_moments(
    returns: series.ReturnSeries, interval: tuple[int, int]
) -> series.MomentEstimate:
    """Moments of the differences over ``interval``; a constant stretch is refused."""
    from . import series

    moments = series.estimate_moments(returns, interval)
    if moments.is_degenerate:
        raise ValueError(f"differences [{interval[0]}, {interval[1]}) have zero variance")
    return moments


def _detect_increments(
    config: RunConfig,
    returns: series.ReturnSeries,
    model: models.GaussianChangeModel | None,
    design: models.ScoreParams | None,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """The increments of :func:`_detector`'s model or design over the series, and notes."""
    from . import models, series

    if model is not None:
        return models.llr(model, returns.values), ()
    train = (0, len(returns) if config.train_end is None else config.train_end)
    moments = _varying_moments(returns, train)
    if design is not None:
        notes = (f"standardized by moments over [{train[0]}, {train[1]})",)
    else:
        post = _varying_moments(returns, (config.train_end, len(returns)))
        design = models.design_coefficients(
            q=moments.sd / post.sd, delta=(post.mean - moments.mean) / moments.sd
        )
        notes = (
            f"score design fitted from the split at {config.train_end}: "
            f"q={design.q:.6g}, delta={design.delta:.6g}",
        )
    standardized = series.standardize(returns, moments)
    return models.linear_quadratic_score(design, standardized.values), notes


def _cmd_detect(config: RunConfig) -> Report:
    model, design = _detector(config)
    thresholds = _detect_thresholds(config)
    _, returns = _load_returns(config)
    increments, notes = _detect_increments(config, returns, model, design)
    dates = returns.dates
    sections = []
    tables = []
    # step and date columns by trace length: traces of one length share them,
    # so emit turns them into text once
    shared: dict[int, tuple[range, tuple]] = {}
    for kind, threshold in thresholds.items():
        runner = detect.multi_cyclic_run if config.multi_cyclic else detect.run_detector
        trace = runner(increments, kind=kind, threshold=threshold)
        steps = trace.alarms
        entries = [
            ReportEntry("threshold", threshold),
            ReportEntry("observations", trace.increments_consumed, "observations"),
            ReportEntry("alarms", steps.size, "alarms"),
        ]
        for i, (step, statistic) in enumerate(
            zip(steps.tolist(), trace.statistics[steps - 1].tolist()), start=1
        ):
            entries.append(ReportEntry(f"alarm-{i}-step", step, "index"))
            entries.append(ReportEntry(f"alarm-{i}-date", dates[step - 1].isoformat()))
            entries.append(ReportEntry(f"alarm-{i}-statistic", statistic))
        sections.append((kind, tuple(entries)))
        size = trace.statistics.size
        flags = (trace.statistics >= threshold).astype(np.int8)
        # a single run stops at its first alarm, before the dates run out
        steps_dates = shared.setdefault(size, (range(1, size + 1), dates[:size]))
        columns = (*steps_dates, trace.statistics, flags)
        tables.append((f"{kind}-trace", ("step", "date", "statistic", "alarm"), columns))
    return Report(
        config=config,
        sections=tuple(sections),
        tables=tuple(tables),
        notes=notes,
    )


def _cmd_simulate(config: RunConfig) -> Report:
    from . import calib, renewal

    model, score = _detector(config)
    spec = _calibration_spec(config)
    detectors = [calib.DetectorConfig(kind, model, score) for kind in _kinds(config)]
    constants = renewal.estimate_constants(model, _policy(config))
    arl_numbers = (constants.i_f, constants.i_g, constants.zeta.value)
    notes = [
        "worst-case delay estimated with the change in force from the first step",
        f"stationary delay estimated at nu={spec.nu_stationary} (doubling checked within "
        "2*hypot(se_nu, se_2nu), about four standard errors of the difference)",
    ]
    # a score is the LLR of its design's model N(0, 1) -> N(delta, 1/q^2), the
    # model's own only up to rounding
    own = model.standardized
    design = own if score is None else score.model
    own_design = all(
        math.isclose(a, b, rel_tol=1e-12)
        for a, b in ((design.mu_post, own.mu_post), (design.sigma_post, own.sigma_post))
    )
    if not own_design:
        # approx-arl reads only I_f, I_g and zeta; the path functionals go unused
        zeta = renewal.limiting_overshoots(design, _policy(config))[0]
        arl_numbers = (*renewal.kl_numbers(design), zeta.value)
        notes += [
            "approx-arl from the renewal constants of the score design's model "
            f"N(0, 1) -> N({score.delta!r}, 1/{score.q!r}^2)",
            "no approx delay lines: the score design differs from the model, and the "
            "model's LLR constants do not describe the score after the change",
        ]
    sections = [("constants", _constants_entries(constants))]
    kept_any = False
    solved = [calib.solve_threshold(detector, spec) for detector in detectors]
    thresholds = [threshold for threshold, _ in solved]
    # the kinds share one pre-change walk per replication, drawn once
    stadds = calib.estimate_stadd(detectors, thresholds, spec)
    for detector, (threshold, arl), stadd in zip(detectors, solved, stadds):
        kind = detector.kind
        sadd = calib.estimate_sadd(detector, threshold, spec)
        entries = [
            ReportEntry("threshold", threshold),
            ReportEntry("monte-carlo-arl", arl.value, "observations", arl.std_error),
            ReportEntry("approx-arl", renewal.arl_approx(kind, threshold, *arl_numbers), "observations"),
            ReportEntry("monte-carlo-sadd", sadd.value, "observations", sadd.std_error),
        ]
        approx = renewal.delay_approx(kind, threshold, constants) if own_design else {}
        approx, left_out = _applicable_delays(kind, threshold, constants, approx)
        notes += left_out
        kept_any = kept_any or bool(approx)
        if "sadd" in approx:
            entries.append(ReportEntry("approx-sadd", approx["sadd"], "observations"))
        entries.append(
            ReportEntry("monte-carlo-stadd", stadd.value, "observations", stadd.std_error)
        )
        if "stadd" in approx:
            entries.append(ReportEntry("approx-stadd", approx["stadd"], "observations"))
        if "add_inf" in approx:
            entries.append(ReportEntry("approx-add-inf", approx["add_inf"], "observations"))
        sections.append((kind, tuple(entries)))
    if kept_any:
        notes.append(
            "approx delay lines are large-threshold expansions: their error shrinks as the "
            "threshold grows, not with the replications"
        )
    return Report(config=config, sections=tuple(sections), notes=tuple(notes))


def _applicable_delays(
    kind: str, threshold: float, constants: renewal.RenewalConstants, approx: dict[str, float]
) -> tuple[dict[str, float], list[str]]:
    """The delay approximations that apply at ``threshold``, and a note for each left out.

    The expansions hold as the threshold grows.  At a small threshold the
    constant terms can outweigh it, and a delay below one observation is no
    approximation; SR's also subtract ``c0`` (sadd) or ``c_inf`` (stadd)
    from ``log A``, which must exceed it.
    """
    floors = {"sadd": ("c0", constants.c0.value), "stadd": ("c_inf", constants.c_inf.value)}
    kept, notes = {}, []
    for name, value in approx.items():
        line = f"{kind} approx-{name.replace('_', '-')}"
        if kind == "sr" and math.log(threshold) <= floors[name][1]:
            notes.append(
                f"no {line}: log A = {math.log(threshold):.4g} is not above "
                f"{floors[name][0]} = {floors[name][1]:.4g}"
            )
        elif value < 1.0:
            notes.append(f"no {line}: the expansion gives {value:.4g} observations, below 1")
        else:
            kept[name] = value
    return kept, notes


class Command(NamedTuple):
    """A subcommand: its runner, its help line and its flags (``RunConfig`` fields)."""

    run: Callable[[RunConfig], Report]
    help: str
    flags: tuple[str, ...]


_COMMON = ("config", "seed", "out")
_INPUT = ("input", "schema")
_MOMENTS = ("mu_pre", "sigma_pre", "mu_post", "sigma_post")
_MODEL = _MOMENTS + ("q", "delta")
#: help lines of the flags that have one
_HELP = {
    "config": "JSON file with defaults for this command's flags",
    "seed": "master seed for all randomness",
    "out": "output directory (default: current)",
    "input": "price CSV file",
    "schema": "column mapping date=COL,close=COL[,format=STRPTIME]",
    "q": "pre-change sd over post-change sd",
    "delta": "standardized mean shift",
    "lags": "comma-separated lag list for scatter pairs",
    "split": "report moments left/right of this index",
    "multi_cyclic": "restart after each alarm instead of stopping",
    "nu": "change index for the stationary delay",
}
_COMMANDS = {
    "returns": Command(_cmd_returns, "difference series from a price CSV", _COMMON + _INPUT),
    "diagnose": Command(
        _cmd_diagnose, "moments and distribution diagnostics",
        _COMMON + _INPUT + ("bins", "max_lag", "lags", "split"),
    ),
    "segment": Command(
        _cmd_segment, "offline change-point segmentation",
        _COMMON + _INPUT + ("min_segment", "bd_threshold"),
    ),
    "constants": Command(
        _cmd_constants, "renewal constants of a change model",
        _COMMON + _MODEL + ("replications",),
    ),
    "calibrate": Command(
        _cmd_calibrate, "thresholds for a target ARL",
        _COMMON + _MODEL
        + ("gamma", "kind", "mode", "replications"),
    ),
    "detect": Command(
        _cmd_detect, "run detectors over a series",
        _COMMON + _INPUT + _MODEL
        + ("kind", "mode", "threshold_a", "threshold_h", "train_end", "multi_cyclic"),
    ),
    "simulate": Command(
        _cmd_simulate, "calibrated SR-vs-CUSUM comparison",
        _COMMON + _MODEL + ("gamma", "kind", "mode", "replications", "nu"),
    ),
}


def execute(config: RunConfig) -> Report:
    """Run one configured command and return its report."""
    return _COMMANDS[config.command].run(config)


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
