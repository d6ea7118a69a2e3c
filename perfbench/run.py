#!/usr/bin/env python3
"""Benchmark of the ``quickdetect`` command line, end to end and per layer.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload calibrate-hst --seed 1 --seconds 30 --trace 0

``--trace 0`` times whole passes of the workload's commands, each command in
a fresh interpreter (``sys.exit(quickdetect.cli.main())``, as the installed
console script does), one after another, until ``--seconds`` have passed.
It prints the end-to-end metrics, with times scaled to a reference host
speed gauged by a fixed import timed before and after each pass.
``--trace 1`` runs the same commands in this process instead, alternating an
untraced pass with a pass traced through :mod:`tracing`, and prints the
per-layer metrics.  Metric names and units are those ``BENCHMARK.json``
declares.

Either way the first pass's outputs are checked against :mod:`reference`
computations, later passes must reproduce its JSON reports byte for byte,
and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where ``attempted`` and ``failed`` count commands.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: fewest setup probes per run; a slow host may leave time for only three passes
SETUP_PROBES = 3
#: a fixed import, apart from the program, of the libraries the CLI loads.
#: Timed in a fresh interpreter before and after every pass, it gauges how
#: fast the host runs at that moment; see "Host speed" in README.md.
SPEED_PROBE = "import numpy, scipy.stats"
#: median time of SPEED_PROBE on the machine README.md describes
REFERENCE_PROBE_S = 1.2
ENTRY = "import sys; from quickdetect.cli import main; sys.exit(main())"



def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares; a run prints exactly these."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {metric["name"]: metric["unit"] for metric in declared}


@dataclass
class Pass:
    wall: float
    where: Path
    outs: dict[str, Path]
    codes: dict[str, int]
    peak_rss_mb: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _launch(argv: list[str], log: Path) -> tuple[float, int, float]:
    """Run one process to its end: (seconds, exit code, peak RSS in MB)."""
    with log.open("wb") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=handle, stderr=subprocess.STDOUT, env=_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def _program_present() -> bool:
    if not (SRC / "quickdetect" / "cli.py").is_file():
        return False
    # the interpreter must find this checkout's package, not an installed one
    probe = subprocess.run(
        [sys.executable, "-c", "import importlib.util as u; print(u.find_spec('quickdetect').origin)"],
        capture_output=True, text=True, env=_env(), cwd=ROOT, check=False,
    )
    origin = probe.stdout.strip()
    return probe.returncode == 0 and Path(origin).resolve() == (SRC / "quickdetect" / "__init__.py").resolve()


def _digest(out: Path, label: str) -> str:
    reports = sorted(out.glob(f"{label}-*.report.json"))
    if len(reports) != 1:
        return "missing"
    return hashlib.sha256(reports[0].read_bytes()).hexdigest()


def subprocess_pass(workload: workloads.Workload, where: Path) -> Pass:
    outs, codes, rss = {}, {}, 0.0
    start = time.perf_counter()
    for label, args in workload.commands:
        out = where / label
        out.mkdir(parents=True)
        _, code, peak = _launch([sys.executable, "-c", ENTRY, *args, "--out", str(out)], where / f"{label}.log")
        outs[label], codes[label], rss = out, code, max(rss, peak)
    return Pass(time.perf_counter() - start, where, outs, codes, rss)


def inprocess_pass(workload: workloads.Workload, where: Path, recorder: tracing.Recorder | None) -> Pass:
    from quickdetect import cli

    main = cli.main if recorder is None else recorder.wrap("cli.main", cli.main)
    restore = tracing.instrument(recorder) if recorder is not None else (lambda: None)
    outs, codes = {}, {}
    sink = io.StringIO()
    try:
        start = time.perf_counter()
        for label, args in workload.commands:
            out = where / label
            out.mkdir(parents=True)
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                codes[label] = main([*args, "--out", str(out)])
            outs[label] = out
        wall = time.perf_counter() - start
    finally:
        restore()
    return Pass(wall, where, outs, codes)


def judge(workload: workloads.Workload, passes: list[Pass]) -> tuple[int, int, bool, list[str]]:
    """Attempted and failed commands, whether every check held, and why not.

    The first pass is checked against the reference computations; every
    later pass must reproduce its reports byte for byte.
    """
    for p in passes:
        p.digests = {label: _digest(out, label) for label, out in p.outs.items()}
    first = passes[0]
    problems: dict[str, list[str]] = {label: [] for label, _ in workload.commands}
    if all(code == 0 for code in first.codes.values()):
        for label, found in workload.check(first.outs).items():
            problems[label] += found
    messages = []
    attempted = failed = 0
    correct = True
    for number, p in enumerate(passes, start=1):
        for label, _ in workload.commands:
            attempted += 1
            bad = []
            if p.codes[label] != 0:
                bad.append(f"exit code {p.codes[label]}")
            elif p.digests[label] != first.digests[label]:
                bad.append("JSON report differs from the first pass")
                correct = False
            elif problems[label]:
                bad += problems[label]
                correct = False
            if bad:
                failed += 1
                messages += [f"pass {number} {label}: {b}" for b in bad]
    return attempted, failed, correct, messages


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest of p90/p99/p99.9 with ten samples beyond it; none under 40."""
    n = len(samples)
    best = None
    if n >= 40:
        for p in (90.0, 99.0, 99.9):
            if n * (1.0 - p / 100.0) >= 10.0:
                best = (p, float(statistics.quantiles(samples, n=1000)[int(p * 10) - 1]))
    return best


def timed_run(workload: workloads.Workload, seconds: float, work: Path):
    deadline = time.perf_counter() + seconds
    speed: list[float] = []
    setup: list[float] = []

    def probe(code: str, into: list[float]) -> None:
        took, status, _ = _launch([sys.executable, "-c", code], work / "probe.log")
        if status != 0:
            raise SystemExit(f"python3 -c {code!r} failed; see {work / 'probe.log'}")
        into.append(took)

    # each pass and each setup probe sits between two speed probes:
    # speed, setup, pass, speed, setup, pass, ..., speed
    passes: list[Pass] = []
    while not passes or time.perf_counter() < deadline:
        probe(SPEED_PROBE, speed)
        probe("import quickdetect.cli", setup)
        passes.append(subprocess_pass(workload, work / f"pass-{len(passes) + 1}"))
    probe(SPEED_PROBE, speed)
    while len(setup) < SETUP_PROBES:
        probe("import quickdetect.cli", setup)
        probe(SPEED_PROBE, speed)
    attempted, failed, correct, messages = judge(workload, passes)
    # the mean of the two probes around a pass follows the host's drift
    # within a run, and halves the weight of either probe's own noise
    scale = [REFERENCE_PROBE_S / (0.5 * (a + b)) for a, b in zip(speed, speed[1:])]
    walls = [p.wall * k for p, k in zip(passes, scale)]
    lines = [
        f"passes: {len(passes)}, measured wall per pass (s): " + " ".join(f"{p.wall:.3f}" for p in passes),
        "speed probes (s): " + " ".join(f"{s:.3f}" for s in speed),
        "setup probes (s): " + " ".join(f"{s:.3f}" for s in setup),
        f"measured medians: wall {_median([p.wall for p in passes]):.4f} s, setup {_median(setup):.4f} s",
    ]
    tail = tail_percentile(walls)
    lines.append(
        f"wall_s tail: p{tail[0]:g} = {tail[1]:.4f} s" if tail
        else f"wall_s tail: none reported ({len(walls)} passes; a percentile needs 40 and ten beyond it)"
    )
    metrics = {
        "wall_s": _median(walls),
        "setup_s": _median([t * k for t, k in zip(setup, scale)]),
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
    }
    return metrics, passes, (attempted, failed, correct, messages), lines


def traced_run(workload: workloads.Workload, seconds: float, work: Path):
    sys.path.insert(0, str(SRC))
    import quickdetect.cli  # noqa: F401 - imported before any pass is timed

    deadline = time.perf_counter() + seconds
    passes: list[Pass] = []
    layer_runs: list[dict[str, float]] = []
    overheads: list[float] = []
    while not layer_runs or time.perf_counter() < deadline:
        plain = inprocess_pass(workload, work / f"pass-{len(passes) + 1}", None)
        recorder = tracing.Recorder()
        traced = inprocess_pass(workload, work / f"pass-{len(passes) + 2}", recorder)
        passes += [plain, traced]
        spans = recorder.spans()
        layer_runs.append(tracing.layer_metrics(spans, workload.replications))
        overheads.append(traced.wall - plain.wall)
    spans.save(work / "spans.npz")
    attempted, failed, correct, messages = judge(workload, passes)
    units = declared_units("per_layer")
    metrics = {}
    for name in layer_runs[0]:
        values = [run[name] for run in layer_runs]
        if units.get(name) == "count" and len(set(values)) != 1:
            correct = False
            messages.append(f"{name} differs between traced passes: {values}")
        metrics[name] = _median(values)
    metrics["trace.overhead_s"] = _median(overheads)
    lines = [
        f"traced passes: {len(layer_runs)}, untraced in-process wall (s): "
        + " ".join(f"{p.wall:.3f}" for p in passes[0::2])
        + ", traced (s): " + " ".join(f"{p.wall:.3f}" for p in passes[1::2]),
        f"spans of the last traced pass: {work / 'spans.npz'}",
    ]
    return metrics, passes, (attempted, failed, correct, messages), lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops the command it is waiting for (see _launch)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not _program_present():
        print(f"quickdetect sources not found under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.build(args.workload, args.seed, work / "input")
    run = traced_run if args.trace else timed_run
    metrics, passes, verdict, lines = run(workload, args.seconds, work)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise SystemExit(
            f"metrics {sorted(set(metrics) ^ set(units))} are measured or declared in "
            "BENCHMARK.json, but not both"
        )
    attempted, failed, correct, messages = verdict
    for p in passes[1:]:  # the first pass's outputs stay for inspection
        shutil.rmtree(p.where, ignore_errors=True)

    print(f"workload {workload.name}, seed {args.seed}, inputs {json.dumps(workload.inputs)}")
    for label, args_ in workload.commands:
        print(f"  command {label}: quickdetect {' '.join(args_)}")
        print(f"  report digest {label}: {passes[0].digests[label]}")
    for line in lines:
        print(line)
    for message in messages:
        print(f"FAILED {message}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"commands attempted: {attempted}, failed: {failed}, correct: {str(correct).lower()}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
