"""Spans around quickdetect's layer boundaries, recorded from outside.

:func:`instrument` replaces the functions listed in :data:`BOUNDARIES` and
:data:`METHODS` with wrappers that record one span per call: name, start,
end, parent span and an optional work count.  The program's sources are not
touched; the wrappers are installed on the module attributes through which
the program calls across layers, and removed again by the function that
:func:`instrument` returns.  Spans stay in memory until :meth:`Recorder.save`.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

#: attributes replaced in each module's namespace.  A name imported from
#: another layer (``calib.substream``) is wrapped where the caller looks it
#: up; the CLI reaches every layer through module attributes.  Per-step
#: helpers inside one layer (``detect.cusum_step``) are left alone so that
#: tracing does not dominate the loops it measures.
BOUNDARIES = {
    "quickdetect.series": ("load_csv", "to_returns", "estimate_moments", "standardize"),
    "quickdetect.models": ("llr", "design_coefficients", "linear_quadratic_score"),
    "quickdetect.calib": (
        "solve_threshold",
        "estimate_arl",
        "estimate_sadd",
        "estimate_stadd",
        "substream",
        "mean_se",
        "llr",
        "linear_quadratic_score",
    ),
    "quickdetect.renewal": (
        "estimate_constants",
        "limiting_overshoots",
        "path_functionals",
        "arl_approx",
        "delay_approx",
        "substream",
        "mean_se",
        "llr",
    ),
    "quickdetect.detect": ("to_ratios", "run_detector", "multi_cyclic_run"),
    "quickdetect.offline": ("bd_estimate", "bd_segment", "null_threshold", "estimate_moments"),
    "quickdetect.cli": ("emit",),
}
METHODS = {"quickdetect.calib": {"DetectorConfig": ("sample", "log_increments")}}


def _size_count(args, kwargs, result) -> int:
    return int(np.size(result))


def _trace_count(args, kwargs, result) -> int:
    return int(result.increments_consumed)


#: work counted per span: observations drawn, increments computed, steps run
COUNTS = {
    "calib.DetectorConfig.sample": _size_count,
    "models.llr": _size_count,
    "models.linear_quadratic_score": _size_count,
    "detect.multi_cyclic_run": _trace_count,
}


def layer_of(module: str) -> str:
    """``quickdetect._rand`` -> ``rand``."""
    return module.rsplit(".", 1)[-1].lstrip("_")


class Recorder:
    """In-memory span store: parallel arrays indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self._stack = [-1]

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` recorded around every call."""
        nid = self.name_index(name)
        count = COUNTS.get(name)
        stack = self._stack
        name_ids, parents, starts, ends, counts = (
            self.name_id, self.parent, self.start, self.end, self.count
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            counts.append(0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if count is not None:
                counts[idx] = count(args, kwargs, result)
            return result

        return traced

    def spans(self) -> "Spans":
        return Spans(
            names=list(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=float).copy(),
            end=np.frombuffer(self.end, dtype=float).copy(),
            count=np.frombuffer(self.count, dtype=np.int64).copy(),
        )


def instrument(recorder: Recorder):
    """Install span wrappers on quickdetect; return a function that undoes it."""
    undo = []
    wrappers: dict[int, object] = {}
    for module_name, attrs in BOUNDARIES.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            original = getattr(module, attr)
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                name = f"{layer_of(original.__module__)}.{original.__name__}"
                wrapper = wrappers[id(original)] = recorder.wrap(name, original)
            setattr(module, attr, wrapper)
            undo.append((module, attr, original))
    for module_name, classes in METHODS.items():
        module = importlib.import_module(module_name)
        for class_name, methods in classes.items():
            cls = getattr(module, class_name)
            for method in methods:
                original = cls.__dict__[method]
                name = f"{layer_of(module_name)}.{class_name}.{method}"
                setattr(cls, method, recorder.wrap(name, original))
                undo.append((cls, method, original))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


class Spans:
    """Recorded spans as arrays, with the arithmetic the metrics need.

    Span ids are assigned at entry, so a parent's id is always smaller than
    its children's; ``parent`` is -1 for a root span.
    """

    def __init__(self, names, name_id, parent, start, end, count) -> None:
        self.names = list(names)
        self.name_id = np.asarray(name_id, dtype=np.int32)
        self.parent = np.asarray(parent, dtype=np.int32)
        self.start = np.asarray(start, dtype=float)
        self.end = np.asarray(end, dtype=float)
        self.count = np.asarray(count, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.start.size)

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def named(self, *names: str) -> np.ndarray:
        """Mask of spans with any of ``names``."""
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name_id, ids)

    def inside(self, *names: str) -> np.ndarray:
        """Mask of spans with an ancestor named in ``names``."""
        direct = self.named(*names)
        has_parent = self.parent >= 0
        parent = np.where(has_parent, self.parent, 0)
        mask = np.zeros(len(self), dtype=bool)
        while True:  # one more level of nesting per round
            grown = has_parent & (direct[parent] | mask[parent])
            if np.array_equal(grown, mask):
                return mask
            mask = grown

    def self_time(self) -> np.ndarray:
        """Each span's duration minus the part of it its children cover.

        Children are clipped to the parent's interval and overlapping
        children are merged, so a moment is subtracted once however many
        children cover it.
        """
        covered = np.zeros(len(self))
        order = np.lexsort((self.start, self.parent))
        current = -1
        reach = -np.inf
        for i in order.tolist():
            p = int(self.parent[i])
            if p < 0:
                continue
            lo = max(self.start[i], self.start[p])
            hi = min(self.end[i], self.end[p])
            if p != current:
                current, reach = p, -np.inf
            lo = max(lo, reach)
            if hi > lo:
                covered[p] += hi - lo
            reach = max(reach, hi)
        return self.duration - covered

    def total(self, *names: str, mask: np.ndarray | None = None) -> float:
        selected = self.named(*names) if mask is None else mask & self.named(*names)
        return float(self.duration[selected].sum())

    def counted(self, *names: str, mask: np.ndarray | None = None) -> int:
        selected = self.named(*names) if mask is None else mask & self.named(*names)
        return int(self.count[selected].sum())

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=self.name_id,
            parent=self.parent,
            start=self.start,
            end=self.end,
            count=self.count,
        )


_ESTIMATORS = (
    "calib.solve_threshold",
    "calib.estimate_arl",
    "calib.estimate_sadd",
    "calib.estimate_stadd",
)


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0.0 else 0.0


def layer_metrics(spans: Spans, replications: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in s, counts, rates in 1/s).

    ``replications`` is the Monte Carlo budget of the pass's commands; the
    generators a threshold solve creates, divided by it, is the number of
    ARL evaluations the solve made.
    """
    self_time = spans.self_time()
    in_solve = spans.inside("calib.solve_threshold")
    in_estimator = spans.inside(*_ESTIMATORS)
    in_renewal = spans.inside("renewal.estimate_constants")
    top_estimators = spans.named(*_ESTIMATORS) & ~in_estimator

    solve_generators = int((spans.named("rand.substream") & in_solve).sum())
    calib_steps = spans.counted("calib.DetectorConfig.sample")
    estimator_s = float(spans.duration[top_estimators].sum())
    detect_steps = spans.counted("detect.multi_cyclic_run")
    detect_s = spans.total("detect.multi_cyclic_run")
    return {
        "calib.solve_threshold_s": spans.total("calib.solve_threshold"),
        "calib.arl_evaluations": solve_generators / replications if replications else 0,
        "calib.steps_simulated": calib_steps,
        "calib.steps_per_s": _rate(calib_steps, estimator_s),
        "calib.sample_s": spans.total("calib.DetectorConfig.sample"),
        "calib.kernel_self_s": float(self_time[top_estimators].sum()),
        "calib.estimate_sadd_s": spans.total("calib.estimate_sadd"),
        "calib.estimate_stadd_s": spans.total("calib.estimate_stadd"),
        "rand.substreams": int(spans.named("rand.substream").sum()),
        "rand.substream_s": spans.total("rand.substream"),
        "models.increments_s": spans.total("models.llr", "models.linear_quadratic_score"),
        "renewal.estimate_constants_s": spans.total("renewal.estimate_constants"),
        "renewal.limiting_overshoots_s": spans.total("renewal.limiting_overshoots"),
        "renewal.path_functionals_s": spans.total("renewal.path_functionals"),
        "renewal.steps_simulated": spans.counted("models.llr", mask=in_renewal),
        "detect.multi_cyclic_run_s": detect_s,
        "detect.steps_per_s": _rate(detect_steps, detect_s),
        "series.load_csv_s": spans.total("series.load_csv"),
        "offline.bd_segment_s": spans.total("offline.bd_segment"),
        "offline.null_threshold_s": spans.total("offline.null_threshold"),
        "cli.emit_s": spans.total("cli.emit"),
        "cli.self_s": float(self_time[spans.named("cli.main")].sum()),
    }
