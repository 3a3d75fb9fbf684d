"""Spans for the traced run.

The benchmark wraps the public functions of epicast's layers where they
are called (the attribute a caller's module looks up), records one span per
call in memory, and turns the spans into per-layer figures when the run
ends. Nothing inside the program changes.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    round: int = 0  # the traced round (run id) the span belongs to
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; each thread nests its own spans. A span opened on a
    worker thread with nothing open there is the child of the innermost span
    open on the thread that created the tracer, e.g. a grid cell run by a
    pool thread is a child of ``run_grid``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.round = 0
        self._ids = itertools.count(1)
        self._owner = threading.get_ident()
        self._owner_stack: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        outer = stack[-1:] or self._owner_stack[-1:]
        s = Span(next(self._ids), outer[0].id if outer else None, name, 0.0, round=self.round, attrs=attrs)
        stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            self.spans.append(s)

    def dump(self, path) -> None:
        """Write every span as one JSON line; attrs that JSON lacks become strings."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dataclasses.asdict(s), default=str) + "\n")

    def wrap(self, fn, name: str, attrs_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                if attrs_of is not None:
                    s.attrs.update(attrs_of(args, out))
                return out

        return traced


def _kernel_label(kernel) -> str:
    return f"poly{kernel.degree}" if kernel.kind == "poly" else kernel.kind


def _train_attrs(args, out) -> dict:
    model, _ = out
    return {"family": args[0], "config": args[1], "target": args[4], "meta": dict(model.train_meta)}


# What each span keeps from its call: counts come from return values.
ATTRS = {
    "dataset.parse": lambda a, out: {"bytes": len(a[0].encode("utf-8"))},
    "svr.gram": lambda a, out: {"kernel": _kernel_label(a[0]), "bytes": out.shape[0] * out.shape[1] * 8},
    "svr.fit": lambda a, out: {
        "kernel": _kernel_label(a[2].kernel),
        "passes": out.passes,
        "converged": bool(out.converged),
    },
    "optimizers.lbfgs": lambda a, out: {"iterations": out.iterations},
    "optimizers.sgd": lambda a, out: {"iterations": out.iterations},
    "optimizers.adam": lambda a, out: {"iterations": out.iterations},
    "linear.fit": lambda a, out: {"iterations": a[2].iterations},
    "models.train": _train_attrs,
    "models.save": lambda a, out: {"bytes": os.path.getsize(a[1])},
}

# (module, attribute, span): the call sites the traced run wraps.
WRAP_POINTS = (
    ("epicast.cli", "parse_csv", "dataset.parse"),
    ("epicast.cli", "impute_missing", "dataset.impute"),
    ("epicast.cli", "fingerprint", "dataset.fingerprint"),
    ("epicast.harness", "fingerprint", "dataset.fingerprint"),
    ("epicast.cli", "summarize_series", "dataset.summarize"),
    ("epicast.cli", "build_supervised", "preprocess.build"),
    ("epicast.harness", "build_supervised", "preprocess.build"),
    ("epicast.forecast", "build_supervised", "preprocess.build"),
    ("epicast.cli", "standardized_split", "preprocess.split"),
    ("epicast.harness", "standardized_split", "preprocess.split"),
    ("epicast.forecast", "standardized_split", "preprocess.split"),
    ("epicast.cli", "transform", "preprocess.transform"),
    ("epicast.models", "svr_fit", "svr.fit"),
    ("epicast.svr", "gram_matrix", "svr.gram"),
    ("epicast.models", "train_mlp", "mlp.fit"),
    ("epicast.mlp", "loss_and_gradient", "mlp.loss_and_gradient"),
    ("epicast.mlp", "lbfgs_minimize", "optimizers.lbfgs"),
    ("epicast.mlp", "sgd_minimize", "optimizers.sgd"),
    ("epicast.mlp", "adam_minimize", "optimizers.adam"),
    ("epicast.models", "linreg_fit", "linear.fit"),
    ("epicast.cli", "train_on_split", "models.train"),
    ("epicast.harness", "train_on_split", "models.train"),
    ("epicast.forecast", "train_on_split", "models.train"),
    ("epicast.cli", "save_model", "models.save"),
    ("epicast.cli", "load_model", "models.load"),
    ("epicast.models", "predict_scaled", "models.predict"),
    ("epicast.cli", "predict_scaled", "models.predict"),
    ("epicast.cli", "run_grid", "harness.run_grid"),
    ("epicast.cli", "select_best", "harness.select_best"),
    ("epicast.cli", "compare_models", "harness.compare"),
    ("epicast.cli", "forecast", "forecast.forecast"),
    ("epicast.forecast", "forecast", "forecast.forecast"),
    ("epicast.cli", "scenario_run", "forecast.scenario"),
)


@contextmanager
def installed(tracer: Tracer):
    """Wrap every call site in WRAP_POINTS for the duration of the block.
    A call site that no longer exists raises AttributeError here."""
    originals = []
    try:
        for module_name, attr, name in WRAP_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(fn, name, ATTRS.get(name)))
        yield
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


def missing_spans(spans: list[Span], required: frozenset[str]) -> list[str]:
    """Required span names that recorded no call."""
    seen = {s.name for s in spans}
    return sorted(required - seen)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.
    Children are clipped to the parent's interval; overlapping children
    (parallel grid cells) count once."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {
        s.id: s.seconds
        - _covered([(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]])
        for s in spans
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Profile:
    """Per-layer figures from the spans of ``rounds`` traced rounds.
    Totals and counts are per round; ``*_us_per_*`` and ``*_ms`` of a single
    call are means over calls."""

    def __init__(self, spans: list[Span], rounds: int) -> None:
        self.spans = spans
        self.rounds = rounds
        self.by_id = {s.id: s for s in spans}
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)
        self.self_s = self_times(spans)

    def parent_name(self, s: Span) -> str | None:
        parent = self.by_id.get(s.parent)
        return parent.name if parent else None

    def _under(self, name: str, parent: str) -> list[Span]:
        return [s for s in self.by_name[name] if self.parent_name(s) == parent]

    def total_ms(self, name: str) -> float:
        return 1e3 * sum(s.seconds for s in self.by_name[name]) / self.rounds

    def mean_ms(self, name: str) -> float:
        spans = self.by_name[name]
        return _ratio(1e3 * sum(s.seconds for s in spans), len(spans))

    def per_round(self, name: str) -> float:
        return len(self.by_name[name]) / self.rounds

    def attr_sum(self, name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in self.by_name[name])

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics every workload reports."""
        r = self.rounds
        fit_grams = self._under("svr.gram", "svr.fit")
        svr_fits = self.by_name["svr.fit"]
        passes = self.attr_sum("svr.fit", "passes")
        lbfgs = self.by_name["optimizers.lbfgs"]
        lbfgs_iters = self.attr_sum("optimizers.lbfgs", "iterations")
        linear_iters = self.attr_sum("linear.fit", "iterations")
        trains = [1e3 * s.seconds for s in self.by_name["models.train"]]
        commands = [s for s in self.spans if s.name.startswith("cli.")]
        return {
            "dataset.parse_ms": self.mean_ms("dataset.parse"),
            "dataset.impute_ms": self.mean_ms("dataset.impute"),
            "dataset.fingerprint_ms": self.mean_ms("dataset.fingerprint"),
            "dataset.input_bytes": self.attr_sum("dataset.parse", "bytes") / r,
            "preprocess.calls": self.per_round("preprocess.build"),
            "preprocess.ms": sum(
                self.total_ms(n) for n in ("preprocess.build", "preprocess.split", "preprocess.transform")
            ),
            "svr.gram_ms": _ratio(1e3 * sum(s.seconds for s in fit_grams), len(fit_grams)),
            "svr.gram_bytes": sum(s.attrs["bytes"] for s in fit_grams) / r,
            "svr.fit_ms": self.total_ms("svr.fit"),
            "svr.passes": passes / r,
            "svr.us_per_pass": _ratio(1e6 * sum(self.self_s[s.id] for s in svr_fits), passes),
            "svr.unconverged": sum(not s.attrs["converged"] for s in svr_fits) / r,
            "svr.converged_ratio": _ratio(sum(s.attrs["converged"] for s in svr_fits), len(svr_fits)),
            "mlp.evals": self.per_round("mlp.loss_and_gradient"),
            "mlp.us_per_eval": 1e3 * self.mean_ms("mlp.loss_and_gradient"),
            "mlp.fit_ms": self.total_ms("mlp.fit"),
            "optimizers.lbfgs_iters": lbfgs_iters / r,
            "optimizers.evals_per_iter": _ratio(
                len(self._under("mlp.loss_and_gradient", "optimizers.lbfgs")), lbfgs_iters
            ),
            "optimizers.lbfgs_self_us_per_iter": _ratio(
                1e6 * sum(self.self_s[s.id] for s in lbfgs), lbfgs_iters
            ),
            "linear.fit_ms": self.total_ms("linear.fit"),
            "linear.us_per_iter": _ratio(
                1e6 * sum(s.seconds for s in self.by_name["linear.fit"]), linear_iters
            ),
            "models.predict_ms": self.total_ms("models.predict"),
            "models.train_ms.p50": statistics.median(trains) if trains else 0.0,
            "models.train_ms.max": max(trains, default=0.0),
            "cli.self_ms": _ratio(1e3 * sum(self.self_s[s.id] for s in commands), len(commands)),
            "cli.report_bytes": sum(s.attrs.get("report_bytes", 0) for s in commands) / r,
        }

    def workload_metrics(self) -> dict[str, float]:
        """Per-layer figures of layers that only some workloads exercise."""
        out: dict[str, float] = {}
        for name, metric in (
            ("dataset.summarize", "dataset.summarize_ms"),
            ("models.save", "models.save_ms"),
            ("models.load", "models.load_ms"),
            ("forecast.forecast", "forecast.forecast_ms"),
            ("forecast.scenario", "forecast.scenario_ms"),
        ):
            if self.by_name[name]:
                out[metric] = self.mean_ms(name)
        if self.by_name["models.save"]:
            out["models.doc_bytes"] = self.attr_sum("models.save", "bytes") / len(self.by_name["models.save"])
        grids = self.by_name["harness.run_grid"]
        if grids:
            cells = [c for g in grids for c in self._children(g, "models.train")]
            cell_ms = [1e3 * c.seconds for c in cells]
            out["harness.cell_ms.p50"] = statistics.median(cell_ms)
            out["harness.cell_ms.max"] = max(cell_ms)
            out["harness.overlap"] = sum(c.seconds for c in cells) / sum(g.seconds for g in grids)
        compares = self.by_name["harness.compare"]
        if compares:
            refits = [c for g in compares for c in self._children(g, "models.train")]
            out["harness.compare_refit_ms"] = 1e3 * sum(c.seconds for c in refits) / self.rounds
        by_kernel: dict[str, list[float]] = defaultdict(list)
        for s in self._under("svr.gram", "svr.fit"):
            by_kernel[s.attrs["kernel"]].append(1e3 * s.seconds)
        for kernel, ms in sorted(by_kernel.items()):
            out[f"svr.gram_ms.{kernel}"] = statistics.fmean(ms)
        return out

    def _children(self, parent: Span, name: str) -> list[Span]:
        return [s for s in self.by_name[name] if s.parent == parent.id]

    def _descendants(self, root: Span, name: str) -> list[Span]:
        found = []
        for s in self.by_name[name]:
            up = self.by_id.get(s.parent)
            while up is not None and up.id != root.id:
                up = self.by_id.get(up.parent)
            if up is not None:
                found.append(s)
        return found

    def cell_table(self, grid: Span, slot_of) -> list[dict]:
        """One row per grid cell fitted under ``grid`` (a run_grid span),
        in (family, slot, target) order."""
        rows = []
        for train in self._children(grid, "models.train"):
            meta = train.attrs["meta"]
            family = train.attrs["family"]
            fit = next(iter(self._children(train, {"svr": "svr.fit", "mlp": "mlp.fit"}.get(family, "linear.fit"))), None)
            rows.append(
                {
                    "family": family,
                    "slot": slot_of(family, train.attrs["config"]),
                    "target": train.attrs["target"],
                    "status": meta.get("status"),
                    "iterations": meta.get("iterations"),
                    "evals": {
                        "mlp": len(self._descendants(train, "mlp.loss_and_gradient")),
                        "linreg": meta.get("iterations"),  # one loss per iteration
                    }.get(family),
                    "support_vectors": meta.get("support_vectors"),
                    "fit_ms": 1e3 * fit.seconds if fit else None,
                }
            )
        rows.sort(key=lambda row: (row["family"], row["slot"] or 0, row["target"]))
        return rows
