"""Span recorder for the traced run.

The recorder wraps jsda's public functions at every module attribute that
binds them (``jsda.bounds.js_divergence`` as well as
``jsda.divergence.js_divergence``), so calls between modules are seen
without changing the package. Each call becomes a span (name, start, end,
parent) held in column arrays; a layer's self time is its spans' duration
minus the part covered by their child spans. A wrapped function that the
package no longer has is listed in ``missing`` and produces no spans.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable

import numpy as np


def _union_size(p, q) -> int:
    if hasattr(p, "mass"):
        return int(p.mass.size)
    if p.atoms == q.atoms:
        return len(p.atoms)
    return len(set(p.atoms).union(q.atoms))


def _divergence_name(args, kwargs) -> str:
    kind = args[0] if args else kwargs.get("kind")
    return f"divergence.{kind}"


def _divergence_counts(args, kwargs, result):
    p, q = (args[1], args[2]) if len(args) >= 3 else (kwargs["p"], kwargs["q"])
    return (("divergence.atoms", _union_size(p, q)),)


def _suite_name(args, kwargs) -> str:
    return f"suites.run_suite:{args[0] if args else kwargs['name']}"


def _suite_counts(args, kwargs, result):
    trials = args[1] if len(args) > 1 else kwargs["trials"]
    return ((f"suites.trials:{args[0] if args else kwargs['name']}", trials),)


def _decomposed_name(args, kwargs) -> str:
    axis = args[3] if len(args) > 3 else kwargs.get("axis", "x")
    return f"bounds.decomposed_upper_{axis}"


def _report_bytes(args, kwargs, result):
    path = args[2] if len(args) > 2 else kwargs.get("path")
    return (("cli.report_bytes", Path(path).stat().st_size if path else 0),)


def _discretize_cells(args, kwargs, result):
    return (("scenarios.discretize_cells", len(result.x_atoms)),)


def _sample_count(args, kwargs, result):
    return (("scenarios.samples", len(result)),)


def _bbsl_counts(args, kwargs, result):
    return (("labelshift.bbsl_solves", result.method == "solve"),)


def _h1d_coords(args, kwargs, result):
    p, q = args[0], args[1]
    return (("divergence.h1d_coords", len(set(p.coords).union(q.coords))),)


def _align_atoms(args, kwargs, result):
    return (("pmf.align_supports_atoms", len(result[0].atoms)),)


# (module, attribute, span name or name function, count function or None)
FUNCTIONS: tuple = (
    ("jsda.pmf", "align_supports", "pmf.align_supports", _align_atoms),
    ("jsda.pmf", "conditionals", "pmf.conditionals", None),
    ("jsda.pmf", "marginals", "pmf.marginals", None),
    ("jsda.divergence", "divergence", _divergence_name, _divergence_counts),
    ("jsda.divergence", "h_divergence_1d", "divergence.h1d", _h1d_coords),
    ("jsda.divergence", "pushforward", "divergence.pushforward", None),
    ("jsda.bounds", "joint_upper_bound", "bounds.joint_upper", None),
    ("jsda.bounds", "zero_one_band", "bounds.zero_one_band", None),
    ("jsda.bounds", "decomposed_upper_bound", _decomposed_name, None),
    ("jsda.bounds", "intrinsic_error_upper_bound", "bounds.intrinsic_error", None),
    ("jsda.bounds", "conditional_shift_lower_bound", "bounds.conditional_shift_floor", None),
    ("jsda.bounds", "matched_conditional_band", "bounds.matched_conditional", None),
    ("jsda.bounds", "prediction_gap_lower_bound", "bounds.prediction_gap", None),
    ("jsda.suites", "run_suite", _suite_name, _suite_counts),
    ("jsda.cli", "write_report", "cli.write_report", _report_bytes),
    ("jsda.scenarios", "discretize", "scenarios.discretize", _discretize_cells),
    ("jsda.scenarios", "sample", "scenarios.sample", _sample_count),
    ("jsda.cases", "counterexample1", "cases.counterexample", None),
    ("jsda.labelshift", "bbsl_weights", "labelshift.bbsl", _bbsl_counts),
    ("jsda.training", "train_step", "training.train_step", None),
    ("jsda.training", "pseudo_label_step", "training.pseudo_label", None),
    ("jsda.training", "run_training", "training.run", None),
)

# Classes whose construction validates its input: (module, class, span name).
VALIDATED = (("jsda.pmf", "Pmf", "pmf.validate"), ("jsda.pmf", "JointPmf", "pmf.validate"))

VERIFIERS = ("joint_upper", "zero_one_band", "decomposed_upper_x", "decomposed_upper_y",
             "intrinsic_error", "conditional_shift_floor", "matched_conditional",
             "prediction_gap")
GRID_VERIFIERS = VERIFIERS[:-1]


class Tracer:
    """Spans in column arrays plus named counters; install() patches jsda."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span of its own (the benchmark's root spans)."""
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def _wrap(self, fn: Callable, name, counts) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counts is not None:
                for key, value in counts(args, kwargs, result):
                    tracer.counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "jsda" and not modname.startswith("jsda."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self) -> None:
        for modname, attr, name, counts in FUNCTIONS:
            fn = getattr(importlib.import_module(modname), attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self._rebind(fn, self._wrap(fn, name, counts))
        for modname, clsname, name in VALIDATED:
            cls = getattr(importlib.import_module(modname), clsname, None)
            post_init = getattr(cls, "__post_init__", None)
            if post_init is None:
                self.missing.append(f"{modname}.{clsname}.__post_init__")
                continue
            setattr(cls, "__post_init__", self._wrap(post_init, name, None))
            self._undo.append((cls, "__post_init__", post_init))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path: Path) -> None:
        """Write every span and counter out (called once, when the run ends)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays(),
                            counter_names=np.array(sorted(self.counts)),
                            counter_values=np.array([self.counts[k] for k in sorted(self.counts)]))


class SpanTable:
    """Per-name count, inclusive time and self time of a finished trace."""

    def __init__(self, tracer: Tracer) -> None:
        a = tracer.arrays()
        self.names = tracer.names
        self.counts = dict(tracer.counts)
        name, parent = a["name"], a["parent"]
        self._dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=self._dur[has_parent],
                            minlength=self._dur.size)
        self._self = self._dur - child
        self._name = name
        root = np.where(has_parent, parent, np.arange(name.size))
        while True:  # pointer jumping: each pass halves the remaining depth
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        self._root_name = name[root]
        k = len(self.names)
        self.n = np.bincount(name, minlength=k)
        self.total = np.bincount(name, weights=self._dur, minlength=k)
        self.self_s = np.bincount(name, weights=self._self, minlength=k)

    def _id(self, name: str) -> int | None:
        return self.names.index(name) if name in self.names else None

    def calls(self, *names: str) -> int:
        return int(sum(self.n[i] for i in map(self._id, names) if i is not None))

    def inclusive(self, *names: str) -> float:
        return float(sum(self.total[i] for i in map(self._id, names) if i is not None))

    def own(self, *names: str) -> float:
        return float(sum(self.self_s[i] for i in map(self._id, names) if i is not None))

    def inclusive_under(self, name: str, root: str) -> float:
        i, r = self._id(name), self._id(root)
        if i is None or r is None:
            return 0.0
        return float(self._dur[(self._name == i) & (self._root_name == r)].sum())

    def median_us(self, name: str) -> float:
        i = self._id(name)
        if i is None:
            return 0.0
        return statistics.median(self._dur[self._name == i].tolist()) * 1e6

    def with_prefix(self, prefix: str) -> list[str]:
        return [n for n in self.names if n.startswith(prefix)]


def layer_metrics(t: SpanTable, suites: tuple[str, ...]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, as (value, unit)."""
    div = t.with_prefix("divergence.")
    div_kinds = [n for n in div if n[len("divergence."):] in ("JS", "KL", "TV", "Renyi2")]
    verifiers = [f"bounds.{v}" for v in VERIFIERS]
    bbsl_calls = t.calls("labelshift.bbsl")
    m: dict[str, tuple[float, str]] = {
        "pmf.validations": (t.calls("pmf.validate"), "count"),
        "pmf.validate_self_s": (t.own("pmf.validate"), "s"),
        "pmf.align_supports_calls": (t.calls("pmf.align_supports"), "count"),
        "pmf.align_supports_atoms": (t.counts.get("pmf.align_supports_atoms", 0), "count"),
        "pmf.align_supports_self_s": (t.own("pmf.align_supports"), "s"),
        "pmf.conditionals_self_s": (t.own("pmf.conditionals"), "s"),
        "pmf.marginals_self_s": (t.own("pmf.marginals"), "s"),
        "divergence.calls": (t.calls(*div_kinds), "count"),
        "divergence.atoms": (t.counts.get("divergence.atoms", 0), "count"),
        "divergence.js_self_s": (t.own("divergence.JS"), "s"),
        "divergence.kl_self_s": (t.own("divergence.KL"), "s"),
        "divergence.tv_self_s": (t.own("divergence.TV"), "s"),
        "divergence.pushforward_self_s": (t.own("divergence.pushforward"), "s"),
        "divergence.h1d_coords": (t.counts.get("divergence.h1d_coords", 0), "count"),
        "divergence.h1d_self_s": (t.own("divergence.h1d"), "s"),
        "bounds.verifier_calls": (t.calls(*verifiers), "count"),
        "bounds.verifier_self_s": (t.own(*verifiers), "s"),
    }
    for v in GRID_VERIFIERS:
        m[f"bounds.{v}_s"] = (t.inclusive_under(f"bounds.{v}", "op.grid_analysis"), "s")
    suite_spans = []
    for name in suites:
        span = f"suites.run_suite:{name}"
        suite_spans.append(span)
        trials = t.counts.get(f"suites.trials:{name}", 0)
        us = t.inclusive(span) / trials * 1e6 if trials else 0.0
        m[f"suites.{name}.us_per_instance"] = (us, "us")
    m["suites.generator_self_s"] = (t.own(*suite_spans), "s")
    m["cli.write_report_s"] = (t.inclusive("cli.write_report"), "s")
    m["cli.report_bytes"] = (t.counts.get("cli.report_bytes", 0), "bytes")
    m["scenarios.discretize_cells"] = (t.counts.get("scenarios.discretize_cells", 0), "count")
    m["scenarios.discretize_s"] = (t.inclusive("scenarios.discretize"), "s")
    m["scenarios.samples"] = (t.counts.get("scenarios.samples", 0), "count")
    m["scenarios.sample_s"] = (t.inclusive("scenarios.sample"), "s")
    m["cases.counterexample_s"] = (t.inclusive("cases.counterexample"), "s")
    m["labelshift.bbsl_calls"] = (bbsl_calls, "count")
    m["labelshift.bbsl_self_s"] = (t.own("labelshift.bbsl"), "s")
    m["labelshift.solve_share"] = (
        t.counts.get("labelshift.bbsl_solves", 0) / bbsl_calls if bbsl_calls else 0.0, "share")
    m["training.train_step_calls"] = (t.calls("training.train_step"), "count")
    m["training.train_step_us"] = (t.median_us("training.train_step"), "us")
    m["training.train_step_self_s"] = (t.own("training.train_step"), "s")
    m["training.pseudo_label_self_s"] = (t.own("training.pseudo_label"), "s")
    m["training.run_self_s"] = (t.own("training.run"), "s")
    return m
