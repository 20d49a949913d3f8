"""Span tracing for the benchmark's traced runs.

Wrappers are installed from here, around the public entry points of each
module of ``fareybratteli``; the package itself is not edited.  A span is
``(name, start, end, parent)`` with ``parent`` the index of the enclosing
span (-1 at the top).  Spans stay in memory until the run ends.  A span's
self time is its duration minus the time its child spans cover; calls are
single-threaded and nested, so the children's durations simply add.

Exact counters sit on the same boundaries: operator products, relation
checks, ``phi`` evaluations, continued-fraction digits pulled from streams
and ``label`` calls.  They must repeat exactly between two passes over the
same inputs.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from collections import Counter

# (module, attribute, span name).  "Class.method" attributes wrap a method.
ENTRY_POINTS = (
    ("core", "row", "core.row"),
    ("core", "label", "core.label"),
    ("core", "question_mark", "core.question_mark"),
    ("core", "question_mark_inv", "core.question_mark_inv"),
    ("core", "totient_fiber", "core.totient_fiber"),
    ("core", "partition_function", "core.partition_function"),
    ("ideals", "quotient_levels", "ideals.quotient_levels"),
    ("ideals", "ideal_levels", "ideals.ideal_levels"),
    ("ideals", "is_hereditary", "ideals.is_hereditary"),
    ("ideals", "is_directed", "ideals.is_directed"),
    ("ideals", "convergence_check", "ideals.convergence_check"),
    ("ideals", "levelset_to_json", "ideals.levelset_to_json"),
    ("ideals", "levelset_to_dot", "ideals.levelset_to_dot"),
    ("dimension_group", "verify_unit_decomposition", "dimension_group.verify_unit_decomposition"),
    ("dimension_group", "beta_lift", "dimension_group.beta_lift"),
    ("dimension_group", "add_classes", "dimension_group.add_classes"),
    ("dimension_group", "stern_brocot_generating", "dimension_group.stern_brocot_generating"),
    ("traces", "check_trace", "traces.check_trace"),
    ("traces", "alpha_from_phi", "traces.alpha_from_phi"),
    ("path_algebra", "Representation.__init__", "path_algebra.rep_build"),
    ("path_algebra", "Representation.tl", "path_algebra.tl"),
    ("path_algebra", "Representation.with_sign_flip", "path_algebra.with_sign_flip"),
    ("path_algebra", "SparseOperator.__mul__", "path_algebra.product"),
    ("path_algebra", "verify_relation_suite", "path_algebra.base"),
    ("path_algebra", "yang_baxter_check", "path_algebra.yb"),
    ("path_algebra", "verify_braiding_suite", "path_algebra.braiding"),
    ("path_algebra", "run_all_suites", "path_algebra.run_all_suites"),
    ("path_algebra", "random_sign_mutation", "path_algebra.random_sign_mutation"),
    ("cli", "main", "cli.main"),
)

# per-layer metric -> span names whose self times it sums
SELF_TIME_METRICS = {
    "path_algebra.base_s": ("path_algebra.base",),
    "path_algebra.yb_s": ("path_algebra.yb",),
    "path_algebra.braiding_s": ("path_algebra.braiding",),
    "path_algebra.rep_build_s": ("path_algebra.rep_build",),
    "path_algebra.tl_s": ("path_algebra.tl",),
    "path_algebra.product_s": ("path_algebra.product",),
    "core.row_s": ("core.row",),
    "core.label_s": ("core.label",),
    "core.question_mark_s": ("core.question_mark", "core.question_mark_inv"),
    "core.totient_fiber_s": ("core.totient_fiber",),
    "core.partition_function_s": ("core.partition_function",),
    "ideals.quotient_levels_s": ("ideals.quotient_levels",),
    "ideals.export_s": ("ideals.levelset_to_json", "ideals.levelset_to_dot"),
    "ideals.closure_s": ("ideals.is_hereditary", "ideals.is_directed"),
    "traces.check_trace_s": ("traces.check_trace",),
    "traces.alpha_s": ("traces.alpha_from_phi",),
    "dimension_group.unit_decomposition_s": ("dimension_group.verify_unit_decomposition",),
    "dimension_group.lift_s": ("dimension_group.beta_lift", "dimension_group.add_classes"),
    "cli.self_s": ("cli.main",),
}

# counters that must repeat exactly for the same code and inputs
EXACT_COUNTERS = (
    "path_algebra.products",
    "path_algebra.checks",
    "traces.phi_calls",
    "ideals.cf_terms",
    "core.label_calls",
    "cli.calls",
    "path_algebra.checks_failed",
)

_SUITE_SPANS = ("path_algebra.base", "path_algebra.yb", "path_algebra.braiding")


class Tracer:
    """In-memory span recorder with exact counters."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.enabled = True  # switched off once the timed jobs are done
        self._stack: list[int] = []

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def span(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index] = (name, start, time.perf_counter(), parent)

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start) - child
        return out

    def layer_metrics(self) -> dict[str, float]:
        own = self.self_times()
        metrics = {m: sum(own.get(n, 0.0) for n in names) for m, names in SELF_TIME_METRICS.items()}
        for name in EXACT_COUNTERS:
            metrics[name] = self.counts[name]
        return metrics

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, handle)


def _counting_candidate(tracer: Tracer, candidate):
    phi = candidate.phi

    def counted(v):
        tracer.count("traces.phi_calls")
        return phi(v)

    return dataclasses.replace(candidate, phi=counted)


def _wrapper(tracer: Tracer, name: str, fn):
    if name in ("traces.check_trace", "traces.alpha_from_phi"):

        @functools.wraps(fn)
        def wrapped(candidate, *args, **kwargs):
            return tracer.span(name, fn, _counting_candidate(tracer, candidate), *args, **kwargs)

        return wrapped

    if name in _SUITE_SPANS:

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            report = tracer.span(name, fn, *args, **kwargs)
            tracer.count("path_algebra.checks", len(report.checks))
            tracer.count("path_algebra.checks_failed", len(report.failures()))
            return report

        return wrapped

    counter = {
        "path_algebra.product": "path_algebra.products",
        "core.label": "core.label_calls",
        "cli.main": "cli.calls",
    }.get(name)

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if counter:
            tracer.count(counter)
        return tracer.span(name, fn, *args, **kwargs)

    return wrapped


def install(tracer: Tracer, package) -> None:
    """Wrap every entry point of ``ENTRY_POINTS`` in ``package``.

    A function imported by name into another module (``from .core import
    label``) is replaced there too, so calls across modules are traced
    whichever name they go through.
    """
    modules = [getattr(package, name) for name in dict.fromkeys(m for m, _, _ in ENTRY_POINTS)]
    for module_name, attr, span_name in ENTRY_POINTS:
        module = getattr(package, module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, _wrapper(tracer, span_name, getattr(cls, method)))
            continue
        original = getattr(module, attr)
        wrapped = _wrapper(tracer, span_name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    stream = package.ideals.CFStream
    extend = stream._extend

    def counted_extend(self):
        pulled = extend(self)
        if pulled:
            tracer.count("ideals.cf_terms")
        return pulled

    stream._extend = counted_extend
