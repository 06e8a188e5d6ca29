"""Spans recorded from outside nsplab, at the module attributes through which
its layers call each other.

While installed, a Tracer replaces those attributes with wrappers.  Each call
records a span (name, start, end, parent span, thread id, task id) plus the
count the layer's return value carries: LP pivots from ``LpResult``, ADMM
iterations and status from ``RecoveryResult``, draws from array shapes.
Spans stay in memory; ``uninstall`` restores the original attributes.

A task is labelled by the stream-id parts the harness derives for it
(``stable_stream_id("preserve_nsp", m, trial)`` and so on), so every span a
task opens carries that label, whichever pool thread runs it.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

import numpy as np

import nsplab
import nsplab.dictionary
import nsplab.harness
import nsplab.nsp
import nsplab.width


def _pivots(result):
    return result.iterations


def _admm(result):
    return (result.iterations, result.status)


def _rows(result):
    return int(np.shape(result)[0])


def _size(result):
    return int(np.size(result))


# (owner, attribute, span name, count taken from the call)
TARGETS = (
    (nsplab, "certify_nsp", "nsp.certify_nsp", None),
    (nsplab.harness, "certify_nsp", "nsp.certify_nsp", None),
    (nsplab.nsp, "solve_lp", "simplex.solve_lp", _pivots),
    (nsplab.nsp, "kernel_basis", "numerics.kernel_basis", None),
    (nsplab.dictionary, "operator_norm", "numerics.operator_norm", None),
    (nsplab.harness, "solve_l1_synthesis", "solver.solve_l1_synthesis", _admm),
    (nsplab.harness, "sample_measurement_matrix", "subgaussian.sample_measurement_matrix", None),
    (nsplab.width, "cone_projection_values", "width.cone_projection_values", _rows),
    (nsplab.width, "dual_surrogate_values", "width.dual_surrogate_values", _rows),
    (nsplab.RngStream, "normal", "rng.normal", _size),
    (nsplab, "make_dictionary", "dictionary.make_dictionary", None),
    (nsplab.harness, "make_dictionary", "dictionary.make_dictionary", None),
)

LAYERS = ("nsp", "simplex", "numerics", "solver", "width", "rng", "subgaussian", "dictionary")


class Tracer:
    def __init__(self):
        # (id, name, start, end, parent id, thread id, task, count)
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.task = None
        return local

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._state()
            span_id = next(tracer._ids)
            parent = local.stack[-1] if local.stack else None
            task = local.task if local.task is not None else (parent[1] if parent else span_id)
            local.stack.append((span_id, task))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                local.stack.pop()
            info = count(result) if count else None
            tracer.spans.append(
                (span_id, name, start, end, parent[0] if parent else None,
                 threading.get_ident(), task, info)
            )
            return result

        return wrapper

    def _label_tasks(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*parts):
            tracer._state().task = "/".join(str(p) for p in parts)
            return fn(*parts)

        return wrapper

    def install(self):
        for owner, attr, name, count in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))
        self._saved.append((nsplab.harness, "stable_stream_id", nsplab.harness.stable_stream_id))
        nsplab.harness.stable_stream_id = self._label_tasks(nsplab.harness.stable_stream_id)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def to_json(self) -> list:
        keys = ("id", "name", "start", "end", "parent", "thread", "task", "count")
        return [dict(zip(keys, s)) for s in self.spans]


def _pct_ms(durations, q):
    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


def layer_metrics(spans, wall_s: float, main_thread: int) -> dict:
    """Per-layer metrics of a traced round from its spans.

    busy_s sums span durations (inclusive of children); <layer>.self_s sums
    each span's duration minus the time its child spans cover.  With a pool,
    summed busy time exceeds wall time, hence harness.threads beside it.
    """
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    for _, name, start, end, parent, *_ in spans:
        by_name[name].append(end - start)
        if parent is not None:
            child_time[parent] += end - start
    self_s = defaultdict(float)
    for sid, name, start, end, *_ in spans:
        self_s[name.split(".")[0]] += end - start - child_time[sid]

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return float(sum(by_name[name]))

    def counts(name):
        return [s[7] for s in spans if s[1] == name]

    pivots = sum(counts("simplex.solve_lp"))
    admm = counts("solver.solve_l1_synthesis")
    iters = sum(it for it, _ in admm)
    draws = sum(counts("width.cone_projection_values")) + sum(counts("width.dual_surrogate_values"))
    width_busy = busy("width.cone_projection_values") + busy("width.dual_surrogate_values")
    parent_name = {s[0]: s[1] for s in spans}
    rng_draws = sum(
        s[7] for s in spans if s[1] == "rng.normal" and parent_name.get(s[4]) != "rng.normal"
    )
    roots = [s for s in spans if s[4] is None]
    pool_threads = {s[5] for s in roots if s[5] != main_thread}

    m = {}
    for name in ("nsp.certify_nsp", "solver.solve_l1_synthesis"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.p50_ms"] = _pct_ms(by_name[name], 50)
        m[f"{name}.p90_ms"] = _pct_ms(by_name[name], 90)
    for name in (
        "simplex.solve_lp",
        "numerics.kernel_basis",
        "numerics.operator_norm",
        "width.cone_projection_values",
        "width.dual_surrogate_values",
        "rng.normal",
        "subgaussian.sample_measurement_matrix",
    ):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
    m["simplex.pivots"] = pivots
    m["simplex.pivots_per_lp"] = pivots / calls("simplex.solve_lp") if calls("simplex.solve_lp") else 0.0
    m["simplex.us_per_pivot"] = busy("simplex.solve_lp") / pivots * 1e6 if pivots else 0.0
    m["solver.admm_iters"] = iters
    m["solver.us_per_iter"] = busy("solver.solve_l1_synthesis") / iters * 1e6 if iters else 0.0
    m["solver.nonconverged"] = sum(status != "converged" for _, status in admm)
    m["width.draws"] = draws
    m["width.us_per_draw"] = width_busy / draws * 1e6 if draws else 0.0
    m["rng.normal.draws"] = rng_draws
    m["dictionary.make_dictionary.busy_s"] = busy("dictionary.make_dictionary")
    m["harness.threads"] = max(1, len(pool_threads))
    m["harness.busy_over_wall"] = sum(s[3] - s[2] for s in roots) / wall_s
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    return m


# Exact counts: identical across repeated traced runs of one seed.
COUNT_METRICS = (
    "nsp.certify_nsp.calls",
    "simplex.solve_lp.calls",
    "simplex.pivots",
    "numerics.kernel_basis.calls",
    "numerics.operator_norm.calls",
    "solver.solve_l1_synthesis.calls",
    "solver.admm_iters",
    "solver.nonconverged",
    "width.cone_projection_values.calls",
    "width.dual_surrogate_values.calls",
    "width.draws",
    "rng.normal.calls",
    "rng.normal.draws",
    "subgaussian.sample_measurement_matrix.calls",
)
