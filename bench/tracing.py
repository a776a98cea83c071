"""Span tracing for the traced benchmark run.

``Tracer.install`` replaces the public functions and methods of archlab's
modules with wrappers that record one span per call: name, start, end and
the index of the enclosing span. Nothing inside ``src/`` changes; calls
between modules go through module attributes or class attributes, so the
wrappers see them. Spans stay in memory and are written out when the run
ends. ``layer_metrics`` turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from contextlib import contextmanager

TRACED_MODULES = ("datasets", "linear_aa", "model_selection", "autodiff", "nn",
                  "deep_aa", "cli", "svg")
CLI_COMMANDS = ("gen-data", "fit-linear", "fit-deep", "interpolate", "sample",
                "plot")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, counts]
        self._stack = []
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name, fn, probe=None):
        """``fn`` recording a span per call. ``probe(args, kwargs, result)``
        returns counts for the span; its own time goes to a separate
        ``trace.probe`` span, so it counts in no layer's self time."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if probe is not None:
                with tracer.span("trace.probe"):
                    span[4] = probe(args, kwargs, result)
            return result
        return traced

    # -- installing wrappers ---------------------------------------------------

    def _patch(self, owner, attr, name, probe=None):
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, probe))

    def install(self):
        """Wrap every public function and public method defined in the
        traced modules. Dunder methods, properties and static methods are
        left alone."""
        for short in TRACED_MODULES:
            module = importlib.import_module(f"archlab.{short}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._patch(module, attr, f"{short}.{attr}", PROBES.get(f"{short}.{attr}"))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            name = f"{short}.{attr}.{meth}"
                            self._patch(obj, meth, name, PROBES.get(name))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output ------------------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    def adopt(self, spans, parent):
        """Append spans recorded in a child process below span ``parent``.
        perf_counter reads the system's monotonic clock, which the child
        shares."""
        base = len(self.spans)
        for name, start, end, up, counts in spans:
            self.spans.append([name, start, end, base + up if up >= 0 else parent,
                               counts])


# ---------------------------------------------------------------------------
# Counts recorded at layer boundaries

def _graph_counts(args, kwargs, result):
    root = args[0]
    seen, stack, nbytes = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nbytes += node.value.nbytes
        stack.extend(node.parents)
    return {"nodes": len(seen), "grad_bytes": nbytes}


def _fit_counts(args, kwargs, result):
    return {"iterations": result.iterations, "converged": int(result.converged)}


def _result_rows(args, kwargs, result):
    return {"rows": int(len(result))}


def _encode_rows(args, kwargs, result):
    return {"rows": int(result[0].shape[0])}


def _written_bytes(position):
    def probe(args, kwargs, result):
        path = args[position] if len(args) > position else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    return probe


def _svg_points(args, kwargs, result):
    chart = args[0]
    return {"points": sum(len(xs) for _, _, xs, _ in chart.series)}


PROBES = {
    "autodiff.Node.backward": _graph_counts,
    "linear_aa.fit_linear_aa": _fit_counts,
    "linear_aa.transform": _result_rows,
    "deep_aa.DeepAaModel.encode": _encode_rows,
    "datasets.write_matrix_csv": _written_bytes(2),
    "datasets.write_model": _written_bytes(1),
    "svg.SvgChart.render": _svg_points,
}


# ---------------------------------------------------------------------------
# Per-layer metrics

def layer_metrics(spans, setups: int, rounds: int) -> dict:
    """Per-layer figures from the spans of one traced run. Times are per
    round (per set-up for make_synthetic) unless the name says otherwise;
    a layer the workload does not use reads 0."""
    train = "deep_aa.train"
    # a span's parent always precedes it, so one forward pass finds which
    # spans lie inside training and inside set-up
    in_train = [False] * len(spans)
    in_setup = [False] * len(spans)
    covered = [0.0] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += end - start
            up = spans[parent][0]
            in_train[i] = in_train[parent] or up == train
            in_setup[i] = in_setup[parent] or up == "bench.setup"
    dur, self_t, dur_train, counts = {}, {}, {}, {}
    setup_synthetic = 0.0
    graphs = []  # counts of each training step's graph
    for i, (name, start, end, _, c) in enumerate(spans):
        d = end - start
        dur[name] = dur.get(name, 0.0) + d
        self_t[name] = self_t.get(name, 0.0) + d - covered[i]
        if in_train[i]:
            dur_train[name] = dur_train.get(name, 0.0) + d
        if in_setup[i] and name == "datasets.make_synthetic":
            setup_synthetic += d
        if c:
            bucket = counts.setdefault(name, {})
            for key, value in c.items():
                bucket.setdefault(key, []).append(value)
            if in_train[i] and name == "autodiff.Node.backward":
                graphs.append(c)

    def ratio(num, den):
        return num / den if den else 0.0

    def count_sum(name, key):
        return sum(counts.get(name, {}).get(key, []))

    per_round = 1.0 / max(rounds, 1)
    steps = len(graphs)
    fit_s = dur.get("linear_aa.fit_linear_aa", 0.0)
    iters = count_sum("linear_aa.fit_linear_aa", "iterations")
    decode_calls = sum(1 for s in spans if s[0] == "deep_aa.DeepAaModel.decode")
    m = {
        "datasets.make_synthetic_s": ratio(setup_synthetic, setups),
        "datasets.csv_write_s": dur.get("datasets.write_matrix_csv", 0.0) * per_round,
        "datasets.csv_read_s": dur.get("datasets.read_matrix_csv", 0.0) * per_round,
        "datasets.csv_bytes": count_sum("datasets.write_matrix_csv", "bytes") * per_round,
        "datasets.model_write_s": dur.get("datasets.write_model", 0.0) * per_round,
        "datasets.model_read_s": dur.get("datasets.read_model", 0.0) * per_round,
        "datasets.model_bytes": count_sum("datasets.write_model", "bytes") * per_round,
        "linear_aa.fit_s": fit_s * per_round,
        "linear_aa.outer_iters": iters * per_round,
        "linear_aa.ms_per_outer_iter": 1e3 * ratio(fit_s, iters),
        "linear_aa.fits_converged": count_sum("linear_aa.fit_linear_aa", "converged") * per_round,
        "linear_aa.init_s": dur.get("linear_aa.furthest_sum_indices", 0.0) * per_round,
        "linear_aa.transform_rows_per_s": ratio(count_sum("linear_aa.transform", "rows"),
                                                dur.get("linear_aa.transform", 0.0)),
        "model_selection.sweep_self_s": self_t.get("model_selection.sweep", 0.0) * per_round,
        "autodiff.backward_ms_per_step": 1e3 * ratio(dur_train.get("autodiff.Node.backward", 0.0), steps),
        "autodiff.nodes_per_step": ratio(sum(g["nodes"] for g in graphs), steps),
        "autodiff.grad_bytes_per_step": ratio(sum(g["grad_bytes"] for g in graphs), steps),
        "nn.forward_ms_per_step": 1e3 * ratio(dur_train.get("nn.Mlp.forward", 0.0), steps),
        "nn.adam_ms_per_step": 1e3 * ratio(dur_train.get("nn.Adam.step", 0.0), steps),
        "nn.zero_grad_ms_per_step": 1e3 * ratio(dur_train.get("nn.Adam.zero_grad", 0.0), steps),
        "deep_aa.train_self_ms_per_step": 1e3 * ratio(self_t.get(train, 0.0), steps),
        "deep_aa.encode_rows_per_s": ratio(count_sum("deep_aa.DeepAaModel.encode", "rows"),
                                           dur.get("deep_aa.DeepAaModel.encode", 0.0)),
        "deep_aa.decode_ms_per_call": 1e3 * ratio(dur.get("deep_aa.DeepAaModel.decode", 0.0),
                                                  decode_calls),
    }
    cli_self = self_t.get("cli.main", 0.0)
    for command in CLI_COMMANDS:
        name = "cli.cmd_" + command.replace("-", "_")
        m[f"cli.{command.replace('-', '_')}_s"] = dur.get(name, 0.0) * per_round
        cli_self += self_t.get(name, 0.0)
    m["cli.self_s"] = cli_self * per_round
    m["svg.render_s"] = dur.get("svg.SvgChart.render", 0.0) * per_round
    m["svg.points"] = count_sum("svg.SvgChart.render", "points") * per_round
    return m
