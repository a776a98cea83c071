"""Contract between archlab and the benchmark's tracer: the names
``bench/tracing.py`` wraps and reads must still exist and be called, or the
per-layer figures of a traced run silently read 0."""

import importlib
from pathlib import Path

import numpy as np

from archlab import deep_aa, linear_aa
from archlab.datasets import Dataset

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_traced_training_reports_every_deep_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    tracing = importlib.import_module("tracing")
    x = np.random.default_rng(0).normal(size=(40, 4))
    model = deep_aa.DeepAaModel(deep_aa.DeepAaArch(
        input_dim=4, k=3, encoder_hidden=(8,), decoder_hidden=(8,)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        deep_aa.train(model, Dataset(x=x), deep_aa.DeepAaHyper(epochs=2, batch=20))
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, 1, 1)
    for name in ("autodiff.backward_ms_per_step", "autodiff.nodes_per_step",
                 "nn.forward_ms_per_step", "nn.adam_ms_per_step",
                 "nn.zero_grad_ms_per_step", "deep_aa.encode_rows_per_s"):
        assert metrics[name] > 0, name


def test_traced_fit_reports_every_linear_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    tracing = importlib.import_module("tracing")
    x = np.random.default_rng(1).normal(size=(60, 3))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        model = linear_aa.fit_linear_aa(x, linear_aa.LinearAaConfig(k=3))
        linear_aa.transform(x, model.z)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, 1, 1)
    for name in ("linear_aa.fit_s", "linear_aa.outer_iters", "linear_aa.init_s",
                 "linear_aa.transform_rows_per_s"):
        assert metrics[name] > 0, name
