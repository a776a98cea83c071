"""The benchmark's workloads: how each makes its inputs and runs one round.

Every workload is a closed loop in one process: each operation starts
after the previous one ends. ``setup(seed, scale)`` makes the inputs of a
round; ``run_round(inputs, scale, r)`` runs one round, records its
timings and figures in the ``Round`` r, then checks its outputs
(``checks.CheckFailed`` on a wrong output).

Inputs are the acceptance benchmarks of tests/test_acceptance.py. c01's
recovery bound holds on its five frozen datasets and not on other seeds,
so linear-recovery fits exactly those five and ``--seed`` only orders them
and draws their held-out rows. Elsewhere the archetype geometry is that of
a frozen acceptance seed and ``--seed`` draws the rows: of the warped
sweep, of both deep trainings, of the CLI dataset, the held-out rows and
the interpolation end points.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import checks
from archlab import datasets, deep_aa, linear_aa, model_selection
from archlab.datasets import SyntheticSpec
from archlab.deep_aa import DeepAaArch, DeepAaHyper, DeepAaModel

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# The benchmark calls archlab through module attributes (datasets.f, not a
# name imported from it) so that the traced run's wrappers see the calls.

# Frozen acceptance seeds (tests/test_acceptance.py): dataset seeds are
# embed=100+s, sample=200+s and the fit/model seed is s.
LINEAR_SEEDS = (5, 6, 7, 8, 9)
WARPED_SEEDS = (4, 6, 9, 14, 17)
SIDE_INFO_SEED = 0


def fresh_sample_seed(seed: int, salt: int = 0) -> int:
    """Sample seed of rows drawn for benchmark seed ``seed``; disjoint from
    the acceptance sample seeds 200..217."""
    return 10_000 + 100 * seed + salt


@dataclass(frozen=True)
class Scale:
    """Input sizes. ``FULL`` is what the benchmark measures; ``TINY`` runs
    the same code paths in seconds for the self-test."""
    n: int = 10_000
    heldout: int = 2_000
    sweep_n: int = 5_000
    deep_epochs: int = 20
    generate_steps: int = 2_000
    cli_n: int = 100_000
    cli_linear_iters: int = 20
    cli_deep_epochs: int = 1
    cli_interpolate_steps: int = 1_000
    linear_max_iters: int = 500


FULL = Scale()
TINY = Scale(n=300, heldout=50, sweep_n=300, deep_epochs=1, generate_steps=20,
             cli_n=300, cli_linear_iters=5, cli_deep_epochs=1,
             cli_interpolate_steps=10, linear_max_iters=30)


@dataclass
class Round:
    op_seconds: list = field(default_factory=list)
    mse_over_noise: list = field(default_factory=list)  # fitted MSE / noise MSE
    attempted: int = 0
    failed: int = 0
    details: dict = field(default_factory=dict)


def benchmark_spec(s: int, n: int, sample_seed: int | None = None,
                   warped: bool = False) -> SyntheticSpec:
    """The acceptance benchmark spec of seed s (c01/c02/c03). The warp bends
    the coordinate along which the archetypes are most spread out."""
    spec = SyntheticSpec(n=n, p=8, k=3, sigma2=0.05, embed_seed=100 + s,
                         sample_seed=200 + s if sample_seed is None else sample_seed)
    if not warped:
        return spec
    z = datasets.make_archetypes(spec)
    dim = int(np.argmax(z.max(axis=0) - z.min(axis=0)))
    return SyntheticSpec(n=n, p=8, k=3, sigma2=0.05, embed_seed=spec.embed_seed,
                         sample_seed=spec.sample_seed, warp="exp", warp_dim=dim)


def noise_mse(spec: SyntheticSpec, ds) -> float:
    """Mean squared distance of the rows from their noiseless positions,
    rebuilt here from the generator's weights and archetypes."""
    clean = ds.a_true @ datasets.make_archetypes(spec)
    if spec.warp == "exp":
        clean[:, spec.warp_dim] = np.exp(clean[:, spec.warp_dim])
    return float(np.mean((ds.x - clean) ** 2))


def _mse(x, x_hat) -> float:
    return float(np.mean((np.asarray(x) - np.asarray(x_hat)) ** 2))


def _mixtures(seed: int, count: int) -> np.ndarray:
    """Seeded points on the 3-simplex (interpolation end points)."""
    return np.random.default_rng([seed, 7]).dirichlet(np.ones(3), size=count)


# ---------------------------------------------------------------------------
# linear-recovery: the c01 protocol

def setup_linear(seed: int, scale: Scale):
    order = [LINEAR_SEEDS[(seed + i) % len(LINEAR_SEEDS)] for i in range(len(LINEAR_SEEDS))]
    items = []
    for s in order:
        held_spec = benchmark_spec(s, scale.heldout, fresh_sample_seed(seed, s))
        held = datasets.make_synthetic(held_spec)
        items.append((s, datasets.make_synthetic(benchmark_spec(s, scale.n)), held,
                      noise_mse(held_spec, held)))
    return items


def round_linear(items, scale: Scale, r: Round, tracer=None) -> None:
    fit_s, transform_s, mse = [], [], []
    for s, ds, held, held_noise in items:
        r.attempted += 1
        started = time.perf_counter()
        model = linear_aa.fit_linear_aa(
            ds.x, linear_aa.LinearAaConfig(k=3, seed=s, max_outer_iters=scale.linear_max_iters))
        fitted = time.perf_counter()
        a = linear_aa.transform(held.x, model.z)
        done = time.perf_counter()
        r.op_seconds.append(done - started)
        fit_s.append(fitted - started)
        transform_s.append(done - fitted)
        mse.append(_mse(held.x, a @ model.z))
        r.mse_over_noise.append(mse[-1] / held_noise)
        r.details = {"linear_fit_s": fit_s, "heldout_mse": mse,
                     "transform_rows_per_s": [len(held.x) / t for t in transform_s]}
        if scale is FULL:
            checks.recovery(model.z, ds.z_true)
            checks.converged(model.converged, model.iterations)
        checks.simplex_rows(model.a, "A")
        checks.simplex_rows(model.b, "B")
        checks.archetypes_are_bx(model.z, model.b, ds.x)
        checks.rss_non_increasing(model.rss_history)
        checks.simplex_kkt(held.x, model.z, a)


# ---------------------------------------------------------------------------
# warped-sweep: model_selection.sweep over k=1..5 in the c02 setting

SWEEP_KS = [1, 2, 3, 4, 5]


def setup_sweep(seed: int, scale: Scale):
    spec = benchmark_spec(WARPED_SEEDS[0], scale.sweep_n, fresh_sample_seed(seed),
                          warped=True)
    ds = datasets.make_synthetic(spec)
    # the noise of all rows: the 10% test split alone gives a noisier estimate
    # of the same expectation under the warp's heavy tail
    return seed, ds, noise_mse(spec, ds)


def round_sweep(inputs, scale: Scale, r: Round, tracer=None) -> None:
    seed, ds, noise = inputs
    started = time.perf_counter()
    curve = model_selection.sweep(ds, SWEEP_KS, fit="linear",
                                  cfg={"max_outer_iters": scale.linear_max_iters}, seed=seed)
    r.op_seconds.append(time.perf_counter() - started)
    r.attempted = len(SWEEP_KS)
    r.failed = sum(loss is None for loss in curve.losses)
    r.details = {"sweep_s": r.op_seconds[0], "losses": curve.losses,
                 "chosen_k": curve.chosen_k}
    if curve.losses[-1] is not None:
        r.mse_over_noise.append(curve.losses[-1] / noise)
    # a None loss is a failed fit, counted above; the checks speak of the rest
    if r.failed == 0 and scale is FULL:
        checks.sweep_losses(curve.ks, curve.losses)


# ---------------------------------------------------------------------------
# deep-train: c03 training on the warped benchmark and c08 side information

def _hyper(seed: int, scale: Scale) -> DeepAaHyper:
    return DeepAaHyper(at_weight=64.0, lr=1e-3, batch=100, epochs=scale.deep_epochs,
                       seed=seed)


def setup_deep(seed: int, scale: Scale):
    s = WARPED_SEEDS[0]
    warped = datasets.make_synthetic(
        benchmark_spec(s, scale.n, fresh_sample_seed(seed), warped=True))
    held_spec = benchmark_spec(s, scale.heldout, fresh_sample_seed(seed, 50), warped=True)
    held = datasets.make_synthetic(held_spec)
    side = datasets.make_side_info(datasets.make_synthetic(
        benchmark_spec(SIDE_INFO_SEED, scale.n, fresh_sample_seed(seed, 60))),
        kind="mixture_projection", j=0)
    return {"s": s, "warped": warped, "held": held,
            "held_noise": noise_mse(held_spec, held), "side": side,
            "side_noise": noise_mse(benchmark_spec(SIDE_INFO_SEED, scale.n), side),
            "side_split": model_selection.split_train_test(side.n, seed),
            "ends": _mixtures(seed, 4)}


def _train_and_generate(r: Round, model, data, hyper, ends, steps):
    """One operation: train, encode every training row, decode an
    interpolation of ``steps`` mixtures. Times each part, then checks the
    encoding and the interpolation's end points against generate()."""
    r.attempted += 1
    started = time.perf_counter()
    deep_aa.train(model, data, hyper)
    trained = time.perf_counter()
    mu = model.encode(data.x)[3]
    encoded = time.perf_counter()
    rows = deep_aa.interpolate(model, ends[0], ends[1], steps)
    done = time.perf_counter()
    r.op_seconds.append(done - started)
    for key, value in (("train_s", trained - started), ("train_steps", len(model.history)),
                       ("encode_s", encoded - trained), ("generate_s", done - encoded)):
        r.details.setdefault(key, []).append(value)
    r.details["train_steps_per_s"] = sum(r.details["train_steps"]) / sum(r.details["train_s"])
    r.details["generate_rows_per_s"] = steps * len(r.details["generate_s"]) / sum(r.details["generate_s"])
    checks.require(mu.shape == (len(data.x), model.arch.latent_dim) and np.all(np.isfinite(mu)),
                   "encode() of every row")
    checks.rows_equal(rows[0], deep_aa.generate(model, ends[0])[0], "first interpolation row")
    checks.rows_equal(rows[-1], deep_aa.generate(model, ends[1])[0], "last interpolation row")


def round_deep(inp, scale: Scale, r: Round, tracer=None) -> None:
    # c03: unlabelled training on the warped benchmark
    ds = inp["warped"]
    model = DeepAaModel(DeepAaArch(input_dim=ds.p, k=3), seed=inp["s"])
    _train_and_generate(r, model, datasets.Dataset(x=ds.x), _hyper(inp["s"], scale),
                        inp["ends"][:2], scale.generate_steps)
    held = inp["held"]
    x_hat, _ = model.decode(model.encode(held.x)[3])
    r.mse_over_noise.append(_mse(held.x, x_hat) / inp["held_noise"])
    if scale is FULL:
        r.details["c03"] = checks.c03_bounds(
            ds.x, ds.z_true, model.frame.vertices, model.encode,
            lambda a: deep_aa.generate(model, a)[0])

    # c08: side-information training on a 90/10 split
    side = inp["side"]
    train_idx, test_idx = inp["side_split"]
    model = DeepAaModel(DeepAaArch(input_dim=side.p, k=3, side_hidden=(16,)),
                        seed=SIDE_INFO_SEED)
    _train_and_generate(r, model, datasets.Dataset(x=side.x[train_idx], labels=side.labels[train_idx]),
                        _hyper(SIDE_INFO_SEED, scale), inp["ends"][2:], scale.generate_steps)
    x_hat, y_hat = model.decode(model.encode(side.x[test_idx])[3])
    r.mse_over_noise.append(_mse(side.x[test_idx], x_hat) / inp["side_noise"])
    if scale is FULL:
        vertices = [deep_aa.generate(model, np.eye(3)[j]) for j in range(3)]
        r.details["c08_r2"] = checks.c08_steering(
            side.labels[test_idx], y_hat, [v[1] for v in vertices],
            np.array([v[0] for v in vertices]), side.z_true)


# ---------------------------------------------------------------------------
# cli-pipeline: archlab commands on files

CLI_K = 3


# this process's CLI files; run.py removes the directory when it ends
WORK_DIR = os.path.join(BENCH_DIR, "work", str(os.getpid()))


def setup_cli(seed: int, scale: Scale):
    work = os.path.join(WORK_DIR, f"cli-{seed}")
    os.makedirs(work, exist_ok=True)
    spec = SyntheticSpec(n=scale.cli_n, p=8, k=CLI_K, sigma2=0.05,
                         embed_seed=100 + LINEAR_SEEDS[0], sample_seed=fresh_sample_seed(seed))
    expected = datasets.make_side_info(datasets.make_synthetic(spec), kind="mixture_projection", j=0)
    files = {
        "spec.json": {**spec.to_dict(), "side_info": {"kind": "mixture_projection", "j": 0}},
        "arch.json": {"encoder_hidden": [64, 64], "decoder_hidden": [64, 64]},
        "hyper.json": {"epochs": scale.cli_deep_epochs, "batch": 100},
    }
    for name, payload in files.items():
        with open(os.path.join(work, name), "w") as fh:
            json.dump(payload, fh)
    return {"seed": seed, "work": work, "expected": expected,
            "noise": noise_mse(spec, expected), "ends": _mixtures(seed, 2)}


def _weights(a) -> str:
    return ",".join(repr(float(v)) for v in a)


def cli_commands(inp, scale: Scale):
    w = inp["work"]
    seed = str(inp["seed"])
    a_start, a_end = _weights(inp["ends"][0]), _weights(inp["ends"][1])
    return [
        ["gen-data", "--spec", f"{w}/spec.json", "--out", f"{w}/data"],
        ["fit-linear", "--data", f"{w}/data", "--k", str(CLI_K), "--seed", seed,
         "--max-iters", str(scale.cli_linear_iters), "--out", f"{w}/linear"],
        ["fit-deep", "--data", f"{w}/data", "--k", str(CLI_K), "--arch", f"{w}/arch.json",
         "--hyper", f"{w}/hyper.json", "--seed", seed, "--side-info", "--out", f"{w}/deep"],
        ["interpolate", "--model", f"{w}/deep/model.json", "--from", a_start, "--to", a_end,
         "--steps", str(scale.cli_interpolate_steps), "--out", f"{w}/interp"],
        ["sample", "--model", f"{w}/deep/model.json", "--weights", a_start,
         "--out", f"{w}/sample"],
        ["plot", "--in", f"{w}/linear/pca_scatter.csv", "--kind", "scatter",
         "--out", f"{w}/plot.svg"],
    ]


def run_cli(argv, tracer=None):
    """Run one archlab command in its own process; returns (exit code,
    seconds). Traced runs go through traced_cli.py, which records the
    child's spans to a file that is then added to ``tracer``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if tracer is None:
        cmd = [sys.executable, "-m", "archlab.cli", *argv]
    else:
        spans_file = os.path.join(os.path.dirname(argv[-1]), f".spans-{argv[0]}.json")
        cmd = [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"), spans_file, *argv]
    started = time.perf_counter()
    if tracer is None:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=170)
    else:
        parent = len(tracer.spans)
        with tracer.span("bench.process"):
            proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=170)
        if os.path.exists(spans_file):
            with open(spans_file) as fh:
                tracer.adopt(json.load(fh), parent)
            os.remove(spans_file)
    seconds = time.perf_counter() - started
    if proc.returncode != 0:
        print(f"archlab {argv[0]} exited {proc.returncode}: {proc.stderr.strip()}",
              file=sys.stderr)
    return proc.returncode, seconds


def round_cli(inp, scale: Scale, r: Round, tracer=None) -> None:
    w = inp["work"]
    for sub in ("data", "linear", "deep", "interp", "sample"):
        shutil.rmtree(os.path.join(w, sub), ignore_errors=True)
    seconds, ok = {}, {}
    for argv in cli_commands(inp, scale):
        r.attempted += 1
        code, seconds[argv[0]] = run_cli(argv, tracer)
        ok[argv[0]] = code == 0
        r.failed += code != 0
    r.op_seconds.append(sum(seconds.values()))
    r.details = {"cli_pipeline_s": r.op_seconds[0], "command_s": seconds}

    # the checks speak of the commands that succeeded
    exp = inp["expected"]
    if ok["gen-data"]:
        header = [f"x{j}" for j in range(exp.p)] + ["label"]
        x_read = checks.csv_equals(f"{w}/data/X.csv", np.column_stack([exp.x, exp.labels]),
                                   header)[:, :-1]
        if ok["fit-linear"]:
            model = checks.linear_model_file(f"{w}/linear/model.json", x_read)
            r.mse_over_noise.append(model["rss"] / exp.x.size / inp["noise"])
    if ok["interpolate"] and ok["sample"]:
        _, interp = checks.read_csv_floats(f"{w}/interp/interpolation.csv")
        _, sample = checks.read_csv_floats(f"{w}/sample/sample.csv")
        checks.require(interp.shape[0] == scale.cli_interpolate_steps, "interpolation row count")
        checks.rows_equal(interp[0], sample[0, :exp.p], "first interpolation row against sample")
    if ok["plot"]:
        checks.svg_parses(f"{w}/plot.svg")


WORKLOADS = {
    "linear-recovery": (setup_linear, round_linear),
    "warped-sweep": (setup_sweep, round_sweep),
    "deep-train": (setup_deep, round_deep),
    "cli-pipeline": (setup_cli, round_cli),
}
