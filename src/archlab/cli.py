"""Command-line entry point. Every command writes plot-ready CSV/JSON/SVG
files; nothing is interactive. Each command but ``plot`` writes into an
output directory, where :func:`main` adds a ``manifest.json`` with the keys
``command``, ``config``, ``seeds``, ``inputs``, ``outputs`` (the other files
there), ``warnings`` (those shown), ``git_describe``, ``duration_seconds``
and ``environment`` (the NumPy version and BLAS build, the BLAS thread
variables as set, and the CPUs in the process's affinity mask).
``fit-linear`` and ``fit-deep`` add ``stop``: why the solver stopped
(``"converged"`` or ``"iteration cap"``; ``"epochs done"``) and after how
many iterations or epochs; a linear ``sweep`` records the same ``stop`` for
each k in ``config.stops``. A ``sweep`` also records the worker processes
it ran its fits in (``config.workers``) and each k's fit time, measured in
its worker (``config.seconds``). JSON files are compact, with sorted keys.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import datasets, deep_aa, linear_aa, model_selection
from .errors import (
    ArchlabError,
    IoError,
    NumericalError,
    ParameterError,
    build_config,
    check_keys,
)
from .numerics import as_array, pca_fit, pca_project, rng_create
from .svg import SvgChart

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):  # no git, or it timed out
        pass
    return "unknown"


def _environment() -> dict:
    """How this process may use the machine: the NumPy version and BLAS
    build, the BLAS thread variables (None when unset) and the CPUs in the
    process's affinity mask."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "cpus": len(os.sched_getaffinity(0))}


def _ensure_dir(path: str) -> Path:
    p = Path(path)
    try:
        p.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {path}: {exc}") from exc
    return p


def _parse_weights(text: str) -> np.ndarray:
    """Comma-separated mixture weights; deep_aa checks their count and sum."""
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ParameterError(f"cannot parse weights '{text}': {exc}") from exc


# ---------------------------------------------------------------------------
# Commands

def cmd_gen_data(args) -> dict:
    spec_dict = datasets.read_json(args.spec, "spec")
    side_info = spec_dict.pop("side_info", None)
    if side_info is not None:
        check_keys(side_info, ("kind", "j", "w"), "field 'side_info'")
    spec = build_config(datasets.SyntheticSpec, spec_dict, "spec")
    ds = datasets.make_synthetic(spec)
    if side_info is not None:
        ds = datasets.make_side_info(ds, **side_info)
    out = _ensure_dir(args.out)
    outputs = datasets.write_csv(ds, str(out / "X.csv"))
    config = spec.to_dict()
    if side_info is not None:
        config["side_info"] = side_info
    return {"config": config,
            "seeds": {"embed_seed": spec.embed_seed, "sample_seed": spec.sample_seed},
            "inputs": [args.spec], "outputs": outputs}


def _read_dataset_dir_or_file(path: str) -> datasets.Dataset:
    """A dataset file, or the ``X.csv`` in a directory written by gen-data."""
    p = Path(path)
    return datasets.read_csv(str(p / "X.csv" if p.is_dir() else p))


def _write_scatter(points, vertices, prefix: str, path: Path) -> Path:
    """``points`` tagged 0 followed by the archetype ``vertices`` tagged 1,
    with columns ``<prefix>1, <prefix>2, ...`` and ``tag``."""
    tags = np.concatenate([np.zeros(len(points)), np.ones(len(vertices))])
    datasets.write_matrix_csv(
        np.column_stack([np.vstack([points, vertices]), tags]),
        [f"{prefix}{i + 1}" for i in range(points.shape[1])] + ["tag"],
        str(path),
    )
    return path


def cmd_fit_linear(args) -> dict:
    ds = _read_dataset_dir_or_file(args.data)
    cfg = linear_aa.LinearAaConfig(
        k=args.k, max_outer_iters=args.max_iters, rel_tol=args.tol,
        seed=args.seed,
    )
    model = linear_aa.fit_linear_aa(ds.x, cfg)
    # PCA projection of data plus archetypes for plotting; it can fail (too
    # few rows, zero variance), so it runs before any file is written
    pca = pca_fit(ds.x, min(3, ds.p, ds.n))
    points, vertices = pca_project(pca, ds.x), pca_project(pca, model.z)
    out = _ensure_dir(args.out)
    datasets.write_model(model, str(out / "model.json"))
    rss_log = np.column_stack([
        np.arange(len(model.rss_history), dtype=float), model.rss_history,
    ])
    datasets.write_matrix_csv(rss_log, ["iteration", "rss"],
                              str(out / "rss_log.csv"))
    scatter = _write_scatter(points, vertices, "pc", out / "pca_scatter.csv")
    return {"config": {"k": cfg.k, "max_outer_iters": cfg.max_outer_iters,
                       "rel_tol": cfg.rel_tol, "rss": model.rss,
                       "iterations": model.iterations, "converged": model.converged},
            "stop": model.stop,
            "seeds": {"seed": cfg.seed}, "inputs": [args.data],
            "outputs": [out / "model.json", out / "rss_log.csv", scatter]}


def cmd_fit_deep(args) -> dict:
    ds = _read_dataset_dir_or_file(args.data)
    arch_dict = datasets.read_json(args.arch, "arch config") if args.arch else {}
    hyper_dict = datasets.read_json(args.hyper, "hyper config") if args.hyper else {}
    if args.k is None:
        raise ParameterError("archetype count missing: pass --k")
    if args.side_info and arch_dict.setdefault("side_hidden", [16]) is None:
        raise ParameterError("--side-info needs a side head, but field "
                             "'side_hidden' in arch config is null")
    arch, hyper = deep_aa.fit_configs(ds, {"arch": arch_dict, "hyper": hyper_dict},
                                      args.k, args.seed, "fit-deep config")
    model = deep_aa.DeepAaModel(arch, seed=hyper.seed)
    deep_aa.train(model, ds, hyper)

    out = _ensure_dir(args.out)
    datasets.write_model(model, str(out / "model.json"))
    datasets.write_matrix_csv(np.reshape(model.history, (-1, len(deep_aa.HISTORY_COLUMNS))),
                              deep_aa.HISTORY_COLUMNS, str(out / "history.csv"))
    _, _, _, mu = model.encode(ds.x)
    outputs = [out / "model.json", out / "history.csv",
               _write_scatter(mu, model.frame.vertices, "t", out / "latent_scatter.csv")]
    if ds.z_true is not None and ds.z_true.shape[0] == arch.k:
        report = deep_aa.vertex_recovery_report(model, ds)
        datasets.write_json(report, str(out / "vertex_recovery.json"))
        outputs.append(out / "vertex_recovery.json")
    return {"config": {"arch": arch.to_dict(), "hyper": hyper.to_dict(),
                       "side_info": bool(args.side_info)},
            # training runs every epoch or raises
            "stop": {"reason": "epochs done", "epochs": hyper.epochs},
            "seeds": {"seed": hyper.seed}, "inputs": [args.data], "outputs": outputs}


def cmd_sweep(args) -> dict:
    ds = _read_dataset_dir_or_file(args.data)
    try:
        ks = sorted({int(v) for v in args.ks.split(",")})
    except ValueError as exc:
        raise ParameterError(f"cannot parse --ks '{args.ks}': {exc}") from exc
    cfg = datasets.read_json(args.config, "sweep config") if args.config else None
    curve = model_selection.sweep(ds, ks, fit=args.fit, cfg=cfg, seed=args.seed)
    out = _ensure_dir(args.out)
    rows = np.array([[float(k), l] for k, l in model_selection.curve_rows(curve)])
    datasets.write_matrix_csv(rows.reshape(-1, 2), ["k", "loss"],
                              str(out / "curve.csv"))
    return {"config": {"ks": ks, "fit": args.fit, "config": cfg,
                       "chosen_k": curve.chosen_k, "failures": curve.failures,
                       "stops": curve.stops, "workers": curve.workers,
                       "seconds": curve.seconds},
            "seeds": {"seed": args.seed}, "inputs": [args.data],
            "outputs": [out / "curve.csv"]}


def _read_deep_model(args) -> deep_aa.DeepAaModel:
    """The deep model in ``args.model``; a linear one is a ParameterError."""
    model = datasets.read_model(args.model)
    if not isinstance(model, deep_aa.DeepAaModel):
        raise ParameterError(f"{args.command} requires a deep model")
    return model


def cmd_interpolate(args) -> dict:
    model = _read_deep_model(args)
    a_start = _parse_weights(getattr(args, "from"))
    a_end = _parse_weights(args.to)
    decoded = deep_aa.interpolate(model, a_start, a_end, args.steps)
    out = _ensure_dir(args.out)
    datasets.write_matrix_csv(
        decoded, [f"x{j}" for j in range(decoded.shape[1])],
        str(out / "interpolation.csv"),
    )
    return {"config": {"from": list(map(float, a_start)),
                       "to": list(map(float, a_end)), "steps": args.steps},
            "seeds": {}, "inputs": [args.model], "outputs": [out / "interpolation.csv"]}


def cmd_sample(args) -> dict:
    model = _read_deep_model(args)
    weights = _parse_weights(args.weights)
    rng = rng_create(args.seed) if args.noise else None
    row, y_hat = deep_aa.generate(model, weights, rng=rng)
    out = _ensure_dir(args.out)
    body = row[None, :]
    header = [f"x{j}" for j in range(row.size)]
    if y_hat is not None:
        body = np.hstack([body, [[y_hat]]])
        header += ["label"]
    datasets.write_matrix_csv(body, header, str(out / "sample.csv"))
    return {"config": {"weights": list(map(float, weights)), "noise": args.noise},
            "seeds": {"seed": args.seed if args.noise else None},
            "inputs": [args.model], "outputs": [out / "sample.csv"]}


_PLOT_KINDS = ("scatter", "line")


def cmd_plot(args) -> None:
    if args.kind not in _PLOT_KINDS:
        raise ParameterError(
            f"unknown CSV kind '{args.kind}' (choose from {sorted(_PLOT_KINDS)})"
        )
    m, header = datasets.read_matrix_csv(getattr(args, "in"))
    m = as_array(m, "plot input", (None, None))  # the CSV reader parses nan and inf
    if m.shape[1] < 2:
        raise ParameterError("plot needs at least two numeric columns")
    chart = SvgChart(title=Path(getattr(args, "in")).name,
                     xlabel=header[0], ylabel=header[1])
    if args.kind == "line":
        chart.add_series("series", m[:, 0], m[:, 1], kind="line")
    else:
        if header and header[-1] == "tag":
            tags = m[:, -1]
            for tag in np.unique(tags):
                sel = tags == tag
                name = {0.0: "data", 1.0: "archetypes"}.get(float(tag), f"tag {tag:g}")
                chart.add_series(name, m[sel, 0], m[sel, 1])
        else:
            chart.add_series("data", m[:, 0], m[:, 1])
    datasets.atomic_write_text(args.out, chart.render())


# ---------------------------------------------------------------------------
# Parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="archlab",
        description="Linear and deep archetypal analysis workflows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize a benchmark dataset")
    p.add_argument("--spec", required=True, help="JSON spec file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("fit-linear", help="fit linear archetypal analysis")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fit_linear)

    p = sub.add_parser("fit-deep", help="train deep archetypal analysis")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--arch", default=None, help="architecture JSON")
    p.add_argument("--hyper", default=None, help="hyperparameter JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--side-info", action="store_true",
                   help="train the side-information head on the label column")
    p.set_defaults(func=cmd_fit_deep)

    p = sub.add_parser("sweep", help="sweep archetype counts")
    p.add_argument("--data", required=True)
    p.add_argument("--ks", required=True, help="comma-separated counts")
    p.add_argument("--fit", default="linear", choices=["linear", "deep"])
    p.add_argument("--config", default=None, help="fitter config JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("interpolate", help="decode along a latent segment")
    p.add_argument("--model", required=True)
    p.add_argument("--from", required=True, help="comma-separated weights")
    p.add_argument("--to", required=True, help="comma-separated weights")
    p.add_argument("--steps", type=int, default=6)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("sample", help="decode one archetype mixture")
    p.add_argument("--model", required=True)
    p.add_argument("--weights", required=True, help="comma-separated weights")
    p.add_argument("--noise", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("plot", help="render a CSV artifact to SVG")
    p.add_argument("--in", required=True, help="input CSV")
    p.add_argument("--kind", default="scatter", help="scatter or line")
    p.add_argument("--out", required=True, help="output SVG")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    """Run one command; write the run record it returns to its manifest."""
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    shown, show = [], warnings.showwarning

    def keep(message, category, *where):
        shown.append(f"{category.__name__}: {message}")
        show(message, category, *where)

    try:
        with warnings.catch_warnings():
            warnings.showwarning = keep  # each warning shown is also kept
            record = args.func(args)
        if record is not None:
            record.update(
                command=args.command,
                outputs=[str(p) for p in record["outputs"]],
                warnings=shown,
                git_describe=_git_describe(),
                duration_seconds=time.monotonic() - started,
                environment=_environment(),
            )
            datasets.write_json(record, str(Path(args.out) / "manifest.json"))
        return EXIT_OK
    except (IoError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ArchlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
