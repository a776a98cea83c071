"""Command-line entry point. Every command writes plot-ready CSV/JSON/SVG
files plus a run manifest; nothing is interactive.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from . import datasets, deep_aa, linear_aa, model_selection
from .errors import (
    ArchlabError,
    IoError,
    MissingGroundTruth,
    NumericalError,
    ParameterError,
    build_config,
    check_keys,
    check_value,
)
from .numerics import pca_fit, pca_project, rng_create
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
    except OSError:
        pass
    return "unknown"


def _write_manifest(out_dir: Path, command: str, config: dict, seeds: dict,
                    inputs: list, outputs: list, started: float) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seeds": seeds,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "git_describe": _git_describe(),
        "duration_seconds": time.monotonic() - started,
    }
    datasets.write_json(manifest, str(out_dir / "manifest.json"))


def _ensure_dir(path: str) -> Path:
    p = Path(path)
    try:
        p.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {path}: {exc}") from exc
    return p


def _parse_weights(text: str, k: int | None = None) -> np.ndarray:
    try:
        w = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ParameterError(f"cannot parse weights '{text}': {exc}") from exc
    if k is not None and w.size != k:
        raise ParameterError(f"expected {k} weights, got {w.size}")
    return w


# ---------------------------------------------------------------------------
# Commands

def _side_info_args(side_info) -> dict:
    """The make_side_info arguments a spec's ``side_info`` object gives."""
    check_keys(side_info, ("kind", "j", "w"), "field 'side_info'")
    kind = side_info.get("kind", "mixture_projection")
    j = side_info.get("j", 0)
    w = side_info.get("w")
    check_value("side_info.kind", kind, str)
    check_value("side_info.j", j, int)
    if w is not None and not isinstance(w, list):
        raise ParameterError(f"field 'side_info.w' must be a list of numbers, got {w!r}")
    for v in w or ():
        check_value("side_info.w", v, float)
    return {"kind": kind, "j": j, "w": w}


def cmd_gen_data(args) -> int:
    started = time.monotonic()
    spec_dict = datasets.read_json(args.spec, "spec")
    side_info = spec_dict.pop("side_info", None)
    side_args = None if side_info is None else _side_info_args(side_info)
    spec = datasets.SyntheticSpec.from_dict(spec_dict)
    ds = datasets.make_synthetic(spec)
    if side_args is not None:
        ds = datasets.make_side_info(ds, **side_args)
    out = _ensure_dir(args.out)
    datasets.write_csv(ds, str(out / "X.csv"))
    outputs = [out / "X.csv", out / "X.atrue.csv", out / "X.ztrue.csv"]
    config = spec.to_dict()
    if side_info is not None:
        config["side_info"] = side_info
    _write_manifest(out, "gen-data", config,
                    {"embed_seed": spec.embed_seed, "sample_seed": spec.sample_seed},
                    [args.spec], outputs, started)
    return EXIT_OK


def _read_dataset_dir_or_file(path: str) -> datasets.Dataset:
    """A dataset file, or the ``X.csv`` in a directory written by gen-data."""
    p = Path(path)
    return datasets.read_csv(str(p / "X.csv" if p.is_dir() else p))


def cmd_fit_linear(args) -> int:
    started = time.monotonic()
    ds = _read_dataset_dir_or_file(args.data)
    cfg = linear_aa.LinearAaConfig(
        k=args.k, max_outer_iters=args.max_iters, rel_tol=args.tol,
        seed=args.seed,
    )
    model = linear_aa.fit_linear_aa(ds.x, cfg)
    out = _ensure_dir(args.out)
    datasets.write_model(model, str(out / "model.json"))
    rss_log = np.column_stack([
        np.arange(len(model.rss_history), dtype=float), model.rss_history,
    ])
    datasets.write_matrix_csv(rss_log, ["iteration", "rss"],
                              str(out / "rss_log.csv"))
    # PCA projection of data plus archetypes for plotting
    q = min(3, ds.p, ds.n)
    pca = pca_fit(ds.x, q)
    proj = np.vstack([pca_project(pca, ds.x), pca_project(pca, model.z)])
    tags = np.concatenate([np.zeros(ds.n), np.ones(cfg.k)])
    datasets.write_matrix_csv(
        np.column_stack([proj, tags]),
        [f"pc{i + 1}" for i in range(q)] + ["tag"],
        str(out / "pca_scatter.csv"),
    )
    _write_manifest(
        out, "fit-linear",
        {"k": cfg.k, "max_outer_iters": cfg.max_outer_iters,
         "rel_tol": cfg.rel_tol, "rss": model.rss,
         "iterations": model.iterations, "converged": model.converged},
        {"seed": cfg.seed}, [args.data],
        [out / "model.json", out / "rss_log.csv", out / "pca_scatter.csv"],
        started,
    )
    return EXIT_OK


def cmd_fit_deep(args) -> int:
    started = time.monotonic()
    ds = _read_dataset_dir_or_file(args.data)
    arch_dict = datasets.read_json(args.arch, "arch config") if args.arch else {}
    hyper_dict = datasets.read_json(args.hyper, "hyper config") if args.hyper else {}
    if args.k is None:
        raise ParameterError("archetype count missing: pass --k")
    if args.side_info:
        arch_dict.setdefault("side_hidden", [16])
        if ds.labels is None:
            raise MissingGroundTruth(
                "--side-info requires a dataset with a label column")
    # the data gives input_dim and the command k and the seed
    arch = build_config(deep_aa.DeepAaArch, arch_dict, "arch config", input_dim=ds.p, k=args.k)
    hyper = build_config(deep_aa.DeepAaHyper, hyper_dict, "hyper config", seed=args.seed)
    model = deep_aa.DeepAaModel(arch, seed=hyper.seed)
    train_ds = ds if args.side_info else datasets.Dataset(x=ds.x)
    deep_aa.train(model, train_ds, hyper)

    out = _ensure_dir(args.out)
    datasets.write_model(model, str(out / "model.json"))
    datasets.write_matrix_csv(np.array(model.history),
                              deep_aa.HISTORY_COLUMNS,
                              str(out / "history.csv"))
    _, _, _, mu = model.encode(ds.x)
    latent = np.vstack([mu, model.frame.vertices])
    tags = np.concatenate([np.zeros(ds.n), np.ones(arch.k)])
    datasets.write_matrix_csv(
        np.column_stack([latent, tags]),
        [f"t{i + 1}" for i in range(arch.latent_dim)] + ["tag"],
        str(out / "latent_scatter.csv"),
    )
    outputs = [out / "model.json", out / "history.csv", out / "latent_scatter.csv"]
    config = {"arch": arch.to_dict(), "hyper": hyper.to_dict(),
              "side_info": bool(args.side_info)}
    if ds.z_true is not None and ds.z_true.shape[0] == arch.k:
        report = deep_aa.vertex_recovery_report(model, ds)
        datasets.write_json(report, str(out / "vertex_recovery.json"))
        outputs.append(out / "vertex_recovery.json")
    _write_manifest(out, "fit-deep", config, {"seed": hyper.seed},
                    [args.data], outputs, started)
    return EXIT_OK


def cmd_sweep(args) -> int:
    started = time.monotonic()
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
    _write_manifest(out, "sweep",
                    {"ks": ks, "fit": args.fit, "config": cfg,
                     "chosen_k": curve.chosen_k, "failures": curve.failures,
                     "stops": curve.stops},
                    {"seed": args.seed}, [args.data], [out / "curve.csv"],
                    started)
    return EXIT_OK


def cmd_interpolate(args) -> int:
    started = time.monotonic()
    model = datasets.read_model(args.model)
    if not isinstance(model, deep_aa.DeepAaModel):
        raise ParameterError("interpolate requires a deep model")
    k = model.arch.k
    a_start = _parse_weights(getattr(args, "from"), k)
    a_end = _parse_weights(args.to, k)
    decoded = deep_aa.interpolate(model, a_start, a_end, args.steps)
    out = _ensure_dir(args.out)
    datasets.write_matrix_csv(
        decoded, [f"x{j}" for j in range(decoded.shape[1])],
        str(out / "interpolation.csv"),
    )
    _write_manifest(out, "interpolate",
                    {"from": list(map(float, a_start)),
                     "to": list(map(float, a_end)), "steps": args.steps},
                    {}, [args.model], [out / "interpolation.csv"], started)
    return EXIT_OK


def cmd_sample(args) -> int:
    started = time.monotonic()
    model = datasets.read_model(args.model)
    if not isinstance(model, deep_aa.DeepAaModel):
        raise ParameterError("sample requires a deep model")
    weights = _parse_weights(args.weights, model.arch.k)
    rng = rng_create(args.seed) if args.noise else None
    row, y_hat = deep_aa.generate(model, weights, rng=rng, use_noise=args.noise)
    out = _ensure_dir(args.out)
    body = row[None, :]
    header = [f"x{j}" for j in range(row.size)]
    if y_hat is not None:
        body = np.hstack([body, [[y_hat]]])
        header += ["label"]
    datasets.write_matrix_csv(body, header, str(out / "sample.csv"))
    _write_manifest(out, "sample",
                    {"weights": list(map(float, weights)), "noise": args.noise},
                    {"seed": args.seed if args.noise else None},
                    [args.model], [out / "sample.csv"], started)
    return EXIT_OK


_PLOT_KINDS = ("scatter", "line")


def cmd_plot(args) -> int:
    if args.kind not in _PLOT_KINDS:
        raise ParameterError(
            f"unknown CSV kind '{args.kind}' (choose from {sorted(_PLOT_KINDS)})"
        )
    m, header = datasets.read_matrix_csv(getattr(args, "in"))
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
    return EXIT_OK


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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
