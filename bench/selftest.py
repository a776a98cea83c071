"""Self-test of the benchmark on tiny inputs.

First every workload runs one round at the TINY scale, which applies every
structural check to the program's real outputs. Then each check is run on
a correct output, which it must pass, and on deliberately corrupted copies,
each of which it must reject. Correct outputs for the statistical bounds
(c01, c02, c03, c08) are built from the generator's ground truth, since
tiny fits cannot meet them. Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

import checks
import workloads
from archlab import datasets, linear_aa
from archlab.numerics import simplex_vertices
from workloads import TINY


def _corrupted(label, check, *args):
    try:
        check(*args)
    except checks.CheckFailed as exc:
        return f"  rejects {label}: {exc}"
    raise SystemExit(f"self-test: {check.__name__} accepted {label}")


def _flip_last_digit(path):
    """Change the second-to-last digit of the file's last number."""
    with open(path) as fh:
        text = fh.read()
    digit = text[-3]
    with open(path, "w") as fh:
        fh.write(text[:-3] + ("1" if digit != "1" else "2") + text[-2:])


def _linear_cases():
    spec = workloads.benchmark_spec(5, 200)
    ds = datasets.make_synthetic(spec)
    model = linear_aa.fit_linear_aa(ds.x, linear_aa.LinearAaConfig(k=3, seed=5, max_outer_iters=40))
    a = linear_aa.transform(ds.x[:50], model.z)
    z_true = ds.z_true
    bad_a = model.a.copy()
    bad_a[0, 0] += 0.1
    bad_z = model.z.copy()
    bad_z[0, 0] += 1e-6
    bad_hist = list(model.rss_history)
    bad_hist[-1] = bad_hist[-2] * 1.01
    bad_t = a.copy()
    j = int(np.argmax(bad_t[0]))
    bad_t[0] = 0.0
    bad_t[0, (j + 1) % 3] = 1.0  # another vertex: still on the simplex, not optimal
    return [
        ("recovery", checks.recovery, (z_true, z_true), [("archetypes moved by 0.2", (z_true + 0.2, z_true))]),
        ("converged", checks.converged, (True, 10), [("a fit stopped at the cap", (False, 500))]),
        ("simplex_rows", checks.simplex_rows, (model.a, "A"),
         [("a row of A summing to 1.1", (bad_a, "A")), ("a negative weight", (-model.a, "A"))]),
        ("archetypes_are_bx", checks.archetypes_are_bx, (model.z, model.b, ds.x),
         [("Z off B X by 1e-6", (bad_z, model.b, ds.x))]),
        ("rss_non_increasing", checks.rss_non_increasing, (model.rss_history,),
         [("a 1% rise at the last iteration", (bad_hist,))]),
        ("simplex_kkt", checks.simplex_kkt, (ds.x[:50], model.z, a),
         [("a row moved to another vertex", (ds.x[:50], model.z, bad_t))]),
    ]


def _sweep_cases():
    good = [1.5, 0.5, 0.11, 0.036, 0.031]
    return [("sweep_losses", checks.sweep_losses, ([1, 2, 3, 4, 5], good), [
        ("a missing loss", ([1, 2, 3, 4, 5], good[:3] + [None, good[4]])),
        ("a NaN loss", ([1, 2, 3, 4, 5], good[:4] + [float("nan")])),
        ("loss(k=3) < 2 loss(k=5)", ([1, 2, 3, 4, 5], good[:2] + [0.05, 0.036, 0.031])),
    ])]


def _oracle_model(z_true, vertices, rng):
    """encode/generate of a perfect model: the first k rows of x are the
    true archetypes and encode to the vertices."""
    k = z_true.shape[0]
    weights = np.vstack([np.eye(k), rng.dirichlet(np.ones(k), size=40)])
    x = weights @ z_true
    b = np.hstack([np.eye(k), np.zeros((k, len(x) - k))])

    def encode(rows):
        idx = [int(np.argmin(np.sum((x - r) ** 2, axis=1))) for r in rows]
        a = weights[idx]
        return a, b[:, :len(idx)], None, a @ vertices

    return x, encode, (lambda a: np.asarray(a) @ z_true)


def _deep_cases():
    rng = np.random.default_rng(3)
    z_true = datasets.make_synthetic(workloads.benchmark_spec(4, 10, warped=True)).z_true
    v = simplex_vertices(3).vertices
    x, encode, generate = _oracle_model(z_true, v, rng)

    def blurred_b(rows):
        a, _, lv, mu = encode(rows)
        return a, np.full((3, len(rows)), 1.0 / len(rows)), lv, mu

    def shifted_mu(rows):
        a, b, lv, mu = encode(rows)
        return a, b, lv, mu + 0.3

    y_true = rng.uniform(size=200)
    labels = [0.9, 0.1, 0.2]
    return [
        ("c03_bounds", checks.c03_bounds, (x, z_true, v, encode, generate), [
            ("(a) B averaging every row", (x, z_true, v, blurred_b, generate)),
            ("(b) latent means 0.3 off their vertices", (x, z_true, v, shifted_mu, generate)),
            ("(c) generation 0.5 off", (x, z_true, v, encode, lambda a: generate(a) + 0.5)),
        ]),
        ("c08_steering", checks.c08_steering, (y_true, y_true + 0.01, labels, z_true, z_true), [
            ("labels predicted as noise", (y_true, rng.uniform(size=200), labels, z_true, z_true)),
            ("the largest label at another vertex", (y_true, y_true, labels[::-1], z_true, z_true)),
        ]),
        ("rows_equal", checks.rows_equal, (x[0], x[0].copy(), "row"),
         [("one ulp off", (x[0], np.nextafter(x[0], np.inf), "row"))]),
    ]


def _cli_cases(inp):
    w = inp["work"]
    exp = inp["expected"]
    header = [f"x{j}" for j in range(exp.p)] + ["label"]
    expected = np.column_stack([exp.x, exp.labels])
    _, x_read = checks.read_csv_floats(f"{w}/data/X.csv")
    bad = os.path.join(w, "corrupt")
    os.makedirs(bad, exist_ok=True)
    shutil.copy(f"{w}/data/X.csv", f"{bad}/X.csv")
    _flip_last_digit(f"{bad}/X.csv")
    with open(f"{w}/linear/model.json") as fh:
        model = json.load(fh)
    model["rss"] *= 1.0 + 1e-6
    with open(f"{bad}/model_rss.json", "w") as fh:
        json.dump(model, fh)
    with open(f"{w}/linear/model.json") as fh:
        model = json.load(fh)
    model["z"][0][0] += 1e-3
    with open(f"{bad}/model_z.json", "w") as fh:
        json.dump(model, fh)
    with open(f"{w}/plot.svg") as fh:
        svg = fh.read()
    with open(f"{bad}/plot.svg", "w") as fh:
        fh.write(svg[: len(svg) // 2])
    code, _ = workloads.run_cli(["sample", "--model", f"{w}/deep/model.json",
                                 "--weights", "0.5,0.5,0.5", "--out", f"{bad}/sample"])
    if code == 0:
        raise SystemExit("self-test: sample accepted weights off the simplex")
    return code, [
        ("csv_equals", checks.csv_equals, (f"{w}/data/X.csv", expected, header),
         [("one digit of X.csv changed", (f"{bad}/X.csv", expected, header))]),
        ("linear_model_file", checks.linear_model_file, (f"{w}/linear/model.json", x_read[:, :-1]), [
            ("RSS off by 1e-6", (f"{bad}/model_rss.json", x_read[:, :-1])),
            ("Z off by 1e-3", (f"{bad}/model_z.json", x_read[:, :-1])),
        ]),
        ("svg_parses", checks.svg_parses, (f"{w}/plot.svg",),
         [("the SVG cut in half", (f"{bad}/plot.svg",))]),
    ]


def main() -> int:
    for name, (setup, run_round) in workloads.WORKLOADS.items():
        inputs = setup(0, TINY)
        r = workloads.Round()
        run_round(inputs, TINY, r)
        if r.failed:
            raise SystemExit(f"self-test: {name}: {r.failed} of {r.attempted} operations failed")
        print(f"{name}: one tiny round, {r.attempted} operations, structural checks passed")
    # the cli-pipeline round ran last; its files are still there
    code, cli_cases = _cli_cases(inputs)
    print(f"cli: sample with weights off the simplex exits {code}, counted as a failed operation")
    cases = _linear_cases() + _sweep_cases() + _deep_cases() + cli_cases
    for name, check, good, bad in cases:
        check(*good)
        print(f"{name}: passes a correct output")
        for label, args in bad:
            print(_corrupted(label, check, *args))
    print(json.dumps({"correct": True, "attempted": len(cases), "failed": 0, "metrics": {}}))
    return 0
