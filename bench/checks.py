"""Correctness checks for the benchmark's outputs.

Each check compares an output of the program with the generator's ground
truth or with a property the method must have, computed here with NumPy
alone; none compares with a stored copy of an earlier output. A failed
check raises ``CheckFailed``.
"""

from __future__ import annotations

import csv
import itertools
import json
import xml.etree.ElementTree as ET

import numpy as np

# The frozen acceptance thresholds (tests/test_acceptance.py).
C01_TOLERANCE = 0.15  # mean matched per-coordinate archetype error
C02_RATIO = 2.0  # loss(k=3) / loss(k=5) on the warped benchmark
C03_ARCHETYPE_LOSS = 1e-2
C03_VERTEX_DISTANCE = 0.2
C03_GENERATION_ERROR = 2.0 * C01_TOLERANCE
C08_R2 = 0.8

SIMPLEX_TOL = 1e-9


class CheckFailed(AssertionError):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def best_match(estimated, truth):
    """Permutation of the rows of ``estimated`` that minimizes the summed
    mean absolute error against ``truth``; returns (perm, per-row errors)
    with row i of truth matched to estimated[perm[i]]."""
    estimated = np.asarray(estimated, float)
    truth = np.asarray(truth, float)
    best = None
    for perm in itertools.permutations(range(truth.shape[0])):
        errors = np.abs(estimated[list(perm)] - truth).mean(axis=1)
        if best is None or errors.sum() < best[1].sum():
            best = (perm, errors)
    return best


# ---------------------------------------------------------------------------
# Linear AA

def simplex_rows(m, what):
    m = np.asarray(m, float)
    require(np.all(np.isfinite(m)), f"{what}: non-finite entries")
    require(m.min() >= -SIMPLEX_TOL, f"{what}: negative weight {m.min():.3g}")
    worst = float(np.max(np.abs(m.sum(axis=1) - 1.0)))
    require(worst <= SIMPLEX_TOL, f"{what}: row sums off by {worst:.3g}")


def archetypes_are_bx(z, b, x):
    expected = np.asarray(b) @ np.asarray(x)
    scale = max(1.0, float(np.max(np.abs(expected))))
    worst = float(np.max(np.abs(np.asarray(z) - expected)))
    require(worst <= 1e-10 * scale, f"Z differs from B X by {worst:.3g}")


def rss_non_increasing(history):
    h = np.asarray(history, float)
    require(h.size >= 2 and np.all(np.isfinite(h)), "RSS history missing or non-finite")
    rise = float(np.max(np.diff(h)))
    require(rise <= 1e-12 * h[0], f"RSS rose by {rise:.3g} between iterations")


def rss_matches(rss, x, a, z):
    recomputed = float(np.sum((np.asarray(x) - np.asarray(a) @ np.asarray(z)) ** 2))
    require(abs(rss - recomputed) <= 1e-9 * max(recomputed, 1.0),
            f"reported RSS {rss!r} but ||X - A Z||^2 = {recomputed!r}")


def recovery(z, z_true, tolerance=C01_TOLERANCE):
    _, errors = best_match(z, z_true)
    require(float(np.mean(errors)) <= tolerance,
            f"mean archetype error {np.mean(errors):.4f} > {tolerance}")
    return float(np.mean(errors))


def converged(flag, iterations):
    require(bool(flag), f"fit stopped at the {iterations}-iteration cap without converging")


def simplex_kkt(x, z, a):
    """Rows of ``a`` minimize ||x - a Z||^2 over the unit simplex: with
    g = 2 (a Z - x) Z', every coordinate in the support has the smallest
    gradient entry and none outside it has a smaller one."""
    simplex_rows(a, "transform weights")
    x, z, a = (np.asarray(v, float) for v in (x, z, a))
    g = 2.0 * (a @ z - x) @ z.T
    floor = g.min(axis=1, keepdims=True)
    scale = 1e-7 * (1.0 + np.abs(g).max(axis=1, keepdims=True)) \
        * (1.0 + float(np.abs(z).max()) ** 2)
    support = a > 1e-8
    gap = np.where(support, g - floor, 0.0)
    worst = float(np.max(gap / scale))
    require(worst <= 1.0, f"transform weights violate the KKT conditions "
                          f"(gradient spread on the support {worst:.3g} x tolerance)")


def sweep_losses(ks, losses):
    require(list(ks) == [1, 2, 3, 4, 5], f"sweep ks {ks}")
    require(all(v is not None and np.isfinite(v) for v in losses),
            f"sweep has missing or non-finite losses {losses}")
    ratio = losses[2] / losses[4]
    require(ratio >= C02_RATIO, f"loss(k=3)/loss(k=5) = {ratio:.2f} < {C02_RATIO}")
    return ratio


# ---------------------------------------------------------------------------
# Deep AA

def c03_bounds(x, z_true, vertices, encode, generate):
    """(a) archetype loss of a full forward pass, (b) latent means of the
    rows nearest the true archetypes at distinct vertices, (c) one-hot
    generation against the true archetypes. ``encode``/``generate`` are the
    model's operations; every comparison is computed here."""
    k = z_true.shape[0]
    a, b, _, _ = encode(x)
    at = float(np.sum((vertices - b @ a @ vertices) ** 2))
    require(at <= C03_ARCHETYPE_LOSS, f"(a) archetype loss {at:.3g} > {C03_ARCHETYPE_LOSS}")
    nearest = [int(np.argmin(np.sum((x - z_true[j]) ** 2, axis=1))) for j in range(k)]
    mu = encode(x[nearest])[3]
    dist = np.linalg.norm(mu[:, None, :] - vertices[None, :, :], axis=2)
    perm = min(itertools.permutations(range(k)),
               key=lambda p: sum(dist[j, p[j]] for j in range(k)))
    worst_mu = max(float(dist[j, perm[j]]) for j in range(k))
    require(worst_mu <= C03_VERTEX_DISTANCE,
            f"(b) latent mean {worst_mu:.3f} from its vertex > {C03_VERTEX_DISTANCE}")
    generated = np.array([generate(np.eye(k)[j]) for j in range(k)])
    _, errors = best_match(generated, z_true)
    require(float(errors.max()) <= C03_GENERATION_ERROR,
            f"(c) generation error {errors.max():.3f} > {C03_GENERATION_ERROR}")
    return {"archetype_loss": at, "worst_mu": worst_mu, "worst_generation": float(errors.max())}


def c08_steering(y_true, y_hat, vertex_labels, vertex_rows, z_true):
    """Side head: test R^2 and the vertex whose generation has the largest
    predicted label decodes to true archetype 0 (which carries label 1)."""
    y_true, y_hat = np.asarray(y_true, float), np.asarray(y_hat, float)
    r2 = 1.0 - np.sum((y_true - y_hat) ** 2) / np.sum((y_true - y_true.mean()) ** 2)
    require(r2 >= C08_R2, f"side-information R^2 {r2:.3f} < {C08_R2}")
    perm, _ = best_match(vertex_rows, z_true)
    require(int(np.argmax(vertex_labels)) == perm[0],
            f"largest predicted label at vertex {int(np.argmax(vertex_labels))}, "
            f"true archetype 0 decodes from vertex {perm[0]}")
    return float(r2)


def rows_equal(got, expected, what):
    require(np.array_equal(got, expected), f"{what} differs bit for bit")


# ---------------------------------------------------------------------------
# CLI files

def read_csv_floats(path):
    """Header and rows of a CSV file, read with the stdlib csv module."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    require(len(rows) >= 2, f"{path}: no data rows")
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def csv_equals(path, expected, header):
    got_header, got = read_csv_floats(path)
    require(got_header == header, f"{path}: header {got_header[:4]}... differs")
    require(got.shape == expected.shape, f"{path}: shape {got.shape} != {expected.shape}")
    require(np.array_equal(got, expected), f"{path}: values differ from make_synthetic")
    return got


def linear_model_file(path, x):
    with open(path) as fh:
        model = json.load(fh)
    a, b, z = (np.array(model[key], float) for key in ("a", "b", "z"))
    simplex_rows(a, "model.json A")
    simplex_rows(b, "model.json B")
    archetypes_are_bx(z, b, x)
    rss_matches(float(model["rss"]), x, a, z)
    rss_non_increasing(model["rss_history"])
    require(model["rss_history"][-1] == model["rss"], "RSS history does not end at RSS")
    return model


def svg_parses(path):
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise CheckFailed(f"{path}: not well-formed XML ({exc})") from exc
    require(root.tag.endswith("svg"), f"{path}: root element {root.tag}")
    return root
