"""Synthetic benchmark construction and CSV/JSON artifact I/O.

Datasets are written as plain CSV (comma separator, ``.`` decimal point,
LF line endings) with a header row ``x0..x{p-1}[,label]``. Ground truth
lives next to the data file ``<stem>.csv`` in the sidecar files
``<stem>.atrue.csv`` (mixture weights A, header ``a0..a{k-1}``) and
``<stem>.ztrue.csv`` (archetypes Z, the data's header), so ``archlab
gen-data`` writes ``X.csv``, ``X.atrue.csv`` and ``X.ztrue.csv``. Numbers
are serialized with 17 significant digits so round-trips are bit-exact.

Every JSON file is read by :func:`read_json` and written by
:func:`write_json`. Each model class owns its JSON form (``to_dict`` and
``from_dict``); :func:`write_model` and :func:`read_model` frame it with the
schema version and the model kind.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import deep_aa, linear_aa
from .errors import (
    IoError,
    MissingGroundTruth,
    ParameterError,
    ParseError,
    SchemaVersionError,
    ShapeError,
    build_config,
    check_fields,
    check_keys,
)
from .numerics import rng_create, rng_dirichlet_matrix, simplex_vertices

SCHEMA_VERSION = 1

# spread of the latent archetype polytope before embedding; large enough
# that the exp warp bends the manifold visibly but stays well-conditioned
ARCHETYPE_SCALE = 3.5
ARCHETYPE_JITTER = 0.25


@dataclass(frozen=True)
class SyntheticSpec:
    n: int
    p: int
    k: int
    sigma2: float = 0.05
    embed_seed: int = 0
    sample_seed: int = 1
    warp: str = "none"  # "none" or "exp"
    warp_dim: int = 0
    alpha: tuple | None = None

    def __post_init__(self):
        check_fields(self, int, "n", "p", "k", "embed_seed", "sample_seed", "warp_dim")
        check_fields(self, float, "sigma2")
        if self.k < 1 or self.p < 1:
            raise ParameterError(f"k and p must be >= 1, got k={self.k}, p={self.p}")
        if self.k - 1 > self.p:
            raise ParameterError(
                f"intrinsic dimension k-1={self.k - 1} exceeds ambient p={self.p}"
            )
        if self.n < 0:
            raise ParameterError("n must be >= 0")
        if not self.sigma2 >= 0:  # NaN too
            raise ParameterError(f"sigma2 must be >= 0, got {self.sigma2}")
        if self.alpha is not None:
            try:
                alpha = np.asarray(self.alpha, float)
            except (TypeError, ValueError) as exc:
                raise ParameterError(
                    f"field 'alpha' must be a list of numbers: {exc}") from exc
            if alpha.shape != (self.k,) or not np.all(alpha > 0):
                raise ParameterError(
                    f"alpha must be a k-vector of positive concentrations, got {self.alpha!r}")
            object.__setattr__(self, "alpha", tuple(alpha.tolist()))
        if self.warp not in ("none", "exp"):
            raise ParameterError(f"unknown warp '{self.warp}'")
        if self.warp == "exp" and not (0 <= self.warp_dim < self.p):
            raise ParameterError(
                f"warp_dim={self.warp_dim} out of range for p={self.p}"
            )

    def to_dict(self) -> dict:
        d = {name: value for name, value in asdict(self).items() if value is not None}
        dim = d.pop("warp_dim")
        d["warp"] = {"kind": "exp", "dim": dim} if self.warp == "exp" else "none"
        return d

    @staticmethod
    def from_dict(d: dict) -> "SyntheticSpec":
        rest = dict(d)
        warp = rest.pop("warp", "none")
        if warp == "none" or warp is None:
            kind, dim = "none", 0
        elif isinstance(warp, dict):
            check_keys(warp, ("kind", "dim"), "spec 'warp'")
            kind = warp.get("kind", "")
            if kind != "exp":
                raise ParameterError(f"unknown warp kind '{kind}' in field 'warp'")
            if "dim" not in warp:
                raise ParameterError("warp of kind 'exp' needs field 'warp.dim'")
            dim = warp["dim"]
        else:
            raise ParameterError(f"unknown warp '{warp}' in field 'warp'")
        return build_config(SyntheticSpec, rest, "spec", warp=kind, warp_dim=dim)


@dataclass
class Dataset:
    x: np.ndarray  # (n, p)
    a_true: np.ndarray | None = None  # (n, k)
    z_true: np.ndarray | None = None  # (k, p)
    labels: np.ndarray | None = None  # (n,)
    columns: list | None = None

    def __post_init__(self):
        n, p = self.x.shape
        if self.columns is None:
            self.columns = [f"x{j}" for j in range(p)]
        if len(self.columns) != p:
            raise ParameterError("column names do not match data width")
        if self.a_true is not None and self.a_true.shape[0] != n:
            raise ParameterError("A_true row count does not match X")
        if self.z_true is not None and self.a_true is not None \
                and self.z_true.shape[0] != self.a_true.shape[1]:
            raise ParameterError("Z_true row count does not match A_true width")
        if self.labels is not None and self.labels.shape != (n,):
            raise ParameterError("labels must be an n-vector")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


def _embedding(p: int, q: int, seed: int) -> np.ndarray:
    """Deterministic random orthonormal rows (q, p) from a seeded QR."""
    rng = rng_create(seed)
    m = rng.standard_normal((p, p))
    qmat, r = np.linalg.qr(m)
    qmat = qmat * np.sign(np.diag(r))  # fix QR sign ambiguity
    return qmat[:, :q].T


def make_archetypes(spec: SyntheticSpec) -> np.ndarray:
    """Ground-truth archetypes: a jittered regular polytope in a (k-1)-dim
    subspace, rotated into p dimensions (all seeded)."""
    rng = rng_create(spec.embed_seed)
    if spec.k == 1:
        basis = _embedding(spec.p, 1, spec.embed_seed + 1)
        return ARCHETYPE_SCALE * rng.standard_normal((1, 1)) @ basis
    frame = simplex_vertices(spec.k)
    lat = ARCHETYPE_SCALE * (
        frame.vertices + ARCHETYPE_JITTER * rng.standard_normal(frame.vertices.shape)
    )
    basis = _embedding(spec.p, spec.k - 1, spec.embed_seed + 1)
    return lat @ basis


def apply_warp(spec: SyntheticSpec, x: np.ndarray) -> np.ndarray:
    if spec.warp == "none":
        return x
    out = x.copy()
    out[..., spec.warp_dim] = np.exp(out[..., spec.warp_dim])
    return out


def make_synthetic(spec: SyntheticSpec) -> Dataset:
    """Sample the benchmark dataset described by ``spec``.

    Each row is a convex mixture of the archetypes of :func:`make_archetypes`
    with Dirichlet(alpha) weights (alpha_j = 1/k unless the spec gives
    alpha), plus isotropic Gaussian noise of variance sigma2, then warped.
    The weights and then the noise are drawn from ``sample_seed``.
    Ground-truth weights and archetypes are retained, the archetypes
    expressed in the same (possibly warped) space as the data.
    """
    z_true = make_archetypes(spec)
    alpha = np.full(spec.k, 1.0 / spec.k) if spec.alpha is None else spec.alpha
    rng = rng_create(spec.sample_seed)
    a_true = rng_dirichlet_matrix(rng, alpha, spec.n)
    x = a_true @ z_true
    if spec.sigma2 > 0:
        x = x + math.sqrt(spec.sigma2) * rng.standard_normal(x.shape)
    return Dataset(
        x=apply_warp(spec, x),
        a_true=a_true,
        z_true=apply_warp(spec, z_true),
    )


def make_side_info(ds: Dataset, kind: str = "mixture_projection",
                   j: int = 0, w=None) -> Dataset:
    """Attach scalar labels derived from the true mixture weights."""
    if ds.a_true is None:
        raise MissingGroundTruth("side information needs A_true")
    k = ds.a_true.shape[1]
    if kind == "mixture_projection":
        if not (0 <= j < k):
            raise ParameterError(f"mixture index j={j} out of range for k={k}")
        labels = ds.a_true[:, j].copy()
    elif kind == "linear_combo":
        w = np.asarray(w, float)
        if w.shape != (k,):
            raise ParameterError(f"weight vector must have length k={k}")
        labels = ds.a_true @ w
    else:
        raise ParameterError(f"unknown side-information kind '{kind}'")
    return replace(ds, labels=labels)


# ---------------------------------------------------------------------------
# CSV serialization

def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file + rename so failures never leave partial output."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def matrix_to_csv(m: np.ndarray, header: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in np.atleast_2d(m):
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def write_matrix_csv(m: np.ndarray, header: list, path: str) -> None:
    atomic_write_text(path, matrix_to_csv(m, header))


def read_matrix_csv(path: str):
    """Returns (matrix, header). Raises ParseError with a 1-based row number."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: empty file, expected a header row")
    header = rows[0]
    width = len(header)
    data = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ParseError(
                f"{path}: row {i} has {len(row)} columns, expected {width}"
            )
        try:
            data.append([float(v) for v in row])
        except ValueError as exc:
            raise ParseError(f"{path}: row {i}: {exc}") from exc
    m = np.array(data, dtype=np.float64) if data else np.zeros((0, width))
    return m, header


def _sidecar(path: str, tag: str) -> str:
    stem, ext = os.path.splitext(path)
    return f"{stem}.{tag}{ext or '.csv'}"


def write_csv(ds: Dataset, path: str) -> None:
    """Write the dataset to ``path`` with ground-truth sidecar files."""
    header = list(ds.columns)
    body = ds.x
    if ds.labels is not None:
        header = header + ["label"]
        body = np.hstack([ds.x, ds.labels[:, None]])
    write_matrix_csv(body, header, path)
    if ds.a_true is not None:
        k = ds.a_true.shape[1]
        write_matrix_csv(ds.a_true, [f"a{j}" for j in range(k)],
                         _sidecar(path, "atrue"))
    if ds.z_true is not None:
        write_matrix_csv(ds.z_true, list(ds.columns), _sidecar(path, "ztrue"))


def read_csv(path: str) -> Dataset:
    """Read a dataset written by :func:`write_csv` (sidecars optional)."""
    m, header = read_matrix_csv(path)
    labels = None
    if header and header[-1] == "label":
        labels = m[:, -1] if m.size else np.zeros((m.shape[0],))
        labels = np.ascontiguousarray(labels)
        m = m[:, :-1]
        header = header[:-1]
    a_true = z_true = None
    apath, zpath = _sidecar(path, "atrue"), _sidecar(path, "ztrue")
    if os.path.exists(apath):
        a_true, _ = read_matrix_csv(apath)
    if os.path.exists(zpath):
        z_true, _ = read_matrix_csv(zpath)
    return Dataset(x=m, a_true=a_true, z_true=z_true, labels=labels,
                   columns=header)


# ---------------------------------------------------------------------------
# JSON files and model serialization

def read_json(path: str, what: str) -> dict:
    """The JSON object held in ``path``; ``what`` names the file in errors."""
    try:
        with open(path) as fh:
            value = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    if not isinstance(value, dict):
        raise ParseError(f"{what} {path} must hold a JSON object, "
                         f"got {type(value).__name__}")
    return value


def write_json(value, path: str) -> None:
    atomic_write_text(path, json.dumps(value, indent=1, sort_keys=True) + "\n")


_MODEL_KINDS = {"linear_aa": linear_aa.LinearAaModel, "deep_aa": deep_aa.DeepAaModel}


def write_model(model, path: str) -> None:
    """Serialize a fitted model (linear or deep) as versioned JSON."""
    for kind, cls in _MODEL_KINDS.items():
        if isinstance(model, cls):
            return write_json({"schema_version": SCHEMA_VERSION, "kind": kind,
                               **model.to_dict()}, path)
    raise ParameterError(f"cannot serialize model of type {type(model).__name__}")


def read_model(path: str):
    payload = read_json(path, "model")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"{path}: schema version {version!r} unsupported (expected {SCHEMA_VERSION})"
        )
    kind = payload.get("kind")
    if kind not in _MODEL_KINDS:
        raise ParseError(f"{path}: unknown model kind {kind!r}")
    try:
        return _MODEL_KINDS[kind].from_dict(payload)
    except KeyError as exc:
        raise ParseError(f"{path}: {kind} model is missing key {exc}") from exc
    except (TypeError, ValueError, ParameterError, ShapeError) as exc:
        raise ParseError(f"{path}: malformed {kind} model: {exc}") from exc
