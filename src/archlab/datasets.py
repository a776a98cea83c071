"""Synthetic benchmark construction and CSV/JSON artifact I/O.

A dataset ``<stem>.csv`` is plain CSV (comma separator, ``.`` decimal
point, LF line endings) with a header row ``x0..x{p-1}[,label]``. Its
ground truth lives in the sidecar files ``<stem>.atrue.csv`` (mixture
weights A, header ``a0..a{k-1}``) and ``<stem>.ztrue.csv`` (archetypes Z,
the data's header). Numbers are written with 17 significant digits, so
round-trips are bit-exact, and parsed by NumPy's reader: blank lines are
skipped, and a quoted or underscored number (``"1"``, ``1_000``) or a ``#``
comment is a ParseError. The header is read as CSV, so quoted names work.

Every JSON file is read by :func:`read_json` and written by
:func:`write_json`. Each model class owns its JSON form (``to_dict`` and
``from_dict``); :func:`write_model` and :func:`read_model` frame it with the
schema version and the model kind. Schema 2 stores a deep model as its arch
plus one flat list of its parameters; a file of any other version raises
SchemaVersionError.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import deep_aa, linear_aa
from .errors import (
    IoError,
    MissingGroundTruth,
    NumericalError,
    ParameterError,
    ParseError,
    SchemaVersionError,
    ShapeError,
    check_fields,
    check_items,
    check_value,
)
from .numerics import rng_create, rng_dirichlet_matrix, simplex_vertices

SCHEMA_VERSION = 2
CSV_CHUNK_ROWS = 4096  # rows formatted per write, about 1 MB of text at p = 9

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
        check_fields(self, str, "warp")
        if self.k < 1 or self.p < 1:
            raise ParameterError(f"k and p must be >= 1, got k={self.k}, p={self.p}")
        if self.k - 1 > self.p:
            raise ParameterError(
                f"intrinsic dimension k-1={self.k - 1} exceeds ambient p={self.p}"
            )
        if self.n < 0:
            raise ParameterError("n must be >= 0")
        if self.sigma2 < 0:
            raise ParameterError(f"sigma2 must be >= 0, got {self.sigma2}")
        if self.alpha is not None:
            alpha = check_items("alpha", self.alpha, float)
            if len(alpha) != self.k or min(alpha) <= 0:
                raise ParameterError(
                    f"alpha must be a k-vector of positive concentrations, got {self.alpha!r}")
            object.__setattr__(self, "alpha", alpha)
        if self.warp not in ("none", "exp"):
            raise ParameterError(f"field 'warp' must be 'none' or 'exp', got {self.warp!r}")
        if self.warp == "exp" and not (0 <= self.warp_dim < self.p):
            raise ParameterError(
                f"warp_dim={self.warp_dim} out of range for p={self.p}"
            )

    def to_dict(self) -> dict:
        return asdict(self)


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
            raise ShapeError("column names do not match data width")
        if self.a_true is not None and self.a_true.shape[0] != n:
            raise ShapeError("A_true row count does not match X")
        if self.z_true is not None and self.z_true.shape[1] != p:
            raise ShapeError("Z_true width does not match X")
        if self.z_true is not None and self.a_true is not None \
                and self.z_true.shape[0] != self.a_true.shape[1]:
            raise ShapeError("Z_true row count does not match A_true width")
        if self.labels is not None and self.labels.shape != (n,):
            raise ShapeError("labels must be an n-vector")

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
    """Attach scalar labels derived from the true mixture weights; the
    arguments are the fields of a gen-data spec's ``side_info`` object."""
    check_value("side_info.kind", kind, str)
    check_value("side_info.j", j, int)
    if w is not None:
        w = check_items("side_info.w", w, float)
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


def atomic_write_text(path: str, text) -> None:
    """Write ``text``, a string or an iterable of strings, via a temp file +
    rename so failures never leave partial output, nor the temp file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise IoError(f"cannot write {path}: {exc}") from exc
        raise


def write_matrix_csv(m: np.ndarray, header: list, path: str) -> None:
    """Write the 2-D ``m`` under ``header``, every number with 17 significant
    digits; rows are formatted a chunk at a time, never as one string. Raises
    ShapeError unless ``m`` has one column per header name."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[1] != len(header):
        raise ShapeError(f"a matrix of shape {m.shape} does not fit a header of "
                         f"{len(header)} columns")
    head = io.StringIO()
    csv.writer(head, lineterminator="\n").writerow(header)
    row = ",".join(["%.17g"] * m.shape[1]) + "\n"
    atomic_write_text(path, itertools.chain([head.getvalue()], (
        "".join([row % tuple(r) for r in m[i:i + CSV_CHUNK_ROWS].tolist()])
        for i in range(0, len(m), CSV_CHUNK_ROWS))))


def read_matrix_csv(path: str):
    """Returns (matrix, header). The header is read as CSV, so quoted names
    work; the numbers are parsed by NumPy's reader, which skips blank lines.
    Raises ParseError naming the 1-based file row of the first bad row."""
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader(iter(fh.readline, "")), None)  # iterating disables tell()
            if header is None:
                raise ParseError(f"{path}: empty file, expected a header row")
            width, start = len(header), fh.tell()
            if not any(line.strip("\r\n") for line in iter(fh.readline, "")):
                return np.zeros((0, width)), header  # no data rows
            fh.seek(start)
            try:
                m = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
                if m.shape[1] == width:  # the reader takes rows of any one width
                    return m, header
            except ValueError:
                pass
            fh.seek(start)  # find the first bad row, one line at a time
            for i, line in enumerate(fh, start=2):
                try:
                    bad = line.strip("\r\n") and np.loadtxt(
                        [line], delimiter=",", comments=None).size != width
                except ValueError:
                    bad = True
                if bad:
                    raise ParseError(f"{path}: row {i}: not {width} numbers: {line.strip()!r}")
            raise ParseError(f"{path}: cannot parse the data rows")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def _sidecar(path: str, tag: str) -> str:
    stem, ext = os.path.splitext(path)
    return f"{stem}.{tag}{ext or '.csv'}"


def write_csv(ds: Dataset, path: str) -> list[str]:
    """Write the dataset to ``path`` with ground-truth sidecar files;
    returns the paths written."""
    header = list(ds.columns)
    body = ds.x
    if ds.labels is not None:
        header = header + ["label"]
        body = np.hstack([ds.x, ds.labels[:, None]])
    write_matrix_csv(body, header, path)
    written = [path]
    if ds.a_true is not None:
        k = ds.a_true.shape[1]
        written.append(_sidecar(path, "atrue"))
        write_matrix_csv(ds.a_true, [f"a{j}" for j in range(k)], written[-1])
    if ds.z_true is not None:
        written.append(_sidecar(path, "ztrue"))
        write_matrix_csv(ds.z_true, list(ds.columns), written[-1])
    return written


def read_csv(path: str) -> Dataset:
    """Read a dataset written by :func:`write_csv` (sidecars optional)."""
    m, header = read_matrix_csv(path)
    labels = None
    if header and header[-1] == "label":
        labels = np.ascontiguousarray(m[:, -1])
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
    """Compact JSON with sorted keys: without ``indent``, ``json`` encodes in C.
    Standard JSON only: a NaN or infinity raises NumericalError, and no file
    is written."""
    try:
        text = json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"cannot write {path}: {exc}") from exc
    atomic_write_text(path, text + "\n")


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
    except (TypeError, ValueError, ParameterError, ShapeError, NumericalError) as exc:
        raise ParseError(f"{path}: malformed {kind} model: {exc}") from exc
