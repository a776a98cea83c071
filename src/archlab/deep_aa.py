"""Deep archetypal analysis: a variational information-bottleneck latent
model whose latent means are convex mixtures of a fixed regular simplex.

The encoder trunk feeds three heads: a row-softmax head for the mixture
weights A (batch x k), a batch-axis softmax head for B (k x batch), and a
clamped log-variance head. Latent means are mu = A @ V for the fixed
vertex matrix V, so they live inside the simplex by construction. The
archetype loss ||V - B A V||_F^2 ties the learned mixtures back to the
vertices; training minimizes kl + lambda * reconstruction + archetype loss
with reparameterized latent samples.

The decoder is a Gaussian likelihood with its own noise variance for each
data coordinate: the reconstruction term is 0.5 * sum_d (x_d - x_hat_d)^2
/ noise_var_d per row, averaged over the batch. ``noise_var`` is model
state, not a parameter: train() starts it at the column variance of the
training data and, after every step, moves it towards the batch's mean
squared residual per coordinate, averaging over the optimizer's
first-moment window. Coordinates the decoder reproduces closely thus weigh
more against the KL term than noisy ones, instead of every coordinate
being scored as if its noise had unit variance.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .errors import (DimensionError, MissingGroundTruth, NumericalError, ParameterError,
                     build_config, check_fields, check_items, check_keys, check_value)
from .nn import Adam, Mlp
from .numerics import (SimplexFrame, as_array, best_assignment, match_rows, rng_create,
                       simplex_vertices)

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0
# floor for the fitted decoder noise variance, so a coordinate the decoder
# reproduces exactly cannot get an unbounded weight
NOISE_VAR_MIN = 1e-6
# rows per encoder graph in encode(); a (4096, 64) layer output takes 2 MB
ENCODE_CHUNK_ROWS = 4096

HISTORY_COLUMNS = ["step", "total", "recon", "kl", "at", "side", "lambda"]

# a model's networks (side_head may be None), in the order of its parameters()
_NETWORKS = ("trunk", "a_head", "b_head", "logvar_head", "decoder", "side_head")


@dataclass(frozen=True)
class DeepAaArch:
    input_dim: int
    k: int
    encoder_hidden: tuple = (64, 64)
    decoder_hidden: tuple = (64, 64)
    side_hidden: tuple | None = None  # None disables the side head
    activation: str = "relu"

    def __post_init__(self):
        check_fields(self, int, "input_dim", "k")
        check_fields(self, str, "activation")
        if self.k < 2:
            raise ParameterError(f"deep AA needs k >= 2, got {self.k}")
        if self.input_dim < 1:
            raise ParameterError("input_dim must be >= 1")
        if self.activation not in ad.ACTIVATIONS:
            raise ParameterError(f"field 'activation' must be one of "
                                 f"{sorted(ad.ACTIVATIONS)}, got {self.activation!r}")
        for name in ("encoder_hidden", "decoder_hidden", "side_hidden"):
            if getattr(self, name) is None and name == "side_hidden":
                continue
            widths = check_items(name, getattr(self, name), int)
            if not all(w >= 1 for w in widths):
                raise ParameterError(f"field '{name}' must be a list of positive layer widths, "
                                     f"got {getattr(self, name)!r}")
            object.__setattr__(self, name, widths)
        if len(self.encoder_hidden) < 1 or len(self.decoder_hidden) < 1:
            raise ParameterError("encoder and decoder need at least one hidden layer")

    @property
    def latent_dim(self) -> int:
        return self.k - 1

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DeepAaHyper:
    lambda0: float = 1.0
    lambda_growth: float = 1.01
    lambda_every: int = 500
    at_weight: float = 1.0
    side_weight: float = 1.0
    lr: float = 1e-3
    batch: int = 100
    epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        check_fields(self, float, "lambda0", "lambda_growth", "at_weight",
                     "side_weight", "lr")
        check_fields(self, int, "lambda_every", "batch", "epochs", "seed")
        for name in ("lambda0", "lambda_growth", "lr"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"field '{name}' must be > 0, got {getattr(self, name)}")
        for name in ("at_weight", "side_weight"):
            if getattr(self, name) < 0:
                raise ParameterError(f"field '{name}' must be >= 0, got {getattr(self, name)}")
        if self.batch < 1 or self.epochs < 0:
            raise ParameterError("batch must be >= 1 and epochs >= 0")
        if self.lambda_every < 1:
            raise ParameterError("lambda_every must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


class DeepAaModel:
    """Encoder/decoder parameter sets plus the fixed simplex frame."""

    def __init__(self, arch: DeepAaArch, seed: int = 0):
        self.arch = arch
        self.frame: SimplexFrame = simplex_vertices(arch.k)
        rng = rng_create(seed)
        hidden = arch.encoder_hidden
        self.trunk = Mlp([arch.input_dim, *hidden], activation=arch.activation,
                         output_activation=arch.activation, rng=rng)
        width = hidden[-1]
        self.a_head = Mlp([width, arch.k], rng=rng)
        self.b_head = Mlp([width, arch.k], rng=rng)
        self.logvar_head = Mlp([width, arch.latent_dim], rng=rng)
        self.decoder = Mlp([arch.latent_dim, *arch.decoder_hidden, arch.input_dim],
                           activation=arch.activation, rng=rng)
        self.side_head = None
        if arch.side_hidden is not None:
            self.side_head = Mlp([arch.latent_dim, *arch.side_hidden, 1],
                                 activation=arch.activation, rng=rng)
        self.history: list = []
        self.median_logvar = np.zeros(arch.latent_dim)
        # unit decoder noise and loss weights until train() fits / sets them
        self.noise_var = np.ones(arch.input_dim)
        self.at_weight = 1.0
        self.side_weight = 1.0

    def parameters(self):
        nets = (getattr(self, name) for name in _NETWORKS)
        return [p for net in nets if net is not None for p in net.parameters()]

    # -- graph builders ----------------------------------------------------

    def _heads(self, x: ad.Node):
        """(A, B-head logits, logvar, mu); row i of each depends on row i of
        ``x`` alone."""
        h = self.trunk.forward(x)
        a = ad.row_softmax(self.a_head.forward(h))
        b_logits = self.b_head.forward(h)
        logvar = ad.clamp(self.logvar_head.forward(h), LOGVAR_MIN, LOGVAR_MAX)
        mu = ad.affine(a, ad.constant(self.frame.vertices))
        return a, b_logits, logvar, mu

    def _loss_nodes(self, x_batch: np.ndarray, y_batch, lam: float,
                    noise: np.ndarray):
        """Full objective graph; ``noise`` is the fixed reparameterization
        draw for this batch (shape m x (k-1)). Returns (total, parts)."""
        total, parts, _ = self._objective(x_batch, y_batch, lam, noise)
        return total, parts

    def _objective(self, x_batch, y_batch, lam, noise):
        """The graph of _loss_nodes, plus the batch's reconstruction residual
        as an array (train() refits ``noise_var`` from it)."""
        a, b_logits, logvar, mu = self._heads(ad.constant(x_batch))
        b = _batch_softmax(b_logits)
        kl = _kl(mu, logvar)
        t = _sample(mu, logvar, noise)
        x_hat = self.decoder.forward(t)
        residual = x_batch - x_hat.value
        # noise_var is a constant of the graph: no gradient flows into it
        recon = _squared_error(residual, x_hat, 1.0 / self.noise_var)
        at = _archetype(a, b, self.frame.vertices)

        parts = {"recon": recon, "kl": kl, "at": at}
        terms, weights = [kl, recon, at], [1.0, lam, self.at_weight]
        if self.side_head is not None:
            if y_batch is None:
                raise ParameterError("model has a side head but batch has no labels")
            y_hat = self.side_head.forward(t)
            side = _squared_error(y_batch.reshape(-1, 1) - y_hat.value, y_hat, np.ones(1))
            parts["side"] = side
            terms, weights = terms + [side], weights + [lam * self.side_weight]
        return _weighted_sum(terms, weights), parts, residual

    # -- public operations ---------------------------------------------------

    def encode(self, x_batch):
        """Forward pass; returns (A, B, logvar, mu) as plain arrays. The heads
        run on ENCODE_CHUNK_ROWS rows at a time, so the graph held at once
        does not grow with the row count; B's softmax over the batch axis is
        then taken once, over every row."""
        x_batch = as_array(np.atleast_2d(x_batch), "batch", (None, self.arch.input_dim))
        if len(x_batch) == 0:
            raise DimensionError("batch has no rows; encode needs at least one")
        step = ENCODE_CHUNK_ROWS
        chunks = [[node.value for node in self._heads(ad.constant(x_batch[i:i + step]))]
                  for i in range(0, len(x_batch), step)]
        a, b_logits, logvar, mu = (np.concatenate(parts) for parts in zip(*chunks))
        return a, _batch_softmax(ad.constant(b_logits)).value, logvar, mu

    def decode(self, t):
        """Decode finite latent points; returns (X_hat, y_hat-or-None)."""
        t = as_array(np.atleast_2d(t), "latent points", (None, self.arch.latent_dim))
        x_hat = self.decoder.forward(ad.constant(t)).value
        y_hat = None
        if self.side_head is not None:
            y_hat = self.side_head.forward(ad.constant(t)).value[:, 0]
        return x_hat, y_hat

    def to_dict(self) -> dict:
        """The file form: the arch, every parameter value as one flat list in
        :meth:`parameters` order, and the state train() fits; not the history."""
        return {
            "arch": self.arch.to_dict(),
            "parameters": np.concatenate([p.value.ravel() for p in self.parameters()]).tolist(),
            "median_logvar": self.median_logvar.tolist(),
            "noise_var": self.noise_var.tolist(),
            "at_weight": self.at_weight,
            "side_weight": self.side_weight,
        }

    @staticmethod
    def from_dict(d: dict) -> "DeepAaModel":
        """Load a model saved by :meth:`to_dict` into the networks its arch
        builds. Raises ShapeError unless ``parameters`` holds exactly as many
        numbers as they take, NumericalError on a non-finite number, and
        ParameterError on loss weights DeepAaHyper rejects or noise below NOISE_VAR_MIN."""
        model = DeepAaModel(build_config(DeepAaArch, d["arch"], "arch"))
        params = model.parameters()
        sizes = [p.value.size for p in params]
        flat = as_array(d["parameters"], "parameters", (sum(sizes),))
        for p, values in zip(params, np.split(flat, np.cumsum(sizes)[:-1])):
            p.value[...] = values.reshape(p.value.shape)
        for name in ("median_logvar", "noise_var"):
            setattr(model, name, as_array(d[name], name, getattr(model, name).shape))
        if model.noise_var.min() < NOISE_VAR_MIN:
            raise ParameterError(f"noise_var must be >= {NOISE_VAR_MIN}, got {model.noise_var}")
        hyper = DeepAaHyper(at_weight=d["at_weight"], side_weight=d["side_weight"])
        model.at_weight, model.side_weight = hyper.at_weight, hyper.side_weight
        return model


def _batch_softmax(b_logits: ad.Node) -> ad.Node:
    """B (k x batch): each archetype's weights over the batch's rows."""
    return ad.row_softmax(ad.transpose(b_logits))


# ---------------------------------------------------------------------------
# The objective's terms, each one graph node with its vector-Jacobian product
# written out: _objective composes them, and kl_term, reparameterize and
# archetype_loss evaluate them on arrays

def _kl(mu: ad.Node, logvar: ad.Node) -> ad.Node:
    half = 0.5 / mu.shape[0]
    e = np.exp(logvar.value)
    value = (e + mu.value**2 - 1.0 - logvar.value).sum() * half
    return ad.Node(value, (mu, logvar),
                   lambda g: (2.0 * mu.value * (g * half), (e - 1.0) * (g * half)))


def _sample(mu: ad.Node, logvar: ad.Node, eps: np.ndarray) -> ad.Node:
    sd = np.exp(logvar.value * 0.5)
    return ad.Node(mu.value + sd * eps, (mu, logvar), lambda g: (g, 0.5 * sd * (g * eps)))


def _squared_error(residual: np.ndarray, pred: ad.Node, weights: np.ndarray) -> ad.Node:
    """0.5 / m * sum_i sum_d weights_d residual_id^2 over the m rows, where
    ``residual`` is the target minus ``pred``."""
    half = 0.5 / len(residual)
    value = (residual**2 @ weights).sum() * half
    return ad.Node(value, (pred,), lambda g: (residual * (weights * (-2.0 * half * g)),))


def _archetype(a: ad.Node, b: ad.Node, v: np.ndarray) -> ad.Node:
    r = v - (b.value @ a.value) @ v

    def vjp(g):
        d_ba = (-2.0 * g * r) @ v.T
        return b.value.T @ d_ba, d_ba @ a.value.T
    return ad.Node((r**2).sum(), (a, b), vjp)


def _weighted_sum(terms, weights) -> ad.Node:
    """sum_i weights_i * terms_i over scalar nodes, as one node."""
    value = sum(w * t.value for w, t in zip(weights, terms))
    return ad.Node(value, tuple(terms), lambda g: [g * w for w in weights])


def _latent_nodes(mu, logvar):
    """``mu`` and ``logvar``, finite and of one 2-D shape, as constant nodes."""
    mu = as_array(np.atleast_2d(mu), "mu", (None, None))
    return ad.constant(mu), ad.constant(as_array(np.atleast_2d(logvar), "logvar", mu.shape))


def archetype_loss(a: np.ndarray, b: np.ndarray, frame: SimplexFrame) -> float:
    """||V - B A V||_F^2 for the fixed vertex matrix V."""
    return float(_archetype(ad.constant(a), ad.constant(b), frame.vertices).value)


def kl_term(mu: np.ndarray, logvar: np.ndarray) -> float:
    """Mean (over rows) KL(N(mu_i, diag(exp(logvar_i))) || N(0, I))."""
    return float(_kl(*_latent_nodes(mu, logvar)).value)


def reparameterize(mu: np.ndarray, logvar: np.ndarray, rng) -> np.ndarray:
    """t = mu + exp(logvar / 2) * eps with eps ~ N(0, I)."""
    mu, logvar = _latent_nodes(mu, logvar)
    return _sample(mu, logvar, rng.standard_normal(mu.shape)).value


# ---------------------------------------------------------------------------
# Training

def _labels(arch: DeepAaArch, dataset):
    """The labels a fit of ``arch`` trains on: None without a side head (they
    are then not read), else the dataset's, finite and one per row."""
    if arch.side_hidden is not None and dataset.labels is None:
        raise ParameterError("field 'side_hidden' sets a side head, but the data has no labels")
    return (None if arch.side_hidden is None
            else as_array(dataset.labels, "labels", (len(dataset.x),)))


def fit_configs(dataset, cfg: dict, k: int, seed: int, where: str):
    """The (arch, hyper) of one deep fit on ``dataset`` from ``cfg``'s optional
    ``arch`` and ``hyper`` dicts (``where`` names ``cfg``): the data gives input_dim,
    the caller k and the seed. Labels a side head cannot use fail here, as in train()."""
    check_keys(cfg, ("arch", "hyper"), where)
    arch = build_config(DeepAaArch, cfg.get("arch", {}), f"{where} 'arch'",
                        input_dim=dataset.x.shape[1], k=k)
    hyper = build_config(DeepAaHyper, cfg.get("hyper", {}), f"{where} 'hyper'", seed=seed)
    _labels(arch, dataset)
    return arch, hyper


def _lambda_at(hyper: DeepAaHyper, step: int, scheduled: bool) -> float:
    if not scheduled:
        return hyper.lambda0
    return hyper.lambda0 * hyper.lambda_growth ** (step // hyper.lambda_every)


def train(model: DeepAaModel, dataset, hyper: DeepAaHyper) -> DeepAaModel:
    """Mini-batch Adam training of the full objective; deterministic in
    ``hyper.seed``. The Lagrange multiplier is fixed at lambda0 unless a
    side head is present, in which case it grows geometrically.

    The decoder noise variance starts at the column variance of ``x`` and
    after each step moves a fraction 1 - beta1 (Adam's first-moment rate)
    of the way to the batch's mean squared residual, so it tracks the
    residuals over the same window of batches the gradient averages over.
    Each step is scored with the estimate from earlier batches: a batch
    never lowers the weight of its own largest residuals."""
    x = as_array(dataset.x, "X", (None, None))
    n = x.shape[0]
    if n == 0:
        raise DimensionError("cannot train on an empty dataset")
    y = _labels(model.arch, dataset)
    if hyper.batch < model.arch.k:
        warnings.warn(
            f"batch size {hyper.batch} below k={model.arch.k}; the batch-axis "
            "softmax cannot span all archetypes", stacklevel=2)
    model.at_weight = hyper.at_weight
    model.side_weight = hyper.side_weight
    rng = rng_create(hyper.seed)
    opt = Adam(model.parameters(), lr=hyper.lr)
    rate = 1.0 - opt.beta1
    model.noise_var = np.maximum(x.var(axis=0), NOISE_VAR_MIN)
    model.history = []
    step = 0
    for _epoch in range(hyper.epochs):
        order = rng.permutation(n)
        for start in range(0, n, hyper.batch):
            idx = order[start:start + hyper.batch]
            xb = x[idx]
            yb = None if y is None else y[idx]
            lam = _lambda_at(hyper, step, scheduled=model.side_head is not None)
            noise = rng.standard_normal((xb.shape[0], model.arch.latent_dim))
            total, parts, residual = model._objective(xb, yb, lam, noise)
            if not np.isfinite(total.value):
                raise NumericalError(
                    f"non-finite loss at step {step}; the parameters are left "
                    "as they were before this step"
                )
            opt.zero_grad()
            total.backward()
            opt.step()
            batch_var = np.mean(residual**2, axis=0)
            model.noise_var = np.maximum(
                (1.0 - rate) * model.noise_var + rate * batch_var, NOISE_VAR_MIN)
            terms = [float(parts[name].value) if name in parts else 0.0
                     for name in HISTORY_COLUMNS[2:-1]]  # recon, kl, at, side
            model.history.append([step, float(total.value), *terms, lam])
            step += 1
    _, _, logvar, _ = model.encode(x)
    model.median_logvar = np.median(logvar, axis=0)
    return model


# ---------------------------------------------------------------------------
# Generation and interpolation

def _check_weights(a, k: int) -> np.ndarray:
    a = np.asarray(a, float)
    if a.shape != (k,):
        raise ParameterError(f"mixture weights must have length {k}")
    if not (np.all(a >= -1e-12) and abs(a.sum() - 1.0) <= 1e-9):  # NaN too
        raise ParameterError(f"mixture weights must be on the unit simplex, got {a}")
    return np.clip(a, 0.0, None)


def generate(model: DeepAaModel, a, rng=None):
    """Decode the latent point given by mixture weights ``a``.

    Given an ``rng``, the latent point is first sampled by :func:`reparameterize`
    with the training-set median log-variance (no encoder input gives one).
    """
    a = _check_weights(a, model.arch.k)
    t = a @ model.frame.vertices
    if rng is not None:
        t = reparameterize(t, model.median_logvar, rng)[0]
    x_hat, y_hat = model.decode(t)
    return x_hat[0], (None if y_hat is None else float(y_hat[0]))


def vertex_recovery_report(model: DeepAaModel, dataset) -> dict:
    """How well the trained model maps ground-truth archetypes to simplex
    vertices and decodes vertices back to the archetypes.

    Row i of ``generation_decoded`` is the one-hot generation matched to
    true archetype i (``generation_true`` row i), so a large entry of
    ``generation_mean_abs_errors`` can be traced to the coordinates that
    miss. Needs dataset.z_true with the same k as the model. Both matchings
    use ``numerics.best_assignment``.
    """
    if dataset.z_true is None:
        raise MissingGroundTruth("vertex recovery needs Z_true")
    z_true = np.asarray(dataset.z_true, float)
    k = model.arch.k
    if z_true.shape[0] != k:
        raise ParameterError(
            f"model k={k} does not match {z_true.shape[0]} true archetypes"
        )
    # nearest data row to each true archetype, encoded to its latent mean
    nearest = np.array([
        int(np.argmin(np.linalg.norm(dataset.x - z_true[j], axis=1)))
        for j in range(k)
    ])
    _, _, _, mu = model.encode(dataset.x[nearest])
    a, b, _, _ = model.encode(dataset.x)
    dist = np.linalg.norm(mu[:, None, :] - model.frame.vertices[None, :, :], axis=2)
    vertex_perm = best_assignment(dist)
    mu_vertex_dist = [float(dist[j, vertex_perm[j]]) for j in range(k)]

    # one-hot generation vs the true archetypes, optimally matched
    generated = np.array([
        generate(model, np.eye(k)[j])[0] for j in range(k)
    ])
    gen_perm, gen_errors = match_rows(generated, z_true)
    return {
        "archetype_loss": archetype_loss(a, b, model.frame),
        "nearest_row_indices": [int(i) for i in nearest],
        "vertex_assignment": [int(v) for v in vertex_perm],
        "mu_vertex_distances": mu_vertex_dist,
        "generation_assignment": [int(v) for v in gen_perm],
        "generation_mean_abs_errors": [float(e) for e in gen_errors],
        "generation_decoded": generated[gen_perm].tolist(),
        "generation_true": z_true.tolist(),
    }


def interpolate(model: DeepAaModel, a_start, a_end, steps: int) -> np.ndarray:
    """Decode evenly spaced mixtures along the segment a_start -> a_end."""
    check_value("steps", steps, int)
    if steps < 2:
        raise ParameterError("need at least 2 interpolation steps")
    a_start = _check_weights(a_start, model.arch.k)
    a_end = _check_weights(a_end, model.arch.k)
    fractions = np.linspace(0.0, 1.0, steps)
    mixtures = np.outer(1.0 - fractions, a_start) + np.outer(fractions, a_end)
    # one row at a time, through the same products as generate(), so the
    # endpoints reproduce direct generation bit-for-bit
    rows = []
    for mix in mixtures:
        t = mix @ model.frame.vertices
        x_hat, _ = model.decode(t)
        rows.append(x_hat[0])
    return np.stack(rows)
