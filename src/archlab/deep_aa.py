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
from numbers import Integral

import numpy as np

from . import autodiff as ad
from .errors import (MissingGroundTruth, NumericalError, ParameterError, ShapeError,
                     build_config, check_fields, check_value)
from .nn import Adam, Mlp
from .numerics import (SimplexFrame, as_matrix, best_assignment, check_finite, match_rows,
                       rng_create, simplex_vertices)

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
        for name in ("encoder_hidden", "decoder_hidden", "side_hidden"):
            widths = getattr(self, name)
            if widths is None and name == "side_hidden":
                continue
            if not isinstance(widths, (list, tuple)) or not all(
                    isinstance(w, Integral) and w >= 1 for w in widths):
                raise ParameterError(
                    f"field '{name}' must be a list of positive layer widths, got {widths!r}")
            object.__setattr__(self, name, tuple(widths))
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
            if not getattr(self, name) > 0:  # NaN too
                raise ParameterError(f"field '{name}' must be > 0, got {getattr(self, name)}")
        for name in ("at_weight", "side_weight"):
            if not getattr(self, name) >= 0:  # NaN too
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
        self.trained = False

    @property
    def has_side(self) -> bool:
        return self.side_head is not None

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
        x_batch = _check_width(x_batch, self.arch.input_dim, "batch")
        if len(x_batch) == 0:
            raise ShapeError("batch has no rows; encode needs at least one")
        step = ENCODE_CHUNK_ROWS
        chunks = [[node.value for node in self._heads(ad.constant(x_batch[i:i + step]))]
                  for i in range(0, len(x_batch), step)]
        a, b_logits, logvar, mu = (np.concatenate(parts) for parts in zip(*chunks))
        return a, _batch_softmax(ad.constant(b_logits)).value, logvar, mu

    def decode(self, t):
        """Decode finite latent points; returns (X_hat, y_hat-or-None)."""
        t = _check_width(t, self.arch.latent_dim, "latent points")
        x_hat = self.decoder.forward(ad.constant(t)).value
        y_hat = None
        if self.side_head is not None:
            y_hat = self.side_head.forward(ad.constant(t)).value[:, 0]
        return x_hat, y_hat

    def to_dict(self) -> dict:
        nets = {name: getattr(self, name) for name in _NETWORKS}
        return {
            "arch": self.arch.to_dict(),
            **{name: None if net is None else net.state() for name, net in nets.items()},
            "median_logvar": self.median_logvar.tolist(),
            "noise_var": self.noise_var.tolist(),
            "at_weight": self.at_weight,
            "side_weight": self.side_weight,
            "history": self.history,
            "trained": self.trained,
        }

    @staticmethod
    def from_dict(d: dict) -> "DeepAaModel":
        """Load a model saved by :meth:`to_dict` into the networks its arch
        builds. Raises ShapeError when the saved layers do not fit them."""
        model = DeepAaModel(build_config(DeepAaArch, d["arch"], "arch"))
        for name in _NETWORKS:
            net, state = getattr(model, name), d.get(name)
            if (net is None) != (state is None):
                raise ShapeError(f"'{name}' is in the {'arch' if state is None else 'file'} only")
            if net is None:
                continue
            if (state["activation"], state["output_activation"]) != (
                    net.activation, net.output_activation):
                raise ShapeError(f"'{name}' activations differ from the arch's")
            weights, biases = state["weights"], state["biases"]
            if (len(weights), len(biases)) != (len(net.weights), len(net.biases)):
                raise ShapeError(f"'{name}' has {len(weights)} weight and {len(biases)} bias "
                                 f"arrays, the arch builds {len(net.weights)} of each")
            for node, value in zip(net.parameters(), weights + biases):
                node.value[...] = _saved_array(value, node.value.shape, f"a '{name}' array")
        # models saved without noise_var or the loss weights were trained with
        # unit noise and unit loss weights, which a new DeepAaModel starts with
        for name in ("median_logvar", "noise_var"):
            built = getattr(model, name)
            setattr(model, name, _saved_array(d.get(name, built), built.shape, name))
        model.at_weight = float(d.get("at_weight", 1.0))
        model.side_weight = float(d.get("side_weight", 1.0))
        model.history = list(d.get("history", []))
        model.trained = bool(d.get("trained", False))
        return model


def _batch_softmax(b_logits: ad.Node) -> ad.Node:
    """B (k x batch): each archetype's weights over the batch's rows."""
    return ad.row_softmax(ad.transpose(b_logits))


def _saved_array(value, shape: tuple, name: str) -> np.ndarray:
    value = np.array(value, float)
    if value.shape != shape:
        raise ShapeError(f"{name} has shape {value.shape}, the arch builds {shape}")
    return check_finite(value, name)


def _check_width(x, p: int, what: str) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, float))
    if x.shape[1] != p:
        raise ShapeError(f"{what} must have {p} columns, got {x.shape[1]}")
    return as_matrix(x, what)


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
    """``mu`` and ``logvar`` as 2-D constant nodes of one shape."""
    mu, logvar = np.atleast_2d(mu), np.atleast_2d(logvar)
    if mu.shape != logvar.shape:
        raise ShapeError("mu and logvar must have the same shape")
    return ad.constant(mu), ad.constant(logvar)


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
    x = np.asarray(dataset.x, float)
    y = None if dataset.labels is None else np.asarray(dataset.labels, float)
    n = x.shape[0]
    if n == 0:
        raise ParameterError("cannot train on an empty dataset")
    if model.has_side and y is None:
        raise ParameterError("model has a side head but the dataset has no labels")
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
            lam = _lambda_at(hyper, step, scheduled=model.has_side)
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
    model.trained = True
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
