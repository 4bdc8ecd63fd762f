"""Self-contained online Poisson regressor.

Categorical tokens are feature-hashed into per-field embedding tables,
concatenated with log1p-transformed numeric features, passed through fully
connected ReLU layers, and mapped to a rate via an exponential output link.
Training is strictly one example at a time with per-parameter AdaGrad.
In two-output mode the network emits (rate_plus, rate_minus) and the signed
prediction is their difference, which is how negative labels from
retractions are handled.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field, asdict, replace
from functools import lru_cache

import numpy as np

from .core import ContractViolation

CHECKPOINT_MAGIC = b"DLYFEED1"


@dataclass(frozen=True)
class RegressorConfig:
    categorical_fields: tuple = ()
    numeric_features: tuple = ()
    embedding_dim: int = 8
    hash_buckets_per_field: int = 4096
    hidden_layer_sizes: tuple = (32, 32)
    learning_rate: float = 0.05
    adagrad_epsilon: float = 1e-6
    output_bias_init: float = math.log(0.5)
    two_output_mode: bool = False
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "categorical_fields", tuple(self.categorical_fields))
        object.__setattr__(self, "numeric_features", tuple(self.numeric_features))
        object.__setattr__(self, "hidden_layer_sizes", tuple(self.hidden_layer_sizes))
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        if self.hash_buckets_per_field < 2:
            raise ValueError("hash_buckets_per_field must be >= 2")
        if not all(size >= 1 for size in self.hidden_layer_sizes):
            raise ValueError(
                f"hidden layer sizes must be >= 1: {self.hidden_layer_sizes}"
            )
        # NaN fails every comparison, so each check is written to fail on it
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and >= 0")
        if not 0 < self.adagrad_epsilon < math.inf:
            raise ValueError("adagrad_epsilon must be finite and > 0")
        if not math.isfinite(self.output_bias_init):
            raise ValueError("output_bias_init must be finite")


@dataclass
class FeatureVector:
    """Categorical (field_id, token) pairs plus named numeric features.
    Fields must come from the regressor's declared schema; a declared field
    absent from the input contributes a zero embedding."""

    categorical: list
    numeric: list = field(default_factory=list)


@lru_cache(maxsize=65536)
def hash_token(field_id: str, token: str, buckets: int) -> int:
    """Stable 64-bit hash of field_id + token, reduced to a bucket index.
    Stable across processes and runs (unlike builtin hash)."""
    digest = hashlib.blake2b(
        f"{field_id}\x1f{token}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") % buckets


def adagrad_update(param, accum, grad, lr: float, eps: float, work=None):
    """In-place AdaGrad step: accum += grad^2; param -= (lr * grad) /
    (sqrt(accum) + eps), element by element. `work`, a float64 array of
    shape (2, *grad.shape), holds the intermediates so that the step
    allocates nothing; without it they are allocated."""
    if work is None:
        work = np.empty((2, *grad.shape))
    step, den = work
    np.multiply(grad, grad, out=step)
    accum += step
    np.sqrt(accum, out=den)
    den += eps
    np.multiply(grad, lr, out=step)
    step /= den
    param -= step


def param_shapes(config: RegressorConfig) -> list:
    """Shapes of a regressor's parameter arrays in the order they lie in its
    flat buffer: one embedding table per field, then the dense weights, then
    the dense biases."""
    d = config.embedding_dim
    fields = config.categorical_fields
    input_dim = d * len(fields) + len(config.numeric_features)
    n_outputs = 2 if config.two_output_mode else 1
    sizes = [input_dim, *config.hidden_layer_sizes, n_outputs]
    layers = list(zip(sizes, sizes[1:]))
    emb_shape = (config.hash_buckets_per_field, d)
    return [emb_shape] * len(fields) + layers + [(fan_out,) for _, fan_out in layers]


def _carve(buf, shapes) -> list:
    """Consecutive views of `buf` along its last axis, one per shape: for
    a flat buffer, arrays of those shapes; for an (R, P) buffer, arrays of
    shape (R, *shape)."""
    views, start = [], 0
    for shape in shapes:
        n = math.prod(shape)
        views.append(buf[..., start : start + n].reshape(buf.shape[:-1] + shape))
        start += n
    return views


def _state_buffer(buf, size: int):
    """`buf` when it can be a model's `params` or `g2`: a C-contiguous
    float64 vector of `size` elements, so that every carved array is a view
    of it."""
    if not (buf.dtype == np.float64 and buf.shape == (size,)
            and buf.flags.c_contiguous):
        raise ValueError(
            f"state buffer must be a contiguous float64 vector of {size} "
            f"elements, got {buf.dtype} {buf.shape}"
        )
    return buf


class PoissonRegressor:
    """Hashed-embedding MLP with exponential output link and AdaGrad state.

    All parameters live in one float64 buffer `params` and their AdaGrad
    accumulators in `g2`, laid out as `param_shapes(config)`: the per-field
    embedding tables, then the dense weights, then the dense biases.
    `embeddings`, `weights`, `biases` and the `*_g2` names are views into
    those two buffers. The model allocates them, or takes zero-filled
    `params` and `g2` vectors from its caller (rows of a `RegressorStack`).

    Single-writer during training; read-only inference between training
    steps is safe from any thread.
    """

    def __init__(self, config: RegressorConfig, params=None, g2=None):
        self.config = config
        self.forward_calls = 0
        rng = np.random.default_rng(config.rng_seed)

        d = config.embedding_dim
        fields = config.categorical_fields
        nf, nl = len(fields), len(config.hidden_layer_sizes) + 1
        shapes = param_shapes(config)
        dense_shapes = shapes[nf:]
        layers = dense_shapes[:nl]
        self.input_dim = layers[0][0]
        self.n_outputs = layers[-1][1]

        size = sum(math.prod(s) for s in shapes)
        self.params = np.zeros(size) if params is None else _state_buffer(params, size)
        self.g2 = np.zeros(size) if g2 is None else _state_buffer(g2, size)
        # dense gradient of the last backward pass, laid out like the
        # dense tail of `params`
        self._grad = np.empty(sum(math.prod(s) for s in dense_shapes))
        self._work = np.empty((2, self._grad.size))
        n_emb = self.params.size - self._grad.size
        self._dense = self.params[n_emb:]
        self._dense_g2 = self.g2[n_emb:]
        # every embedding row of every field, field by field: row
        # field_index * hash_buckets_per_field + bucket
        self._emb_rows = self.params[:n_emb].reshape(-1, d)
        self._emb_rows_g2 = self.g2[:n_emb].reshape(-1, d)

        p, a = _carve(self.params, shapes), _carve(self.g2, shapes)
        self.embeddings = dict(zip(fields, p[:nf]))
        self.embedding_g2 = dict(zip(fields, a[:nf]))
        self.weights, self.biases = p[nf : nf + nl], p[nf + nl :]
        self.weight_g2, self.bias_g2 = a[nf : nf + nl], a[nf + nl :]
        g = _carve(self._grad, dense_shapes)
        self._weight_grads, self._bias_grads = g[:nl], g[nl:]

        for f, emb_shape in zip(fields, shapes):
            self.embeddings[f][...] = rng.uniform(-0.05, 0.05, size=emb_shape)
        for w, (fan_in, fan_out) in zip(self.weights, layers):
            limit = 1.0 / math.sqrt(fan_in) if fan_in > 0 else 0.0
            w[...] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        self.biases[-1][:] = config.output_bias_init

        self._numeric_index = {
            name: i for i, name in enumerate(config.numeric_features)
        }
        self._field_index = {f: i for i, f in enumerate(fields)}
        # what _forward_cached reads; ndarray.dot skips the dispatch that
        # np.dot adds to every call
        self._views = (self._emb_rows, np.zeros(d), self.weights, self.biases,
                       np.ndarray.dot)

    # -- forward ---------------------------------------------------------

    def _forward_cached(self, features: FeatureVector, views):
        """Returns (rates, the input of every layer, lookups); allocates
        every array it returns. `views` is (embedding rows, zero block,
        weights, biases, product). With this model's own `_views` the input
        is one (input_dim,) vector and `product` is `dot`. With a
        `RegressorStack`'s views of R models of this layout, the embedding
        rows are (rows, R, embedding_dim), every other array gains a
        leading R axis, `product` is `matmul` and the rates are
        (R, 1, n_outputs).

        The input is, in declared field order, the sum of each field's
        embedding rows (the zero block for an absent field), then the
        log1p-scaled numeric features. `lookups` lists (field index,
        `_emb_rows` row) per categorical entry."""
        emb, zero, weights, biases, product = views
        cfg = self.config
        buckets = cfg.hash_buckets_per_field
        parts = [zero] * len(cfg.categorical_fields)
        lookups = []
        for field_id, token in features.categorical:
            fi = self._field_index.get(field_id)
            if fi is None:
                raise ContractViolation(
                    f"unknown categorical field {field_id!r}; declared fields: "
                    f"{cfg.categorical_fields}"
                )
            row = fi * buckets + hash_token(field_id, token, buckets)
            lookups.append((fi, row))
            parts[fi] = emb[row] if parts[fi] is zero else parts[fi] + emb[row]
        numeric = [0.0] * len(cfg.numeric_features)
        for name, value in features.numeric:
            idx = self._numeric_index.get(name)
            if idx is None:
                raise ContractViolation(
                    f"unknown numeric feature {name!r}; declared: "
                    f"{cfg.numeric_features}"
                )
            # log1p scaling for heavy-tailed count-like inputs
            numeric[idx] = math.copysign(math.log1p(abs(value)), value)
        if zero.ndim == 1:
            parts.append(numeric)
            h = np.concatenate(parts)
        else:
            parts.append([numeric] * len(zero))
            h = np.concatenate(parts, axis=1)[:, None, :]
        inputs = []
        for i, (w, b) in enumerate(zip(weights, biases)):
            if i:
                np.maximum(h, 0.0, out=h)
            inputs.append(h)
            h = product(h, w)
            h += b
        # stability clamp on the log-rate; exp would overflow/underflow far
        # outside this range and AdaGrad recovers from the clipped gradient
        rates = np.exp(np.minimum(np.maximum(h, -30.0), 30.0))
        return rates, inputs, lookups

    def forward(self, features: FeatureVector):
        """Rate (single output) or (rate_plus, rate_minus) in two-output mode."""
        self.forward_calls += 1
        rates, _, _ = self._forward_cached(features, self._views)
        if self.n_outputs == 1:
            return float(rates[0])
        return float(rates[0]), float(rates[1])

    def predict(self, features: FeatureVector) -> float:
        """Scalar prediction: the rate, or rate_plus - rate_minus."""
        out = self.forward(features)
        if self.n_outputs == 1:
            return out
        return out[0] - out[1]

    # -- training --------------------------------------------------------

    def _label_array(self, label):
        if self.n_outputs == 1:
            if not isinstance(label, (int, float)):
                raise ContractViolation(
                    "single-output mode takes a scalar label"
                )
            if not (math.isfinite(label) and label >= 0):
                raise ContractViolation(
                    f"label must be finite and >= 0 in single-output mode, "
                    f"got {label}"
                )
            return np.array([float(label)])
        pos, neg = label
        if not all(math.isfinite(v) and v >= 0 for v in (pos, neg)):
            raise ContractViolation(
                f"two-output labels must both be finite and >= 0, "
                f"got ({pos}, {neg})"
            )
        return np.array([float(pos), float(neg)])

    def _gradients(self, features: FeatureVector, label):
        """The one backward pass: gradients of the summed Poisson NLL over
        outputs. Writes the dense gradients into `_grad` and returns (loss,
        the distinct `_emb_rows` rows looked up, their gradients as one
        (rows, embedding_dim) array). A row looked up k times gets the sum
        of its k gradients."""
        y = self._label_array(label)
        rates, inputs, lookups = self._forward_cached(features, self._views)
        loss = float((rates - y * np.log(rates)).sum())
        # the gradient of each layer's pre-activation is its bias gradient
        grad = np.subtract(rates, y, out=self._bias_grads[-1])  # exp link
        for i in range(len(self.weights) - 1, 0, -1):
            np.dot(inputs[i][:, None], grad[None, :], out=self._weight_grads[i])
            grad = np.dot(self.weights[i], grad, out=self._bias_grads[i - 1])
            grad *= inputs[i] > 0.0
        np.dot(inputs[0][:, None], grad[None, :], out=self._weight_grads[0])
        grad = self.weights[0].dot(grad)
        d = self.config.embedding_dim
        # dL/dx of each field's embedding slot
        field_grads = grad[: d * len(self.config.categorical_fields)].reshape(-1, d)
        position, rows, fields, repeats = {}, [], [], []
        for fi, row in lookups:
            j = position.get(row)
            if j is None:
                position[row] = len(rows)
                rows.append(row)
                fields.append(fi)
            else:
                repeats.append((j, fi))
        emb_grads = field_grads.take(fields, axis=0)
        for j, fi in repeats:
            emb_grads[j] += field_grads[fi]
        return loss, np.array(rows, dtype=np.intp), emb_grads

    def gradients(self, features: FeatureVector, label):
        """Analytic gradients without updating: (loss, weight grads,
        bias grads, embedding grads as {(field, row): vector})."""
        loss, rows, emb_grads = self._gradients(features, label)
        fields = self.config.categorical_fields
        buckets = self.config.hash_buckets_per_field
        return (
            loss,
            [g.copy() for g in self._weight_grads],
            [g.copy() for g in self._bias_grads],
            {
                (fields[row // buckets], row % buckets): g
                for row, g in zip(rows.tolist(), emb_grads)
            },
        )

    def train_step(self, features: FeatureVector, label) -> float:
        """One online AdaGrad step; returns the pre-update loss. Only
        embedding rows actually touched by the input are updated, all in
        one AdaGrad update over their gathered values. A non-finite loss
        or gradient raises before anything is written."""
        loss, rows, emb_grads = self._gradients(features, label)
        if not (
            math.isfinite(loss)
            and np.isfinite(self._grad).all()
            and np.isfinite(emb_grads).all()
        ):
            raise FloatingPointError(
                f"non-finite loss or gradient (loss={loss}); step not applied"
            )
        lr = self.config.learning_rate
        eps = self.config.adagrad_epsilon
        adagrad_update(
            self._dense, self._dense_g2, self._grad, lr, eps, self._work
        )
        emb = self._emb_rows.take(rows, axis=0)
        emb_g2 = self._emb_rows_g2.take(rows, axis=0)
        adagrad_update(emb, emb_g2, emb_grads, lr, eps)
        self._emb_rows[rows] = emb
        self._emb_rows_g2[rows] = emb_g2
        return loss

    # -- checkpointing ----------------------------------------------------

    def save(self, path):
        """Magic, config JSON length and text, then `params` and `g2` as
        little-endian float64."""
        cfg_json = json.dumps(asdict(self.config), sort_keys=True).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", len(cfg_json)))
            fh.write(cfg_json)
            fh.write(self.params.astype("<f8", copy=False).tobytes())
            fh.write(self.g2.astype("<f8", copy=False).tobytes())

    @classmethod
    def load(cls, path) -> "PoissonRegressor":
        with open(path, "rb") as fh:
            magic = fh.read(8)
            if magic != CHECKPOINT_MAGIC:
                raise ValueError(f"bad checkpoint magic {magic!r}")
            (cfg_len,) = struct.unpack("<I", fh.read(4))
            cfg = json.loads(fh.read(cfg_len).decode("utf-8"))
            raw = fh.read()
        model = cls(RegressorConfig(**cfg))
        n = model.params.size
        if len(raw) != 2 * 8 * n:
            raise ValueError(
                f"checkpoint holds {len(raw)} bytes of state, its config "
                f"implies {2 * 8 * n}"
            )
        state = np.frombuffer(raw, dtype="<f8")
        model.params[:] = state[:n]
        model.g2[:] = state[n:]
        return model


class RegressorStack:
    """R regressors of one layout, one per seed, whose `params` and `g2`
    are the rows of one (R, P) buffer each: `models[r]` is an ordinary
    PoissonRegressor on row r, with the initial values it would allocate
    for itself. `forward` runs all R on one input with one set of numpy
    calls.

    Per call, numpy dispatch outweighs the arithmetic of these small
    layers: one stacked `matmul` costs about 2.5 single-model `dot`s and
    replaces R of them. So a read of several models at once takes
    `forward`; a read of one model takes that model's own `forward`.
    """

    def __init__(self, config: RegressorConfig, seeds):
        shapes = param_shapes(config)
        n_rows = len(seeds)
        self.params = np.zeros((n_rows, sum(math.prod(s) for s in shapes)))
        self.g2 = np.zeros(self.params.shape)
        self.models = [
            PoissonRegressor(replace(config, rng_seed=seed), p, a)
            for seed, p, a in zip(seeds, self.params, self.g2)
        ]

        nf = len(config.categorical_fields)
        nl = len(config.hidden_layer_sizes) + 1
        d = config.embedding_dim
        n_emb = sum(math.prod(s) for s in shapes[:nf])
        # embedding rows first: indexing one row gives its (R, d) values
        # across the stack
        emb = self.params[:, :n_emb].reshape(n_rows, -1, d).transpose(1, 0, 2)
        # a (R, 1, fan_in) input times (R, fan_in, fan_out) weights
        dense = _carve(self.params[:, n_emb:], shapes[nf:])
        biases = [b[:, None, :] for b in dense[nl:]]
        self._views = (emb, np.zeros((n_rows, d)), dense[:nl], biases, np.matmul)

    def forward(self, features: FeatureVector):
        """(R, n_outputs) rates; row r equals `models[r].forward(features)`
        bit for bit. Counts one forward call on every model."""
        for m in self.models:
            m.forward_calls += 1
        rates, _, _ = self.models[0]._forward_cached(features, self._views)
        return rates[:, 0]
