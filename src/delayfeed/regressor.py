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
from dataclasses import dataclass, field, asdict
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
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.adagrad_epsilon <= 0:
            raise ValueError("adagrad_epsilon must be > 0")


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


def _carve(buf, shapes) -> list:
    """Consecutive views of the flat array `buf`, one per shape."""
    views, start = [], 0
    for shape in shapes:
        n = math.prod(shape)
        views.append(buf[start : start + n].reshape(shape))
        start += n
    return views


class PoissonRegressor:
    """Hashed-embedding MLP with exponential output link and AdaGrad state.

    All parameters live in one float64 buffer `params` and their AdaGrad
    accumulators in `g2`, laid out as the per-field embedding tables, then
    the dense weights, then the dense biases. `embeddings`, `weights`,
    `biases` and the `*_g2` names are views into those two buffers.

    Single-writer during training; read-only inference between training
    steps is safe from any thread.
    """

    def __init__(self, config: RegressorConfig):
        self.config = config
        self.forward_calls = 0
        rng = np.random.default_rng(config.rng_seed)

        d = config.embedding_dim
        fields = config.categorical_fields
        self.input_dim = d * len(fields) + len(config.numeric_features)
        self.n_outputs = 2 if config.two_output_mode else 1

        sizes = [self.input_dim, *config.hidden_layer_sizes, self.n_outputs]
        layers = list(zip(sizes, sizes[1:]))
        emb_shape = (config.hash_buckets_per_field, d)
        dense_shapes = layers + [(fan_out,) for _, fan_out in layers]
        shapes = [emb_shape] * len(fields) + dense_shapes
        self.params = np.zeros(sum(math.prod(s) for s in shapes))
        self.g2 = np.zeros(self.params.size)
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

        nf, nl = len(fields), len(layers)
        p, a = _carve(self.params, shapes), _carve(self.g2, shapes)
        self.embeddings = dict(zip(fields, p[:nf]))
        self.embedding_g2 = dict(zip(fields, a[:nf]))
        self.weights, self.biases = p[nf : nf + nl], p[nf + nl :]
        self.weight_g2, self.bias_g2 = a[nf : nf + nl], a[nf + nl :]
        g = _carve(self._grad, dense_shapes)
        self._weight_grads, self._bias_grads = g[:nl], g[nl:]

        for f in fields:
            self.embeddings[f][...] = rng.uniform(-0.05, 0.05, size=emb_shape)
        for w, (fan_in, fan_out) in zip(self.weights, layers):
            limit = 1.0 / math.sqrt(fan_in) if fan_in > 0 else 0.0
            w[...] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        self.biases[-1][:] = config.output_bias_init

        self._numeric_index = {
            name: i for i, name in enumerate(config.numeric_features)
        }
        self._field_index = {f: i for i, f in enumerate(fields)}
        self._zero_row = np.zeros(d)

    # -- forward ---------------------------------------------------------

    def _assemble_input(self, features: FeatureVector):
        """Returns (input vector, lookups). The input is, in declared field
        order, the sum of each field's embedding rows (zeros for an absent
        field), then the log1p-scaled numeric features. `lookups` lists
        (field index, `_emb_rows` row) per categorical entry."""
        cfg = self.config
        buckets = cfg.hash_buckets_per_field
        emb = self._emb_rows
        zero = self._zero_row
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
        parts.append(numeric)
        return np.concatenate(parts), lookups

    def _forward_cached(self, features: FeatureVector):
        """Returns (rates, the input of every layer, lookups); allocates
        every array it returns."""
        x, lookups = self._assemble_input(features)
        inputs = []
        h = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if i:
                np.maximum(h, 0.0, out=h)
            inputs.append(h)
            h = h.dot(w)
            h += b
        # stability clamp on the log-rate; exp would overflow/underflow far
        # outside this range and AdaGrad recovers from the clipped gradient
        rates = np.exp(np.minimum(np.maximum(h, -30.0), 30.0))
        return rates, inputs, lookups

    def forward(self, features: FeatureVector):
        """Rate (single output) or (rate_plus, rate_minus) in two-output mode."""
        self.forward_calls += 1
        rates, _, _ = self._forward_cached(features)
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
        rates, inputs, lookups = self._forward_cached(features)
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
