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

from .core import ContractViolation, is_integer

CHECKPOINT_MAGIC = b"DLYFEED1"

# ufunc operands as 0-d arrays: numpy converts a Python float operand on
# every call
_ZERO = np.array(0.0)
# stability clamp on the log-rate; exp would overflow/underflow far outside
# this range and AdaGrad recovers from the clipped gradient
_LOG_RATE_MIN, _LOG_RATE_MAX = np.array(-30.0), np.array(30.0)


@dataclass(frozen=True)
class RegressorConfig:
    categorical_fields: tuple = ()
    numeric_features: tuple = ()
    embedding_dim: int = 8
    hash_buckets_per_field: int = 4096
    hidden_layer_sizes: tuple = (32, 32)
    learning_rate: float = 0.05
    adagrad_epsilon: float = 1e-6
    output_bias_init: float = math.log(0.2)  # a prior rate of 0.2
    two_output_mode: bool = False
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "categorical_fields", tuple(self.categorical_fields))
        object.__setattr__(self, "numeric_features", tuple(self.numeric_features))
        object.__setattr__(self, "hidden_layer_sizes", tuple(self.hidden_layer_sizes))
        for name in ("embedding_dim", "hash_buckets_per_field", "rng_seed"):
            if not is_integer(value := getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        if self.hash_buckets_per_field < 2:
            raise ValueError("hash_buckets_per_field must be >= 2")
        if not all(is_integer(size) and size >= 1
                   for size in self.hidden_layer_sizes):
            raise ValueError(f"hidden_layer_sizes must be integers >= 1: "
                             f"{self.hidden_layer_sizes}")
        # NaN fails every comparison, so each check is written to fail on it
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and >= 0")
        if not 0 < self.adagrad_epsilon < math.inf:
            raise ValueError("adagrad_epsilon must be finite and > 0")
        if not math.isfinite(self.output_bias_init):
            raise ValueError("output_bias_init must be finite")


@dataclass
class FeatureVector:
    """Categorical (field_id, token) tuples plus named numeric features.
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


# entries a layout's row memo holds before it is cleared, as many as
# hash_token's cache
ROW_MEMO_SIZE = 65536


@lru_cache(maxsize=None)
def _row_memo(fields: tuple, buckets: int) -> dict:
    """The one (field_id, token) -> (field index, `_emb_rows` row) memo of
    every model with these categorical fields and bucket count."""
    return {}


def adagrad_update(param, accum, grad, lr, eps, work=None):
    """In-place AdaGrad step: accum += grad^2; param -= (lr * grad) /
    (sqrt(accum) + eps), element by element. `lr` and `eps` are floats or
    0-d arrays. `work`, a float64 array of shape (2, *grad.shape), holds
    the intermediates so that the step allocates nothing; without it they
    are allocated."""
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

    Single-writer during training; `forward` and `predict` between training
    steps are safe from any thread, `read` (which reuses one input vector)
    from one at a time.
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
        # zeros for train_step's finiteness check: the dense gradient's, and
        # a buffer that grows to fit the embedding gradients
        self._zeros = np.zeros(max(self._grad.size, d * nf))
        self._dense_zeros = self._zeros[: self._grad.size]
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
        # each bias gradient as a (1, fan_out) row, for the outer products
        self._bias_grad_rows = [b[None, :] for b in self._bias_grads]
        self._lr = np.array(config.learning_rate)
        self._eps = np.array(config.adagrad_epsilon)

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
        self._rows = _row_memo(fields, config.hash_buckets_per_field)
        # what _forward_cached reads; ndarray.dot skips the dispatch that
        # np.dot adds to every call
        self._views = (self._emb_rows, np.zeros(d), self.weights, self.biases,
                       np.ndarray.dot)
        # read's input vector; its embedding slots, one row per field, and
        # their first k rows for every k; how many rows the last read filled
        self._read_input = np.zeros(self.input_dim)
        self._read_slots = self._read_input[: d * nf].reshape(nf, d)
        self._read_heads = [self._read_slots[:k] for k in range(nf + 1)]
        self._read_k = 0

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
        memo = self._rows
        parts = [zero] * len(cfg.categorical_fields)
        lookups = []
        for pair in features.categorical:
            hit = memo.get(pair)
            if hit is None:
                hit = self._lookup(pair)
            lookups.append(hit)
            fi, row = hit
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
        # an empty numeric part only costs a conversion, unless it is the
        # only part
        if numeric or not parts:
            parts.append(numeric if zero.ndim == 1 else [numeric] * len(zero))
        if zero.ndim == 1:
            h = np.concatenate(parts)
        else:
            h = np.concatenate(parts, axis=1)[:, None, :]
        inputs = []
        for i, (w, b) in enumerate(zip(weights, biases)):
            if i:
                np.maximum(h, _ZERO, out=h)
            inputs.append(h)
            h = product(h, w)
            h += b
        rates = np.exp(np.minimum(np.maximum(h, _LOG_RATE_MIN), _LOG_RATE_MAX))
        return rates, inputs, lookups

    def _lookup(self, pair):
        """(field index, `_emb_rows` row) of one (field_id, token) pair,
        remembered in the layout's memo. An unknown field raises, and is
        not remembered."""
        field_id, token = pair
        fi = self._field_index.get(field_id)
        if fi is None:
            raise ContractViolation(
                f"unknown categorical field {field_id!r}; declared fields: "
                f"{self.config.categorical_fields}"
            )
        buckets = self.config.hash_buckets_per_field
        hit = fi, fi * buckets + hash_token(field_id, token, buckets)
        memo = self._rows
        if len(memo) >= ROW_MEMO_SIZE:
            memo.clear()
        memo[pair] = hit
        return hit

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

    def read(self, categorical) -> float:
        """`predict(FeatureVector(categorical))`, bit for bit: the serving
        read. When the pairs are the first k declared fields, in declared
        order, each once, their k embedding rows are gathered with one
        `take` into the leading slots of the model's input vector, whose
        other slots are zero; any other input goes through `predict`. Unlike
        `forward`, it keeps no layer inputs for a backward pass."""
        memo = self._rows
        rows = []
        for j, pair in enumerate(categorical):
            fi, row = memo.get(pair) or self._lookup(pair)
            if fi != j:
                return self.predict(FeatureVector(categorical))
            rows.append(row)
        self.forward_calls += 1
        k = len(rows)
        if k:
            # "clip" writes straight into `out`; "raise" would buffer
            self._emb_rows.take(rows, 0, self._read_heads[k], "clip")
        if k < self._read_k:
            self._read_slots[k : self._read_k] = 0.0
        self._read_k = k
        h = self._read_input
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if i:
                np.maximum(h, _ZERO, out=h)
            h = h.dot(w)
            h += b
        rates = np.exp(np.minimum(np.maximum(h, _LOG_RATE_MIN), _LOG_RATE_MAX))
        if self.n_outputs == 1:
            return float(rates[0])
        plus, minus = rates.tolist()
        return plus - minus

    # -- training --------------------------------------------------------

    def _label(self, label):
        """The checked label as a float, or a (positive, negative) pair of
        floats in two-output mode."""
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
            return float(label)
        try:
            pos, neg = label
        except (TypeError, ValueError):
            raise ContractViolation(
                f"two-output mode takes a (positive, negative) label pair, "
                f"got {label!r}") from None
        if not all(math.isfinite(v) and v >= 0 for v in (pos, neg)):
            raise ContractViolation(
                f"two-output labels must both be finite and >= 0, "
                f"got ({pos}, {neg})"
            )
        return float(pos), float(neg)

    def _gradients(self, features: FeatureVector, label):
        """The one backward pass: gradients of the summed Poisson NLL over
        outputs. Writes the dense gradients into `_grad` and returns (loss,
        the distinct `_emb_rows` rows looked up, their gradients as one
        (rows, embedding_dim) array). A row looked up k times gets the sum
        of its k gradients."""
        y = self._label(label)
        rates, inputs, lookups = self._forward_cached(features, self._views)
        # the loss, rates - y * log(rates) summed, in float arithmetic gives
        # the bits numpy gives. The gradient of each layer's pre-activation
        # is its bias gradient; the output layer's is rates - y (exp link).
        grads, grad_rows = self._bias_grads, self._bias_grad_rows
        if self.n_outputs == 1:
            (rate,), (log_rate,) = rates.tolist(), np.log(rates).tolist()
            loss = rate - y * log_rate
            grads[-1][0] = rate - y
        else:
            (r0, r1), (l0, l1) = rates.tolist(), np.log(rates).tolist()
            loss = (r0 - y[0] * l0) + (r1 - y[1] * l1)
            grads[-1][0], grads[-1][1] = r0 - y[0], r1 - y[1]
        dot = np.ndarray.dot
        for i in range(len(self.weights) - 1, 0, -1):
            dot(inputs[i][:, None], grad_rows[i], out=self._weight_grads[i])
            grad = dot(self.weights[i], grads[i], out=grads[i - 1])
            # the inputs are ReLU outputs, so their sign is the {0, 1} mask
            # of the active units, and a float mask multiplies faster
            grad *= np.sign(inputs[i])
        dot(inputs[0][:, None], grad_rows[0], out=self._weight_grads[0])
        grad = self.weights[0].dot(grads[0])
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
        zeros = self._zeros
        if emb_grads.size > zeros.size:
            zeros = self._zeros = np.zeros(emb_grads.size)
        # x * 0 is NaN exactly when x is inf or NaN, so each product is NaN
        # exactly when its gradient holds a non-finite entry; unlike dot,
        # vdot does not turn the invalid flag of inf * 0 into a warning
        if not math.isfinite(loss) or math.isnan(
            np.vdot(self._grad, self._dense_zeros)
            + np.vdot(emb_grads, zeros[: emb_grads.size])
        ):
            raise FloatingPointError(
                f"non-finite loss or gradient (loss={loss}); step not applied"
            )
        lr, eps = self._lr, self._eps
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
