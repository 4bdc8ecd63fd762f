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

import ctypes
import hashlib
import json
import math
import struct
from dataclasses import dataclass, asdict, replace
from functools import lru_cache

import numpy as np

from .adagrad import adagrad_step, bind
from .core import ContractViolation, as_float, is_integer

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
        for name in ("categorical_fields", "numeric_features"):
            names = getattr(self, name)
            if dup := [x for i, x in enumerate(names) if x in names[:i]]:
                raise ValueError(f"{name} lists {dup[0]!r} more than once")
        for name in ("embedding_dim", "hash_buckets_per_field", "rng_seed"):
            if not is_integer(value := getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        if self.hash_buckets_per_field < 2:
            raise ValueError("hash_buckets_per_field must be >= 2")
        if not all(is_integer(size) and size >= 1
                   for size in self.hidden_layer_sizes):
            raise ValueError(f"hidden_layer_sizes must be integers >= 1: "
                             f"{self.hidden_layer_sizes}")
        # NaN fails every comparison, so each check is written to fail on
        # it; an integer too large for a float compares as infinite
        if not 0 <= as_float(self.learning_rate) < math.inf:
            raise ValueError("learning_rate must be finite and >= 0")
        if not 0 < as_float(self.adagrad_epsilon) < math.inf:
            raise ValueError("adagrad_epsilon must be finite and > 0")
        if not math.isfinite(as_float(self.output_bias_init)):
            raise ValueError("output_bias_init must be finite")


@lru_cache(maxsize=65536)
def hash_token(field_id: str, token: str, buckets: int) -> int:
    """Stable 64-bit hash of field_id + token, reduced to a bucket index.
    Stable across processes and runs (unlike builtin hash)."""
    digest = hashlib.blake2b(
        f"{field_id}\x1f{token}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") % buckets


# entries a model's row memo holds before it is cleared, as many as
# hash_token's cache
ROW_MEMO_SIZE = 65536


def _layer_rates(h, weights, biases, inputs=None):
    """The rates of input `h` through the dense layers: ReLU (from the
    second layer on, in place), product with the layer's weights, its bias,
    then `exp` of the clamped log-rate. `h` is one input vector, or a
    stack's (R, 1, n) inputs, each row times its own weights. When `inputs`
    is a list, each layer's input is appended to it: the input, then the
    hidden layers' ReLU outputs."""
    stacked = h.ndim > 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        if i:
            np.maximum(h, _ZERO, out=h)
        if inputs is not None:
            inputs.append(h)
        # a 1-D ndarray.dot skips the dispatch np.matmul adds to every call
        h = np.matmul(h, w) if stacked else h.dot(w)
        h += b
    return np.exp(np.minimum(np.maximum(h, _LOG_RATE_MIN), _LOG_RATE_MAX))


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

    The model's whole state is two float64 buffers, its parameters
    `params` and their AdaGrad accumulators `g2`, both laid out as
    `param_shapes(config)`: the per-field embedding tables, then the dense
    weights, then the dense biases. `embeddings`, `weights` and `biases`
    are views into `params`. The model allocates both buffers, or takes
    zero-filled `params` and `g2` vectors from its caller (rows of a
    `RegressorStack`). The compiled AdaGrad step holds their addresses, so
    they are written in place and never replaced.

    Every pass takes `categorical`, (field_id, token) pairs of the first k
    declared fields, in declared order, each once, and `numeric`, (name,
    value) pairs of declared numeric features; the later fields' slots and
    the unnamed numeric slots are zero. Any other input is refused with
    ContractViolation before anything is written. A pass writes the whole
    of one input vector the model reuses, so no pass depends on the one
    before; `forward` and `train_step` both write it, so a model is for
    one thread at a time.
    """

    def __init__(self, config: RegressorConfig, params=None, g2=None):
        self.config = config
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
        n_dense = sum(math.prod(s) for s in dense_shapes)
        # gradients of the last backward pass: the dense gradient, laid out
        # like the dense tail of `params`, then the input's gradient, so
        # that the dense gradient and the first k embedding slots' are one
        # array for every k
        self._grads = np.empty(n_dense + self.input_dim)
        self._grad, self._input_grad = self._grads[:n_dense], self._grads[n_dense:]
        n_emb = self.params.size - n_dense
        self._dense = self.params[n_emb:]
        self._dense_g2 = self.g2[n_emb:]
        # every embedding row of every field, field by field: row
        # field_index * hash_buckets_per_field + bucket
        self._emb_rows = self.params[:n_emb].reshape(-1, d)
        self._emb_rows_g2 = self.g2[:n_emb].reshape(-1, d)

        p = _carve(self.params, shapes)
        self.embeddings = dict(zip(fields, p[:nf]))
        self.weights, self.biases = p[nf : nf + nl], p[nf + nl :]
        g = _carve(self._grad, dense_shapes)
        self._weight_grads, self._bias_grads = g[:nl], g[nl:]
        # each bias gradient as a (1, fan_out) row, for the outer products
        self._bias_grad_rows = [b[None, :] for b in self._bias_grads]
        # the rows a step looked up, and the AdaGrad kernel's arguments:
        # the addresses of the dense tail, the embedding rows, `_grads` and
        # the looked-up rows
        self._looked_up = (ctypes.c_long * nf)()
        self._step = bind(self._dense, self._dense_g2, self._emb_rows,
                          self._emb_rows_g2, self._grads[: n_dense + d * nf],
                          self._looked_up, config.learning_rate,
                          config.adagrad_epsilon)

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
        # (field_id, token) -> (field index, `_emb_rows` row)
        self._rows = {}
        # the input vector of every pass: one embedding slot per field, then
        # the numeric slots. For every k: the first k slots, and all that
        # follows them.
        self._input = np.zeros(self.input_dim)
        slots = self._input[: d * nf].reshape(nf, d)
        self._heads = [slots[:k] for k in range(nf + 1)]
        self._tails = [self._input[d * k :] for k in range(nf + 1)]
        self._numeric = self._input[d * nf :]

    # -- input -----------------------------------------------------------

    def _lookup(self, pair):
        """(field index, `_emb_rows` row) of one (field_id, token) pair,
        remembered in the model's memo. An unknown field raises, and is
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

    def _rows_of(self, categorical) -> list:
        """The `_emb_rows` row of each (field_id, token) pair. The pairs
        must be the first k declared fields, in declared order, each once;
        any other input raises, naming the field and its position."""
        memo = self._rows
        rows = []
        for j, pair in enumerate(categorical):
            fi, row = memo.get(pair) or self._lookup(pair)
            if fi != j:
                raise ContractViolation(
                    f"categorical field {pair[0]!r} at position {j}: the input "
                    f"must be the first k declared fields, in declared order, "
                    f"each once; declared fields: "
                    f"{self.config.categorical_fields}"
                )
            rows.append(row)
        return rows

    def _numeric_values(self, numeric) -> list:
        """The numeric slots' values: each named feature log1p-scaled, every
        other slot 0."""
        values = [0.0] * len(self.config.numeric_features)
        for name, value in numeric:
            idx = self._numeric_index.get(name)
            if idx is None:
                raise ContractViolation(
                    f"unknown numeric feature {name!r}; declared: "
                    f"{self.config.numeric_features}"
                )
            # log1p scaling for heavy-tailed count-like inputs
            values[idx] = math.copysign(math.log1p(abs(value)), value)
        return values

    def _fill(self, categorical, numeric=()):
        """Writes the whole input vector of these features and returns their
        rows (`_rows_of`): the k rows gathered with one `take` into the
        first k slots, zeros in the later fields' slots, then the
        log1p-scaled numeric features, or zeros when none is given. A
        refused input raises before anything is written."""
        rows = self._rows_of(categorical)
        values = self._numeric_values(numeric) if numeric else None
        k = len(rows)
        if k:
            # "clip" writes straight into `out`; "raise" would buffer
            self._emb_rows.take(rows, 0, self._heads[k], "clip")
        self._tails[k].fill(0.0)
        if values is not None:
            self._numeric[:] = values
        return rows

    # -- forward ---------------------------------------------------------

    def forward(self, categorical, numeric=()):
        """The model's one inference pass: the rate, or (rate_plus,
        rate_minus) in two-output mode."""
        self._fill(categorical, numeric)
        rates = _layer_rates(self._input, self.weights, self.biases)
        if self.n_outputs == 1:
            return float(rates[0])
        plus, minus = rates.tolist()
        return plus, minus

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

    def _gradients(self, categorical, numeric, label):
        """The one backward pass: gradients of the summed Poisson NLL over
        outputs. Writes `_grads`: the dense gradient, laid out like `_grad`,
        then the input vector's gradient, whose first k slots are those of
        the k `_emb_rows` rows looked up. Returns (loss, those rows)."""
        y = self._label(label)
        rows = self._fill(categorical, numeric)
        inputs = []
        rates = _layer_rates(self._input, self.weights, self.biases, inputs)
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
        # dL/dx of each slot of the input vector
        dot(self.weights[0], grads[0], out=self._input_grad)
        return loss, rows

    def train_step(self, categorical, numeric, label) -> float:
        """One online AdaGrad step; returns the pre-update loss. One call of
        the compiled kernel (`adagrad.adagrad_step`) updates the dense
        parameters and, in place, the embedding rows the input looked up.
        A non-finite loss, or a non-finite entry in the dense gradient or
        those rows' gradients, raises before anything is written."""
        loss, rows = self._gradients(categorical, numeric, label)
        self._looked_up[: len(rows)] = rows
        if not math.isfinite(loss) or adagrad_step(self._step, len(rows)):
            raise FloatingPointError(
                f"non-finite loss or gradient (loss={loss}); step not applied"
            )
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
        """The model `save` wrote to `path`. A malformed checkpoint raises
        ValueError naming the file."""
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            if data[:8] != CHECKPOINT_MAGIC:
                raise ValueError(f"bad checkpoint magic {data[:8]!r}")
            if len(data) < 12:
                raise ValueError(f"header of {len(data)} bytes, need 12")
            (cfg_len,) = struct.unpack_from("<I", data, 8)
            # an unknown key, or a config that is no JSON object, is a
            # TypeError
            config = RegressorConfig(**json.loads(data[12 : 12 + cfg_len]))
            # the state's length is checked before any model is built
            raw = data[12 + cfg_len :]
            n = sum(math.prod(s) for s in param_shapes(config))
            if len(raw) != 2 * 8 * n:
                raise ValueError(f"{len(raw)} bytes of state, its config "
                                 f"implies {2 * 8 * n}")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"checkpoint {path}: {exc}") from exc
        model = cls(config)
        state = np.frombuffer(raw, dtype="<f8")
        model.params[:] = state[:n]
        model.g2[:] = state[n:]
        return model


class RegressorStack:
    """R regressors of one layout, one per seed, whose `params` and `g2`
    are the rows of one (R, P) buffer each: `models[r]` is an ordinary
    PoissonRegressor on row r, with the initial values it would allocate
    for itself. `read` runs all R on one serving input with one set of
    numpy calls.

    Per call, numpy dispatch outweighs the arithmetic of these small
    layers: one stacked `matmul` costs about 2.5 single-model `dot`s and
    replaces R of them. So a read of several models at once takes the
    stack's `read`; a pass of one model takes that model's own `forward`
    or `train_step`.
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
        self._emb = self.params[:, :n_emb].reshape(n_rows, -1, d).transpose(1, 0, 2)
        # a (R, 1, fan_in) input times (R, fan_in, fan_out) weights
        dense = _carve(self.params[:, n_emb:], shapes[nf:])
        # the input after k rows' (R, d) blocks: the later fields' slots
        # and the numeric slots, all zero
        input_dim = self.models[0].input_dim
        self._tails = [np.zeros((n_rows, input_dim - d * k)) for k in range(nf + 1)]
        self._weights = dense[:nl]
        self._biases = [b[:, None, :] for b in dense[nl:]]

    def read(self, categorical):
        """(R, n_outputs) rates; row r equals `models[r].forward(categorical)`
        bit for bit. Takes the input the models take."""
        rows = self.models[0]._rows_of(categorical)
        emb = self._emb
        parts = [emb[row] for row in rows]
        parts.append(self._tails[len(rows)])
        h = np.concatenate(parts, axis=1)[:, None, :]
        return _layer_rates(h, self._weights, self._biases)[:, 0]
