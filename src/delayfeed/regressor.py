"""Self-contained online Poisson regressor.

Categorical tokens are feature-hashed into per-field embedding tables,
concatenated with log1p-transformed numeric features, passed through fully
connected ReLU layers, and mapped to a rate via an exponential output link.
Training is strictly one example at a time with per-parameter AdaGrad.
In two-output mode the network emits (rate_plus, rate_minus) and the signed
prediction is their difference, which is how negative labels from
retractions are handled.

Every pass, a model's `forward` and `train_step` and a stack's `read`, is
one call of the compiled `kernel`, whose arithmetic, `exp` and `log`
included, is its own, so its bits do not depend on the host's numpy or
BLAS kernels. Python scales the numeric features and checks the label; the
kernel takes the (field, token) pairs, the values, the labels and the
model's memo of each pair's embedding row, looks the rows up, gathers
them, runs the layers and, in a step, the backward and the AdaGrad update,
and returns the rates or the loss as floats. A pair the memo lacks, or an
input that is not the declared fields in order, sends the pass back to
Python's `_fill`, which hashes the pairs the memo lacks and checks their
fields; the pass then calls the kernel again.
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

from . import kernel
from .core import ContractViolation, as_float, is_integer

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
    """Consecutive views of the flat buffer `buf`, one of each shape."""
    views, start = [], 0
    for shape in shapes:
        n = math.prod(shape)
        views.append(buf[start : start + n].reshape(shape))
        start += n
    return views


class PoissonRegressor:
    """Hashed-embedding MLP with exponential output link and AdaGrad state.

    The model's whole state is two float64 vectors, the rows of one array
    it allocates: its parameters `params` and their AdaGrad accumulators
    `g2`, both laid out as `param_shapes(config)`: the per-field embedding
    tables, then the dense weights, then the dense biases. `embeddings`,
    `weights` and `biases` are views into `params`. The compiled passes
    (`kernel`) hold their addresses, so they are written in place and
    never replaced.

    Every pass takes `categorical`, a tuple or a list of (field_id, token)
    pairs of the first k declared fields, in declared order, each once,
    and `numeric`, (name, value) pairs of declared numeric features; the
    later fields' slots and the unnamed numeric slots are zero. Any other input is refused with
    ContractViolation before anything is written. A pass writes the whole
    of one input vector the model reuses, in the kernel, so no pass depends
    on the one before; `forward` and `train_step` both write it, so a model
    is for one thread at a time.
    """

    def __init__(self, config: RegressorConfig):
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
        # one allocation for both, which sets up faster than two
        self.params, self.g2 = np.zeros((2, size))
        n_dense = sum(math.prod(s) for s in dense_shapes)
        n_emb = self.params.size - n_dense
        # every embedding row of every field, field by field: row
        # field_index * hash_buckets_per_field + bucket
        self._emb_rows = self.params[:n_emb].reshape(-1, d)

        p = _carve(self.params, shapes)
        self.embeddings = dict(zip(fields, p[:nf]))
        self.weights, self.biases = p[nf : nf + nl], p[nf + nl :]
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
        # the row memo: (field_id, token) -> `_emb_rows` row
        self._rows = {}
        # the input vector of every pass: one embedding slot per field, then
        # the numeric slots
        self._input = np.zeros(self.input_dim)
        # the numeric slots' values when a pass names no numeric feature
        self._no_numeric = [0.0] * len(config.numeric_features)
        # gradients of the last step: the dense gradient, laid out like the
        # dense tail of `params`, then the input vector's, of which a step
        # writes the first k slots, those of the k rows it looked up
        self._grads = np.zeros(n_dense + self.input_dim)
        # the rows a pass looks up
        self._looked_up = (ctypes.c_long * nf)()
        self._acts = np.zeros(sum(fan_out for _, fan_out in layers))
        # the kernel's scratch, as long as the widest layer: a pass's rows,
        # a layer's active inputs in the backward, its columns in the update
        self._on = (ctypes.c_long * max(map(max, layers)))()
        self._net = kernel.bind(
            self._emb_rows, self.g2[:n_emb].reshape(-1, d), self.params[n_emb:],
            self.g2[n_emb:], self._input, self._acts, self._grads,
            self._looked_up, self._on,
            [self.input_dim, *config.hidden_layer_sizes, self.n_outputs],
            config.learning_rate, config.adagrad_epsilon)
        self._net_p = ctypes.addressof(self._net)

    # -- input -----------------------------------------------------------

    def _fill(self, categorical) -> dict:
        """{pair: `_emb_rows` row} of each (field_id, token) pair of
        `categorical`: a pass's memo once the kernel has refused the
        model's own with KeyError, for a pair it lacks or whose row is of
        another field than the one at its position. The pairs must be the
        first k declared fields, in declared order, each once; a refused
        input raises, naming the field and its position. Each pair's row is
        remembered in the model's memo; an unknown field is not."""
        memo, buckets, rows = self._rows, self.config.hash_buckets_per_field, {}
        for j, pair in enumerate(categorical):
            row = memo.get(pair)
            if row is None:
                field_id, token = pair
                fi = self._field_index.get(field_id)
                if fi is None:
                    raise ContractViolation(
                        f"unknown categorical field {field_id!r}; declared "
                        f"fields: {self.config.categorical_fields}")
                row = fi * buckets + hash_token(field_id, token, buckets)
                if len(memo) >= ROW_MEMO_SIZE:
                    memo.clear()
                memo[pair] = row
            if row // buckets != j:
                raise ContractViolation(
                    f"categorical field {pair[0]!r} at position {j}: the input "
                    f"must be the first k declared fields, in declared order, "
                    f"each once; declared fields: "
                    f"{self.config.categorical_fields}"
                )
            rows[pair] = row
        return rows

    def _values(self, numeric) -> list:
        """The numeric slots' values of a pass: each (name, value) pair of
        `numeric` must name a declared numeric feature, whose value is
        log1p-scaled; every other slot is 0. An unknown name raises."""
        values = self._no_numeric.copy()
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

    # -- forward ---------------------------------------------------------

    def forward(self, categorical, numeric=()):
        """The model's one inference pass: the rate, or (rate_plus,
        rate_minus) in two-output mode."""
        values = self._values(numeric) if numeric else self._no_numeric
        try:
            return kernel.forward(self._net_p, categorical, values, self._rows)
        except KeyError:
            return kernel.forward(self._net_p, categorical, values,
                                  self._fill(categorical))

    # -- training --------------------------------------------------------

    def _label(self, label) -> tuple:
        """The checked label as a tuple of one float per output: (label,),
        or (positive, negative) in two-output mode."""
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
            return (float(label),)
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

    def train_step(self, categorical, numeric, label) -> float:
        """One online AdaGrad step; returns the pre-update loss. One call of
        the compiled kernel (`kernel.train_step`) runs the forward, the
        backward of the summed Poisson NLL over outputs, which it writes
        into `_grads`, and the update of the dense parameters and, in place,
        of the embedding rows the input looked up. A non-finite loss, or a
        non-finite gradient of the dense parameters or of those rows,
        raises before anything is written."""
        labels = self._label(label)
        values = self._values(numeric) if numeric else self._no_numeric
        try:
            loss = kernel.train_step(self._net_p, categorical, values, labels,
                                     self._rows)
        except KeyError:
            loss = kernel.train_step(self._net_p, categorical, values, labels,
                                     self._fill(categorical))
        if loss is None:
            raise FloatingPointError(
                f"non-finite loss or gradient (loss={self._net.loss}); "
                f"step not applied"
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
    """R regressors of one layout, `models[r]` the ordinary
    PoissonRegressor of the r-th seed, and `read`, their summed rate on
    one serving input in one call of the compiled kernel."""

    def __init__(self, config: RegressorConfig, seeds):
        self.models = [PoissonRegressor(replace(config, rng_seed=seed))
                       for seed in seeds]
        self._stack = kernel.bind_stack([m._net for m in self.models])
        self._stack_p = ctypes.addressof(self._stack)

    def read(self, categorical) -> float:
        """The sum, from 0.0 and in model order, of each model's
        `forward(categorical)` (rate_plus - rate_minus in two-output mode),
        bit for bit. Takes the input the models take."""
        model = self.models[0]
        try:
            return kernel.read(self._stack_p, categorical, model._rows)
        except KeyError:
            return kernel.read(self._stack_p, categorical,
                               model._fill(categorical))
