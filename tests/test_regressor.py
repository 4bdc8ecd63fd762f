import ctypes
import datetime
import gc
import json
import math
import os
import re
import struct
import subprocess
import sys
import warnings
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest

from delayfeed import kernel, regressor
from delayfeed.core import ContractViolation
from delayfeed.regressor import (
    CHECKPOINT_MAGIC,
    PoissonRegressor,
    RegressorConfig,
    RegressorStack,
    hash_token,
)

FIELDS = ("campaign", "segment")


def small_config(**kw):
    defaults = dict(
        categorical_fields=FIELDS,
        numeric_features=("aux",),
        embedding_dim=3,
        hash_buckets_per_field=16,
        hidden_layer_sizes=(5,),
        learning_rate=0.05,
        output_bias_init=math.log(0.5),
        rng_seed=7,
    )
    defaults.update(kw)
    return RegressorConfig(**defaults)


def fv(campaign="c1", segment="s1", aux=None):
    """A (categorical, numeric) input of the small layout."""
    numeric = [] if aux is None else [("aux", aux)]
    return [("campaign", campaign), ("segment", segment)], numeric


def zero_weights(model):
    for f in model.embeddings:
        model.embeddings[f][:] = 0.0
    for w in model.weights:
        w[:] = 0.0
    for b in model.biases:
        b[:] = 0.0
    model.biases[-1][:] = model.config.output_bias_init


def all_params(model):
    return (
        [model.embeddings[f] for f in model.config.categorical_fields]
        + model.weights
        + model.biases
    )


def g2_views(model):
    """`model.g2` carved the way `params` is: ({field: its table's
    accumulators}, one array per weight, one per bias)."""
    nf = len(model.config.categorical_fields)
    nl = len(model.weights)
    views = regressor._carve(model.g2, regressor.param_shapes(model.config))
    return (dict(zip(model.config.categorical_fields, views[:nf])),
            views[nf : nf + nl], views[nf + nl :])


def count_passes(models, stack=None):
    """A list that counts each model's passes from now on: its `forward`
    calls and, with `stack`, each `stack.read`, which runs every model of
    the stack once. A refused pass is not counted. Each counted `forward`
    is looked up on the class when called, so a wrapper put on the class
    later (the bench's tracer) still sees it."""
    counts = [0] * len(models)
    for i, model in enumerate(models):
        def forward(*args, i=i, model=model, **kwargs):
            out = type(model).forward(model, *args, **kwargs)
            counts[i] += 1
            return out
        model.forward = forward
    if stack is not None:
        read = stack.read

        def counted_read(categorical):
            out = read(categorical)
            counts[:] = [c + 1 for c in counts]
            return out
        stack.read = counted_read
    return counts


class TestInit:
    def test_same_seed_bit_identical(self):
        a = PoissonRegressor(small_config())
        b = PoissonRegressor(small_config())
        for pa, pb in zip(all_params(a), all_params(b)):
            assert np.array_equal(pa, pb)

    def test_different_seed_differs(self):
        a = PoissonRegressor(small_config(rng_seed=1))
        b = PoissonRegressor(small_config(rng_seed=2))
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_bias_only_forward(self):
        model = PoissonRegressor(small_config(output_bias_init=math.log(2)))
        zero_weights(model)
        assert model.forward(*fv()) == pytest.approx(2.0)

    def test_accumulators_zero_at_init(self):
        model = PoissonRegressor(small_config())
        embedding_g2, weight_g2, bias_g2 = g2_views(model)
        for g2 in weight_g2 + bias_g2 + list(embedding_g2.values()):
            assert np.all(g2 == 0)

    def test_output_bias_applied(self):
        model = PoissonRegressor(small_config(output_bias_init=-1.5))
        assert model.biases[-1][0] == -1.5
        assert np.all(model.biases[0] == 0)

    @pytest.mark.parametrize("kw", [
        {"learning_rate": math.nan},
        {"learning_rate": math.inf},
        {"adagrad_epsilon": math.nan},
        {"adagrad_epsilon": math.inf},
        {"output_bias_init": math.nan},
        {"output_bias_init": -math.inf},
        {"hidden_layer_sizes": (0,)},
        {"hidden_layer_sizes": (-1,)},
        {"hidden_layer_sizes": (5, 0)},
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_config_rejects_invalid_hyper_parameters(self, kw):
        with pytest.raises(ValueError):
            small_config(**kw)

    @pytest.mark.parametrize("kw,name", [
        ({"categorical_fields": ("a", "b", "a")}, "categorical_fields lists 'a'"),
        ({"numeric_features": ("v", "v")}, "numeric_features lists 'v'"),
    ], ids=["categorical-field", "numeric-feature"])
    def test_config_rejects_a_repeated_input_naming_it(self, kw, name):
        # a repeated field leaves its first table unread, and a repeated
        # numeric feature its first slot always zero
        with pytest.raises(ValueError, match=f"^{name} more than once"):
            small_config(**kw)


class TestForward:
    def test_rate_positive(self):
        model = PoissonRegressor(small_config())
        for c in ("a", "b", "weird token"):
            assert model.forward(*fv(campaign=c, aux=3.0)) > 0

    def test_deterministic(self):
        model = PoissonRegressor(small_config())
        assert model.forward(*fv(aux=2.0)) == model.forward(*fv(aux=2.0))

    def test_zeroed_network_constant(self):
        model = PoissonRegressor(small_config(output_bias_init=0.3))
        zero_weights(model)
        for c in ("x", "y"):
            assert model.forward(*fv(campaign=c, aux=5.0)) == pytest.approx(
                math.exp(0.3)
            )

    def test_unknown_field_rejected(self):
        model = PoissonRegressor(small_config())
        with pytest.raises(ContractViolation):
            model.forward([("nope", "x")])
        with pytest.raises(ContractViolation):
            model.forward([], [("nope", 1.0)])
        # a valid categorical input with an unknown numeric name: refused
        # by both passes before its rows or any numeric slot is written
        model.forward(*fv(campaign="c2", aux=4.0))

        def state():
            return [b.tobytes() for b in (model.params, model.g2, model._input)
                    ] + [model._looked_up.tolist()]
        before = state()
        for run in (lambda: model.forward(fv()[0], [("nope", 1.0)]),
                    lambda: model.train_step(fv()[0], [("nope", 1.0)], 1.0)):
            with pytest.raises(ContractViolation, match="'nope'"):
                run()
            assert state() == before

    def test_hash_stability(self):
        assert hash_token("f", "tok", 4096) == hash_token("f", "tok", 4096)
        assert hash_token("f", "tok", 4096) < 4096

    def test_two_output_signed_decomposition(self):
        model = PoissonRegressor(small_config(two_output_mode=True))
        plus, minus = model.forward(*fv(aux=1.0))
        assert plus > 0 and minus > 0
        rates, _, _ = reference_forward(model, *fv(aux=1.0))
        assert (plus, minus) == tuple(float(r) for r in rates)


class TestTrainStep:
    def test_first_adagrad_step_scalar(self):
        # w=0, g=1, lr=0.1, eps=0 -> w = -0.1
        w = np.array([0.0])
        g2 = np.array([0.0])
        assert kernel_step(w, g2, np.array([1.0]), lr=0.1, eps=0.0) == 0
        assert w[0] == pytest.approx(-0.1)
        assert g2[0] == 1.0

    def test_bias_only_convergence(self):
        # no features, no hidden layers: the model is just the output bias
        cfg = RegressorConfig(
            categorical_fields=(),
            numeric_features=(),
            hidden_layer_sizes=(),
            learning_rate=0.1,
            output_bias_init=0.0,
            rng_seed=0,
        )
        model = PoissonRegressor(cfg)
        rate = None
        for step in range(5000):
            model.train_step([], (), 3.0)
            rate = model.forward([])
            if abs(rate - 3.0) < 0.01:
                break
        assert abs(rate - 3.0) < 0.01, f"no convergence, final rate {rate}"

    def test_returns_pre_update_loss(self):
        model = PoissonRegressor(small_config(output_bias_init=0.0))
        zero_weights(model)
        loss = model.train_step(*fv(aux=0.0), 2.0)
        # rate was exactly 1.0 before the step
        assert loss == pytest.approx(1.0 - 2.0 * math.log(1.0))

    def test_negative_label_rejected_single_output(self):
        model = PoissonRegressor(small_config())
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ContractViolation):
                model.train_step(*fv(), bad)

    def test_two_output_label_pair(self):
        model = PoissonRegressor(small_config(two_output_mode=True))
        loss = model.train_step(*fv(aux=1.0), (2.0, 0.5))
        assert math.isfinite(loss)
        for bad in ((1.0, -0.5), (math.nan, 1.0), (1.0, math.inf)):
            with pytest.raises(ContractViolation):
                model.train_step(*fv(), bad)

    @pytest.mark.parametrize("label", [1.0, (1.0,), (1.0, 2.0, 3.0), None])
    def test_two_output_label_must_be_a_pair(self, label):
        model = PoissonRegressor(small_config(two_output_mode=True))
        params = model.params.copy()
        with pytest.raises(ContractViolation, match="label pair"):
            model.train_step(*fv(aux=1.0), label)
        assert np.array_equal(model.params, params)

    def test_failing_step_leaves_no_partial_update(self):
        # the loss and the dense gradients stay finite, but the gradient
        # reaching the embedding row overflows through weights[0][0, 0]
        model = PoissonRegressor(small_config(
            categorical_fields=("campaign",), numeric_features=(),
            hidden_layer_sizes=(),
        ))
        row = hash_token("campaign", "c1", model.config.hash_buckets_per_field)
        model.embeddings["campaign"][row, 0] = 0.0
        model.weights[0][0, 0] = 1e300
        params, g2 = model.params.copy(), model.g2.copy()
        with pytest.raises(FloatingPointError):
            model.train_step([("campaign", "c1")], (), 1e9)
        assert np.array_equal(model.params, params)
        assert np.array_equal(model.g2, g2)

    def test_gradients_match_finite_differences(self):
        model = PoissonRegressor(small_config())
        features = fv(campaign="c9", segment="s2", aux=2.5)
        label = 3.0
        _, dense_grads, emb_grads = analytic_gradients(model, *features, label)
        assert len(emb_grads) == 2

        def numeric_grad(arr, idx):
            h = 1e-6
            orig = arr[idx]
            arr[idx] = orig + h
            up = step_loss(model, *features, label)
            arr[idx] = orig - h
            dn = step_loss(model, *features, label)
            arr[idx] = orig
            return (up - dn) / (2 * h)

        rng = np.random.default_rng(0)
        for param, grad in zip(model.weights + model.biases, dense_grads):
            for _ in range(10):
                idx = tuple(int(rng.integers(n)) for n in grad.shape)
                fd = numeric_grad(param, idx)
                assert fd == pytest.approx(grad[idx], rel=1e-3, abs=1e-8)
        for row, g in emb_grads.items():
            for col in range(g.shape[0]):
                fd = numeric_grad(model._emb_rows, (row, col))
                assert fd == pytest.approx(g[col], rel=1e-3, abs=1e-8)


def step_loss(model, categorical, numeric, label) -> float:
    """The loss of a `train_step` of `model`, which is then undone: its
    layer inputs stay in `_input` and `_acts`, its deltas and input
    gradient in `_grads`."""
    state = model.params.copy(), model.g2.copy()
    loss = model.train_step(categorical, numeric, label)
    model.params[:], model.g2[:] = state
    return loss


def step_gradients(model) -> np.ndarray:
    """The gradients of `model`'s last step, laid out like `_grads`: the
    dense gradient, then the input gradient. The kernel stores each layer's
    delta (its bias gradient) and the input gradient, and forms a weight
    gradient h[i] * delta[j] only inside its update; here each is that
    same IEEE product, of the layer's input (`_input`, then the previous
    layer's `_acts`) and the stored delta."""
    grads = model._grads.copy()
    n_dense = grads.size - model.input_dim
    n_weights = sum(w.size for w in model.weights)
    shapes = [b.shape for b in model.biases]
    deltas = regressor._carve(grads[n_weights:n_dense], shapes)
    inputs = [model._input, *regressor._carve(model._acts, shapes)]
    weights = regressor._carve(grads[:n_weights],
                               [w.shape for w in model.weights])
    with np.errstate(all="ignore"):
        for w, h, delta in zip(weights, inputs, deltas):
            np.multiply.outer(h, delta, out=w)
    return grads


def analytic_gradients(model, categorical, numeric, label):
    """The loss and gradients of a step of `model` (`step_loss`,
    `step_gradients`): one array per dense parameter, in the order of
    `weights + biases`, and {`_emb_rows` row: gradient} of the rows looked
    up."""
    loss = step_loss(model, categorical, numeric, label)
    grads = step_gradients(model)
    rows = model._looked_up[:len(categorical)].tolist()
    d, nf = model.config.embedding_dim, len(model.config.categorical_fields)
    n_dense = grads.size - model.input_dim
    dense = regressor._carve(grads[:n_dense],
                             regressor.param_shapes(model.config)[nf:])
    emb = grads[n_dense : n_dense + d * len(rows)].reshape(-1, d)
    return loss, dense, dict(zip(rows, emb))


class TestInvariants:
    def test_sparse_update_locality(self):
        model = PoissonRegressor(small_config())
        touched = {
            (f, hash_token(f, t, model.config.hash_buckets_per_field))
            for f, t in fv(aux=1.0)[0]
        }
        before = {f: model.embeddings[f].copy() for f in FIELDS}
        model.train_step(*fv(aux=1.0), 2.0)
        for f in FIELDS:
            diff_rows = np.where(
                np.any(model.embeddings[f] != before[f], axis=1)
            )[0]
            assert set(diff_rows) <= {r for ff, r in touched if ff == f}

    def test_accumulators_never_decrease_fuzz(self):
        model = PoissonRegressor(small_config())
        embedding_g2, weight_g2, bias_g2 = g2_views(model)
        rng = np.random.default_rng(3)
        prev = [g2.copy() for g2 in weight_g2 + bias_g2]
        prev_emb = {f: g2.copy() for f, g2 in embedding_g2.items()}
        for step in range(10_000):
            features = fv(
                campaign=f"c{rng.integers(40)}",
                segment=f"s{rng.integers(5)}",
                aux=float(rng.exponential(1.0)),
            )
            model.train_step(*features, float(rng.poisson(0.7)))
            if step % 500 == 0:
                cur = weight_g2 + bias_g2
                for p, c in zip(prev, cur):
                    assert np.all(c >= p - 1e-15)
                prev = [g2.copy() for g2 in cur]
                for f, g2 in embedding_g2.items():
                    assert np.all(g2 >= prev_emb[f] - 1e-15)
                    prev_emb[f] = g2.copy()
        for p in model.weights + model.biases:
            assert np.all(np.isfinite(p))

    def test_zero_learning_rate_is_noop(self):
        model = PoissonRegressor(small_config(learning_rate=0.0))
        before_out = model.forward(*fv(aux=1.0))
        before = [p.copy() for p in all_params(model)]
        model.train_step(*fv(aux=1.0), 5.0)
        for p, b in zip(all_params(model), before):
            assert np.array_equal(p, b)
        assert model.forward(*fv(aux=1.0)) == before_out


def checkpoint_pass(model, rng, two_output):
    """One pass of `model` drawn from `rng`: a forward or a train_step, on
    the first k of REF_FIELDS, k from 0 to all of them, with the aux
    numeric present or absent. Returns what the pass returned."""
    features = first_k_features(rng, aux=rng.integers(2))
    if rng.integers(2):
        return model.forward(*features)
    if two_output:
        label = (float(rng.poisson(1.0)), float(rng.poisson(0.3)))
    else:
        label = float(rng.poisson(1.2))
    return model.train_step(*features, label)


class TestCheckpoint:
    @pytest.mark.parametrize("two_output", [False, True], ids=["single", "two"])
    def test_roundtrip(self, tmp_path, two_output):
        # a checkpoint is the whole model: its loaded copy, and a copy
        # saved halfway through the passes that follow, answer every later
        # pass as the original does
        cfg = small_config(categorical_fields=REF_FIELDS,
                           two_output_mode=two_output)
        model = PoissonRegressor(cfg)
        rng = np.random.default_rng(1)
        for _ in range(20):
            checkpoint_pass(model, rng, two_output)
        path = tmp_path / "model.ckpt"
        model.save(path)
        loaded = PoissonRegressor.load(path)
        assert loaded.config == model.config
        assert np.array_equal(loaded.params, model.params)
        assert np.array_equal(loaded.g2, model.g2)
        again = tmp_path / "again.ckpt"
        loaded.save(again)
        assert again.read_bytes() == path.read_bytes()
        copies = [loaded]
        for step in range(1200):
            if step == 600:
                loaded.save(tmp_path / "mid.ckpt")
                copies.append(PoissonRegressor.load(tmp_path / "mid.ckpt"))
            want = checkpoint_pass(model, np.random.default_rng(step), two_output)
            for copy in copies:
                got = checkpoint_pass(copy, np.random.default_rng(step), two_output)
                assert got == want, step
        for copy in copies:
            assert copy.params.tobytes() == model.params.tobytes()
            assert copy.g2.tobytes() == model.g2.tobytes()

    def test_state_length_is_checked_before_a_model_is_built(
            self, tmp_path, monkeypatch):
        # 2**40 rows per field would take terabytes to build
        monkeypatch.setattr(PoissonRegressor, "__init__", lambda *a, **kw: (
            pytest.fail("built a model before checking the state's length")))
        config = json.dumps({**asdict(small_config()),
                             "hash_buckets_per_field": 2**40}).encode()
        path = tmp_path / "huge.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(config))
                         + config + bytes(16))
        with pytest.raises(ValueError, match=f"^checkpoint "
                           f"{re.escape(str(path))}: 16 bytes of state"):
            PoissonRegressor.load(path)

    @pytest.mark.parametrize("edit", [lambda b: b[:-1], lambda b: b + b"\0"],
                             ids=["truncated", "appended"])
    def test_rejects_wrong_length(self, tmp_path, edit):
        path = tmp_path / "model.ckpt"
        PoissonRegressor(small_config()).save(path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError):
            PoissonRegressor.load(path)

    @pytest.mark.parametrize("edit,reason", [
        (lambda b: b[:10], "header of 10 bytes, need 12"),
        (lambda b: b[:8], "header of 8 bytes, need 12"),
        (lambda b: _with_config(b, b'{"colour": 1}'),
         "unexpected keyword argument 'colour'"),
        (lambda b: _with_config(b, b'{"embedding_dim": 3'), "Expecting"),
        (lambda b: _with_config(b, b"\xff"), "utf-8"),
        (lambda b: _with_config(b, b"[3]"), "must be a mapping"),
        (lambda b: _with_config(b, b'{"embedding_dim": 0}'),
         "embedding_dim must be >= 1"),
        (lambda b: _with_config(b, b'{"learning_rate": "fast"}'), "'<='"),
        # the config then runs into the state's bytes
        (lambda b: b[:8] + struct.pack("<I", len(b)) + b[12:], "utf-8"),
        # integers too large for a float
        (lambda b: _with_config(b, b'{"learning_rate": %s}' % BIG),
         "learning_rate must be finite"),
        (lambda b: _with_config(b, b'{"adagrad_epsilon": %s}' % BIG),
         "adagrad_epsilon must be finite"),
        (lambda b: _with_config(b, b'{"output_bias_init": -%s}' % BIG),
         "output_bias_init must be finite"),
    ], ids=["short-header", "magic-only", "unknown-key", "bad-json",
            "not-utf8", "not-an-object", "bad-value", "ill-typed-value",
            "config-length-past-the-end", "huge-learning-rate",
            "huge-adagrad-epsilon", "huge-output-bias-init"])
    def test_malformed_checkpoint_raises_value_error_naming_it(
            self, tmp_path, edit, reason):
        path = tmp_path / "model.ckpt"
        PoissonRegressor(small_config()).save(path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError,
                           match=f"^checkpoint {re.escape(str(path))}: ") as info:
            PoissonRegressor.load(path)
        assert reason in str(info.value)

    def test_magic_header(self, tmp_path):
        model = PoissonRegressor(small_config())
        path = tmp_path / "model.ckpt"
        model.save(path)
        with open(path, "rb") as fh:
            assert fh.read(8) == b"DLYFEED1"

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTDLYFD" + b"\x00" * 32)
        with pytest.raises(ValueError):
            PoissonRegressor.load(path)


# 10**400, a JSON integer too large for a float
BIG = b"1" + b"0" * 400


def _with_config(checkpoint: bytes, config: bytes) -> bytes:
    """`checkpoint` with its config JSON replaced by `config`."""
    (n,) = struct.unpack_from("<I", checkpoint, 8)
    return (checkpoint[:8] + struct.pack("<I", len(config)) + config
            + checkpoint[12 + n :])


# -- reference step ----------------------------------------------------------
# One training step written out in Python floats, in the kernel's order: each
# layer sums input i outer and output j inner, each pre-activation from 0.0
# and then its bias; ReLU keeps a NaN; the output's log-rates are clamped to
# [-30, 30] and go through the kernel's own exp, the loss through its log;
# each input gradient is summed over j from 0.0, zero for an inactive unit.
# Python floats are IEEE doubles, so PoissonRegressor must match it bit for
# bit. The update is one AdaGrad per parameter array, with no zero skipped.

def reference_adagrad(param, accum, grad, lr, eps):
    accum += grad * grad
    param -= lr * grad / (np.sqrt(accum) + eps)


def reference_input(model, categorical, numeric=()):
    """The input vector of these features, as a list, and the `_emb_rows`
    row of each looked-up field."""
    cfg = model.config
    d = cfg.embedding_dim
    x = [0.0] * model.input_dim
    rows = []
    for j, (field_id, token) in enumerate(categorical):
        assert cfg.categorical_fields[j] == field_id
        row = j * cfg.hash_buckets_per_field + hash_token(
            field_id, token, cfg.hash_buckets_per_field)
        x[j * d : (j + 1) * d] = model._emb_rows[row].tolist()
        rows.append(row)
    base = d * len(cfg.categorical_fields)
    for name, value in numeric:
        idx = cfg.numeric_features.index(name)
        x[base + idx] = math.copysign(math.log1p(abs(value)), value)
    return x, rows


def reference_forward(model, categorical, numeric=()):
    """(rates, each layer's input vector, the looked-up rows)."""
    x, rows = reference_input(model, categorical, numeric)
    inputs = []
    h = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        inputs.append(h)
        z = [0.0] * len(b)
        for x_i, w_i in zip(h, w.tolist()):
            for j, w_ij in enumerate(w_i):
                z[j] += x_i * w_ij
        z = [z_j + b_j for z_j, b_j in zip(z, b.tolist())]
        if i < last:
            z = [0.0 if v < 0.0 else v for v in z]
        h = z
    rates = [kernel.exp(-30.0 if v < -30.0 else 30.0 if v > 30.0 else v)
             for v in h]
    return rates, inputs, rows


def reference_step(model, categorical, numeric, label):
    y = [float(v) for v in np.reshape(label, -1)]
    rates, inputs, rows = reference_forward(model, categorical, numeric)
    loss = 0.0
    for r, y_o in zip(rates, y):
        loss += r - y_o * kernel.log(r)
    delta = [r - y_o for r, y_o in zip(rates, y)]
    n = len(model.weights)
    w_grads, b_grads = [None] * n, [None] * n
    for i in range(n - 1, -1, -1):
        h = inputs[i]
        w_grads[i] = np.array([[h_k * d_j for d_j in delta] for h_k in h])
        w_grads[i] = w_grads[i].reshape(model.weights[i].shape)
        b_grads[i] = np.array(delta)
        active = [h_k > 0.0 or i == 0 for h_k in h]
        grad = []
        for w_k, on in zip(model.weights[i].tolist(), active):
            s = 0.0
            if on:
                for w_kj, d_j in zip(w_k, delta):
                    s += w_kj * d_j
            grad.append(s)
        delta = grad
    d = model.config.embedding_dim
    lr, eps = model.config.learning_rate, model.config.adagrad_epsilon
    _, weight_g2, bias_g2 = g2_views(model)
    for p, a, g in zip(model.weights + model.biases,
                       weight_g2 + bias_g2, w_grads + b_grads):
        reference_adagrad(p, a, g, lr, eps)
    emb_g2 = model.g2[: model._emb_rows.size].reshape(-1, d)
    for j, row in enumerate(rows):
        reference_adagrad(model._emb_rows[row], emb_g2[row],
                          np.array(delta[j * d : (j + 1) * d]), lr, eps)
    return loss


# -- the compiled AdaGrad update ------------------------------------------------

def kernel_step(dense, dense_g2, grads, rows=None, rows_g2=None, looked_up=(),
                lr=0.05, eps=1e-6, k=None):
    """One call of the kernel's `update(net, k)`, k the number of
    `looked_up` rows unless given, on these arrays: `grads` holds the dense
    gradient, then each looked-up row's. The net is bound to a real layout
    that holds them: each row of `rows` a field of one bucket, and sizes
    [n, 1], whose dense block is `dense` and then n + 1 - dense.size
    entries of zero gradient, n the larger of dense.size - 1 and the
    fields' slots. The arrays take what the update wrote. Returns its
    status, 0 when the update was applied."""
    if rows is None:
        rows = rows_g2 = np.zeros((0, 1))
    (n_rows, d), n_dense = rows.shape, dense.size
    n = max(n_dense - 1, n_rows * d)
    state = np.zeros((2, rows.size + n + 1))
    # each array's place in the net's params and g2
    places = [(rows, state[0, :rows.size].reshape(rows.shape)),
              (rows_g2, state[1, :rows.size].reshape(rows.shape)),
              (dense, state[0, rows.size:rows.size + n_dense]),
              (dense_g2, state[1, rows.size:rows.size + n_dense])]
    for array, place in places:
        place[...] = array
    net_grads = np.zeros(2 * n + 1)
    net_grads[:n_dense] = grads[:n_dense]
    net_grads[n + 1:n + 1 + grads.size - n_dense] = grads[n_dense:]
    index = np.zeros(n_rows, np.int64)
    index[:len(looked_up)] = looked_up
    net = kernel.bind(*state, np.zeros(n), np.zeros(1), net_grads, index,
                      np.zeros(n + 1, np.int64), (n, 1), d, lr, eps)
    try:
        return kernel.update(net, len(looked_up) if k is None else k)
    finally:
        for array, place in places:
            array[...] = place


TINY = 5e-324  # the smallest subnormal
KERNEL_CASES = {
    # (dense, its accumulators, its gradient, lr, eps)
    "signed_zeros": ([0.0, -0.0, 0.0, -0.0, 1.0, -1.0], [0.0] * 6,
                     [0.0, 0.0, -0.0, -0.0, -0.0, 0.0], 0.05, 1e-6),
    "subnormals": ([TINY, -TINY, 1e-310, -0.0, 1e-300, 2.2e-308],
                   [0.0, TINY, 1e-310, 0.0, TINY, 0.0],
                   [TINY, -TINY, -1e-310, 3e-320, 1e-160, 2.2e-308], 0.05, TINY),
    "square_overflows": ([1.0, -2.0, 0.5, 3.0, 0.0, -0.0],
                         [0.0, 1e308, 0.0, 1.0, 0.0, 0.0],
                         [1e200, -1e200, 1e-200, 1e154, 1.7e308, -1e200],
                         0.05, 1e-6),
    "lr_zero": ([-0.0, 0.0, -1.5, 2.0, -0.0, 0.0], [0.0, 1.0, 2.0, 0.0, 0.0, 3.0],
                [-1.0, 1.0, -0.5, 0.25, 0.0, -3.0], 0.0, 1e-6),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_matches_reference_adagrad_bytes(case):
    # the dense entries and two rows of a 4-row table (the last one first),
    # each row's gradient one of the dense gradient's halves reversed
    values, accum, grad, lr, eps = KERNEL_CASES[case]
    values, accum, grad = (np.array(v) for v in (values, accum, grad))
    rows, rows_g2 = np.tile(values[:3], (4, 1)), np.tile(accum[3:], (4, 1))
    looked_up = (3, 1)
    grads = np.concatenate([grad, grad[2::-1], grad[:2:-1]])
    dense, dense_g2 = values.copy(), accum.copy()
    want = [values.copy(), accum.copy(), rows.copy(), rows_g2.copy()]
    with np.errstate(over="ignore"):
        assert kernel_step(dense, dense_g2, grads, rows, rows_g2, looked_up,
                           lr, eps) == 0
        reference_adagrad(want[0], want[1], grad, lr, eps)
        for j, row in enumerate(looked_up):
            reference_adagrad(want[2][row], want[3][row],
                              grads[6 + 3 * j : 9 + 3 * j], lr, eps)
    for got, expect in zip((dense, dense_g2, rows, rows_g2), want):
        assert got.tobytes() == expect.tobytes(), case


def test_kernel_matches_reference_adagrad_over_repeated_updates():
    rng = np.random.default_rng(5)
    dense, dense_g2 = rng.normal(size=40), np.zeros(40)
    rows, rows_g2 = rng.normal(size=(6, 4)), np.zeros((6, 4))
    want = [dense.copy(), dense_g2.copy(), rows.copy(), rows_g2.copy()]
    for step in range(1000):
        # gradients over eleven orders of magnitude, about 30% exactly zero
        grads = rng.normal(size=48) * 10.0 ** rng.integers(-8, 3, size=48)
        grads[rng.random(48) < 0.3] = 0.0
        looked_up = tuple(rng.permutation(6)[:2])
        assert kernel_step(dense, dense_g2, grads, rows, rows_g2, looked_up,
                           0.05, 1e-6) == 0
        reference_adagrad(want[0], want[1], grads[:40], 0.05, 1e-6)
        for j, row in enumerate(looked_up):
            reference_adagrad(want[2][row], want[3][row],
                              grads[40 + 4 * j : 44 + 4 * j], 0.05, 1e-6)
    for got, expect in zip((dense, dense_g2, rows, rows_g2), want):
        assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan],
                         ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("at", [0, 5, 6, 11])
def test_kernel_refuses_a_non_finite_gradient_writing_nothing(at, value):
    # the first and last dense entry, the first and last row entry
    dense, dense_g2 = np.ones(6), np.ones(6)
    rows, rows_g2 = np.ones((2, 3)), np.ones((2, 3))
    grads = np.full(12, 0.5)
    grads[at] = value
    assert kernel_step(dense, dense_g2, grads, rows, rows_g2, (1, 0)) == 1
    assert (dense == 1).all() and (dense_g2 == 1).all()
    assert (rows == 1).all() and (rows_g2 == 1).all()


@pytest.mark.parametrize("looked_up,k", [((1, 0), 3), ((1, 0), -5),
                                        ((1, 10 ** 9), 2), ((0, -1), 2)],
                         ids=["k-beyond-fields", "k-negative",
                              "row-beyond-tables", "row-negative"])
def test_kernel_update_refuses_a_bad_k_or_row_writing_nothing(looked_up, k):
    # a k outside [0, fields] (two rows, each its own field) or a row of
    # the first k outside the tables
    dense, dense_g2 = np.ones(6), np.ones(6)
    rows, rows_g2 = np.ones((2, 3)), np.ones((2, 3))
    with pytest.raises(ValueError, match="not in"):
        kernel_step(dense, dense_g2, np.full(12, 0.5), rows, rows_g2,
                    looked_up, k=k)
    assert (dense == 1).all() and (dense_g2 == 1).all()
    assert (rows == 1).all() and (rows_g2 == 1).all()


@pytest.mark.parametrize("lr", [0.05, 0.0, -0.0], ids=["lr", "lr-zero", "lr-minus-zero"])
def test_zero_skipping_update_equals_a_full_update_bytes(lr):
    # gradients, parameters and accumulators drawn from ±0.0 and a few
    # finite values: the update skips the division wherever g * lr is
    # zero, and must still give a full update's bytes, -0.0 included
    rng = np.random.default_rng(11)
    pool = np.array([0.0, -0.0, 0.0, -0.0, 1.5, -2.0, 1e-320, -3e-300])
    dense, grads = rng.choice(pool, 400), rng.choice(pool, 400 + 2 * 4)
    dense_g2 = rng.choice(np.array([0.0, -0.0, 0.25, 1e308]), 400)
    rows = rng.choice(pool, (3, 4))
    rows_g2 = rng.choice(np.array([0.0, -0.0, 2.0]), (3, 4))
    want = [dense.copy(), dense_g2.copy(), rows.copy(), rows_g2.copy()]
    assert kernel_step(dense, dense_g2, grads, rows, rows_g2, (2, 0), lr) == 0
    with np.errstate(over="ignore", under="ignore"):
        reference_adagrad(want[0], want[1], grads[:400], lr, 1e-6)
        reference_adagrad(want[2][2], want[3][2], grads[400:404], lr, 1e-6)
        reference_adagrad(want[2][0], want[3][0], grads[404:], lr, 1e-6)
    for got, expect in zip((dense, dense_g2, rows, rows_g2), want):
        assert got.tobytes() == expect.tobytes()


def test_packed_update_equals_the_per_element_formula():
    # a step's update runs AdaGrad two entries at a time; on random layouts
    # of odd widths (odd row lengths, odd column counts, so that every tail
    # runs) and accumulators seeded with NaN, +inf and subnormals, it must
    # give the bytes of `kernel.update`, the per-element formula, run on a
    # twin from the same state with the step's gradients and rows. A NaN
    # accumulator where g * lr is zero (an inactive unit's bias) keeps its
    # parameter only if the zero skip is kept.
    rng = np.random.default_rng(30)
    specials = np.array([math.nan, math.inf, TINY, 1e-310, 0.0])
    for case in range(60):
        cfg = small_config(
            categorical_fields=REF_FIELDS,
            embedding_dim=int(rng.choice([1, 3, 5, 7])),
            hash_buckets_per_field=4,
            hidden_layer_sizes=tuple(int(w) for w in rng.choice(
                [1, 3, 5, 7, 9, 15], size=rng.integers(1, 3))),
            two_output_mode=bool(rng.integers(2)))
        model, twin = PoissonRegressor(cfg), PoissonRegressor(cfg)
        n = model.params.size
        model.params[:] = rng.normal(0.0, 0.5, n)
        model.params[rng.random(n) < 0.1] = -0.0
        model.g2[:] = rng.exponential(1.0, n)
        seeded = rng.random(n) < 0.3
        model.g2[seeded] = rng.choice(specials, int(seeded.sum()))
        twin.params[:], twin.g2[:] = model.params, model.g2
        categorical, numeric = first_k_features(rng, aux=case % 2)
        label = ((float(rng.poisson(1.0)), float(rng.poisson(0.3)))
                 if cfg.two_output_mode else float(rng.poisson(1.2)))
        model.train_step(categorical, numeric, label)
        k = len(categorical)
        twin._grads[:] = step_gradients(model)
        twin._looked_up[:k] = model._looked_up[:k]
        assert kernel.update(twin._net, k) == 0, case
        assert model.params.tobytes() == twin.params.tobytes(), case
        assert model.g2.tobytes() == twin.g2.tobytes(), case


def test_scalar_update_fallback_equals_the_sse2_build(tmp_path,
                                                     monkeypatch):
    # the update's one-entry loop, which a compiler without __SSE2__ (a
    # non-x86 host) builds, against the two-lane build, on the layouts,
    # states and accumulators of the packed-update test: a few hundred
    # recorded steps must give the same losses, or the same refusals, and
    # the same bytes. A NaN accumulator soon turns its parameter NaN, and
    # the model's steps are refused from then on, so only every fourth
    # layout has one.
    command = (*kernel.COMMAND[:-3], "-U__SSE2__", *kernel.COMMAND[-3:])
    macros = subprocess.run([*command[:-3], "-dM", "-E", "-x", "c", "-"],
                            input="", capture_output=True, text=True,
                            check=True).stdout
    assert "__SSE2__" not in macros and "__x86_64__" in macros
    monkeypatch.setattr(kernel, "COMMAND", command)
    scalar = kernel._load(kernel.build(tmp_path))
    assert scalar.__file__ != kernel._module.__file__
    rng = np.random.default_rng(41)
    specials = np.array([math.nan, math.inf, TINY, 1e-310, 0.0])

    def outcome(model, features, label):
        try:
            return bits(model.train_step(*features, label))
        except FloatingPointError as exc:
            return str(exc)
    applied = 0
    for case in range(48):
        cfg = small_config(
            categorical_fields=REF_FIELDS,
            embedding_dim=int(rng.choice([1, 3, 5, 7])),
            hash_buckets_per_field=4,
            hidden_layer_sizes=tuple(int(w) for w in rng.choice(
                [1, 3, 5, 7, 9, 15], size=rng.integers(1, 3))),
            two_output_mode=bool(rng.integers(2)))
        model, twin = PoissonRegressor(cfg), PoissonRegressor(cfg)
        n = model.params.size
        model.params[:] = rng.normal(0.0, 0.5, n)
        model.params[rng.random(n) < 0.1] = -0.0
        model.g2[:] = rng.exponential(1.0, n)
        seeded = rng.random(n) < 0.3
        pool = specials if case % 4 == 0 else specials[1:]
        model.g2[seeded] = rng.choice(pool, int(seeded.sum()))
        twin.params[:], twin.g2[:] = model.params, model.g2
        for step in range(8):
            features = first_k_features(rng, aux=step % 2)
            label = ((float(rng.poisson(1.0)), float(rng.poisson(0.3)))
                     if cfg.two_output_mode else float(rng.poisson(1.2)))
            got = outcome(model, features, label)
            with monkeypatch.context() as patch:
                patch.setattr(kernel, "train_step", scalar.train_step)
                assert outcome(twin, features, label) == got, (case, step)
            applied += isinstance(got, bytes)
        assert model.params.tobytes() == twin.params.tobytes(), case
        assert model.g2.tobytes() == twin.g2.tobytes(), case
    assert applied >= 300


def ulps_apart(a: float, b: float) -> int:
    """How many doubles lie from a to b, for finite a and b of one sign."""
    (ia,), (ib,) = struct.unpack("<q", bits(a)), struct.unpack("<q", bits(b))
    return abs(ia - ib)


def test_kernel_exp_and_log_are_within_one_ulp():
    # every rate the clamp lets through, and every log of such a rate
    grid = np.linspace(-30.0, 30.0, 120_001).tolist()
    assert max(ulps_apart(kernel.exp(x), math.exp(x)) for x in grid) <= 1
    rates = [math.exp(x) for x in grid]
    assert max(ulps_apart(kernel.log(r), math.log(r)) for r in rates) <= 1
    assert kernel.exp(0.0) == 1.0 and kernel.log(1.0) == 0.0
    assert math.isnan(kernel.exp(math.nan)) and math.isnan(kernel.log(-1.0))
    assert kernel.exp(-math.inf) == 0.0 and kernel.log(0.0) == -math.inf


def test_build_compiles_once_and_names_the_compiler(tmp_path, monkeypatch):
    lib = kernel.build(tmp_path / "a")
    assert ctypes.CDLL(str(lib)).kernel_train_step
    monkeypatch.setattr(kernel.subprocess, "run", lambda *a, **kw: pytest.fail(
        "compiled a kernel that was already built"))
    assert kernel.build(tmp_path / "a") == lib
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == [lib.name]
    monkeypatch.undo()
    # no compiler on PATH, and none in the working directory
    monkeypatch.setenv("PATH", "")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(RuntimeError, match=r"`cc -O3 -fPIC -shared "
                       r"-ffp-contract=off -fno-math-errno .*` failed"):
        kernel.build(tmp_path / "b")
    assert list((tmp_path / "b").iterdir()) == []


def test_source_compiles_without_a_warning(tmp_path):
    # every warning of -Wall -Wextra fails the build, but for unused
    # parameters (each entry's `self`)
    flags = ("-Wall", "-Wextra", "-Wno-unused-parameter", "-Werror")
    command = [*kernel.COMMAND[:-3], *flags, *kernel.COMMAND[-3:],
               f"-I{kernel.INCLUDE}", "-o", str(tmp_path / "kernel.so")]
    built = subprocess.run(command, input=kernel.SOURCE, text=True,
                           capture_output=True)
    assert built.returncode == 0, built.stderr


def test_kernel_entries_are_64_byte_aligned():
    # the build pins code placement, so that an edit elsewhere in the
    # source does not move the passes' timing
    lib = ctypes.CDLL(kernel._module.__file__)
    for name in ("kernel_forward", "kernel_train_step", "kernel_read"):
        entry = getattr(lib, name)
        assert ctypes.cast(entry, ctypes.c_void_p).value % 64 == 0, name


def test_build_deletes_its_interpreters_earlier_builds(tmp_path, monkeypatch):
    # an earlier source's build goes when the next is built; another
    # interpreter's build, of another extension suffix, stays
    foreign = tmp_path / "kernel_0123456789abcdef.cpython-39-x86_64-linux-gnu.so"
    foreign.write_bytes(b"")
    first = kernel.build(tmp_path)
    monkeypatch.setattr(kernel, "SOURCE", kernel.SOURCE + "\n/* edited */\n")
    second = kernel.build(tmp_path)
    assert second != first
    assert sorted(tmp_path.iterdir()) == sorted([foreign, second])


def test_build_names_the_command_when_python_h_is_missing(tmp_path,
                                                          monkeypatch):
    monkeypatch.setattr(kernel, "INCLUDE", str(tmp_path / "no-headers"))
    with pytest.raises(RuntimeError, match=r"`cc -O3 .* -I\S*no-headers "
                       r"-o \S+` failed: .*Python\.h"):
        kernel.build(tmp_path / "b")
    assert list((tmp_path / "b").iterdir()) == []


C, S = ("campaign", "c1"), ("segment", "s1")

# (pass, argument, bad value, error): pairs that are no tuple or list, a
# pair that cannot be hashed, a pair whose memo row is outside the 32 rows
# of the small layout, a wrong number of values or labels, a value or label
# that is no float, values that are no list, labels that are no tuple, a
# net that is no handle of `bind`, a memo that is no dict or whose row is
# no int, a wrong arity; then a pair the memo lacks, whose row is of another
# field than the one at its position (a repeated field, fields out of
# order) or that is beyond the last field, which the kernel refuses with
# KeyError, so that the model looks the pairs up and names what is wrong;
# last the nets each pass refuses (a name that `nets` maps stands for its
# net) and an update's k outside [0, fields]
BAD_PASS_ARGUMENTS = [
    ("forward", 1, {C, S}, TypeError),
    ("forward", 1, None, TypeError),
    ("forward", 1, [C, ("segment", "minus")], ValueError),
    ("forward", 1, [C, ["segment", "s1"]], TypeError),
    ("forward", 1, [{"campaign": "c1"}], TypeError),
    ("forward", 1, [("campaign", "minus")], ValueError),
    ("forward", 1, [C, ("segment", "big")], ValueError),
    ("forward", 1, [("campaign", "huge")], ValueError),
    ("forward", 2, (0.5,), TypeError),
    ("forward", 2, [], ValueError),
    ("forward", 2, [0.5, 0.5], ValueError),
    ("forward", 2, [1], TypeError),
    ("forward", 2, [None], TypeError),
    ("forward", 0, "0", TypeError),
    ("forward", 0, 1, TypeError),
    ("forward", 3, None, TypeError),
    ("train_step", 1, [("campaign", "big")], ValueError),
    ("train_step", 1, [C, ("segment", "big")], ValueError),
    ("train_step", 2, [1.0, 0.5], ValueError),
    ("train_step", 2, [2], TypeError),
    ("train_step", 3, 1.0, TypeError),
    ("train_step", 3, [1.0], TypeError),
    ("train_step", 3, (), ValueError),
    ("train_step", 3, (1.0, 0.0), ValueError),
    ("train_step", 3, (1,), TypeError),
    ("read", 1, (C, ["segment", "s1"]), TypeError),
    ("read", 1, [("campaign", "minus")], ValueError),
    ("read", 1, [C, ("campaign", "float")], TypeError),
    ("read", 1, [C, ("segment", "big")], ValueError),
    ("read", 0, 1, TypeError),
    ("read", 2, [0.5], TypeError),
    ("train_step", 4, [(C, 1), (S, 17)], TypeError),
    ("forward", 3, {C: 1.0, S: 17}, TypeError),
    ("read", 2, {C: 1, S: 17.0}, TypeError),
    ("forward", 3, {C: 1, S: 2 ** 64}, ValueError),
    ("read", 3, None, TypeError),
    ("forward", 1, [C, C], KeyError),
    ("train_step", 1, [C, C], KeyError),
    ("read", 1, [C, C], KeyError),
    ("forward", 1, [S, C], KeyError),
    ("train_step", 1, [S], KeyError),
    ("read", 1, [S, C], KeyError),
    ("forward", 1, [C, ("segment", "s2")], KeyError),
    ("forward", 3, {C: 17, S: 17}, KeyError),
    ("forward", 1, [C, S, C], KeyError),
    ("train_step", 1, [C, S, S], KeyError),
    ("read", 1, (C, S, ("context", "x")), KeyError),
    ("train_step", 0, 1, TypeError),
    ("update", 0, 1, TypeError),
    ("forward", 0, "capsule", TypeError),
    ("train_step", 0, "capsule", TypeError),
    ("update", 0, "capsule", TypeError),
    ("forward", 0, "handles", TypeError),
    ("train_step", 0, "handles", TypeError),
    ("update", 0, "handles", TypeError),
    ("read", 0, "handle", TypeError),
    ("read", 0, "int-in-tuple", TypeError),
    ("read", 0, "capsule-in-tuple", TypeError),
    ("read", 0, "two-layouts", ValueError),
    ("read", 0, "no-handles", ValueError),
    ("update", 1, 3, ValueError),
    ("update", 1, -5, ValueError),
    ("update", 1, 10 ** 6, ValueError),
]


def nets(stack, other):
    """{name: net} of the nets of BAD_PASS_ARGUMENTS: a foreign capsule,
    and tuples of handles, of the stack's and of `other`, a model of
    another layout."""
    model = stack.models[0]
    return {"capsule": datetime.datetime_CAPI, "handles": stack._nets,
            "handle": model._net, "int-in-tuple": (model._net, 1),
            "capsule-in-tuple": (model._net, datetime.datetime_CAPI),
            "two-layouts": (model._net, other._net), "no-handles": ()}


@pytest.mark.parametrize("name,at,value,error", BAD_PASS_ARGUMENTS)
def test_kernel_refuses_bad_pass_arguments_writing_nothing(name, at, value,
                                                           error):
    stack = RegressorStack(small_config(), [7, 8])
    model = stack.models[0]
    pairs, values = [C, S], model._values([("aux", 1.0)])
    memo = {**model._fill(pairs), ("campaign", "minus"): -1,
            ("segment", "minus"): -1, ("campaign", "big"): 32,
            ("segment", "big"): 32, ("campaign", "huge"): 2 ** 64,
            ("campaign", "float"): 1.0}
    other = PoissonRegressor(small_config(hidden_layer_sizes=(4,)))
    sound = {"forward": [model._net, pairs, values, memo],
             "train_step": [model._net, pairs, values, (1.0,), memo],
             "read": [stack._nets, pairs, memo], "update": [model._net, 2]}
    args, named = list(sound[name]), nets(stack, other)
    if isinstance(value, str) and value in named:
        value = named[value]
    args[at:at + 1] = [value]
    # a pass of other rows and values than the sound ones, so that a write
    # of any of them shows
    model.forward(fv()[0][:1])

    def state():
        return [b.tobytes() for m in (*stack.models, other)
                for b in (m.params, m.g2, m._input, m._grads, m._acts,
                          m._looked_up)]
    before = state()
    with pytest.raises(error):
        getattr(kernel, name)(*args)
    assert state() == before
    # the sound arguments run
    assert getattr(kernel, name)(*sound[name]) is not None


def read_only(array):
    array = array.copy()
    array.flags.writeable = False
    return array


# (argument of bind, what replaces the model's own, error)
BAD_BIND_ARGUMENTS = {
    "read-only": (0, read_only, ValueError),
    "float32": (0, lambda a: a.astype(np.float32), ValueError),
    "strided": (0, lambda a: np.repeat(a, 2)[::2], ValueError),
    "short": (1, lambda a: a[:-1], ValueError),
    "two-dimensional": (2, lambda a: a.reshape(1, -1), ValueError),
    "int32-rows": (5, lambda a: a.astype(np.int32), ValueError),
    "short-scratch": (6, lambda a: a[:-1], ValueError),
    "sizes-list": (7, list, TypeError),
    "one-layer-less": (7, lambda sizes: sizes[1:], ValueError),
    "three-outputs": (7, lambda sizes: (*sizes[:-1], 3), ValueError),
    "negative-width": (7, lambda sizes: (sizes[0], -1, sizes[2]), ValueError),
    "zero-d": (8, lambda d: 0, ValueError),
    "d-of-no-table": (8, lambda d: d + 1, ValueError),
    "int-lr": (9, int, TypeError),
}


@pytest.mark.parametrize("case", sorted(BAD_BIND_ARGUMENTS))
def test_bind_refuses_arrays_of_another_type_or_layout(case):
    model = PoissonRegressor(small_config())
    cfg = model.config
    args = [model.params, model.g2, model._input, model._acts, model._grads,
            model._looked_up, model._on, (model.input_dim, 5, 1),
            cfg.embedding_dim, cfg.learning_rate, cfg.adagrad_epsilon]
    assert kernel.bind(*args) is not None
    at, bad, error = BAD_BIND_ARGUMENTS[case]
    args[at] = bad(args[at])
    with pytest.raises(error):
        kernel.bind(*args)


def test_handle_holds_its_arrays_until_it_is_freed():
    # a net's arrays live as long as its handle, the model gone or not
    model = PoissonRegressor(small_config())
    net, memo, (pairs, _) = model._net, model._rows, fv()
    rate = model.forward(pairs)
    params = weakref.ref(model.params)
    del model
    gc.collect()
    assert params() is not None
    assert kernel.forward(net, pairs, [0.0], memo) == rate
    del net
    gc.collect()
    assert params() is None


def test_kernel_refuses_pairs_that_shrink_while_it_looks_them_up():
    # a key whose comparison with the memo's equal key empties the list of
    # pairs the kernel is reading
    model = PoissonRegressor(small_config())
    pairs = [C, S]
    memo = model._fill(pairs)

    class Shrinking(tuple):
        def __eq__(self, other):
            pairs.clear()
            return tuple.__eq__(self, other)

        __hash__ = tuple.__hash__
    pairs[0] = Shrinking(C)
    looked_up = model._looked_up.tolist()
    with pytest.raises(RuntimeError, match="changed size"):
        kernel.forward(model._net, pairs, model._no_numeric, memo)
    assert pairs == [] and model._looked_up.tolist() == looked_up


REF_FIELDS = ("campaign", "segment", "site")


def first_k_features(rng, aux):
    """The one input form every pass takes: the first k of REF_FIELDS, k
    from 0 to all of them, in declared order, each once (few tokens, so
    that rows repeat across calls), with the aux numeric when `aux`; a
    (categorical, numeric) pair."""
    k = int(rng.integers(len(REF_FIELDS) + 1))
    categorical = [(f, f"t{rng.integers(6)}") for f in REF_FIELDS[:k]]
    numeric = [("aux", float(rng.normal(0.0, 3.0)))] if aux else []
    return categorical, numeric


@pytest.mark.parametrize("two_output", [False, True], ids=["single", "two"])
def test_step_matches_reference_bit_for_bit(two_output):
    cfg = small_config(categorical_fields=REF_FIELDS, embedding_dim=4,
                       hash_buckets_per_field=4, hidden_layer_sizes=(6, 5),
                       two_output_mode=two_output)
    model, ref = PoissonRegressor(cfg), PoissonRegressor(cfg)
    rng = np.random.default_rng(21)
    nf = len(REF_FIELDS)
    for step in range(2000):
        # the aux numeric present and absent in turn
        features = first_k_features(rng, aux=step % 2)
        if two_output:
            label = (float(rng.poisson(1.0)), float(rng.poisson(0.3)))
        else:
            label = float(rng.poisson(1.2))
        # a serving forward of another k between the steps, so that a
        # stale slot would show
        served = serving_tuple(rng, REF_FIELDS, int(rng.integers(nf + 1)))
        got = prediction(model.forward(served))
        assert bits(got) == bits(reference_predict(ref, served)), step
        rates, _, _ = reference_forward(ref, *features)
        expect = tuple(float(r) for r in rates)
        got = model.forward(*features)
        assert (got if two_output else (got,)) == expect, step
        assert model.train_step(*features, label) == reference_step(
            ref, *features, label
        ), step
    assert np.array_equal(model.params, ref.params)
    assert np.array_equal(model.g2, ref.g2)
    # log-rates beyond the stability clamp, both ways
    for bias in (-40.0, 40.0):
        model.biases[-1][:] = ref.biases[-1][:] = bias
        got = model.forward(*features)
        rates, _, _ = reference_forward(ref, *features)
        assert (got if two_output else (got,)) == tuple(float(r) for r in rates)


# -- stacked models ----------------------------------------------------------

def test_stack_row_is_an_ordinary_model(tmp_path):
    cfg = small_config()
    seeds = [7, 8, 9]
    stack = RegressorStack(cfg, seeds)
    for seed, model in zip(seeds, stack.models):
        alone = PoissonRegressor(replace(cfg, rng_seed=seed))
        assert model.config == alone.config
        assert np.array_equal(model.params, alone.params)
        assert np.array_equal(model.g2, alone.g2)
    # steps on model 1 match a separately built model and touch no other
    row1, alone = stack.models[1], PoissonRegressor(replace(cfg, rng_seed=8))
    others = [(m.params.copy(), m.g2.copy()) for m in stack.models[::2]]
    rng = np.random.default_rng(4)
    for _ in range(50):
        features = fv(campaign=f"c{rng.integers(6)}", aux=float(rng.exponential()))
        label = float(rng.poisson(1.0))
        assert row1.train_step(*features, label) == alone.train_step(*features, label)
    assert np.array_equal(row1.params, alone.params)
    assert np.array_equal(row1.g2, alone.g2)
    for m, (params, g2) in zip(stack.models[::2], others):
        assert np.array_equal(m.params, params)
        assert np.array_equal(m.g2, g2)
    path = tmp_path / "row.ckpt"
    row1.save(path)
    loaded = PoissonRegressor.load(path)
    assert np.array_equal(loaded.params, row1.params)
    assert np.array_equal(loaded.g2, row1.g2)


@pytest.mark.parametrize("embedding_dim,hidden", [(4, ()), (4, (6, 5)), (8, (32, 32))],
                         ids=["linear", "small", "default-sized"])
@pytest.mark.parametrize("two_output", [False, True], ids=["single", "two"])
def test_stacked_forward_matches_each_model_bit_for_bit(embedding_dim, hidden,
                                                        two_output):
    cfg = small_config(categorical_fields=REF_FIELDS, embedding_dim=embedding_dim,
                       hash_buckets_per_field=4, hidden_layer_sizes=hidden,
                       two_output_mode=two_output)
    stack = RegressorStack(cfg, [3, 4, 5, 6, 7])
    rng = np.random.default_rng(5)
    for model in stack.models:
        model.params[:] = rng.normal(0.0, 0.5, model.params.size)
    # log-rates beyond the stability clamp, both ways
    stack.models[0].biases[-1][:] = -40.0
    stack.models[1].biases[-1][:] = 40.0
    nf = len(REF_FIELDS)
    for step in range(300):
        # every k in turn, so that a later field's stale block would show
        categorical = tuple(serving_tuple(rng, REF_FIELDS, step % (nf + 1)))
        served = stack.read(categorical)
        # the served rate: each model's prediction added left to right
        total = 0.0
        for model in stack.models:
            got = model.forward(categorical)
            total += got[0] - got[1] if two_output else got
        assert type(served) is float
        assert bits(served) == bits(total), step


def wide_step() -> float:
    """The loss of one `train_step` of a model whose hidden layer has
    200,000 units."""
    cfg = RegressorConfig(categorical_fields=("campaign",), embedding_dim=1,
                          hash_buckets_per_field=2, hidden_layer_sizes=(200_000,))
    return PoissonRegressor(cfg).train_step([("campaign", "c")], (), 1.0)


def test_wide_layer_steps_on_a_small_thread_stack():
    # the backward's scratch is the model's, not the stack's: a step on a
    # thread of 1 MiB of stack, in a child process so that a crash fails
    # the test alone
    here = os.path.dirname(os.path.abspath(__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(os.path.dirname(here), "src"), here])}
    child = subprocess.run(
        [sys.executable, "-c", "import threading, test_regressor as t\n"
         "threading.stack_size(1 << 20)\n"
         "out = []\n"
         "thread = threading.Thread(target=lambda: out.append(t.wide_step()))\n"
         "thread.start(); thread.join()\n"
         "print(out[0].hex())"],
        env=env, cwd=here, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout == wide_step().hex() + "\n"


def test_scratch_holds_the_widest_layer_even_the_output():
    # sizes [1, 1, 2]: the update lists the output layer's two columns in
    # the scratch, so `bind` takes no scratch shorter than max(sizes); with
    # guard entries after a scratch of two, steps write none of them
    cfg = RegressorConfig(categorical_fields=("campaign",), embedding_dim=1,
                          hash_buckets_per_field=2, hidden_layer_sizes=(1,),
                          two_output_mode=True)
    model, ref = PoissonRegressor(cfg), PoissonRegressor(cfg)
    assert len(model._on) == 2
    guarded = np.array([0, 0, -7, -7, -7, -7])

    def bind(on):
        return kernel.bind(
            model.params, model.g2, model._input, model._acts, model._grads,
            model._looked_up, on, (1, 1, 2), 1, cfg.learning_rate,
            cfg.adagrad_epsilon)
    with pytest.raises(ValueError, match="1 scratch entries"):
        bind(np.zeros(1, np.int64))
    model._net = bind(guarded[:2])
    # the hidden unit switched on, so that both output columns take
    # AdaGrad with a non-zero delta
    for m in (model, ref):
        m.biases[0][:] = 1.0
    for step in range(20):
        categorical = [("campaign", f"c{step % 3}")]
        label = (float(step % 4), float(step % 3))
        assert model.train_step(categorical, (), label) == reference_step(
            ref, categorical, (), label), step
    assert model.params.tobytes() == ref.params.tobytes()
    assert model.g2.tobytes() == ref.g2.tobytes()
    assert guarded[2:].tolist() == [-7] * 4


# -- the step's finiteness check ----------------------------------------------
# A step's gradients are set through the model's state and labels: a zeroed
# `small_config` model (hidden layer of 5) with the first two hidden units
# switched on by their biases, on fv(aux=1.0), whose aux slot holds
# log1p(1). Input slots 0-5 are the two looked-up rows'.

AUX_SLOT = 6


def zeroed(two_output=False):
    model = PoissonRegressor(small_config(two_output_mode=two_output))
    zero_weights(model)
    model.biases[-1][:] = 0.0
    model.biases[0][:2] = 1.0
    return model


def grads_index(model, where):
    """The `step_gradients` entry of the gradient of the first hidden
    unit's bias, of weights[0][AUX_SLOT, 0], or of input slot 3 or 5 (the
    second row's first and last entries)."""
    n_weights = sum(w.size for w in model.weights)
    n_dense = model._grads.size - model.input_dim
    return {"bias": n_weights, "weight": AUX_SLOT * model.weights[0].shape[1],
            "embedding": n_dense + 3, "last": n_dense + 5}[where]


# the signs of the first hidden unit's two output weights that make its
# bias gradient, a sum of two overflowing products, this value
SIGNS = {"inf": (-1.0, -1.0), "-inf": (1.0, 1.0), "nan": (1.0, -1.0)}


def inject(value):
    """A two-output model whose step on fv(aux=1.0) with labels (1e15,
    1e15) has a finite loss, and `value` in every gradient entry
    `grads_index` names. Only the first hidden unit is on, and its output
    weights are ±1e300, so both log-rates are clamped and the output
    gradients are about -1e15; the weights of input slots 3 and 5 to that
    unit are 1."""
    model = zeroed(two_output=True)
    model.biases[0][1] = 0.0
    model.weights[1][0] = [1e300 * s for s in SIGNS[str(value)]]
    model.weights[0][[3, 5], 0] = 1.0
    return model


# out of order, with the campaign row looked up twice: an input whose rows
# would have to be summed into their fields' slots
SUMMED = ([("segment", "s1"), ("campaign", "c1"), ("campaign", "c1")],
          [("aux", 1.0)])


def refuse(value, features, error):
    """Asserts that a train_step of `inject(value)` on `features` raises
    `error` without a warning and writes nothing. Returns the model and
    what it raised."""
    model = inject(value)
    params, g2 = model.params.copy(), model.g2.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as raised:
            model.train_step(*features, (1e15, 1e15))
    assert model.params.tobytes() == params.tobytes()
    assert model.g2.tobytes() == g2.tobytes()
    return model, raised.value


def refused_loss(error) -> float:
    """The loss that the FloatingPointError of a refused step names."""
    match = re.fullmatch(r"non-finite loss or gradient \(loss=(.+)\); step "
                         r"not applied", str(error))
    return float(match.group(1))


NON_FINITE = pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan],
                                     ids=["inf", "-inf", "nan"])
WHERE = pytest.mark.parametrize("where", ["weight", "bias", "embedding"])


@NON_FINITE
@pytest.mark.parametrize("where", ["weight", "bias", "embedding", "last"])
def test_non_finite_gradient_is_refused_without_a_warning(where, value):
    model, error = refuse(value, fv(aux=1.0), FloatingPointError)
    got = step_gradients(model)[grads_index(model, where)]
    assert bits(got) == bits(value) if not math.isnan(value) else math.isnan(got)
    # the loss was finite, so the gradient check refused the step
    assert math.isfinite(refused_loss(error))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_gradient_after_the_looked_up_rows_is_not_checked(k):
    # the weights of the input's first slot after the k rows (the next
    # field's slot, or the aux numeric's, absent here) are 1e300, so that
    # slot's gradient would overflow; the step neither computes nor checks
    # it
    model, ref = PoissonRegressor(small_config()), PoissonRegressor(small_config())
    categorical = fv()[0][:k]
    after = model.config.embedding_dim * k
    for m in (model, ref):
        m.weights[0][after] = 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss = model.train_step(categorical, (), 1e9)
    assert model._grads[model._grads.size - model.input_dim + after] == 0.0
    assert loss == reference_step(ref, categorical, (), 1e9)
    assert model.params.tobytes() == ref.params.tobytes()
    assert model.g2.tobytes() == ref.g2.tobytes()


@NON_FINITE
@WHERE
def test_non_finite_gradient_of_a_summed_input_is_refused(where, value):
    # the input itself is refused, before its backward runs, whichever
    # entry `where` names
    model, _ = refuse(value, SUMMED, ContractViolation)
    assert not model._grads.any()


def refused_without_a_warning(model, features, label):
    """Asserts that a train_step of `model` raises FloatingPointError
    without a warning, after a finite loss, and writes nothing."""
    params, g2 = model.params.copy(), model.g2.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError) as raised:
            model.train_step(*features, label)
    assert math.isfinite(refused_loss(raised.value))
    assert model.params.tobytes() == params.tobytes()
    assert model.g2.tobytes() == g2.tobytes()


def test_weight_gradient_that_overflows_from_finite_factors_is_refused():
    # the campaign row's first entry is 1e200, and the first hidden unit,
    # on, has output weight 1: at label 1e200 the output delta, and so the
    # unit's, is about -1e200. Every layer input and delta is finite, but
    # the unit's weight gradient from that entry is 1e200 * -1e200.
    model = zeroed()
    row = expected_row(model, C)
    model._emb_rows[row, 0] = 1e200
    model.weights[1][0, 0] = 1.0
    refused_without_a_warning(model, fv(aux=1.0), 1e200)
    n_weights = sum(w.size for w in model.weights)
    n_dense = model._grads.size - model.input_dim
    grads = step_gradients(model)
    assert grads[0] == -math.inf
    assert np.isfinite(model._acts).all()
    assert np.isfinite(grads[n_weights:n_dense + 6]).all()


@pytest.mark.parametrize("value", [math.inf, -math.inf], ids=["inf", "-inf"])
def test_non_finite_looked_up_entry_is_refused(value):
    # the campaign row's first entry, and so the input's first slot, is
    # infinite; every weight from that slot and every output weight is 1,
    # so the hidden units are +inf, and the log-rate too, which is clamped,
    # or the hidden units are 0. Either way the loss is finite, and only
    # the layer inputs show the fault.
    model = zeroed()
    model._emb_rows[expected_row(model, C), 0] = value
    model.weights[0][0] = 1.0
    model.weights[1][:] = 1.0
    refused_without_a_warning(model, fv(aux=1.0), 1.0)
    assert model._input[0] == value


@pytest.mark.parametrize("magnitude", [1e300, 1.3e154],
                         ids=["square-overflows", "sum-overflows"])
@WHERE
def test_finite_extreme_gradient_is_applied(where, magnitude):
    # the first two hidden units' output weights are v and -v, so the
    # log-rate is 0 and, at label 2, the output gradient -1: their bias
    # gradients are (-v, v), the aux slot's weight gradients log1p(1) times
    # those, and input slots 3 and 4, weighted 1 to one unit each, take
    # them too. 1e300 squared overflows; 1.3e154 squared does not, but added
    # to an accumulator of 1.7e308 it does.
    model = zeroed()
    model.weights[1][:2, 0] = magnitude, -magnitude
    model.weights[0][3, 0] = model.weights[0][4, 1] = 1.0
    first = grads_index(model, where)
    # the two entries of `g2` those gradients go to
    if where == "embedding":
        row = expected_row(model, fv()[0][1])
        targets = row * 3 + np.array([0, 1])
    else:
        targets = model._emb_rows.size + first + np.array([0, 1])
    if magnitude < 1e300:
        model.g2[targets] = 1.7e308
    params, g2 = model.params.copy(), model.g2.copy()
    model.train_step(*fv(aux=1.0), 2.0)
    n_dense = model._grads.size - model.input_dim
    grads = step_gradients(model)[: n_dense + 6]
    assert abs(grads[first : first + 2]).min() >= 0.69 * magnitude
    # the update of the gradients the step wrote, one array at a time
    n_emb = model._emb_rows.size
    lr, eps = model.config.learning_rate, model.config.adagrad_epsilon
    with np.errstate(over="ignore"):
        reference_adagrad(params[n_emb:], g2[n_emb:], grads[:n_dense], lr, eps)
        emb, emb_g2 = params[:n_emb].reshape(-1, 3), g2[:n_emb].reshape(-1, 3)
        for j, row in enumerate(expected_row(model, p) for p in fv()[0]):
            reference_adagrad(emb[row], emb_g2[row],
                              grads[n_dense + 3 * j : n_dense + 3 * j + 3], lr, eps)
    assert np.isinf(model.g2[targets]).all()
    assert model.params.tobytes() == params.tobytes()
    assert model.g2.tobytes() == g2.tobytes()


# -- (field, token) row memo ----------------------------------------------------

def expected_row(model, pair):
    field_id, token = pair
    fi = model.config.categorical_fields.index(field_id)
    buckets = model.config.hash_buckets_per_field
    return fi * buckets + hash_token(field_id, token, buckets)


def test_unknown_field_raises_on_every_call():
    model = PoissonRegressor(small_config())
    bad = [("campaign", "c1"), ("nope", "x")]
    for _ in range(3):
        with pytest.raises(ContractViolation, match="nope"):
            model.forward(bad)
        with pytest.raises(ContractViolation, match="nope"):
            model.train_step(bad, (), 1.0)
    assert ("nope", "x") not in model._rows
    assert ("campaign", "c1") in model._rows


def test_layouts_map_a_pair_to_their_own_rows():
    a = PoissonRegressor(small_config())
    b = PoissonRegressor(small_config(categorical_fields=("segment", "campaign")))
    c = PoissonRegressor(small_config(hash_buckets_per_field=32))
    same = PoissonRegressor(small_config(rng_seed=8, hidden_layer_sizes=(4, 4)))
    # every model owns its memo, one layout or another
    assert len({id(m._rows) for m in (a, b, c, same)}) == 4
    pairs = [("campaign", "c1"), ("segment", "s1"), ("campaign", "c9")]
    # interleaved, so that one memo for all would hand one layout's rows
    # to the next; each layout takes its inputs in its own field order
    for _ in range(2):
        for model in (a, b, c):
            first = model.config.categorical_fields[0]
            for pair in pairs:
                categorical = [pair] if pair[0] == first else [
                    (first, "t1"), pair]
                numeric = [("aux", 1.0)]
                rows = list(model._fill(categorical).values())
                assert rows == [expected_row(model, p) for p in categorical]
                rates, _, _ = reference_forward(model, categorical, numeric)
                assert model.forward(categorical, numeric) == float(rates[0])
                assert model._looked_up[:len(rows)].tolist() == rows
    # the second field's rows start at one table's length
    assert expected_row(a, pairs[0]) != expected_row(b, pairs[0])
    assert expected_row(a, pairs[1]) != expected_row(c, pairs[1])


def test_stack_models_own_memos_that_agree_with_hash_token():
    cfg = small_config(categorical_fields=REF_FIELDS, hash_buckets_per_field=4)
    stack = RegressorStack(cfg, [3, 4, 5])
    assert len({id(m._rows) for m in stack.models}) == 3
    rng = np.random.default_rng(8)
    for step in range(200):
        categorical, _ = first_k_features(rng, aux=step % 2)
        expect = [expected_row(stack.models[0], p) for p in categorical]
        for model in stack.models:
            assert list(model._fill(categorical).values()) == expect


def test_full_memo_is_cleared_and_rows_stay_right(monkeypatch):
    monkeypatch.setattr(regressor, "ROW_MEMO_SIZE", 2)
    cfg = small_config(categorical_fields=REF_FIELDS)
    model, ref = PoissonRegressor(cfg), PoissonRegressor(cfg)
    rng = np.random.default_rng(9)
    for step in range(300):
        features = first_k_features(rng, aux=step % 2)
        rates, _, _ = reference_forward(ref, *features)
        assert model.forward(*features) == float(rates[0]), step
        assert len(model._rows) <= 2
        label = float(rng.poisson(1.0))
        assert model.train_step(*features, label) == reference_step(
            ref, *features, label), step
    assert np.array_equal(model.params, ref.params)


def test_pass_after_a_memo_clear_gives_the_same_bits(monkeypatch):
    # with a memo of two entries, every pass of three pairs clears it on
    # the way and leaves some of its pairs out, so that the next pass looks
    # them up again; the passes give the bits of a model whose memo holds
    # them all
    cfg = small_config(categorical_fields=REF_FIELDS)
    categorical = [("campaign", "c1"), ("segment", "s1"), ("site", "x")]
    ref = PoissonRegressor(cfg)
    expect = [(bits(ref.forward(categorical)),
               bits(ref.train_step(categorical, (), 2.0))) for _ in range(3)]
    monkeypatch.setattr(regressor, "ROW_MEMO_SIZE", 2)
    model = PoissonRegressor(cfg)
    memos = []
    for want in expect:
        assert (bits(model.forward(categorical)),
                bits(model.train_step(categorical, (), 2.0))) == want
        memos.append(list(model._rows))
    assert memos[0] == [("segment", "s1"), ("site", "x")]
    assert all(len(memo) == 2 for memo in memos)
    assert model.params.tobytes() == ref.params.tobytes()
    assert model.g2.tobytes() == ref.g2.tobytes()


# -- numeric slots ----------------------------------------------------------------

def test_zero_numeric_values_keep_their_sign():
    # 0.0 and -0.0 compare equal; each pass writes its own zero's bits
    model = PoissonRegressor(small_config())
    for value in (0.0, -0.0, 0.0):
        model.forward(*fv(aux=value))
        assert bits(model._input[AUX_SLOT]) == bits(value)


def test_params_and_g2_are_written_in_place_never_rebound(tmp_path):
    # the compiled passes hold the buffers' addresses: a rebound array
    # would leave them on the old one
    model = PoissonRegressor(small_config())
    params, g2 = model.params, model.g2
    for name in ("params", "g2"):
        with pytest.raises(AttributeError):
            setattr(model, name, np.zeros_like(params))
        with pytest.raises(AttributeError):
            delattr(model, name)
    assert model.params is params and model.g2 is g2
    # writes in place, as `load` makes them, reach the passes
    model.params[:] = 0.0
    assert model.forward(*fv(aux=1.0)) == 1.0
    model.params[-1] = math.log(0.5)
    assert model.forward(*fv(aux=1.0)) == kernel.exp(math.log(0.5))
    path = tmp_path / "model.ckpt"
    model.save(path)
    assert PoissonRegressor.load(path).forward(*fv(aux=1.0)) == model.forward(
        *fv(aux=1.0))


# -- the serving forward --------------------------------------------------------

SERVING_FIELDS = ("campaign", "segment", "context")


def bits(x) -> bytes:
    return struct.pack("<d", x)


def prediction(out) -> float:
    """A forward's scalar prediction, as serving takes it: the rate, or
    rate_plus - rate_minus."""
    return out[0] - out[1] if isinstance(out, tuple) else out


def read_layouts():
    """The one-window layout, Proposed's f_0 layout (an aux field and an
    aux numeric feature) and a two-output one, each with two hidden layers
    so that a forward applies ReLU in place."""
    base = small_config(categorical_fields=SERVING_FIELDS, numeric_features=(),
                        hidden_layer_sizes=(6, 5), hash_buckets_per_field=8)
    aux = replace(base, categorical_fields=SERVING_FIELDS + ("aux_count",),
                  numeric_features=("aux_label_so_far",))
    return {"one_window": base, "proposed_f0": aux,
            "two_output": replace(aux, two_output_mode=True)}


def serving_tuple(rng, fields, k):
    return tuple((f, f"t{rng.integers(5)}") for f in fields[:k])


def trained_model(cfg, rng, steps=30):
    model = PoissonRegressor(cfg)
    for _ in range(steps):
        categorical = list(serving_tuple(rng, cfg.categorical_fields,
                                         len(cfg.categorical_fields)))
        numeric = [(n, 2.0) for n in cfg.numeric_features]
        label = (1.0, 0.5) if cfg.two_output_mode else 1.0
        model.train_step(categorical, numeric, label)
    return model


def reference_predict(model, categorical, numeric=()) -> float:
    """The scalar prediction of `reference_forward`, whose input vector is
    built afresh."""
    rates = [float(r) for r in reference_forward(model, categorical, numeric)[0]]
    return rates[0] if len(rates) == 1 else rates[0] - rates[1]


@pytest.mark.parametrize("layout", sorted(read_layouts()))
def test_read_equals_predict(layout):
    cfg = read_layouts()[layout]
    rng = np.random.default_rng(21)
    model = trained_model(cfg, rng)
    nf = len(cfg.categorical_fields)
    # k = 3 is the serving tuple; on the aux layout k = 4 fills the aux slot
    for k in sorted({3, nf}) * 20:
        categorical = serving_tuple(rng, cfg.categorical_fields, k)
        got = prediction(model.forward(categorical))
        assert bits(got) == bits(reference_predict(model, categorical))


@pytest.mark.parametrize("layout", ["proposed_f0", "two_output"])
def test_read_after_an_aux_step_sees_no_numeric_feature(layout):
    # serving forwards share the input vector that the aux step and the aux
    # forward filled, so each is held to the reference, which builds its own
    cfg = read_layouts()[layout]
    rng = np.random.default_rng(24)
    model = trained_model(cfg, rng, steps=5)
    nf = len(cfg.categorical_fields)
    for _ in range(20):
        full = list(serving_tuple(rng, cfg.categorical_fields, nf))
        aux = [("aux_label_so_far", 3.0)]
        model.train_step(full, aux, (1.0, 2.0) if cfg.two_output_mode else 2.0)
        served = serving_tuple(rng, cfg.categorical_fields, 3)
        expect = bits(reference_predict(model, served))
        assert bits(prediction(model.forward(served))) == expect
        model.forward(full, aux)
        assert bits(prediction(model.forward(served))) == expect


@pytest.mark.parametrize("layout", sorted(read_layouts()))
def test_read_interleaved_with_forward_and_training(layout):
    cfg = read_layouts()[layout]
    rng = np.random.default_rng(22)
    model = trained_model(cfg, rng, steps=5)
    nf = len(cfg.categorical_fields)

    def served_right(categorical):
        return (bits(prediction(model.forward(categorical)))
                == bits(reference_predict(model, categorical)))

    for step in range(200):
        # k falls as often as it rises, so a slot left by a longer forward
        # would show
        k = int(rng.integers(nf + 1))
        categorical = serving_tuple(rng, cfg.categorical_fields, k)
        assert served_right(categorical), step
        action = rng.integers(3)
        if action == 0:
            model.forward(categorical, [(n, 3.0) for n in cfg.numeric_features])
        elif action == 1:
            label = (1.0, 2.0) if cfg.two_output_mode else 2.0
            model.train_step(categorical, (), label)
    full = serving_tuple(rng, cfg.categorical_fields, 3)
    model.forward(full)
    assert served_right(full[:2])
    assert served_right(())


# every input that is not the first k declared fields, in declared order,
# each once, with the field and position each refusal names
NON_CANONICAL = pytest.mark.parametrize("categorical,bad", [
    ((("segment", "s"), ("campaign", "c"), ("context", "x")), "'segment' at position 0"),
    ((("campaign", "c"), ("campaign", "d"), ("segment", "s")), "'campaign' at position 1"),
    ((("campaign", "c"), ("segment", "s"), ("segment", "s")), "'segment' at position 2"),
    ((("campaign", "c"), ("context", "x")), "'context' at position 1"),
    ((("segment", "s"),), "'segment' at position 0"),
], ids=["out_of_order", "repeated", "repeated_last", "absent_middle",
        "absent_first"])


@NON_CANONICAL
def test_read_falls_back_to_predict(categorical, bad):
    # a serving forward refuses what a training step refuses, with the
    # same message
    cfg = read_layouts()["proposed_f0"]
    model = trained_model(cfg, np.random.default_rng(23))
    full = (("campaign", "c"), ("segment", "s"), ("context", "x"))
    model.forward(full)
    with pytest.raises(ContractViolation, match=bad) as refused:
        model.forward(categorical)
    with pytest.raises(ContractViolation) as stepped:
        model.train_step(categorical, (), 1.0)
    assert str(refused.value) == str(stepped.value)
    # and the next forward in shape is still right
    served = full[:1]
    assert bits(model.forward(served)) == bits(reference_predict(model, served))


@NON_CANONICAL
def test_non_canonical_input_is_refused_by_every_pass(categorical, bad):
    cfg = read_layouts()["proposed_f0"]
    stack = RegressorStack(cfg, [3, 4])
    rng = np.random.default_rng(25)
    for m in stack.models:
        m.params[:] = rng.normal(0.0, 0.3, m.params.size)
    model = stack.models[0]
    # a full aux input first, so that every slot of the input vector is set
    full = [*serving_tuple(rng, cfg.categorical_fields, 4)]
    model.forward(full, [("aux_label_so_far", 2.0)])
    numeric = [("aux_label_so_far", 3.0)]

    def state():
        buffers = [b for m in stack.models for b in (m.params, m.g2)]
        return [b.tobytes() for b in (*buffers, model._input)]
    before = state()
    passes = [
        lambda: model.forward(categorical),
        lambda: model.forward(categorical, numeric),
        lambda: model.train_step(categorical, numeric, 1.0),
        lambda: stack.read(categorical),
    ]
    for run in passes:
        with pytest.raises(ContractViolation, match=bad):
            run()
        assert state() == before
    served = full[:3]
    assert bits(model.forward(served)) == bits(reference_predict(model, served))


@pytest.mark.parametrize("categorical", [
    (("nope", "x"),),
    (("campaign", "c"), ("nope", "x")),
    (("campaign", "c"), ("segment", "s"), ("context", "x"), ("nope", "x")),
])
def test_read_of_an_unknown_field_raises_on_every_call(categorical):
    model = PoissonRegressor(read_layouts()["one_window"])
    for _ in range(3):
        with pytest.raises(ContractViolation, match="nope"):
            model.forward(categorical)
    assert ("nope", "x") not in model._rows
