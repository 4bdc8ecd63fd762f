import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from delayfeed import regressor
from delayfeed.core import ContractViolation
from delayfeed.regressor import (
    FeatureVector,
    PoissonRegressor,
    RegressorConfig,
    RegressorStack,
    adagrad_update,
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
        rng_seed=7,
    )
    defaults.update(kw)
    return RegressorConfig(**defaults)


def fv(campaign="c1", segment="s1", aux=None):
    numeric = [] if aux is None else [("aux", aux)]
    return FeatureVector(
        categorical=[("campaign", campaign), ("segment", segment)],
        numeric=numeric,
    )


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
        assert model.forward(fv()) == pytest.approx(2.0)

    def test_accumulators_zero_at_init(self):
        model = PoissonRegressor(small_config())
        for g2 in model.weight_g2 + model.bias_g2 + list(model.embedding_g2.values()):
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


class TestForward:
    def test_rate_positive(self):
        model = PoissonRegressor(small_config())
        for c in ("a", "b", "weird token"):
            assert model.forward(fv(campaign=c, aux=3.0)) > 0

    def test_deterministic(self):
        model = PoissonRegressor(small_config())
        assert model.forward(fv(aux=2.0)) == model.forward(fv(aux=2.0))

    def test_zeroed_network_constant(self):
        model = PoissonRegressor(small_config(output_bias_init=0.3))
        zero_weights(model)
        for c in ("x", "y"):
            assert model.forward(fv(campaign=c, aux=5.0)) == pytest.approx(
                math.exp(0.3)
            )

    def test_unknown_field_rejected(self):
        model = PoissonRegressor(small_config())
        with pytest.raises(ContractViolation):
            model.forward(FeatureVector(categorical=[("nope", "x")]))
        with pytest.raises(ContractViolation):
            model.forward(FeatureVector(categorical=[], numeric=[("nope", 1.0)]))

    def test_hash_stability(self):
        assert hash_token("f", "tok", 4096) == hash_token("f", "tok", 4096)
        assert hash_token("f", "tok", 4096) < 4096

    def test_two_output_signed_decomposition(self):
        model = PoissonRegressor(small_config(two_output_mode=True))
        plus, minus = model.forward(fv(aux=1.0))
        assert plus > 0 and minus > 0
        assert model.predict(fv(aux=1.0)) == plus - minus


class TestTrainStep:
    def test_first_adagrad_step_scalar(self):
        # w=0, g=1, lr=0.1, eps=0 -> w = -0.1
        w = np.array([0.0])
        g2 = np.array([0.0])
        adagrad_update(w, g2, np.array([1.0]), lr=0.1, eps=0.0)
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
        empty = FeatureVector(categorical=[])
        rate = None
        for step in range(5000):
            model.train_step(empty, 3.0)
            rate = model.forward(empty)
            if abs(rate - 3.0) < 0.01:
                break
        assert abs(rate - 3.0) < 0.01, f"no convergence, final rate {rate}"

    def test_returns_pre_update_loss(self):
        model = PoissonRegressor(small_config(output_bias_init=0.0))
        zero_weights(model)
        loss = model.train_step(fv(aux=0.0), 2.0)
        # rate was exactly 1.0 before the step
        assert loss == pytest.approx(1.0 - 2.0 * math.log(1.0))

    def test_negative_label_rejected_single_output(self):
        model = PoissonRegressor(small_config())
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ContractViolation):
                model.train_step(fv(), bad)

    def test_two_output_label_pair(self):
        model = PoissonRegressor(small_config(two_output_mode=True))
        loss = model.train_step(fv(aux=1.0), (2.0, 0.5))
        assert math.isfinite(loss)
        for bad in ((1.0, -0.5), (math.nan, 1.0), (1.0, math.inf)):
            with pytest.raises(ContractViolation):
                model.train_step(fv(), bad)

    def test_failing_step_leaves_no_partial_update(self):
        # the loss and the dense gradients stay finite, but the gradient
        # reaching the embedding row overflows through weights[0][0, 0]
        model = PoissonRegressor(small_config(
            categorical_fields=("campaign",), numeric_features=(),
            hidden_layer_sizes=(),
        ))
        features = FeatureVector(categorical=[("campaign", "c1")])
        row = hash_token("campaign", "c1", model.config.hash_buckets_per_field)
        model.embeddings["campaign"][row, 0] = 0.0
        model.weights[0][0, 0] = 1e300
        params, g2 = model.params.copy(), model.g2.copy()
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            model.train_step(features, 1e9)
        assert np.array_equal(model.params, params)
        assert np.array_equal(model.g2, g2)

    def test_gradients_match_finite_differences(self):
        model = PoissonRegressor(small_config())
        features = fv(campaign="c9", segment="s2", aux=2.5)
        label = 3.0
        loss, w_grads, b_grads, emb_grads = model.gradients(features, label)

        def numeric_grad(arr, idx):
            h = 1e-6
            orig = arr[idx]
            arr[idx] = orig + h
            up, _, _, _ = model.gradients(features, label)
            arr[idx] = orig - h
            dn, _, _, _ = model.gradients(features, label)
            arr[idx] = orig
            return (up - dn) / (2 * h)

        rng = np.random.default_rng(0)
        for layer, (wg, bg) in enumerate(zip(w_grads, b_grads)):
            w = model.weights[layer]
            for _ in range(10):
                idx = (rng.integers(w.shape[0]), rng.integers(w.shape[1]))
                fd = numeric_grad(w, idx)
                assert fd == pytest.approx(wg[idx], rel=1e-3, abs=1e-8)
            idx = (rng.integers(model.biases[layer].shape[0]),)
            fd = numeric_grad(model.biases[layer], idx)
            assert fd == pytest.approx(bg[idx[0]], rel=1e-3, abs=1e-8)
        for (field_id, row), g in emb_grads.items():
            table = model.embeddings[field_id]
            for col in range(g.shape[0]):
                fd = numeric_grad(table, (row, col))
                assert fd == pytest.approx(g[col], rel=1e-3, abs=1e-8)


class TestInvariants:
    def test_sparse_update_locality(self):
        model = PoissonRegressor(small_config())
        touched = {
            (f, hash_token(f, t, model.config.hash_buckets_per_field))
            for f, t in fv(aux=1.0).categorical
        }
        before = {f: model.embeddings[f].copy() for f in FIELDS}
        model.train_step(fv(aux=1.0), 2.0)
        for f in FIELDS:
            diff_rows = np.where(
                np.any(model.embeddings[f] != before[f], axis=1)
            )[0]
            assert set(diff_rows) <= {r for ff, r in touched if ff == f}

    def test_accumulators_never_decrease_fuzz(self):
        model = PoissonRegressor(small_config())
        rng = np.random.default_rng(3)
        prev = [g2.copy() for g2 in model.weight_g2 + model.bias_g2]
        prev_emb = {f: g2.copy() for f, g2 in model.embedding_g2.items()}
        for step in range(10_000):
            features = fv(
                campaign=f"c{rng.integers(40)}",
                segment=f"s{rng.integers(5)}",
                aux=float(rng.exponential(1.0)),
            )
            model.train_step(features, float(rng.poisson(0.7)))
            if step % 500 == 0:
                cur = model.weight_g2 + model.bias_g2
                for p, c in zip(prev, cur):
                    assert np.all(c >= p - 1e-15)
                prev = [g2.copy() for g2 in cur]
                for f, g2 in model.embedding_g2.items():
                    assert np.all(g2 >= prev_emb[f] - 1e-15)
                    prev_emb[f] = g2.copy()
        for p in model.weights + model.biases:
            assert np.all(np.isfinite(p))

    def test_zero_learning_rate_is_noop(self):
        model = PoissonRegressor(small_config(learning_rate=0.0))
        before_out = model.forward(fv(aux=1.0))
        before = [p.copy() for p in all_params(model)]
        model.train_step(fv(aux=1.0), 5.0)
        for p, b in zip(all_params(model), before):
            assert np.array_equal(p, b)
        assert model.forward(fv(aux=1.0)) == before_out


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        model = PoissonRegressor(small_config())
        for _ in range(20):
            model.train_step(fv(aux=1.0), 2.0)
        path = tmp_path / "model.ckpt"
        model.save(path)
        loaded = PoissonRegressor.load(path)
        assert loaded.config == model.config
        assert np.array_equal(loaded.params, model.params)
        assert np.array_equal(loaded.g2, model.g2)
        assert loaded.forward(fv(aux=1.0)) == model.forward(fv(aux=1.0))

    @pytest.mark.parametrize("edit", [lambda b: b[:-1], lambda b: b + b"\0"],
                             ids=["truncated", "appended"])
    def test_rejects_wrong_length(self, tmp_path, edit):
        path = tmp_path / "model.ckpt"
        PoissonRegressor(small_config()).save(path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError):
            PoissonRegressor.load(path)

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


# -- reference step ----------------------------------------------------------
# The straightforward form of one training step: zeros plus one slice-add per
# lookup, `@`, np.clip, broadcast outer products and one AdaGrad update per
# parameter array. PoissonRegressor computes the same arithmetic in fewer
# numpy calls and must match it bit for bit.

def reference_adagrad(param, accum, grad, lr, eps):
    accum += grad * grad
    param -= lr * grad / (np.sqrt(accum) + eps)


def reference_forward(model, features):
    cfg = model.config
    d = cfg.embedding_dim
    x = np.zeros(model.input_dim)
    lookups = []
    for field_id, token in features.categorical:
        off = cfg.categorical_fields.index(field_id) * d
        row = hash_token(field_id, token, cfg.hash_buckets_per_field)
        x[off : off + d] += model.embeddings[field_id][row]
        lookups.append((field_id, row, off))
    base = d * len(cfg.categorical_fields)
    for name, value in features.numeric:
        idx = cfg.numeric_features.index(name)
        x[base + idx] = math.copysign(math.log1p(abs(value)), value)
    activations = [x]
    h = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w + b
        if i < last:
            h = np.maximum(h, 0.0)
        activations.append(h)
    return np.exp(np.clip(h, -30.0, 30.0)), activations, lookups


def reference_step(model, features, label):
    y = np.array(label, dtype=float).reshape(-1)
    rates, activations, lookups = reference_forward(model, features)
    loss = float(np.sum(rates - y * np.log(rates)))
    grad = rates - y
    n = len(model.weights)
    w_grads, b_grads = [None] * n, [None] * n
    for i in range(n - 1, -1, -1):
        w_grads[i] = activations[i][:, None] * grad
        b_grads[i] = grad.copy()
        grad = model.weights[i] @ grad
        if i > 0:
            grad = grad * (activations[i] > 0.0)
    d = model.config.embedding_dim
    emb_grads = {}
    for field_id, row, off in lookups:
        g = grad[off : off + d]
        key = (field_id, row)
        emb_grads[key] = emb_grads[key] + g if key in emb_grads else g
    lr, eps = model.config.learning_rate, model.config.adagrad_epsilon
    for p, a, g in zip(model.weights + model.biases,
                       model.weight_g2 + model.bias_g2, w_grads + b_grads):
        reference_adagrad(p, a, g, lr, eps)
    for (field_id, row), g in emb_grads.items():
        reference_adagrad(model.embeddings[field_id][row],
                          model.embedding_g2[field_id][row], g, lr, eps)
    return loss


REF_FIELDS = ("campaign", "segment", "site")


def random_features(rng):
    """Each field looked up 0 to 3 times (same or different token, few
    buckets so rows collide), in shuffled order, with or without aux."""
    categorical = []
    for f in REF_FIELDS:
        for _ in range(rng.choice(4, p=[0.15, 0.55, 0.2, 0.1])):
            categorical.append((f, f"t{rng.integers(6)}"))
    rng.shuffle(categorical)
    numeric = []
    if rng.random() < 0.8:
        numeric.append(("aux", float(rng.normal(0.0, 3.0))))
    return FeatureVector(categorical=categorical, numeric=numeric)


@pytest.mark.parametrize("two_output", [False, True], ids=["single", "two"])
def test_step_matches_reference_bit_for_bit(two_output):
    cfg = small_config(categorical_fields=REF_FIELDS, embedding_dim=4,
                       hash_buckets_per_field=4, hidden_layer_sizes=(6, 5),
                       two_output_mode=two_output)
    model, ref = PoissonRegressor(cfg), PoissonRegressor(cfg)
    rng = np.random.default_rng(21)
    for step in range(2000):
        features = random_features(rng)
        if two_output:
            label = (float(rng.poisson(1.0)), float(rng.poisson(0.3)))
        else:
            label = float(rng.poisson(1.2))
        rates, _, _ = reference_forward(ref, features)
        expect = tuple(float(r) for r in rates)
        got = model.forward(features)
        assert (got if two_output else (got,)) == expect, step
        assert model.train_step(features, label) == reference_step(
            ref, features, label
        ), step
    assert np.array_equal(model.params, ref.params)
    assert np.array_equal(model.g2, ref.g2)
    # log-rates beyond the stability clamp, both ways
    for bias in (-40.0, 40.0):
        model.biases[-1][:] = ref.biases[-1][:] = bias
        got = model.forward(features)
        rates, _, _ = reference_forward(ref, features)
        assert (got if two_output else (got,)) == tuple(float(r) for r in rates)


def test_repeated_lookup_updates_row_once_with_summed_gradient():
    model = PoissonRegressor(small_config())
    features = FeatureVector(
        categorical=[("campaign", "c1"), ("segment", "s1"), ("campaign", "c1")],
        numeric=[("aux", 1.0)],
    )
    buckets = model.config.hash_buckets_per_field
    crow = hash_token("campaign", "c1", buckets)
    srow = hash_token("segment", "s1", buckets)
    _, _, _, emb_grads = model.gradients(features, 3.0)
    assert set(emb_grads) == {("campaign", crow), ("segment", srow)}
    g = emb_grads[("campaign", crow)]

    # the reported gradient is that of the row, which both lookups read
    table = model.embeddings["campaign"]
    for col in range(g.shape[0]):
        orig, h = table[crow, col], 1e-6
        table[crow, col] = orig + h
        up = model.gradients(features, 3.0)[0]
        table[crow, col] = orig - h
        dn = model.gradients(features, 3.0)[0]
        table[crow, col] = orig
        assert (up - dn) / (2 * h) == pytest.approx(g[col], rel=1e-3, abs=1e-8)

    row, acc = table[crow].copy(), model.embedding_g2["campaign"][crow].copy()
    before = {f: t.copy() for f, t in model.embeddings.items()}
    model.train_step(features, 3.0)
    expect_row, expect_acc = row.copy(), acc.copy()
    reference_adagrad(expect_row, expect_acc, g, model.config.learning_rate,
                      model.config.adagrad_epsilon)
    assert np.array_equal(table[crow], expect_row)
    assert np.array_equal(model.embedding_g2["campaign"][crow], expect_acc)
    for f, t in model.embeddings.items():
        changed = set(np.where(np.any(t != before[f], axis=1))[0])
        assert changed == {crow if f == "campaign" else srow}


# -- stacked models ----------------------------------------------------------

def test_stack_row_is_an_ordinary_model(tmp_path):
    cfg = small_config()
    seeds = [7, 8, 9]
    stack = RegressorStack(cfg, seeds)
    assert stack.params.shape == stack.g2.shape == (3, stack.models[0].params.size)
    for r, (seed, model) in enumerate(zip(seeds, stack.models)):
        alone = PoissonRegressor(replace(cfg, rng_seed=seed))
        assert model.config == alone.config
        assert np.array_equal(model.params, alone.params)
        assert np.array_equal(model.g2, alone.g2)
        assert np.shares_memory(model.params, stack.params[r])
        assert np.shares_memory(model.g2, stack.g2[r])
    # steps on row 1 match a separately allocated model and touch no other row
    row1, alone = stack.models[1], PoissonRegressor(replace(cfg, rng_seed=8))
    others = stack.params[[0, 2]].copy(), stack.g2[[0, 2]].copy()
    rng = np.random.default_rng(4)
    for _ in range(50):
        features = fv(campaign=f"c{rng.integers(6)}", aux=float(rng.exponential()))
        label = float(rng.poisson(1.0))
        assert row1.train_step(features, label) == alone.train_step(features, label)
    assert np.array_equal(row1.params, alone.params)
    assert np.array_equal(row1.g2, alone.g2)
    assert np.array_equal(stack.params[[0, 2]], others[0])
    assert np.array_equal(stack.g2[[0, 2]], others[1])
    path = tmp_path / "row.ckpt"
    row1.save(path)
    loaded = PoissonRegressor.load(path)
    assert np.array_equal(loaded.params, row1.params)
    assert np.array_equal(loaded.g2, row1.g2)


@pytest.mark.parametrize("bad", [
    lambda n: np.zeros(n + 1),
    lambda n: np.zeros(n, dtype=np.float32),
    lambda n: np.zeros(2 * n)[::2],
], ids=["size", "dtype", "strided"])
def test_model_rejects_unusable_state_buffer(bad):
    cfg = small_config()
    n = PoissonRegressor(cfg).params.size
    with pytest.raises(ValueError):
        PoissonRegressor(cfg, params=bad(n))
    with pytest.raises(ValueError):
        PoissonRegressor(cfg, g2=bad(n))


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
    stack.params[...] = rng.normal(0.0, 0.5, stack.params.shape)
    # log-rates beyond the stability clamp, both ways
    stack.models[0].biases[-1][:] = -40.0
    stack.models[1].biases[-1][:] = 40.0
    for step in range(300):
        features = random_features(rng)
        calls = [m.forward_calls for m in stack.models]
        rates = stack.forward(features)
        assert [m.forward_calls for m in stack.models] == [c + 1 for c in calls]
        for model, row in zip(stack.models, rates.tolist()):
            got = model.forward(features)
            assert tuple(row) == (got if two_output else (got,)), step


# -- the step's finiteness check ----------------------------------------------

def inject(model, where, values):
    """Make each backward pass of `model` write `values` into entries of
    one gradient: a weight's, a bias's or the embedding rows'. Returns a
    dict that receives copies of the gradients the step then sees."""
    seen = {}
    real = model._gradients

    def gradients(features, label):
        loss, rows, emb_grads = real(features, label)
        target = {"weight": model._weight_grads[0][1],
                  "bias": model._bias_grads[0],
                  "embedding": emb_grads[1]}[where]
        target[: len(values)] = values
        seen.update(dense=model._grad.copy(), rows=rows.copy(),
                    emb=emb_grads.copy())
        return loss, rows, emb_grads

    model._gradients = gradients
    return seen


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan],
                         ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("where", ["weight", "bias", "embedding"])
def test_non_finite_gradient_is_refused_without_a_warning(where, value):
    model = PoissonRegressor(small_config())
    inject(model, where, [value])
    params, g2 = model.params.copy(), model.g2.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError):
            model.train_step(fv(aux=1.0), 2.0)
    assert np.array_equal(model.params, params)
    assert np.array_equal(model.g2, g2)


@pytest.mark.parametrize("values", [(1e300, -1e300), (1.7e308, 1.7e308)],
                         ids=["square-overflows", "sum-overflows"])
@pytest.mark.parametrize("where", ["weight", "bias", "embedding"])
def test_finite_extreme_gradient_is_applied(where, values):
    model = PoissonRegressor(small_config())
    seen = inject(model, where, values)
    params, g2 = model.params.copy(), model.g2.copy()
    with np.errstate(over="ignore"):
        model.train_step(fv(aux=1.0), 2.0)
        # the update of the gradients the step saw, one parameter array
        # at a time
        n_emb = params.size - seen["dense"].size
        lr, eps = model.config.learning_rate, model.config.adagrad_epsilon
        reference_adagrad(params[n_emb:], g2[n_emb:], seen["dense"], lr, eps)
        d = model.config.embedding_dim
        emb, emb_g2 = params[:n_emb].reshape(-1, d), g2[:n_emb].reshape(-1, d)
        for row, g in zip(seen["rows"], seen["emb"]):
            reference_adagrad(emb[row], emb_g2[row], g, lr, eps)
    assert np.isinf(model.g2).any()
    assert np.array_equal(model.params, params)
    assert np.array_equal(model.g2, g2)


# -- (field, token) row memo ----------------------------------------------------

def expected_lookup(model, pair):
    field_id, token = pair
    fi = model.config.categorical_fields.index(field_id)
    buckets = model.config.hash_buckets_per_field
    return fi, fi * buckets + hash_token(field_id, token, buckets)


def lookups(model, features):
    return model._forward_cached(features, model._views)[2]


def test_unknown_field_raises_on_every_call():
    model = PoissonRegressor(small_config())
    bad = FeatureVector(categorical=[("campaign", "c1"), ("nope", "x")])
    for _ in range(3):
        with pytest.raises(ContractViolation, match="nope"):
            model.forward(bad)
        with pytest.raises(ContractViolation, match="nope"):
            model.train_step(bad, 1.0)
    assert ("nope", "x") not in model._rows
    assert ("campaign", "c1") in model._rows


def test_layouts_map_a_pair_to_their_own_rows():
    a = PoissonRegressor(small_config())
    b = PoissonRegressor(small_config(categorical_fields=("segment", "campaign")))
    c = PoissonRegressor(small_config(hash_buckets_per_field=32))
    same = PoissonRegressor(small_config(rng_seed=8, hidden_layer_sizes=(4, 4)))
    assert same._rows is a._rows
    assert len({id(m._rows) for m in (a, b, c)}) == 3
    pairs = [("campaign", "c1"), ("segment", "s1"), ("campaign", "c9")]
    # interleaved, so that one memo for all would hand one layout's rows
    # to the next
    for _ in range(2):
        for model in (a, b, c):
            for pair in pairs:
                features = FeatureVector(categorical=[pair], numeric=[("aux", 1.0)])
                assert lookups(model, features) == [expected_lookup(model, pair)]
                rates, _, _ = reference_forward(model, features)
                assert model.forward(features) == float(rates[0])
    # the second field's rows start at one table's length
    assert expected_lookup(a, pairs[0]) != expected_lookup(b, pairs[0])
    assert expected_lookup(a, pairs[1]) != expected_lookup(c, pairs[1])


def test_stack_models_share_a_memo_that_agrees_with_hash_token():
    cfg = small_config(categorical_fields=REF_FIELDS, hash_buckets_per_field=4)
    stack = RegressorStack(cfg, [3, 4, 5])
    assert all(m._rows is stack.models[0]._rows for m in stack.models)
    rng = np.random.default_rng(8)
    for _ in range(200):
        features = random_features(rng)
        expect = [expected_lookup(stack.models[0], p) for p in features.categorical]
        for model in stack.models:
            assert lookups(model, features) == expect


def test_full_memo_is_cleared_and_rows_stay_right(monkeypatch):
    monkeypatch.setattr(regressor, "ROW_MEMO_SIZE", 2)
    cfg = small_config(categorical_fields=REF_FIELDS)
    model, ref = PoissonRegressor(cfg), PoissonRegressor(cfg)
    rng = np.random.default_rng(9)
    for step in range(300):
        features = random_features(rng)
        rates, _, _ = reference_forward(ref, features)
        assert model.forward(features) == float(rates[0]), step
        assert len(model._rows) <= 2
        label = float(rng.poisson(1.0))
        assert model.train_step(features, label) == reference_step(
            ref, features, label), step
    assert np.array_equal(model.params, ref.params)
