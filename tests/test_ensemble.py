import math

import numpy as np
import pytest

from delayfeed.core import (
    DAY,
    ContractViolation,
    DelayBucketing,
    mature_label,
    slice_label,
)
from delayfeed.ensemble import (
    BUCKET,
    THERMOMETER,
    SubModelEnsemble,
    VariantSpec,
    aux_count_token,
)
from delayfeed.regressor import FeatureVector, RegressorConfig

from test_core import make_example

M = 30 * DAY
BUCKETING = DelayBucketing(boundaries=(1 * DAY, 7 * DAY), attribution_window=M)

BASE_RC = RegressorConfig(
    categorical_fields=("campaign",),
    embedding_dim=3,
    hash_buckets_per_field=16,
    hidden_layer_sizes=(4,),
    rng_seed=11,
)


def make_ensemble(encoding=THERMOMETER, use_aux=True, two_output=False,
                  bucketing=BUCKETING):
    rc = BASE_RC
    if two_output:
        rc = RegressorConfig(
            **{**rc.__dict__, "two_output_mode": True}
        )
    return SubModelEnsemble(VariantSpec(
        "Proposed", rc, bucketing.windows, encoding=encoding, use_aux=use_aux,
    ))


def zero_to_bias(model, bias):
    for f in model.embeddings:
        model.embeddings[f][:] = 0.0
    for w in model.weights:
        w[:] = 0.0
    for b in model.biases:
        b[:] = 0.0
    model.biases[-1][:] = bias


class TestConfig:
    def test_bucket_with_aux_rejected(self):
        with pytest.raises(ValueError, match="cannot use aux"):
            VariantSpec("M4", BASE_RC, BUCKETING.windows, encoding=BUCKET,
                        use_aux=True)

    # bucket encoding with aux: test_bucket_with_aux_rejected
    @pytest.mark.parametrize("windows,options,match", [
        (BUCKETING.windows, {"encoding": "thermo"}, "unknown encoding"),
        ((), {}, "at least one window"),
        (((1 * DAY, 7 * DAY), (0.0, 1 * DAY)), {}, "ascending"),
        (((0.0, 2 * DAY), (1 * DAY, 7 * DAY)), {}, "disjoint"),
        (((0.0, 7 * DAY), (1 * DAY, 2 * DAY)), {}, "disjoint"),
        (((2 * DAY, 1 * DAY),), {}, "lo <= hi"),
        (((0.0, math.nan),), {}, "finite"),
        (((math.nan, 1 * DAY),), {}, "finite"),
        (((0.0, 1 * DAY), (1 * DAY, math.nan)), {}, "finite"),
        (((0.0, math.inf),), {}, "finite"),
        (((-1.0, 1 * DAY),), {}, "0 <= lo"),
        (BUCKETING.windows, {"mature_label": True}, "exactly one"),
    ], ids=["unknown-encoding", "no-windows",
            "descending", "overlapping", "nested", "lo-above-hi", "nan-hi",
            "nan-lo", "nan-last-hi", "inf-hi", "negative-lo",
            "mature-label-with-three-windows"])
    def test_spec_rejects(self, windows, options, match):
        with pytest.raises(ValueError, match=match):
            VariantSpec("probe", BASE_RC, windows, **options)

    def test_spec_keeps_windows_as_tuples(self):
        spec = VariantSpec("probe", BASE_RC, [[0.0, 1 * DAY], [1 * DAY, M]])
        assert spec.windows == ((0.0, 1 * DAY), (1 * DAY, M))
        assert spec.use_aux is False and spec.mature_label is False

    def test_sub_model_count(self):
        ens = make_ensemble()
        assert len(ens.sub_models) == len(BUCKETING.windows) == 3

    def test_sub_model_seeds(self):
        spec = VariantSpec("probe", BASE_RC, BUCKETING.windows)
        ens = SubModelEnsemble(spec, seed_offset=101)
        assert ens.spec is spec
        assert [m.config.rng_seed for m in ens.sub_models] == [
            BASE_RC.rng_seed + 101 + i for i in range(3)]

    def test_sub_models_share_no_parameters(self):
        ens = make_ensemble()
        buffers = [b for m in ens.sub_models for b in (m.params, m.g2)]
        for i, a in enumerate(buffers):
            for b in buffers[i + 1:]:
                assert not np.shares_memory(a, b)
        # each sub-model's state is its row of the ensemble's two buffers
        n = len(BUCKETING.windows)
        assert ens.stack.params.shape == ens.stack.g2.shape
        assert ens.stack.params.shape[0] == n
        for i, m in enumerate(ens.sub_models):
            assert np.shares_memory(m.params, ens.stack.params[i])
            assert np.shares_memory(m.g2, ens.stack.g2[i])

    def test_failing_step_leaves_every_row_unchanged(self):
        ens = make_ensemble(encoding=BUCKET, use_aux=False)
        fv = FeatureVector(categorical=make_example([]).serving_features)
        for m in ens.sub_models:
            m.train_step(fv, 1.0)
        # the output gradient overflows on its way back through these
        # weights, so the step is refused
        ens.sub_models[1].weights[-1][:] = 1e300
        params, g2 = ens.stack.params.copy(), ens.stack.g2.copy()
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError):
            ens.sub_models[1].train_step(fv, 1.0)
        assert np.array_equal(ens.stack.params, params)
        assert np.array_equal(ens.stack.g2, g2)


class TestAuxFeatures:
    def test_zero_prefix(self):
        ens = make_ensemble()
        fv = ens.features_for(make_example([]), 1)
        assert fv.numeric == [("aux_label_so_far", 0.0)]
        assert fv.categorical == [("campaign", "0"), ("aux_count", "0")]

    def test_count_bucket_token(self):
        # the token set is {0, 1, 2, 3-4, 5-8, 9+}
        assert aux_count_token(3) == "3-4"
        assert aux_count_token(0) == "0"
        assert aux_count_token(1) == "1"
        assert aux_count_token(2) == "2"
        assert aux_count_token(4) == "3-4"
        assert aux_count_token(7) == "5-8"
        assert aux_count_token(9) == "9+"
        assert aux_count_token(42) == "9+"
        assert aux_count_token(-2) == "0"  # clamped
        ens = make_ensemble()
        fv = ens.features_for(make_example([0.1 * DAY] * 3 + [0.5 * DAY]), 1)
        assert fv.numeric == [("aux_label_so_far", 4.0)]
        assert fv.categorical[-1] == ("aux_count", "3-4")

    def test_uses_exactly_prefix_before_horizon(self):
        ens = make_ensemble()
        e1 = make_example([0.2 * DAY, 0.5 * DAY])
        e2 = make_example([0.2 * DAY, 0.5 * DAY, 1 * DAY, 5 * DAY])
        # aux for horizon index 1 (d_1 = 1d) ignores events at delay >= 1d
        assert ens.features_for(e1, 1) == ens.features_for(e2, 1)
        assert ens.features_for(e2, 1).numeric == [("aux_label_so_far", 2.0)]
        assert ens.features_for(e2, 2).numeric == [("aux_label_so_far", 4.0)]


class TestServe:
    def test_thermometer_single_forward(self):
        ens = make_ensemble()
        e = make_example([0.5 * DAY])
        before = [m.forward_calls for m in ens.sub_models]
        ens.serve(e)
        after = [m.forward_calls for m in ens.sub_models]
        assert after[0] == before[0] + 1
        assert after[1:] == before[1:]

    def test_bucket_sums_all_sub_models(self):
        ens = make_ensemble(encoding=BUCKET, use_aux=False)
        biases = [math.log(0.5), math.log(0.25), math.log(2.0)]
        for m, b in zip(ens.sub_models, biases):
            zero_to_bias(m, b)
        e = make_example([])
        assert ens.serve(e) == pytest.approx(sum(math.exp(b) for b in biases))
        assert all(m.forward_calls == 1 for m in ens.sub_models)

    def test_bucket_sum_is_left_to_right(self):
        # signed predictions (x, B, x, -B) with x below half an ulp of B:
        # left to right gives 0.0, a compensated sum (builtin sum() from
        # Python 3.12, math.fsum) gives 2x
        bucketing = DelayBucketing(boundaries=(1 * DAY, 3 * DAY, 7 * DAY),
                                   attribution_window=M)
        ens = make_ensemble(encoding=BUCKET, use_aux=False, two_output=True,
                            bucketing=bucketing)
        log_rates = [(-20.0, -30.0), (30.0, -30.0), (-20.0, -30.0), (-30.0, 30.0)]
        for m, bias in zip(ens.sub_models, log_rates):
            zero_to_bias(m, bias)
        e = make_example([])
        fv = FeatureVector(categorical=e.serving_features)
        preds = [m.predict(fv) for m in ens.sub_models]
        assert preds[0] == preds[2] > 0 and preds[3] == -preds[1]
        assert math.fsum(preds) == 2 * preds[0]
        assert ens.serve(e) == 0.0

    def test_serve_never_reads_events(self):
        ens = make_ensemble()
        with_events = make_example([0.1 * DAY, 2 * DAY, 20 * DAY])
        without = make_example([])
        assert ens.serve(with_events) == ens.serve(without)


class TestEstimateMatureLabel:
    def test_fully_mature_returns_exact_label(self):
        ens = make_ensemble()
        e = make_example([0.5 * DAY, 3 * DAY, 20 * DAY])
        assert ens.estimate_mature_label(e, e.click_time + M) == 3.0
        assert ens.estimate_mature_label(e, e.click_time + M + DAY) == 3.0

    def test_young_example_uses_f0_only(self):
        ens = make_ensemble()
        zero_to_bias(ens.sub_models[0], math.log(1.7))
        e = make_example([0.1 * DAY])
        got = ens.estimate_mature_label(e, e.click_time + 0.5 * DAY)
        # m = 0: no observed term, just f_0's rate
        assert got == pytest.approx(1.7)

    def test_intermediate_discards_events_past_boundary(self):
        ens = make_ensemble()
        zero_to_bias(ens.sub_models[1], math.log(0.9))
        # age 3d -> m = 1 (d_1 = 1d); the event at 2d is deliberately discarded
        e = make_example([0.5 * DAY, 2 * DAY])
        got = ens.estimate_mature_label(e, e.click_time + 3 * DAY)
        assert got == pytest.approx(1.0 + 0.9)

    def test_latest_window_start_at_each_boundary(self):
        # an age exactly at d_m already picks sub-model m and the prefix to d_m
        ens = make_ensemble()
        e = make_example([0.5 * DAY, 3 * DAY])
        for age, m, known in ((0.0, 0, 0.0), (0.5 * DAY, 0, 0.0),
                              (1 * DAY, 1, 1.0), (6 * DAY, 1, 1.0),
                              (7 * DAY, 2, 2.0), (29 * DAY, 2, 2.0)):
            got = ens.estimate_mature_label(
                e, e.click_time + age, tail_predictor=lambda ex, j: 10.0 * j
            )
            assert got == known + 10.0 * m, age

    def test_before_click_rejected(self):
        ens = make_ensemble()
        e = make_example([])
        with pytest.raises(ContractViolation):
            ens.estimate_mature_label(e, e.click_time - 1.0)

    def test_oracle_substitution_hook(self):
        ens = make_ensemble()
        e = make_example([0.5 * DAY])
        got = ens.estimate_mature_label(
            e, e.click_time + 2 * DAY, tail_predictor=lambda ex, m: 0.25
        )
        assert got == pytest.approx(1.0 + 0.25)


class TestTrainingSchedule:
    def test_table_read_off(self):
        ens = make_ensemble()
        e = make_example([])
        t = e.click_time
        assert ens.training_schedule(e) == [
            (t + 1 * DAY, 0),
            (t + 7 * DAY, 1),
            (t + M, 2),
        ]

    def test_length_and_monotone(self):
        bucketing = DelayBucketing(
            boundaries=(0.5 * DAY, 2 * DAY, 5 * DAY, 12 * DAY),
            attribution_window=M,
        )
        ens = make_ensemble(bucketing=bucketing)
        sched = ens.training_schedule(make_example([], m=M))
        assert len(sched) == len(bucketing.windows)
        times = [t for t, _ in sched]
        assert times == sorted(times)
        assert all(a < b for a, b in zip(times, times[1:]))


class TestTrainOn:
    def test_last_sub_model_pure_tail_no_completion(self):
        ens = make_ensemble()
        e = make_example([0.5 * DAY, 3 * DAY, 20 * DAY])
        before = [m.forward_calls for m in ens.sub_models]
        label = ens.training_label(e, 2)
        assert label == slice_label(e, 7 * DAY, M) == 1.0
        assert [m.forward_calls for m in ens.sub_models] == before

    def test_bias_only_completion(self):
        ens = make_ensemble()
        lam = 0.6
        zero_to_bias(ens.sub_models[2], math.log(lam))
        e = make_example([0.5 * DAY, 2 * DAY, 20 * DAY])
        # f_1's label: events in [1d, 7d) plus f_2's rate
        assert ens.training_label(e, 1) == pytest.approx(1.0 + lam)

    def test_cascade_telescoping(self):
        ens = make_ensemble()
        e = make_example([0.5 * DAY, 2 * DAY, 8 * DAY, 20 * DAY])
        slices = [slice_label(e, lo, hi) for lo, hi in BUCKETING.windows[:2]]
        tail = ens.training_label(e, 2)
        assert sum(slices) + tail == pytest.approx(mature_label(e))

    def test_maturity_filter_enforced(self):
        ens = make_ensemble()
        e = make_example([])
        with pytest.raises(ContractViolation):
            ens.train_on(e, 1, now=e.click_time + 2 * DAY)  # needs age 7d
        ens.train_on(e, 0, now=e.click_time + 1 * DAY)

    def test_training_isolation_between_sub_models(self):
        ens = make_ensemble()
        e = make_example([0.5 * DAY, 2 * DAY])
        snapshots = [(m.params.copy(), m.g2.copy()) for m in ens.sub_models]
        ens.train_on(e, 1, now=e.click_time + 7 * DAY)
        for j in (0, 2):
            m = ens.sub_models[j]
            assert np.array_equal(m.params, snapshots[j][0])
            assert np.array_equal(m.g2, snapshots[j][1])

    @pytest.mark.parametrize("two_output", [False, True],
                             ids=["single", "two"])
    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_causality_no_future_events(self, i, two_output):
        # training f_i at age d_{i+1} must give identical results whether or
        # not events beyond d_{i+1} exist yet; the example's own window (40d)
        # outlasts the bucketing's (30d), so f_2 must stop at 30d too
        delays = [0.2 * DAY, 5 * DAY, 20 * DAY, 35 * DAY]
        e_future = make_example(delays, m=40 * DAY)
        upper = BUCKETING.windows[i][1]
        e_censored = make_example([d for d in delays if d < upper], m=40 * DAY)
        ens_a = make_ensemble(two_output=two_output)
        ens_b = make_ensemble(two_output=two_output)
        la = ens_a.training_label(e_future, i)
        lb = ens_b.training_label(e_censored, i)
        assert la == lb

    def test_bucket_mode_own_slice_no_forwards(self):
        ens = make_ensemble(encoding=BUCKET, use_aux=False)
        e = make_example([0.5 * DAY, 3 * DAY, 20 * DAY])
        before = [m.forward_calls for m in ens.sub_models]
        assert ens.training_label(e, 0) == 1.0
        assert ens.training_label(e, 1) == 1.0
        assert ens.training_label(e, 2) == 1.0
        assert [m.forward_calls for m in ens.sub_models] == before

    def test_m5_omits_aux_everywhere(self):
        ens = make_ensemble(use_aux=False)
        e = make_example([0.3 * DAY])
        fv = ens.features_for(e, 1)
        assert fv.numeric == []
        assert all(f != "aux_count" for f, _ in fv.categorical)

    def test_f0_gets_no_aux_even_when_enabled(self):
        ens = make_ensemble(use_aux=True)
        e = make_example([0.3 * DAY])
        fv = ens.features_for(e, 0)
        assert fv.numeric == []
        assert all(f != "aux_count" for f, _ in fv.categorical)
        fv1 = ens.features_for(e, 1)
        assert any(f == "aux_count" for f, _ in fv1.categorical)


class TestRetractions:
    def test_two_output_labels_split(self):
        ens = make_ensemble(two_output=True)
        e = make_example(
            [0.5 * DAY, 2 * DAY, 3 * DAY], signs=[1, 1, -1]
        )
        # f_1 slice [1d, 7d): one +1 at 2d, one -1 at 3d
        zero_to_bias(ens.sub_models[2], math.log(0.5))
        pos, neg = ens.training_label(e, 1)
        assert pos == pytest.approx(1.0 + 0.5)  # slice plus f_2's plus-head
        assert neg == pytest.approx(1.0 + 0.5)  # f_2's minus-head also 0.5 bias

    def test_single_output_clamps_negative_label(self):
        ens = make_ensemble(use_aux=False)
        for m in ens.sub_models:
            zero_to_bias(m, math.log(0.001))
        # +1 lands before d_1, its retraction in [1d, 7d): slice label -1
        e = make_example([0.5 * DAY, 2 * DAY], signs=[1, -1])
        assert ens.negative_label_clamps == 0
        ens.train_on(e, 1, now=e.click_time + 7 * DAY)
        assert ens.negative_label_clamps == 1

    def test_signed_prediction_decomposition_exact(self):
        ens = make_ensemble(two_output=True)
        e = make_example([])
        plus, minus = ens.sub_models[0].forward(ens.features_for(e, 0))
        assert ens.serve(e) == plus - minus
