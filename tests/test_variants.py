import math
from dataclasses import replace

import numpy as np
import pytest

from delayfeed import harness
from delayfeed.core import DAY, ContractViolation, DelayBucketing, \
    mature_label, slice_label
from delayfeed.ensemble import BUCKET, THERMOMETER, SubModelEnsemble, \
    VariantSpec
from delayfeed.regressor import RegressorConfig
from delayfeed.variants import (
    VARIANT_NAMES,
    SingleDelayModel,
    build_variant,
    standard_specs,
)

from test_core import make_example

M = 30 * DAY
BUCKETING = DelayBucketing(boundaries=(1 * DAY, 7 * DAY), attribution_window=M)
RC = RegressorConfig(
    categorical_fields=("campaign",),
    embedding_dim=2,
    hash_buckets_per_field=8,
    hidden_layer_sizes=(),
    rng_seed=5,
)


def specs():
    return standard_specs(BUCKETING, RC, m1_delay=6 * 3600.0)


class TestMatrix:
    def test_standard_names(self):
        # in report order, which is also the default variant list's
        assert tuple(specs()) == VARIANT_NAMES

    def test_variant_wiring(self):
        s = specs()
        assert s["M1"].windows == ((0.0, 6 * 3600.0),)
        assert not s["M1"].mature_label
        assert s["M2_7d"].windows == ((0.0, 7 * DAY),)
        assert s["M2_15d"].windows == ((0.0, 15 * DAY),)
        assert s["M3"].windows == ((0.0, M),) and s["M3"].mature_label
        assert s["Oracle"].windows == ((0.0, 0.0),) and s["Oracle"].mature_label
        for name in ("M4", "M5", "Proposed"):
            assert s[name].windows == BUCKETING.windows
            assert not s[name].mature_label
        assert s["M4"].encoding == BUCKET and not s["M4"].use_aux
        assert s["M5"].encoding == THERMOMETER and not s["M5"].use_aux
        assert s["Proposed"].encoding == THERMOMETER and s["Proposed"].use_aux
        for name in ("M1", "M2_7d", "M2_15d", "M3", "Oracle"):
            assert s[name].encoding == THERMOMETER and not s[name].use_aux

    def test_duplicate_names_are_refused(self):
        # 6.8 and 7.2 days both round to M2_7d
        with pytest.raises(ValueError, match="duplicate variant name M2_7d"):
            standard_specs(BUCKETING, RC, m2_delays=(6.8 * DAY, 7.2 * DAY))

    def test_m3_and_oracle_share_architecture(self):
        s = specs()
        assert s["M3"].regressor_config == s["Oracle"].regressor_config

    def test_uniform_interface(self):
        e = make_example([0.5 * DAY])
        for name, spec in specs().items():
            v = build_variant(spec)
            rate = v.serve(e)
            assert rate > 0
            sched = v.training_schedule(e)
            assert sched == sorted(sched)
            t, i = sched[0]
            loss = v.train_on(e, i, now=t)
            assert isinstance(loss, float)

    def test_sub_model_index_out_of_range_is_refused(self):
        e = make_example([])
        for name, spec in specs().items():
            v = build_variant(spec)
            t = v.training_schedule(e)[-1][0]
            for i in (-1, len(v.sub_models)):
                with pytest.raises(ContractViolation):
                    v.train_on(e, i, now=t)


class TestSingleDelayLabels:
    def test_m1_prefix_label(self):
        # delays [2h, 2d] with a 6h training delay: only the 2h event counts
        e = make_example([2 * 3600.0, 2 * DAY])
        v = SingleDelayModel(specs()["M1"])
        label = _training_label(v, e)
        assert label == 1.0

    def test_m3_mature_label(self):
        e = make_example([2 * 3600.0, 2 * DAY, 29 * DAY])
        v = SingleDelayModel(specs()["M3"])
        assert _training_label(v, e) == 3.0

    def test_oracle_trains_at_click_time_with_full_label(self):
        e = make_example([20 * DAY])
        v = SingleDelayModel(specs()["Oracle"])
        assert v.training_schedule(e) == [(e.click_time, 0)]
        assert _training_label(v, e) == 1.0

    def test_serve_never_reads_events(self):
        v = SingleDelayModel(specs()["M1"])
        assert v.serve(make_example([0.1 * DAY, 2 * DAY])) == v.serve(
            make_example([])
        )

    def test_serve_deterministic(self):
        v = SingleDelayModel(specs()["M2_7d"])
        e = make_example([])
        assert v.serve(e) == v.serve(e)

    def test_maturity_assertion(self):
        v = SingleDelayModel(specs()["M2_7d"])
        e = make_example([])
        with pytest.raises(ContractViolation):
            v.train_on(e, 0, now=e.click_time + 1 * DAY)

    def test_monotone_label_in_delay(self):
        e = make_example([0.1 * DAY, 2 * DAY, 10 * DAY, 20 * DAY])
        labels = []
        for delay in (3600.0, 1 * DAY, 5 * DAY, 12 * DAY, 25 * DAY):
            spec = VariantSpec("probe", RC, ((0.0, delay),))
            labels.append(_training_label(SingleDelayModel(spec), e))
        assert labels == sorted(labels)

    def test_delay_past_window_caps_at_mature(self):
        e = make_example([29 * DAY])
        spec = VariantSpec("probe", RC, ((0.0, 45 * DAY),))
        assert _training_label(SingleDelayModel(spec), e) == mature_label(e)

    @pytest.mark.parametrize("delay", [-1.0, -3600.0, math.nan, math.inf])
    def test_rejects_delay_not_finite_and_non_negative(self, delay):
        with pytest.raises(ValueError, match="windows must be finite"):
            VariantSpec("probe", RC, ((0.0, delay),))


class TestBuildVariant:
    def test_ensemble_build(self):
        v = build_variant(specs()["Proposed"])
        assert isinstance(v, SubModelEnsemble)
        assert v.name == "Proposed"

    def test_single_delay_model_for_exactly_the_one_window_variants(self):
        built = {name: build_variant(spec) for name, spec in specs().items()}
        single = {n for n, v in built.items() if isinstance(v, SingleDelayModel)}
        assert single == {"M1", "M2_7d", "M2_15d", "M3", "Oracle"}
        assert all(type(v) is SubModelEnsemble for n, v in built.items()
                   if n not in single)

    def test_seed_offset_changes_parameters(self):
        a = build_variant(specs()["M3"], seed_offset=0)
        b = build_variant(specs()["M3"], seed_offset=1)
        assert not np.array_equal(
            a.sub_models[0].embeddings["campaign"],
            b.sub_models[0].embeddings["campaign"],
        )

    def test_two_output_matrix(self):
        s = standard_specs(BUCKETING, RC, two_output_mode=True)
        assert s["Proposed"].regressor_config.two_output_mode
        # single-delay baselines stay single-output: like every single-output
        # variant they clamp a negative label to 0 and count it
        assert not s["M1"].regressor_config.two_output_mode


class TestNegativeLabels:
    def test_m1_clamps_a_prefix_that_rounds_below_zero(self):
        # (0.3 + 0.6) - 0.3 - 0.6 is -1.1e-16 in float arithmetic, not 0
        e = make_example([3600.0, 2 * 3600.0, 3 * 3600.0, 4 * 3600.0],
                         signs=[1, 1, -1, -1], values=[0.3, 0.6, 0.3, 0.6])
        assert slice_label(e, 0.0, 6 * 3600.0) == -1.1102230246251565e-16
        later = replace(make_example([]), example_id=1, click_time=1 * DAY)
        m1 = build_variant(specs()["M1"])
        before = m1.serve(e)
        result = harness.run(m1, [e, later])
        # only the later click's own TRAIN falls past the stream's end
        assert result.dropped_train_events == 1
        assert m1.serve(e) != before
        assert m1.negative_label_clamps == result.negative_label_clamps == 1
        report = harness.compare({"M1": result})
        assert report["variants"]["M1"]["negative_label_clamps"] == 1


def _training_label(variant, example):
    """Extract the label a single-delay variant would train on, by capturing
    the train_step call."""
    captured = {}

    class Spy:
        def train_step(self, features, label):
            captured["label"] = label
            return 0.0

    variant.sub_models[0] = Spy()
    t, i = variant.training_schedule(example)[0]
    variant.train_on(example, i, now=t)
    return captured["label"]
