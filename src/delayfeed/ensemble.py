"""Delay-adjusted conversion model: a set of fully separate sub-models
f_0..f_n over delay buckets, with either thermometer (overlapping tail) or
disjoint bucket label encoding, optional "label so far" auxiliary features,
and cascaded label completion for training on immature examples.

Training contract per sub-model i (thermometer encoding):
  - trains once the example's age reaches d_{i+1} (d_{n+1} = M),
  - label = events in [d_i, d_{i+1}) plus f_{i+1}'s current prediction of
    the remaining tail (the last sub-model's tail is fully observed),
  - features = serving features, plus aux derived from events before d_i
    for i >= 1 when aux is enabled.
Bucket encoding trains each sub-model on its own fully observed slice with
serving features only; serving then sums all sub-model rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .core import (
    ClickExample,
    ContractViolation,
    DelayBucketing,
    mature_label,
    observed_prefix,
    slice_label,
    split_signed,
)
from .regressor import FeatureVector, PoissonRegressor, RegressorConfig

THERMOMETER = "thermometer"
BUCKET = "bucket"

AUX_COUNT_FIELD = "aux_count"
AUX_NUMERIC_FEATURE = "aux_label_so_far"


@dataclass(frozen=True)
class EnsembleConfig:
    bucketing: DelayBucketing
    regressor_config: RegressorConfig
    encoding: str = THERMOMETER
    use_aux: bool = True
    aux_count_buckets: tuple = (1, 2, 3, 5, 9)

    def __post_init__(self):
        object.__setattr__(self, "aux_count_buckets", tuple(self.aux_count_buckets))
        if self.encoding not in (THERMOMETER, BUCKET):
            raise ValueError(f"unknown encoding {self.encoding!r}")
        if self.encoding == BUCKET and self.use_aux:
            raise ValueError(
                "bucket encoding cannot use aux features: every sub-model may "
                "be evaluated at click time, when no delayed information exists"
            )
        cuts = self.aux_count_buckets
        if any(cuts[i] >= cuts[i + 1] for i in range(len(cuts) - 1)):
            raise ValueError(f"aux_count_buckets must be increasing: {cuts}")


def aux_count_token(prefix: float, cuts: tuple) -> str:
    """Categorical token for the observed-so-far count, bucketed at the
    given cut points (each cut starts a new bucket). Cuts (1, 2, 3, 5, 9)
    give tokens 0, 1, 2, 3-4, 5-8, 9+."""
    count = max(0, math.floor(prefix))
    lo = 0
    for cut in cuts:
        if count < cut:
            hi = cut - 1
            return str(lo) if lo == hi else f"{lo}-{hi}"
        lo = cut
    return f"{cuts[-1]}+"


class SubModelEnsemble:
    """n+1 independent Poisson regressors over the delay buckets, sharing
    no parameters. Owns serving, label completion, and the per-example
    training schedule."""

    def __init__(self, config: EnsembleConfig, name: str = "Proposed"):
        self.config = config
        self.name = name
        self.negative_label_clamps = 0

        rc = config.regressor_config
        if config.use_aux:
            rc = replace(
                rc,
                categorical_fields=tuple(rc.categorical_fields)
                + (AUX_COUNT_FIELD,),
                numeric_features=tuple(rc.numeric_features)
                + (AUX_NUMERIC_FEATURE,),
            )
        self.sub_model_config = rc
        n_models = config.bucketing.num_sub_models
        self.sub_models = [
            PoissonRegressor(replace(rc, rng_seed=rc.rng_seed + i))
            for i in range(n_models)
        ]

    @property
    def two_output(self) -> bool:
        return self.sub_model_config.two_output_mode

    # -- features ----------------------------------------------------------

    def aux_features(self, example: ClickExample, horizon_index: int) -> list:
        """Aux entries for sub-model i >= 1, derived strictly from events
        with delay < d_i: a numeric label-so-far (log1p-scaled inside the
        regressor) and a bucketed count token."""
        if horizon_index < 1:
            raise ContractViolation(
                "sub-model 0 must not receive delayed features"
            )
        if horizon_index >= self.config.bucketing.num_sub_models:
            raise ContractViolation(
                f"horizon index {horizon_index} out of range"
            )
        prefix = observed_prefix(
            example, self.config.bucketing.horizon(horizon_index)
        )
        token = aux_count_token(prefix, self.config.aux_count_buckets)
        return [
            ("numeric", AUX_NUMERIC_FEATURE, max(prefix, 0.0)),
            ("categorical", AUX_COUNT_FIELD, token),
        ]

    def features_for(self, example: ClickExample, i: int) -> FeatureVector:
        """Input features for sub-model i: serving features, plus aux when
        enabled and i >= 1."""
        fv = FeatureVector(categorical=example.serving_features)
        if self.config.use_aux and i >= 1:
            for kind, name, value in self.aux_features(example, i):
                if kind == "numeric":
                    fv.numeric.append((name, value))
                else:
                    fv.categorical = fv.categorical + [(name, value)]
        return fv

    # -- serving ------------------------------------------------------------

    def serve(self, example: ClickExample) -> float:
        """Predicted full mature label at click time, from serving features
        only. Thermometer: a single f_0 forward. Bucket: sum over all
        sub-models."""
        fv = FeatureVector(categorical=example.serving_features)
        if self.config.encoding == THERMOMETER:
            return self.sub_models[0].predict(fv)
        return sum(m.predict(fv) for m in self.sub_models)

    def estimate_mature_label(
        self, example: ClickExample, now: float, tail_predictor=None
    ) -> float:
        """Estimate of the final label at simulated time `now`: observed
        events up to the latest passed boundary d_m plus a single sub-model
        prediction of the tail [d_m, M). Events in [d_m, age) are
        deliberately discarded. `tail_predictor(example, m)`, when given,
        replaces the sub-model (used for oracle-substitution checks)."""
        if now < example.click_time:
            raise ContractViolation("cannot estimate before the click")
        if self.config.encoding != THERMOMETER:
            raise ContractViolation(
                "label completion requires thermometer encoding"
            )
        bucketing = self.config.bucketing
        age = now - example.click_time
        if age >= example.attribution_window:
            return mature_label(example)
        m = bucketing.latest_index_for_age(age)
        known = observed_prefix(example, bucketing.horizon(m))
        if tail_predictor is not None:
            tail = tail_predictor(example, m)
        else:
            tail = self.sub_models[m].predict(self.features_for(example, m))
        return known + tail

    # -- training -------------------------------------------------------------

    def training_schedule(self, example: ClickExample) -> list:
        """(train_time, sub_model_index) pairs, ascending: f_i trains when
        the example's age reaches d_{i+1}, f_n at full maturity."""
        b = self.config.bucketing
        t = example.click_time
        return [(t + b.upper(i), i) for i in range(b.num_sub_models)]

    def training_label(self, example: ClickExample, i: int):
        """Completed label for sub-model i (see module docstring)."""
        b = self.config.bucketing
        lo, hi = b.horizon(i), b.upper(i)
        if self.config.encoding == BUCKET:
            if self.two_output:
                return split_signed(example, lo, hi)
            return slice_label(example, lo, hi)
        last = b.num_sub_models - 1
        if self.two_output:
            pos, neg = split_signed(
                example, lo, example.attribution_window if i == last else hi
            )
            if i == last:
                return pos, neg
            nxt = self.sub_models[i + 1].forward(self.features_for(example, i + 1))
            return pos + nxt[0], neg + nxt[1]
        if i == last:
            return slice_label(example, lo, example.attribution_window)
        observed = slice_label(example, lo, hi)
        completion = self.sub_models[i + 1].forward(
            self.features_for(example, i + 1)
        )
        return observed + completion

    def train_on(self, example: ClickExample, i: int, now: float = None) -> float:
        """One training step of sub-model i on this example. The harness
        guarantees scheduling order; `now`, when given, is asserted against
        the maturity requirement."""
        b = self.config.bucketing
        required = example.click_time + b.upper(i)
        if now is not None and now < required:
            raise ContractViolation(
                f"sub-model {i} trained at {now}, before maturity {required}"
            )
        label = self.training_label(example, i)
        if not self.two_output and label < 0:
            # only reachable with retractions in single-output mode
            self.negative_label_clamps += 1
            label = 0.0
        features = self.features_for(example, i)
        return self.sub_models[i].train_step(features, label)
