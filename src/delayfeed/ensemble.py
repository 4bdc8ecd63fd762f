"""Delay-adjusted conversion model: a set of fully separate sub-models
f_0..f_n over delay buckets, with either thermometer (overlapping tail) or
disjoint bucket label encoding, optional "label so far" auxiliary features,
and cascaded label completion for training on immature examples.

Training contract per sub-model i (thermometer encoding):
  - trains once the example's age reaches d_{i+1} (d_{n+1} = M, the
    bucketing's attribution window),
  - label = events in its window [d_i, d_{i+1}) plus f_{i+1}'s current
    prediction of the remaining tail (the last sub-model has no tail),
  - features = serving features, plus aux derived from events before d_i
    for i >= 1 when aux is enabled.
Bucket encoding trains each sub-model on the events in its window alone,
with serving features only; serving then sums all sub-model rates. A
VariantSpec names the windows; the single-delay baselines
(variants.SingleDelayModel) are the one-window case.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace

from .core import (
    ClickExample,
    ContractViolation,
    mature_label,
    observed_prefix,
    slice_label,
    split_signed,
)
from .regressor import FeatureVector, RegressorConfig, RegressorStack

THERMOMETER = "thermometer"
BUCKET = "bucket"

AUX_COUNT_FIELD = "aux_count"
AUX_NUMERIC_FEATURE = "aux_label_so_far"
# each cut starts a new count bucket: tokens 0, 1, 2, 3-4, 5-8, 9+
AUX_COUNT_CUTS = (1, 2, 3, 5, 9)


@dataclass(frozen=True)
class VariantSpec:
    """One model of the comparison matrix: its report name, the regressor
    layout of its sub-models and their delay windows [lo, hi), ascending.
    Sub-model i trains once an example's age reaches its window's hi.
    `mature_label`, allowed only with one window, trains that sub-model on
    the full mature label instead of its window's label;
    `variants.build_variant` builds a one-window spec as the
    `SingleDelayModel` that honours it."""

    name: str
    regressor_config: RegressorConfig
    windows: tuple
    encoding: str = THERMOMETER
    use_aux: bool = False
    mature_label: bool = False

    def __post_init__(self):
        windows = tuple((lo, hi) for lo, hi in self.windows)
        object.__setattr__(self, "windows", windows)
        if self.encoding not in (THERMOMETER, BUCKET):
            raise ValueError(f"{self.name}: unknown encoding {self.encoding!r}")
        if self.encoding == BUCKET and self.use_aux:
            raise ValueError(
                f"{self.name}: bucket encoding cannot use aux features: every "
                "sub-model may be evaluated at click time, when no delayed "
                "information exists"
            )
        # written so that a NaN fails it
        prev = 0.0
        for lo, hi in windows:
            if not prev <= lo <= hi < math.inf:
                raise ValueError(
                    f"{self.name}: windows must be finite, ascending and "
                    f"disjoint, with 0 <= lo <= hi: {windows}"
                )
            prev = hi
        if not windows or (self.mature_label and len(windows) != 1):
            raise ValueError(
                f"{self.name}: needs at least one window, and exactly one "
                f"to train on the mature label: {windows}"
            )


def _count_tokens() -> tuple:
    """The count bucket tokens, one per bucket that AUX_COUNT_CUTS start."""
    tokens = []
    for lo, cut in zip((0,) + AUX_COUNT_CUTS, AUX_COUNT_CUTS):
        hi = cut - 1
        tokens.append(str(lo) if lo == hi else f"{lo}-{hi}")
    return (*tokens, f"{AUX_COUNT_CUTS[-1]}+")


# one shared (field, token) pair per count bucket, so that every aux input
# hands the regressor the same pair objects
_AUX_COUNT_PAIRS = tuple((AUX_COUNT_FIELD, tok) for tok in _count_tokens())


def _aux_count_pair(prefix: float) -> tuple:
    return _AUX_COUNT_PAIRS[bisect_right(AUX_COUNT_CUTS, math.floor(prefix))]


def aux_count_token(prefix: float) -> str:
    """Categorical token for the observed-so-far count, bucketed at
    AUX_COUNT_CUTS."""
    return _aux_count_pair(prefix)[1]


class SubModelEnsemble:
    """One independent Poisson regressor per window of `spec`, sharing no
    parameters: their `params` and `g2` are the rows of one (n+1, P)
    buffer each, `stack.params` and `stack.g2`; sub-model i's seed is the
    layout's `rng_seed + seed_offset + i`. Owns serving, label completion,
    and the per-example training schedule. In single-output mode a
    negative label is clamped to 0 and counted."""

    def __init__(self, spec: VariantSpec, seed_offset: int = 0):
        self.spec = spec
        self.name = spec.name
        self.negative_label_clamps = 0
        self._windows = spec.windows
        self._thermometer = spec.encoding == THERMOMETER
        self._use_aux = spec.use_aux
        rc = spec.regressor_config
        seeds = [rc.rng_seed + seed_offset + i for i in range(len(spec.windows))]
        if spec.use_aux:
            rc = replace(
                rc,
                categorical_fields=tuple(rc.categorical_fields)
                + (AUX_COUNT_FIELD,),
                numeric_features=tuple(rc.numeric_features)
                + (AUX_NUMERIC_FEATURE,),
            )
        self.two_output = rc.two_output_mode
        self.stack = RegressorStack(rc, seeds)
        self.sub_models = self.stack.models

    # -- features ----------------------------------------------------------

    def features_for(self, example: ClickExample, i: int) -> FeatureVector:
        """Input features for sub-model i: serving features, plus, when aux
        is enabled and i >= 1, two aux entries derived strictly from events
        with delay < d_i: the label so far (log1p-scaled inside the
        regressor) and its bucketed count token."""
        if not self._use_aux or i < 1:
            return FeatureVector(categorical=example.serving_features)
        prefix = observed_prefix(example, self._windows[i][0])
        return FeatureVector(
            categorical=[*example.serving_features, _aux_count_pair(prefix)],
            numeric=[(AUX_NUMERIC_FEATURE, max(prefix, 0.0))],
        )

    # -- serving ------------------------------------------------------------

    def serve(self, example: ClickExample) -> float:
        """Predicted full mature label at click time, from serving features
        only. Thermometer: a single f_0 forward. Bucket: the sum of every
        sub-model's prediction, from one stacked forward of all n+1."""
        fv = FeatureVector(categorical=example.serving_features)
        if self._thermometer:
            return self.sub_models[0].predict(fv)
        # left to right on purpose: builtin sum() of floats is compensated
        # from Python 3.12, which would make reports depend on the version
        total = 0.0
        two_output = self.two_output
        for rates in self.stack.forward(fv).tolist():
            total += rates[0] - rates[1] if two_output else rates[0]
        return total

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
        if not self._thermometer:
            raise ContractViolation(
                "label completion requires thermometer encoding"
            )
        age = now - example.click_time
        if age >= example.attribution_window:
            return mature_label(example)
        # m: the last window that starts at or before age (d_0 = 0 does)
        m = bisect_right([lo for lo, _ in self._windows], age) - 1
        known = observed_prefix(example, self._windows[m][0])
        if tail_predictor is not None:
            tail = tail_predictor(example, m)
        else:
            tail = self.sub_models[m].predict(self.features_for(example, m))
        return known + tail

    # -- training -------------------------------------------------------------

    def training_schedule(self, example: ClickExample) -> list:
        """(train_time, sub_model_index) pairs, ascending: f_i trains when
        the example's age reaches d_{i+1}, f_n at full maturity."""
        t = example.click_time
        return [(t + hi, i) for i, (_, hi) in enumerate(self._windows)]

    def training_label(self, example: ClickExample, i: int):
        """Completed label for sub-model i (see module docstring): a
        (positive, negative) pair in two-output mode, else a signed sum."""
        lo, hi = self._windows[i]
        if self.two_output:
            label = split_signed(example, lo, hi)
        else:
            label = slice_label(example, lo, hi)
        if not self._thermometer or i == len(self._windows) - 1:
            return label
        nxt = self.sub_models[i + 1].forward(self.features_for(example, i + 1))
        if self.two_output:
            return label[0] + nxt[0], label[1] + nxt[1]
        return label + nxt

    def train_on(self, example: ClickExample, i: int, now: float = None) -> float:
        """One training step of sub-model i on this example. The harness
        guarantees scheduling order; `now`, when given, is asserted against
        the maturity requirement."""
        if not 0 <= i < len(self._windows):
            raise ContractViolation(f"{self.name} has no sub-model {i}")
        required = example.click_time + self._windows[i][1]
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
