"""Delay-adjusted conversion model: a set of fully separate sub-models
f_0..f_n over delay buckets, with either thermometer (overlapping tail) or
disjoint bucket label encoding, optional "label so far" auxiliary features,
and cascaded label completion for training on immature examples.

Training contract per sub-model i (thermometer encoding):
  - trains once the example's age reaches d_{i+1} (d_{n+1} = M, the
    attribution window),
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
    window_and_prefix,
)
from .regressor import RegressorConfig, RegressorStack

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
    `mature_label`, allowed only with one window of a single-output layout,
    trains that sub-model on the full mature label instead of its window's
    label."""

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
        if self.mature_label and self.regressor_config.two_output_mode:
            raise ValueError(f"{self.name}: the mature label is one signed "
                             f"sum, which a two-output layout cannot train on")


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
    """The (field, token) pair of the observed-so-far count, bucketed at
    AUX_COUNT_CUTS."""
    if 0.0 <= prefix < AUX_COUNT_CUTS[0]:  # most prefixes: no floor, no bisect
        return _AUX_COUNT_PAIRS[0]
    return _AUX_COUNT_PAIRS[bisect_right(AUX_COUNT_CUTS, math.floor(prefix))]


class SubModelEnsemble:
    """One independent Poisson regressor per window of `spec`, each with
    its own `params` and `g2`: the models of `stack`, sub-model i of seed
    `rng_seed + seed_offset + i`. Owns serving, label completion,
    and the `windows` whose ends time each sub-model's training. In
    single-output mode a negative label is clamped to 0 and counted."""

    def __init__(self, spec: VariantSpec, seed_offset: int = 0):
        self.name = spec.name
        self.negative_label_clamps = 0
        self.windows = spec.windows
        self._thermometer = spec.encoding == THERMOMETER
        self._use_aux = spec.use_aux
        self._mature_label = spec.mature_label
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

    def features_for(self, example: ClickExample, i: int,
                     prefix: float = None) -> tuple:
        """Sub-model i's (categorical, numeric) input: the serving features
        and no numeric ones, plus, when aux is enabled and i >= 1, two aux
        entries derived strictly from events with delay < d_i: the label
        so far (log1p-scaled inside the regressor) and its bucketed count
        token. `prefix`, when given, is that label so far,
        observed_prefix(example, d_i), which the caller has already
        summed."""
        if not self._use_aux or i < 1:
            return example.serving_features, ()
        if prefix is None:
            prefix = observed_prefix(example, self.windows[i][0])
        # max(prefix, 0.0), a -0.0 kept, without the cost of calling max()
        value = prefix if prefix >= 0.0 else 0.0
        return ([*example.serving_features, _aux_count_pair(prefix)],
                [(AUX_NUMERIC_FEATURE, value)])

    # -- serving ------------------------------------------------------------

    def serve(self, example: ClickExample) -> float:
        """Predicted full mature label at click time, from serving features
        only. Thermometer: one `forward` of f_0. Bucket: the sum of every
        sub-model's prediction, from 0.0 in model order, by one compiled
        `stack.read`. In two-output mode a prediction is rate_plus -
        rate_minus."""
        if self._thermometer:
            out = self.sub_models[0].forward(example.serving_features)
            return out[0] - out[1] if self.two_output else out
        return self.stack.read(example.serving_features)

    # -- training -------------------------------------------------------------

    def training_schedule(self, example: ClickExample) -> list:
        """(train_time, sub_model_index) pairs, ascending: f_i trains when
        the example's age reaches d_{i+1}, f_n at full maturity. This states
        the rule that `harness.run` applies to `windows`."""
        t = example.click_time
        return [(t + hi, i) for i, (_, hi) in enumerate(self.windows)]

    def training_label(self, example: ClickExample, i: int):
        """Completed label for sub-model i (see module docstring): a
        (positive, negative) pair in two-output mode, else a signed sum;
        the mature label when the spec asks for it."""
        if self._mature_label:
            return mature_label(example)
        lo, hi = self.windows[i]
        completes = self._thermometer and i < len(self.windows) - 1
        # one scan gives the window label and, for a completion with aux
        # inputs, f_{i+1}'s aux prefix, the events before d_{i+1}
        horizon = self.windows[i + 1][0] if completes and self._use_aux else 0.0
        label, prefix = window_and_prefix(example, lo, hi, horizon,
                                          self.two_output)
        if not completes:
            return label
        nxt = self.sub_models[i + 1].forward(
            *self.features_for(example, i + 1, prefix))
        if self.two_output:
            return label[0] + nxt[0], label[1] + nxt[1]
        return label + nxt

    def train_on(self, example: ClickExample, i: int, now: float) -> float:
        """One training step of sub-model i on this example at simulated
        time `now`, which must have reached the click time plus window i's
        end. A non-finite step is not applied, and its FloatingPointError
        names the variant, sub-model, example and time."""
        if not 0 <= i < len(self.windows):
            raise ContractViolation(f"{self.name} has no sub-model {i}")
        required = example.click_time + self.windows[i][1]
        if now < required:
            raise ContractViolation(
                f"sub-model {i} trained at {now}, before maturity {required}"
            )
        label = self.training_label(example, i)
        if not self.two_output and label < 0:
            # only reachable with retractions in single-output mode
            self.negative_label_clamps += 1
            label = 0.0
        categorical, numeric = self.features_for(example, i)
        try:
            return self.sub_models[i].train_step(categorical, numeric, label)
        except FloatingPointError as exc:
            raise FloatingPointError(
                f"{self.name} sub-model {i}, example {example.example_id} "
                f"at time {now}: {exc}") from exc
