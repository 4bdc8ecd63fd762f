"""Baseline and ablation matrix over the regressor/ensemble machinery.

Every variant is a SubModelEnsemble, so all share the surface the harness
drives: serve(example) -> rate, training_schedule(example) ->
[(time, index)], train_on(example, index, now) -> loss. A single-delay
baseline is the ensemble with the one window [0, delay).

Standard names (report rows): M1, M2_7d, M2_15d, M3, M4, M5, Proposed,
Oracle. Oracle trains on the complete label with zero delay, which is
impossible outside simulation; reports flag it as an upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .core import DAY, ClickExample, DelayBucketing, mature_label
from .ensemble import BUCKET, THERMOMETER, EnsembleConfig, SubModelEnsemble
from .regressor import RegressorConfig

SINGLE_DELAY = "single_delay"
ENSEMBLE = "ensemble"

PREFIX_AT_DELAY = "prefix_at_delay"
MATURE = "mature"

VARIANT_NAMES = ("M1", "M2_7d", "M2_15d", "M3", "M4", "M5", "Proposed", "Oracle")


@dataclass(frozen=True)
class VariantSpec:
    name: str
    kind: str
    delay: float = 0.0
    label_mode: str = PREFIX_AT_DELAY
    regressor_config: RegressorConfig = None
    ensemble_config: EnsembleConfig = None

    def __post_init__(self):
        if self.kind not in (SINGLE_DELAY, ENSEMBLE):
            raise ValueError(f"unknown variant kind {self.kind!r}")
        if self.kind == SINGLE_DELAY and self.regressor_config is None:
            raise ValueError(f"{self.name}: single-delay variant needs a regressor config")
        if self.kind == SINGLE_DELAY and not 0 <= self.delay < math.inf:
            raise ValueError(
                f"{self.name}: delay must be finite and >= 0, got {self.delay}"
            )
        if self.kind == ENSEMBLE and self.ensemble_config is None:
            raise ValueError(f"{self.name}: ensemble variant needs an ensemble config")


class SingleDelayModel(SubModelEnsemble):
    """One Poisson regressor trained at a fixed delay after each click,
    either on the label observed so far or on the mature label: the
    one-window ensemble [0, delay)."""

    def __init__(self, spec: VariantSpec, seed_offset: int = 0):
        if spec.kind != SINGLE_DELAY:
            raise ValueError("spec is not a single-delay variant")
        self._mature = spec.label_mode == MATURE
        rc = spec.regressor_config
        self._set_up(spec.name, replace(rc, rng_seed=rc.rng_seed + seed_offset),
                     ((0.0, spec.delay),), THERMOMETER, use_aux=False)

    def training_label(self, example: ClickExample, i: int):
        """The mature label in MATURE mode, else the window's own label."""
        if self._mature:
            return mature_label(example)
        return super().training_label(example, i)


def standard_specs(
    bucketing: DelayBucketing,
    regressor_config: RegressorConfig,
    m1_delay: float = 6 * 3600.0,
    m2_delays: tuple = (7 * DAY, 15 * DAY),
    two_output_mode: bool = False,
) -> dict:
    """The full comparison matrix keyed by report name."""
    m = bucketing.attribution_window
    ens_rc = replace(regressor_config, two_output_mode=two_output_mode)
    specs = {
        "M1": VariantSpec("M1", SINGLE_DELAY, delay=m1_delay,
                          label_mode=PREFIX_AT_DELAY,
                          regressor_config=regressor_config),
        "M3": VariantSpec("M3", SINGLE_DELAY, delay=m,
                          label_mode=MATURE,
                          regressor_config=regressor_config),
        "Oracle": VariantSpec("Oracle", SINGLE_DELAY, delay=0.0,
                              label_mode=MATURE,
                              regressor_config=regressor_config),
        "M4": VariantSpec("M4", ENSEMBLE, ensemble_config=EnsembleConfig(
            bucketing=bucketing, regressor_config=ens_rc,
            encoding=BUCKET, use_aux=False)),
        "M5": VariantSpec("M5", ENSEMBLE, ensemble_config=EnsembleConfig(
            bucketing=bucketing, regressor_config=ens_rc,
            encoding=THERMOMETER, use_aux=False)),
        "Proposed": VariantSpec("Proposed", ENSEMBLE, ensemble_config=EnsembleConfig(
            bucketing=bucketing, regressor_config=ens_rc,
            encoding=THERMOMETER, use_aux=True)),
    }
    for delay in m2_delays:
        name = f"M2_{int(round(delay / DAY))}d"
        specs[name] = VariantSpec(name, SINGLE_DELAY, delay=delay,
                                  label_mode=PREFIX_AT_DELAY,
                                  regressor_config=regressor_config)
    return specs


def build_variant(spec: VariantSpec, seed_offset: int = 0):
    """Instantiate the trainable model behind a variant spec."""
    if spec.kind == SINGLE_DELAY:
        return SingleDelayModel(spec, seed_offset)
    cfg = spec.ensemble_config
    rc = replace(
        cfg.regressor_config,
        rng_seed=cfg.regressor_config.rng_seed + seed_offset,
    )
    return SubModelEnsemble(replace(cfg, regressor_config=rc), name=spec.name)
