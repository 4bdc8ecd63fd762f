"""Baseline and ablation matrix over the regressor/ensemble machinery.

Every variant is one VariantSpec (a name, a regressor layout and its
delay windows) built into a SubModelEnsemble, so all share the surface
the harness drives: serve(example) -> rate, training_schedule(example) ->
[(time, index)], train_on(example, index, now) -> loss. A single-delay
baseline is the ensemble with the one window [0, delay).

Standard names (report rows): M1, M2_7d, M2_15d, M3, M4, M5, Proposed,
Oracle. Oracle trains on the complete label with zero delay, which is
impossible outside simulation; reports flag it as an upper bound.
"""

from __future__ import annotations

from dataclasses import replace

from .core import DAY, ClickExample, DelayBucketing, mature_label
from .ensemble import BUCKET, SubModelEnsemble, VariantSpec
from .regressor import RegressorConfig

VARIANT_NAMES = ("M1", "M2_7d", "M2_15d", "M3", "M4", "M5", "Proposed", "Oracle")


class SingleDelayModel(SubModelEnsemble):
    """One Poisson regressor trained at a fixed delay after each click,
    either on the label observed so far or, when its spec asks for it, on
    the mature label: the one-window ensemble [0, delay)."""

    def training_label(self, example: ClickExample, i: int):
        if self.spec.mature_label:
            return mature_label(example)
        return super().training_label(example, i)


def standard_specs(
    bucketing: DelayBucketing,
    regressor_config: RegressorConfig,
    m1_delay: float = 6 * 3600.0,
    m2_delays: tuple = (7 * DAY, 15 * DAY),
    two_output_mode: bool = False,
) -> dict:
    """The full comparison matrix keyed by report name, in report order;
    raises ValueError when two variants would share a name."""
    rc = regressor_config
    ens_rc = replace(rc, two_output_mode=two_output_mode)
    windows = bucketing.windows
    specs = {}
    for spec in (
        VariantSpec("M1", rc, ((0.0, m1_delay),)),
        *(VariantSpec(f"M2_{int(round(d / DAY))}d", rc, ((0.0, d),))
          for d in m2_delays),
        VariantSpec("M3", rc, ((0.0, bucketing.attribution_window),),
                    mature_label=True),
        VariantSpec("M4", ens_rc, windows, encoding=BUCKET),
        VariantSpec("M5", ens_rc, windows),
        VariantSpec("Proposed", ens_rc, windows, use_aux=True),
        VariantSpec("Oracle", rc, ((0.0, 0.0),), mature_label=True),
    ):
        if spec.name in specs:
            raise ValueError(f"duplicate variant name {spec.name}: two "
                             f"variants of the matrix would share it")
        specs[spec.name] = spec
    return specs


def build_variant(spec: VariantSpec, seed_offset: int = 0):
    """Instantiate the trainable model behind a variant spec."""
    cls = SingleDelayModel if len(spec.windows) == 1 else SubModelEnsemble
    return cls(spec, seed_offset)
