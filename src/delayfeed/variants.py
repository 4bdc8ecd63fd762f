"""Baseline and ablation matrix over the regressor/ensemble machinery.

Every variant is one VariantSpec (a name, a regressor layout and its
delay windows) built into a SubModelEnsemble, so all share the surface
the harness drives: serve(example) -> rate, train_on(example, index, now)
-> loss, and `windows`, whose ends say when each index trains. A
single-delay baseline is the ensemble with the one window [0, delay).

Standard names (report rows): M1, M2_7d, M2_15d, M3, M4, M5, Proposed,
Oracle. Oracle trains on the complete label with zero delay, which is
impossible outside simulation; reports flag it as an upper bound.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .core import DAY
from .ensemble import BUCKET, SubModelEnsemble, VariantSpec
from .regressor import RegressorConfig


class SingleDelayModel(SubModelEnsemble):
    """One Poisson regressor trained at a fixed delay after each click,
    either on the label observed so far or, when its spec asks for it, on
    the mature label: the one-window ensemble [0, delay), a class of its
    own so that traces tell its calls from the ensembles'."""


def standard_specs(
    attribution_window: float,
    regressor_config: RegressorConfig,
    boundaries: tuple = (1 * DAY, 3 * DAY, 7 * DAY, 15 * DAY),
    m1_delay: float = 6 * 3600.0,
    m2_delays: tuple = (7 * DAY, 15 * DAY),
    two_output_mode: bool = False,
) -> dict:
    """The full comparison matrix keyed by report name, in report order.
    The delay-bucket variants share the n+1 windows (d_i, d_{i+1}) that the
    bucket boundaries d_1 < ... < d_n cut from [0, M), M the attribution
    window. Raises ValueError unless 0 < d_1, d_n < M < inf and 3 <= n+1 <=
    10, or when two variants would share a name."""
    edges = (0.0, *boundaries, attribution_window)
    windows = tuple(zip(edges, edges[1:]))
    # written so that a NaN fails it
    if not (all(lo < hi for lo, hi in windows)
            and attribution_window < math.inf and 3 <= len(windows) <= 10):
        raise ValueError(
            f"bucketing.boundaries_days must be 2 to 9 boundaries rising "
            f"strictly inside (0, {attribution_window / DAY}), the attribution "
            f"window in days: got {[b / DAY for b in boundaries]}")
    rc = regressor_config
    ens_rc = replace(rc, two_output_mode=two_output_mode)
    specs = {}
    for spec in (
        VariantSpec("M1", rc, ((0.0, m1_delay),)),
        *(VariantSpec(f"M2_{int(round(d / DAY))}d", rc, ((0.0, d),))
          for d in m2_delays),
        VariantSpec("M3", rc, ((0.0, attribution_window),),
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
