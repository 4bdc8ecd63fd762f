"""Delay-adjusted conversion prediction: thermometer-encoded delay-bucket
sub-models with label completion, plus the baseline/ablation benchmark."""

__version__ = "0.1.0"

from .core import (
    DAY,
    ClickExample,
    ContractViolation,
    ConversionEvent,
    MetricsAccumulator,
    mature_label,
    observed_prefix,
    poisson_nll,
)
from .ensemble import BUCKET, THERMOMETER, SubModelEnsemble, VariantSpec
from .regressor import PoissonRegressor, RegressorConfig

__all__ = [
    "DAY",
    "ClickExample",
    "ContractViolation",
    "ConversionEvent",
    "MetricsAccumulator",
    "mature_label",
    "observed_prefix",
    "poisson_nll",
    "BUCKET",
    "THERMOMETER",
    "SubModelEnsemble",
    "VariantSpec",
    "PoissonRegressor",
    "RegressorConfig",
]
