"""Shared domain types: click examples, window labels, Poisson loss, and
metric accumulation.

Time is seconds as float64 throughout; DAY is the conversion constant used
wherever configs speak in days. All time intervals are left-closed,
right-open, so an event exactly at a bucket boundary belongs to the later
bucket.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

DAY = 86400.0


class ContractViolation(ValueError):
    """An operation was called outside its documented preconditions."""


def is_integer(value) -> bool:
    """An integral number but no bool: JSON `true` must not read as 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def as_float(value):
    """A real number as a float, an integer too large for one as infinity
    of its sign, for range checks to compare; any other value as it is, so
    that comparing it raises TypeError."""
    if not isinstance(value, numbers.Real):
        return value
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True, slots=True)
class ConversionEvent:
    """One post-click event: delay in seconds from the click, a non-negative
    value (1.0 for pure counting), and a sign (-1 only for retractions)."""

    delay: float
    value: float = 1.0
    sign: int = 1

    def __post_init__(self):
        if not 0 <= self.delay < math.inf:
            raise ValueError(f"event delay must be finite, >= 0, got {self.delay}")
        if not 0 <= self.value < math.inf:
            raise ValueError(f"event value must be finite, >= 0, got {self.value}")
        if self.sign not in (1, -1):
            raise ValueError(f"event sign must be +1 or -1, got {self.sign}")


@dataclass(slots=True)
class ClickExample:
    """One ad click with its serving-time features and the full ground-truth
    event list (the generator knows the future; models must not peek past
    the horizon they are entitled to).

    Both sequences are stored as tuples, so examples can share one
    `serving_features` object and a click without events holds the empty
    tuple; lists given here are converted."""

    example_id: int
    click_time: float
    campaign_id: int
    campaign_start_time: float
    serving_features: tuple  # (field_id, token) pairs
    attribution_window: float
    events: tuple  # ConversionEvents, sorted by delay ascending

    def __post_init__(self):
        self.serving_features = tuple(self.serving_features)
        self.events = tuple(self.events)
        if not (math.isfinite(self.campaign_start_time)
                and math.isfinite(self.click_time)
                and self.campaign_start_time <= self.click_time):
            raise ValueError(
                f"example {self.example_id}: campaign start "
                f"{self.campaign_start_time} and click time {self.click_time} "
                f"must be finite, the start no later than the click"
            )
        if not 0 < self.attribution_window < math.inf:
            raise ValueError(
                f"example {self.example_id}: attribution window must be "
                f"finite and > 0, got {self.attribution_window}"
            )
        prev = -1.0
        for ev in self.events:
            if ev.delay < prev:
                raise ValueError(
                    f"example {self.example_id}: events not sorted by delay"
                )
            if not ev.delay < self.attribution_window:
                raise ValueError(
                    f"example {self.example_id}: event delay {ev.delay} outside "
                    f"attribution window {self.attribution_window}"
                )
            prev = ev.delay


def mature_label(example: ClickExample) -> float:
    """Final label once the attribution window has elapsed: signed sum of
    all event values."""
    return math.fsum(ev.sign * ev.value for ev in example.events)


def observed_prefix(example: ClickExample, horizon: float) -> float:
    """Signed sum of event values with delay in [0, horizon)."""
    if not 0 <= horizon <= example.attribution_window:
        raise ContractViolation(
            f"horizon {horizon} outside [0, {example.attribution_window}]"
        )
    return slice_label(example, 0.0, horizon)


def slice_label(example: ClickExample, lo: float, hi: float) -> float:
    """Signed sum of event values with delay in [lo, hi)."""
    total = 0.0
    for ev in example.events:
        if ev.delay >= hi:
            break
        if ev.delay >= lo:
            total += ev.sign * ev.value
    return total


def split_signed(example: ClickExample, lo: float, hi: float) -> tuple:
    """(positive, negative) value totals over events with delay in [lo, hi)."""
    pos = neg = 0.0
    for ev in example.events:
        if ev.delay >= hi:
            break
        if ev.delay >= lo:
            if ev.sign > 0:
                pos += ev.value
            else:
                neg += ev.value
    return pos, neg


def poisson_nll(rate: float, label: float) -> float:
    """Negative Poisson log-likelihood up to the model-independent ln(y!)
    term: rate - label * ln(rate)."""
    if rate <= 0:
        raise ContractViolation(f"rate must be > 0, got {rate}")
    return rate - label * math.log(rate)


@dataclass
class MetricsAccumulator:
    """Streaming sums for PLL and calibration bias."""

    sum_nll: float = 0.0
    sum_pred: float = 0.0
    sum_label: float = 0.0
    example_count: int = 0

    def record(self, nll: float, pred: float, label: float):
        """One scored click: its Poisson NLL, its raw prediction (summed for
        bias; a signed two-output one may be <= 0) and its mature label."""
        self.sum_nll += nll
        self.sum_pred += pred
        self.sum_label += label
        self.example_count += 1

    def finalize(self) -> tuple:
        """(pll, bias); either is None when undefined (no examples, or no
        positive label mass for bias)."""
        pll = self.sum_nll / self.example_count if self.example_count else None
        bias = self.sum_pred / self.sum_label if self.sum_label > 0 else None
        return pll, bias
