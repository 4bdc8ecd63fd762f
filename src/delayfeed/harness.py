"""Event-driven online-training simulator.

Streams one timeline per variant: an EVAL at every click time and the
variant's TRAINs after it, in (time, EVAL-before-TRAIN, sub-model index,
click order) order. Sub-model i trains on a click once its age reaches
window i's end, so the timeline is one cursor into the stream per
sub-model and holds no pending TRAIN. An EVAL scores the serving
prediction against the mature label once, for every matching slice and
the click's day, whose rows are made once, at the end of the run; TRAINs
past the stream's end are dropped and counted.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass, field
from itertools import pairwise

from .core import DAY, MetricsAccumulator, mature_label, poisson_nll

NEW_CAMPAIGN_AGE = 10 * DAY


def default_slices(high_delay_campaigns=frozenset()) -> dict:
    """Slice name -> predicate over ClickExample. ALL always matches;
    NEW_CAMPAIGN is campaign age under 10 days at click time; HIGH_DELAY
    uses the generator's campaign tag."""
    high = frozenset(high_delay_campaigns)
    return {
        "ALL": lambda e: True,
        "NEW_CAMPAIGN": lambda e: e.click_time - e.campaign_start_time < NEW_CAMPAIGN_AGE,
        "HIGH_DELAY": lambda e: e.campaign_id in high,
    }


@dataclass
class RunResult:
    """What one variant's `run` measured; `compare` keys results by
    variant name."""

    slices: dict                     # slice name -> MetricsAccumulator
    dropped_train_events: int = 0
    n_examples: int = 0
    negative_label_clamps: int = 0
    timeseries: list = field(default_factory=list)  # `daily_rows` of every click
    day_sums: tuple = ()  # `daily_rows` (NLL, prediction, label) sums by day


def daily_rows(days: dict) -> tuple:
    """(rows, sums) of {day: MetricsAccumulator}, in day order: the per-day
    and cumulative PLL/bias rows of a report, and the days' sums of NLL,
    prediction and label as three arrays, from which the PLL and bias of
    any run of days follow exactly."""
    rows = []
    sums = array("d"), array("d"), array("d")
    c_nll = c_pred = c_label = 0.0
    c_n = 0
    for day, acc in sorted(days.items()):
        pll, bias = acc.finalize()
        c_nll += acc.sum_nll
        c_pred += acc.sum_pred
        c_label += acc.sum_label
        c_n += acc.example_count
        rows.append({
            "day": day,
            "pll": pll,
            "bias": bias,
            "cum_pll": c_nll / c_n if c_n else None,
            "cum_bias": c_pred / c_label if c_label > 0 else None,
            "n": acc.example_count,
        })
        for column, value in zip(sums, (acc.sum_nll, acc.sum_pred, acc.sum_label)):
            column.append(value)
    return rows, sums


def run(variant, stream_examples, slices=None, stream_end=None) -> RunResult:
    """Evaluate-then-train pass over a stream sorted by click time.
    Sub-model i trains on each click at its click time plus the end of
    `variant.windows[i]`, which must be finite and >= 0; a TRAIN due at a
    click's time runs after that click's EVAL."""
    slices = default_slices() if slices is None else slices
    for a, b in pairwise(stream_examples):
        if not (a.click_time <= b.click_time and a.example_id < b.example_id):
            raise ValueError("stream must be sorted by click_time, with "
                             "strictly increasing example_ids")
    ends = [hi for _, hi in variant.windows]
    for i, hi in enumerate(ends):
        if not 0 <= hi < math.inf:
            raise ValueError(f"{variant.name}: window {i} ends at {hi}; a "
                             f"window end must be finite and >= 0")
    n = len(stream_examples)
    if stream_end is None and n:
        stream_end = stream_examples[-1].click_time

    result = RunResult({name: MetricsAccumulator() for name in slices},
                       n_examples=n)
    # cursor i's head: (its next TRAIN's time, i, that click's position)
    heads = [(stream_examples[0].click_time + hi, i, 0)
             for i, hi in enumerate(ends)] if n else []
    heapq.heapify(heads)

    def train_before(limit):
        while heads and heads[0][0] < limit:
            t, i, pos = heads[0]
            if t > stream_end:
                # so are all of this cursor's later TRAINs
                result.dropped_train_events += n - pos
                heapq.heappop(heads)
                continue
            variant.train_on(stream_examples[pos], i, now=t)
            pos += 1
            if pos < n:
                heapq.heapreplace(
                    heads, (stream_examples[pos].click_time + ends[i], i, pos))
            else:
                heapq.heappop(heads)

    slice_items = [(m, result.slices[name]) for name, m in slices.items()]
    days = {}  # simulated day -> MetricsAccumulator
    for e in stream_examples:
        train_before(e.click_time)  # one due at this time waits for the EVAL
        rate = variant.serve(e)
        label = mature_label(e)
        # signed two-output predictions can be <= 0; NLL needs a
        # positive rate while bias keeps the raw prediction
        nll = poisson_nll(max(rate, 1e-12), label)
        for matches, acc in slice_items:
            if matches(e):
                acc.record(nll, rate, label)
        if (day := int(e.click_time // DAY)) not in days:
            days[day] = MetricsAccumulator()
        days[day].record(nll, rate, label)
    train_before(math.inf)
    result.timeseries, result.day_sums = daily_rows(days)
    result.negative_label_clamps = variant.negative_label_clamps
    return result


def compare(results: dict, config_digest: str = "", extra: dict = None) -> dict:
    """Cross-variant report. Relative PLL columns are computed against M3 as
    (PLL_M3 - PLL_v) / |PLL_M3| * 100, so positive numbers mean better than
    M3 (the raw PLLs are always included alongside)."""
    m3_pll = {}
    if "M3" in results:
        for name, acc in results["M3"].slices.items():
            pll, _ = acc.finalize()
            m3_pll[name] = pll

    report = {
        "schema_version": "v1",
        "config_digest": config_digest,
        "pll_convention": (
            "poisson log loss omits the model-independent ln(y!) term; "
            "pll_vs_M3_pct = (PLL_M3 - PLL_variant) / |PLL_M3| * 100, "
            "positive = better than M3"
        ),
        "variants": {},
        "dropped_train_events": {
            name: r.dropped_train_events for name, r in results.items()
        },
    }
    if extra:
        report.update(extra)

    for name, r in results.items():
        slices_out = {}
        for slice_name, acc in r.slices.items():
            pll, bias = acc.finalize()
            entry = {"pll": pll, "bias": bias, "n": acc.example_count}
            base = m3_pll.get(slice_name)
            if base is not None and pll is not None and base != 0:
                entry["pll_vs_M3_pct"] = (base - pll) / abs(base) * 100.0
            slices_out[slice_name] = entry
        variant_out = {
            "slices": slices_out,
            "timeseries": r.timeseries,
        }
        if name == "Oracle":
            variant_out["note"] = "upper bound, impossible in practice"
        if r.negative_label_clamps:
            variant_out["negative_label_clamps"] = r.negative_label_clamps
        report["variants"][name] = variant_out
    return report


def report_csv_rows(report: dict) -> list:
    """Flat (variant, slice, metric, value) rows for plotting tools."""
    rows = [("variant", "slice", "metric", "value")]
    for name, v in sorted(report["variants"].items()):
        for slice_name, entry in sorted(v["slices"].items()):
            for metric in ("pll", "bias", "n", "pll_vs_M3_pct"):
                if metric in entry and entry[metric] is not None:
                    rows.append((name, slice_name, metric, entry[metric]))
    return rows
