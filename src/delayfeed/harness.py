"""Event-driven online-training simulator.

Streams one timeline per variant: an EVAL at every click time and the
variant's TRAINs after it, in (time, EVAL-before-TRAIN, sub-model index,
arrival sequence) order. A click's TRAINs are scheduled at its EVAL and wait
in one FIFO queue per index, so the timeline holds the pending TRAINs, not
the whole stream. EVALs score the serving prediction against the mature
label per slice; TRAINs past the stream's end are dropped and counted.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import pairwise

from .core import DAY, MetricsAccumulator, mature_label

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
    variant: str
    slices: dict                     # slice name -> MetricsAccumulator
    dropped_train_events: int = 0
    n_examples: int = 0
    negative_label_clamps: int = 0

    def timeseries(self) -> list:
        """Per-simulated-day and cumulative PLL/bias from the ALL slice."""
        acc = self.slices["ALL"]
        rows = []
        c_nll = c_pred = c_label = 0.0
        c_n = 0
        for day in sorted(acc.windows):
            nll, pred, label, n = acc.windows[day]
            c_nll += nll
            c_pred += pred
            c_label += label
            c_n += n
            rows.append({
                "day": day,
                "pll": nll / n if n else None,
                "bias": pred / label if label > 0 else None,
                "cum_pll": c_nll / c_n if c_n else None,
                "cum_bias": c_pred / c_label if c_label > 0 else None,
                "n": n,
            })
        return rows


def run(variant, stream_examples, slices=None, stream_end=None) -> RunResult:
    """Evaluate-then-train pass over a stream sorted by click time. TRAIN
    times must be finite, not before their click, and monotone per index."""
    slices = default_slices() if slices is None else slices
    for a, b in pairwise(stream_examples):
        if not (a.click_time <= b.click_time and a.example_id < b.example_id):
            raise ValueError("stream must be sorted by click_time, with "
                             "strictly increasing example_ids")
    if stream_end is None and stream_examples:
        stream_end = stream_examples[-1].click_time

    result = RunResult(getattr(variant, "name", variant.__class__.__name__),
                       {name: MetricsAccumulator() for name in slices})
    queues = defaultdict(deque)  # index -> FIFO of pending (train time, example)
    heads = []  # heap of (train time, index), one per non-empty queue

    def train_before(limit):
        while heads and heads[0][0] < limit:
            t, i = heapq.heappop(heads)
            queue = queues[i]
            e = queue.popleft()[1]
            if queue:
                heapq.heappush(heads, (queue[0][0], i))
            variant.train_on(e, i, now=t)

    slice_items = list(slices.items())
    for e in stream_examples:
        train_before(e.click_time)  # one due at this time waits for the EVAL
        rate = variant.serve(e)
        # signed two-output predictions can be <= 0; NLL needs a
        # positive rate while bias keeps the raw prediction
        safe_rate = max(rate, 1e-12)
        label = mature_label(e)
        window = int(e.click_time // DAY)
        for name, matches in slice_items:
            if matches(e):
                result.slices[name].record(safe_rate, label, window, pred=rate)
        result.n_examples += 1
        for t, i in variant.training_schedule(e):
            queue = queues[i]
            # a queued TRAIN is not due yet, so it is no earlier than the click
            earliest = queue[-1][0] if queue else e.click_time
            if not earliest <= t < math.inf:
                raise ValueError(f"example {e.example_id}: TRAIN {i} at {t} must "
                                 f"be finite and no earlier than {earliest}")
            if t > stream_end:
                result.dropped_train_events += 1
            else:
                queue.append((t, e))
                if len(queue) == 1:
                    heapq.heappush(heads, (t, i))
    train_before(math.inf)
    result.negative_label_clamps = getattr(variant, "negative_label_clamps", 0)
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
            "timeseries": r.timeseries(),
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
