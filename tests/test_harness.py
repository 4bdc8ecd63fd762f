import copy
import heapq
import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayfeed.core import DAY, MetricsAccumulator, mature_label, poisson_nll
from delayfeed.datagen import StreamConfig, generate
from delayfeed.harness import (
    RunResult,
    compare,
    daily_rows,
    default_slices,
    report_csv_rows,
    run,
)
from delayfeed.regressor import RegressorConfig
from delayfeed.variants import build_variant, standard_specs

from test_core import make_example
from test_variants import STANDARD_NAMES

M = 30 * DAY
BOUNDARIES = (1 * DAY, 7 * DAY)
RC = RegressorConfig(
    categorical_fields=("campaign",),
    embedding_dim=2,
    hash_buckets_per_field=8,
    hidden_layer_sizes=(4,),
    output_bias_init=math.log(0.5),
    rng_seed=3,
)


class RecordingVariant:
    """Scripted variant with the given (lo, hi) windows that logs the order
    of harness callbacks."""

    name = "recorder"
    negative_label_clamps = 0

    def __init__(self, windows, rate=1.0):
        self.windows = windows
        self.rate = rate
        self.log = []

    def serve(self, example):
        self.log.append(("eval", example.example_id))
        return self.rate

    def training_schedule(self, example):
        return [(example.click_time + hi, i)
                for i, (_, hi) in enumerate(self.windows)]

    def train_on(self, example, i, now):
        self.log.append(("train", example.example_id, i))
        return 0.0


def stream_of(examples):
    out = []
    for i, e in enumerate(examples):
        e = copy.copy(e)
        e.example_id = i
        out.append(e)
    return out


def shifted(example, t):
    e = copy.copy(example)
    e.click_time = t
    e.campaign_start_time = min(e.campaign_start_time, t)
    return e


class TestEventOrdering:
    def test_single_example_proposed_schedule_order(self):
        ens_spec = standard_specs(M, RC, boundaries=BOUNDARIES)["Proposed"]
        ens = build_variant(ens_spec)
        wrapper = RecordingVariant(ens.windows)
        e = make_example([0.5 * DAY])
        run(wrapper, stream_of([e]), stream_end=40 * DAY)
        assert wrapper.log == [
            ("eval", 0),
            ("train", 0, 0),
            ("train", 0, 1),
            ("train", 0, 2),
        ]

    def test_eval_precedes_train_at_same_timestamp(self):
        # Oracle-style: training scheduled exactly at click time
        v = RecordingVariant(((0.0, 0.0),))
        e = make_example([])
        run(v, stream_of([e]), stream_end=1 * DAY)
        assert v.log == [("eval", 0), ("train", 0, 0)]

    def test_interleaving_two_examples(self):
        # two clicks 1 minute apart, 6h training delay:
        # EVAL1, EVAL2, TRAIN1, TRAIN2
        v = RecordingVariant(((0.0, 6 * 3600.0),))
        base = make_example([])
        ex = stream_of([shifted(base, 0.0), shifted(base, 60.0)])
        run(v, ex, stream_end=1 * DAY)
        assert v.log == [
            ("eval", 0), ("eval", 1), ("train", 0, 0), ("train", 1, 0)
        ]

    def test_train_tiebreak_lower_sub_model_first(self):
        v = RecordingVariant(((0.0, 100.0), (100.0, 100.0)))
        e = make_example([])
        run(v, stream_of([e]), stream_end=1 * DAY)
        assert v.log == [("eval", 0), ("train", 0, 0), ("train", 0, 1)]

    def test_out_of_order_stream_rejected(self):
        v = RecordingVariant(())
        base = make_example([])
        ex = stream_of([shifted(base, 100.0), shifted(base, 0.0)])
        with pytest.raises(ValueError):
            run(v, ex)


def reference_run(variant, stream_examples, slices=None, stream_end=None):
    """The timeline `run` streams, built whole from `training_schedule`:
    every EVAL and TRAIN of the stream goes into one heap before the first
    event is dispatched."""
    EVAL, TRAIN = 0, 1
    slices = default_slices() if slices is None else slices
    if stream_end is None:
        stream_end = stream_examples[-1].click_time
    result = RunResult(slices={name: MetricsAccumulator() for name in slices})
    days = {}
    events = []
    for seq, e in enumerate(stream_examples):
        events.append((e.click_time, EVAL, 0, seq, e))
        for t, i in variant.training_schedule(e):
            if t > stream_end:
                result.dropped_train_events += 1
            else:
                events.append((t, TRAIN, i, seq, e))
    heapq.heapify(events)
    while events:
        t, kind, i, _, e = heapq.heappop(events)
        if kind == EVAL:
            rate, label = variant.serve(e), mature_label(e)
            nll = poisson_nll(max(rate, 1e-12), label)
            for name, matches in slices.items():
                if matches(e):
                    result.slices[name].record(nll, rate, label)
            day = int(e.click_time // DAY)
            days.setdefault(day, MetricsAccumulator()).record(nll, rate, label)
            result.n_examples += 1
        else:
            variant.train_on(e, i, now=t)
    result.timeseries, result.day_sums = daily_rows(days)
    result.negative_label_clamps = variant.negative_label_clamps
    return result


class DispatchLog:
    """Wraps a real variant and logs each dispatched (time, kind, index,
    example_id)."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.windows = inner.windows
        self.log = []

    def serve(self, example):
        self.log.append((example.click_time, "EVAL", 0, example.example_id))
        return self.inner.serve(example)

    def training_schedule(self, example):
        return self.inner.training_schedule(example)

    def train_on(self, example, i, now):
        self.log.append((now, "TRAIN", i, example.example_id))
        return self.inner.train_on(example, i, now=now)

    @property
    def negative_label_clamps(self):
        return self.inner.negative_label_clamps


def coarse_stream():
    """A generated stream with click times floored to 6 h, so many clicks
    share a time, M1's 6 h TRAINs land exactly on later clicks, and the
    stream ends before most 30-day TRAINs are due."""
    stream = generate(StreamConfig(total_clicks=400, campaign_count=4,
                                   duration=40 * DAY, retraction_prob=0.1,
                                   rng_seed=5))
    grid = 6 * 3600.0
    coarse = []
    for e in stream.examples:
        t = math.floor(e.click_time / grid) * grid
        coarse.append(replace(e, click_time=t,
                              campaign_start_time=min(e.campaign_start_time, t)))
    coarse.sort(key=lambda e: e.click_time)
    return [replace(e, example_id=k) for k, e in enumerate(coarse)], \
        default_slices(stream.ground_truth.high_delay)


@st.composite
def timelines(draw):
    """(window ends, click times, stream end or None) on a coarse integer
    grid, so that ends tie across indices, TRAINs land on later clicks'
    times and clicks share a time; an end may outlast the stream and the
    stream end may fall before the last click."""
    ends = draw(st.lists(st.integers(0, 12).map(float), max_size=4))
    gaps = draw(st.lists(st.integers(0, 3), min_size=1, max_size=12))
    times = [float(sum(gaps[:k + 1])) for k in range(len(gaps))]
    stream_end = draw(st.none() | st.integers(0, int(times[-1]) + 12).map(float))
    return ends, times, stream_end


class TestStreamedTimeline:
    @pytest.mark.parametrize("name", STANDARD_NAMES)
    def test_matches_whole_timeline_reference(self, name):
        stream, slices = coarse_stream()
        times = [e.click_time for e in stream]
        assert len(set(times)) < len(times) // 2
        rc = replace(RC, categorical_fields=("campaign", "segment", "context"))
        spec = standard_specs(M, rc, boundaries=BOUNDARIES)[name]
        got, want = DispatchLog(build_variant(spec)), DispatchLog(build_variant(spec))
        result = run(got, stream, slices)
        expected = reference_run(want, stream, slices)
        assert got.log == want.log
        assert len(got.log) > len(stream)
        assert result.dropped_train_events == expected.dropped_train_events
        assert (json.dumps(compare({name: result}), sort_keys=True)
                == json.dumps(compare({name: expected}), sort_keys=True))
        # every window but Oracle's outlasts the stream's last click
        assert (result.dropped_train_events > 0) == (name != "Oracle")
        if name in ("M1", "Oracle"):
            # some TRAIN shares its time with a later click's EVAL
            evals = {t for t, kind, _, _ in got.log if kind == "EVAL"}
            assert any(t in evals and kind == "TRAIN"
                       for t, kind, _, _ in got.log)

    @given(timelines())
    @settings(max_examples=300, deadline=None)
    def test_cursors_match_whole_timeline_reference(self, timeline):
        ends, times, stream_end = timeline
        base = make_example([0.5])
        stream = stream_of([shifted(base, t) for t in times])
        windows = tuple((0.0, hi) for hi in ends)
        got = DispatchLog(RecordingVariant(windows, rate=0.5))
        want = DispatchLog(RecordingVariant(windows, rate=0.5))
        result = run(got, stream, stream_end=stream_end)
        expected = reference_run(want, stream, stream_end=stream_end)
        assert got.log == want.log
        trains = sum(kind == "TRAIN" for _, kind, _, _ in got.log)
        assert (result.dropped_train_events == expected.dropped_train_events
                == len(stream) * len(ends) - trains)
        assert result.n_examples == expected.n_examples == len(stream)
        assert compare({"v": result}) == compare({"v": expected})

    @pytest.mark.parametrize("end", [-1.0, math.nan, math.inf],
                             ids=["before-click", "nan", "inf"])
    def test_rejects_bad_schedule(self, end):
        base = make_example([])
        ex = stream_of([shifted(base, 0.0), shifted(base, 10.0)])
        v = RecordingVariant(((0.0, 5.0), (5.0, end)))
        with pytest.raises(ValueError, match="window 1 ends at"):
            run(v, ex, stream_end=1 * DAY)
        assert v.log == []


class TestDropping:
    def test_immature_trailing_train_events_dropped(self):
        v = RecordingVariant(((0.0, M),))
        base = make_example([])
        ex = stream_of([shifted(base, 0.0), shifted(base, 5 * DAY)])
        result = run(v, ex, stream_end=3 * DAY)
        assert result.dropped_train_events == 2
        assert all(entry[0] == "eval" for entry in v.log)

    def test_stream_end_defaults_to_last_click(self):
        v = RecordingVariant(((0.0, 1.0),))
        base = make_example([])
        ex = stream_of([shifted(base, 0.0), shifted(base, 10.0)])
        result = run(v, ex)
        # first example's train at t=1 <= 10 survives; second at t=11 drops
        assert result.dropped_train_events == 1


class TestMetricsAndSlices:
    def test_slice_membership(self):
        base = make_example([0.5 * DAY])
        young = shifted(base, 0.0)
        old = copy.copy(base)
        old.click_time = 20 * DAY
        old.campaign_start_time = 0.0
        old.campaign_id = 7
        ex = stream_of([young, old])
        v = RecordingVariant(())
        slices = default_slices(high_delay_campaigns={7})
        result = run(v, ex, slices=slices)
        assert result.slices["ALL"].example_count == 2
        assert result.slices["NEW_CAMPAIGN"].example_count == 1
        assert result.slices["HIGH_DELAY"].example_count == 1

    def test_evaluate_then_train_prediction_unaffected_by_own_training(self):
        # example 1's serving prediction must be bit-identical whether or
        # not example 1's own training events exist (they come later on the
        # timeline); example 0's training still happens in both runs
        spec = standard_specs(M, RC, boundaries=BOUNDARIES)["Proposed"]
        e0 = shifted(make_example([0.2 * DAY, 3 * DAY]), 0.0)
        e1 = shifted(make_example([0.5 * DAY]), 10 * DAY)
        stream = stream_of([e0, e1])

        served = []
        for model in (build_variant(spec),
                      _skip_training_for(build_variant(spec), example_id=1)):
            run(_capture_serve(model, example_id=1, into=served), stream,
                stream_end=60 * DAY)
        assert len(served) == 2
        assert served[0] == served[1]

    def test_determinism_byte_identical_reports(self):
        spec = standard_specs(M, RC, boundaries=BOUNDARIES)["Proposed"]
        base = make_example([0.2 * DAY])
        stream = stream_of([shifted(base, float(i) * 3600) for i in range(50)])
        reports = []
        for _ in range(2):
            result = run(build_variant(spec), stream, stream_end=60 * DAY)
            reports.append(
                json.dumps(compare({"Proposed": result}), sort_keys=True)
            )
        assert reports[0] == reports[1]

    def test_timeseries_days(self):
        v = RecordingVariant((), rate=2.0)
        base = make_example([0.5 * DAY])
        stream = stream_of([shifted(base, 0.0), shifted(base, 3 * DAY)])
        result = run(v, stream)
        ts = result.timeseries
        assert [row["day"] for row in ts] == [0, 3]
        assert ts[-1]["cum_bias"] == pytest.approx(4.0 / 2.0)


class TestCompare:
    def _result(self, pll_values, labels=None):
        acc = MetricsAccumulator()
        labels = labels or [1.0] * len(pll_values)
        for rate, label in zip(pll_values, labels):
            acc.record(poisson_nll(rate, label), rate, label)
        return RunResult(slices={"ALL": acc})

    def test_m3_relative_is_zero(self):
        results = {"M3": self._result([1.5, 0.5])}
        report = compare(results)
        assert report["variants"]["M3"]["slices"]["ALL"]["pll_vs_M3_pct"] == 0.0

    def test_hand_set_improvement_ten_percent(self):
        # construct accumulators with pll exactly 1.0 vs 0.9
        m3 = RunResult({"ALL": MetricsAccumulator(
            sum_nll=1.0, sum_pred=1.0, sum_label=1.0, example_count=1)})
        v = RunResult({"ALL": MetricsAccumulator(
            sum_nll=0.9, sum_pred=1.0, sum_label=1.0, example_count=1)})
        report = compare({"M3": m3, "V": v})
        assert report["variants"]["V"]["slices"]["ALL"]["pll_vs_M3_pct"] == (
            pytest.approx(10.0)
        )

    def test_timeseries_without_all_slice(self):
        v = RecordingVariant((), rate=2.0)
        base = make_example([0.5 * DAY])
        stream = stream_of([shifted(base, 0.0), shifted(base, 3 * DAY)])
        result = run(v, stream, slices={"NONE": lambda e: False})
        ts = compare({"V": result})["variants"]["V"]["timeseries"]
        assert [(row["day"], row["n"]) for row in ts] == [(0, 1), (3, 1)]
        assert ts[-1]["cum_bias"] == 4.0 / 2.0

    def test_missing_m3_omits_relative_columns(self):
        report = compare({"V": self._result([1.0])})
        entry = report["variants"]["V"]["slices"]["ALL"]
        assert "pll_vs_M3_pct" not in entry
        assert entry["pll"] is not None

    def test_oracle_flagged_impossible(self):
        report = compare({"Oracle": self._result([1.0])})
        assert "impossible in practice" in report["variants"]["Oracle"]["note"]

    def test_csv_rows_flat_schema(self):
        report = compare({"M3": self._result([1.0])})
        rows = report_csv_rows(report)
        assert rows[0] == ("variant", "slice", "metric", "value")
        assert ("M3", "ALL", "pll", 1.0) in rows


def _skip_training_for(variant, example_id):
    inner = variant.train_on
    variant.train_on = lambda e, i, now: (
        0.0 if e.example_id == example_id else inner(e, i, now=now)
    )
    return variant


def _capture_serve(variant, example_id, into):
    """Wrap `variant.serve` to append its prediction for one example."""
    inner = variant.serve

    def serve(e):
        rate = inner(e)
        if e.example_id == example_id:
            into.append(rate)
        return rate

    variant.serve = serve
    return variant
