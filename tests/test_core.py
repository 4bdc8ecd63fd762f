import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delayfeed.core import (
    DAY,
    ClickExample,
    ContractViolation,
    ConversionEvent,
    DelayBucketing,
    MetricsAccumulator,
    mature_label,
    observed_prefix,
    poisson_nll,
    slice_label,
    split_signed,
)

M = 30 * DAY


def make_example(delays, signs=None, values=None, m=M):
    signs = signs or [1] * len(delays)
    values = values or [1.0] * len(delays)
    events = sorted(
        (ConversionEvent(d, v, s) for d, v, s in zip(delays, values, signs)),
        key=lambda e: e.delay,
    )
    return ClickExample(
        example_id=0,
        click_time=0.0,
        campaign_id=0,
        campaign_start_time=0.0,
        serving_features=[("campaign", "0")],
        attribution_window=m,
        events=events,
    )


BUCKETING = DelayBucketing(boundaries=(1 * DAY, 7 * DAY), attribution_window=M)


def thermometer(e, b=BUCKETING):
    """Overlapping tail labels: element i covers [d_i, M)."""
    return [slice_label(e, lo, b.attribution_window) for lo, _ in b.windows]


def buckets(e, b=BUCKETING):
    """Disjoint window labels: element i covers [d_i, d_{i+1})."""
    return [slice_label(e, lo, hi) for lo, hi in b.windows]


class TestMatureLabel:
    def test_empty(self):
        assert mature_label(make_example([])) == 0.0

    def test_direct_count(self):
        e = make_example([0.5 * DAY, 3 * DAY, 20 * DAY])
        assert mature_label(e) == 3.0

    def test_retraction_cancels(self):
        e = make_example([1 * DAY, 5 * DAY], signs=[1, -1])
        assert mature_label(e) == 0.0


class TestObservedPrefix:
    def test_one_day(self):
        e = make_example([0.5 * DAY, 3 * DAY, 20 * DAY])
        assert observed_prefix(e, 1 * DAY) == 1.0

    def test_zero_horizon(self):
        e = make_example([0.5 * DAY])
        assert observed_prefix(e, 0.0) == 0.0

    def test_full_horizon_equals_mature(self):
        e = make_example([0.5 * DAY, 3 * DAY, 20 * DAY])
        assert observed_prefix(e, M) == mature_label(e)

    def test_out_of_range(self):
        e = make_example([])
        with pytest.raises(ContractViolation):
            observed_prefix(e, M + 1)
        with pytest.raises(ContractViolation):
            observed_prefix(e, -1)


class TestLabelEncodings:
    def test_thermometer_counts(self):
        e = make_example([0.5 * DAY, 3 * DAY, 20 * DAY])
        assert thermometer(e) == [3.0, 2.0, 1.0]
        assert thermometer(e)[0] == mature_label(e)

    def test_thermometer_empty(self):
        assert thermometer(make_example([])) == [0.0, 0.0, 0.0]
        assert split_signed(make_example([]), 0.0, M) == (0.0, 0.0)

    def test_boundary_left_closed(self):
        e = make_example([1 * DAY])
        assert thermometer(e) == [1.0, 1.0, 0.0]
        assert buckets(e) == [0.0, 1.0, 0.0]
        assert split_signed(e, 0.0, 1 * DAY) == (0.0, 0.0)
        assert split_signed(e, 1 * DAY, 7 * DAY) == (1.0, 0.0)

    def test_bucket_counts(self):
        e = make_example([0.5 * DAY, 3 * DAY, 20 * DAY])
        assert buckets(e) == [1.0, 1.0, 1.0]
        # the last window ends at the bucketing's M, not the example's
        long = make_example([0.5 * DAY, 3 * DAY, 20 * DAY, 35 * DAY], m=40 * DAY)
        assert buckets(long) == [1.0, 1.0, 1.0]
        assert thermometer(long) == [3.0, 2.0, 1.0]

    def test_bucket_empty(self):
        assert buckets(make_example([])) == [0.0, 0.0, 0.0]

    def test_partition_identity(self):
        e = make_example([0.2 * DAY, 1 * DAY, 2 * DAY, 8 * DAY, 29 * DAY])
        assert math.fsum(buckets(e)) == thermometer(e)[0] == mature_label(e)
        retracted = make_example([0.2 * DAY, 2 * DAY, 8 * DAY], signs=[1, -1, 1])
        pos, neg = split_signed(retracted, 0.0, M)
        assert (pos, neg) == (2.0, 1.0)
        assert pos - neg == math.fsum(buckets(retracted)) == mature_label(retracted)


@st.composite
def example_strategy(draw, allow_retractions=False):
    n = draw(st.integers(0, 8))
    delays = sorted(
        draw(st.lists(st.floats(0, M - 1, allow_nan=False), min_size=n, max_size=n))
    )
    signs = [1] * n
    if allow_retractions and n >= 2:
        # retract the first event with one at a strictly later delay
        idx = draw(st.integers(1, n - 1))
        signs[idx] = -1
    values = draw(
        st.lists(st.floats(0.01, 10, allow_nan=False), min_size=n, max_size=n)
    )
    if allow_retractions and n >= 2:
        values[idx] = values[0]
    return make_example(delays, signs=signs, values=values)


class TestStructuralInvariants:
    @given(example_strategy())
    @settings(max_examples=200, deadline=None)
    def test_thermometer_is_tail_sum_of_buckets(self, e):
        therm = thermometer(e)
        buck = buckets(e)
        for i in range(len(therm)):
            assert therm[i] == pytest.approx(sum(buck[i:]), abs=1e-9)

    @given(example_strategy())
    @settings(max_examples=200, deadline=None)
    def test_thermometer_non_increasing_all_positive(self, e):
        therm = thermometer(e)
        assert all(therm[i] >= therm[i + 1] - 1e-12 for i in range(len(therm) - 1))

    @given(example_strategy(allow_retractions=True))
    @settings(max_examples=200, deadline=None)
    def test_prefix_plus_tail_is_mature(self, e):
        therm = thermometer(e)
        for i, (lo, _) in enumerate(BUCKETING.windows):
            prefix = observed_prefix(e, lo)
            assert prefix + therm[i] == pytest.approx(mature_label(e), abs=1e-9)
            pos, neg = split_signed(e, lo, M)
            assert pos - neg == pytest.approx(therm[i], abs=1e-9)


class TestPoissonNll:
    def test_rate_one_label_zero(self):
        assert poisson_nll(1.0, 0.0) == 1.0

    def test_rate_e_label_one(self):
        assert poisson_nll(math.e, 1.0) == pytest.approx(math.e - 1)

    def test_arithmetic(self):
        assert poisson_nll(2.0, 3.0) == pytest.approx(2 - 3 * math.log(2))

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ContractViolation):
            poisson_nll(0.0, 1.0)
        with pytest.raises(ContractViolation):
            poisson_nll(-1.0, 1.0)

    def test_grad_matches_finite_difference_single_point(self):
        rate, label = 0.7, 2.0
        s = math.log(rate)
        h = 1e-6
        fd = (
            poisson_nll(math.exp(s + h), label) - poisson_nll(math.exp(s - h), label)
        ) / (2 * h)
        g = rate - label
        assert abs(fd - g) / abs(g) < 1e-6

    @given(
        st.floats(-3, 3),
        st.floats(0, 10),
    )
    @settings(max_examples=1000, deadline=None)
    def test_convex_in_lograte(self, s, label):
        # midpoint convexity over a random span
        a, b = s - 0.7, s + 0.9
        mid = 0.5 * (a + b)
        lhs = poisson_nll(math.exp(mid), label)
        rhs = 0.5 * (
            poisson_nll(math.exp(a), label) + poisson_nll(math.exp(b), label)
        )
        assert lhs <= rhs + 1e-9

    @given(st.floats(-3, 3), st.floats(0, 10))
    @example(math.log(0.7), 2.0)
    @settings(max_examples=1000, deadline=None)
    def test_grad_matches_finite_difference(self, s, label):
        # d/ds of poisson_nll(exp(s), label) is rate - label, the output
        # gradient the regressor computes as `rates - y`
        h = 1e-5
        rate = math.exp(s)
        fd = (
            poisson_nll(math.exp(s + h), label) - poisson_nll(math.exp(s - h), label)
        ) / (2 * h)
        g = rate - label
        assert abs(fd - g) <= 1e-4 * max(1.0, abs(g))


class TestDelayBucketing:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            DelayBucketing(boundaries=(7 * DAY, 1 * DAY), attribution_window=M)

    def test_rejects_boundary_at_window(self):
        with pytest.raises(ValueError):
            DelayBucketing(boundaries=(1 * DAY, M), attribution_window=M)

    @pytest.mark.parametrize("boundaries,window", [
        ((1 * DAY, 3 * DAY), math.nan),
        ((1 * DAY, 3 * DAY), math.inf),
        ((math.nan, 3 * DAY), M),
        ((1 * DAY, math.nan), M),
        ((1 * DAY, math.nan, 3 * DAY), M),
    ], ids=["window-nan", "window-inf", "first-nan", "last-nan", "middle-nan"])
    def test_rejects_values_not_finite(self, boundaries, window):
        with pytest.raises(ValueError):
            DelayBucketing(boundaries=boundaries, attribution_window=window)

    def test_rejects_too_many_sub_models(self):
        with pytest.raises(ValueError):
            DelayBucketing(
                boundaries=tuple(float(i) for i in range(1, 11)),
                attribution_window=M,
            )

    def test_windows_tile_zero_to_the_attribution_window(self):
        assert BUCKETING.windows == ((0.0, 1 * DAY), (1 * DAY, 7 * DAY),
                                     (7 * DAY, M))


class TestMetricsAccumulator:
    def test_bias_sums_match(self):
        acc = MetricsAccumulator()
        acc.record(2.0, 1.0, 0)
        acc.record(2.0, 3.0, 0)
        _, bias = acc.finalize()
        assert bias == 1.0

    def test_bias_half(self):
        acc = MetricsAccumulator()
        acc.record(1.0, 2.0, 0)
        acc.record(1.0, 2.0, 1)
        _, bias = acc.finalize()
        assert bias == 0.5

    def test_single_pll(self):
        acc = MetricsAccumulator()
        acc.record(1.0, 0.0, 0)
        pll, bias = acc.finalize()
        assert pll == 1.0
        assert bias is None  # no label mass

    def test_empty_finalize_absent(self):
        assert MetricsAccumulator().finalize() == (None, None)


class TestClickExampleInvariants:
    def test_rejects_event_outside_window(self):
        for delay in (M, M + 1, math.nan, math.inf):
            with pytest.raises(ValueError):
                make_example([delay])
        for window in (0.0, -M, math.nan, math.inf):
            with pytest.raises(ValueError):
                make_example([], m=window)
        # a NaN or infinite delay or value would count in mature_label but
        # fall in no delay window
        for delay, value in ((math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0),
                             (1.0, math.nan), (1.0, math.inf), (1.0, -1.0)):
            with pytest.raises(ValueError):
                ConversionEvent(delay, value)

    def test_rejects_campaign_start_after_click(self):
        for click_time, start in ((0.0, 10.0), (math.nan, 0.0), (math.inf, 0.0),
                                  (0.0, math.nan), (0.0, -math.inf)):
            with pytest.raises(ValueError):
                ClickExample(
                    example_id=0,
                    click_time=click_time,
                    campaign_id=0,
                    campaign_start_time=start,
                    serving_features=[],
                    attribution_window=M,
                    events=[],
                )


class TestRecordLayout:
    def test_sequences_are_tuples_and_lists_compare_equal(self):
        from_lists = make_example([0.5 * DAY, 3 * DAY])
        from_tuples = ClickExample(
            example_id=0,
            click_time=0.0,
            campaign_id=0,
            campaign_start_time=0.0,
            serving_features=(("campaign", "0"),),
            attribution_window=M,
            events=tuple(from_lists.events),
        )
        assert from_lists == from_tuples
        assert type(from_lists.serving_features) is tuple
        assert type(from_lists.events) is tuple
        assert make_example([]).events == ()

    def test_records_have_no_instance_dict(self):
        e = make_example([0.5 * DAY])
        assert not hasattr(e, "__dict__")
        assert not hasattr(e.events[0], "__dict__")
