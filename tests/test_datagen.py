import gc
import hashlib
import json
import math
import statistics
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from delayfeed.core import DAY, ContractViolation, mature_label, observed_prefix
from delayfeed.datagen import (
    CampaignProfile,
    DelayMixture,
    StreamConfig,
    campaign_delay_quantiles,
    choice_cdf,
    exact_choice,
    exact_uniform,
    generate,
    make_population,
    posterior_expected_tail,
    write_sidecar,
    write_stream,
)

M = 30 * DAY


def pure_exponential(mean):
    return DelayMixture(
        median=mean * math.log(2),
        weibull_shape=1.0,
        lognorm_sigma=1.0,
        weights=(1.0, 0.0, 0.0),
    )


def single_campaign(alpha=2.0, beta=1.0, delay_mean=2 * DAY, **kw):
    return CampaignProfile(
        campaign_id=0,
        start_time=0.0,
        gamma_shape=alpha,
        gamma_rate=beta,
        delay=pure_exponential(delay_mean),
        attribution_window=M,
        **kw,
    )


class TestDelayMixture:
    def test_exponential_cdf_value(self):
        mix = pure_exponential(1 * DAY)
        assert mix.cdf(1 * DAY) == pytest.approx(1 - math.exp(-1))

    def test_cdf_limits(self):
        mix = pure_exponential(1 * DAY)
        assert mix.cdf(0.0) == 0.0
        assert mix.cdf(1e12) == pytest.approx(1.0)

    def test_true_delay_cdf_is_untruncated(self):
        camp = single_campaign(delay_mean=1 * DAY)
        assert camp.delay.cdf(1 * DAY) == pytest.approx(1 - math.exp(-1))

    def test_sample_truncated(self):
        mix = pure_exponential(10 * DAY)
        rng = np.random.default_rng(0)
        draws = mix.sample(rng, 5000, M)
        assert np.all(draws >= 0)
        assert np.all(draws < M)

    @pytest.mark.parametrize("max_delay", [0.0, -1.0, math.nan, math.inf])
    def test_sample_rejects_max_delay_not_finite_and_positive(self, max_delay):
        # no draw falls below a max_delay <= 0, so rejection would never end
        mix = pure_exponential(1 * DAY)
        with pytest.raises(ValueError):
            mix.sample(np.random.default_rng(0), 5, max_delay)

    def test_median_matches_target(self):
        # each component alone has cdf 0.5 at the median, which checks the
        # exponential mean, Weibull scale and lognormal mu derived from it
        one_hot = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        for seed, count in ((1, 10), (5, 1000)):
            rng = np.random.default_rng(seed)
            pop = make_population(
                StreamConfig(total_clicks=10, campaign_count=count), rng
            )
            for camp in pop:
                mix = camp.delay
                assert mix.cdf(mix.median) == pytest.approx(0.5, abs=1e-12)
                for weights in one_hot:
                    alone = replace(mix, weights=weights)
                    assert alone.cdf(mix.median) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            DelayMixture(1.0, 1.0, 1.0, weights=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            DelayMixture(1.0, 1.0, 1.0, weights=(math.nan, 0.5, 0.5))
        for median in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                DelayMixture(median, 1.0, 1.0, weights=(1.0, 0.0, 0.0))


class TestExactDraws:
    """The helpers must draw what the `Generator` methods they replace draw,
    and leave the generator where those methods leave it, or every stream
    changes; a numpy upgrade that changes either algorithm fails here."""

    @pytest.mark.parametrize("weights", [
        (1.0, 0.0, 0.0), (0.0, 0.5, 0.5), (0.2, 0.3, 0.5), (0.0, 0.0, 1.0),
        tuple([1 / 6] * 6), (0.05, 0.0, 0.25, 0.0, 0.6, 0.1),
    ])
    @pytest.mark.parametrize("n", [0, 1, 1000])
    def test_choice_matches_generator_choice(self, weights, n):
        ours, numpys = np.random.default_rng(3), np.random.default_rng(3)
        got = exact_choice(ours, choice_cdf(weights), n)
        want = numpys.choice(len(weights), n, p=weights)
        assert got.dtype == want.dtype and got.shape == (n,)
        assert np.array_equal(got, want)
        assert ours.random() == numpys.random()

    @pytest.mark.parametrize("lo,hi", [
        (0.8, 1.8), (0.5, 1.25), (0.8, 2.0), (2.0, 2.0), (0.99, 1.01),
        (1.0, 1.0), (math.log(2 * 3600.0), math.log(25 * DAY)),
        (math.log(0.05), math.log(3.0)), (0.1 * 90 * DAY, 0.6 * 90 * DAY),
    ])
    def test_uniform_matches_generator_uniform(self, lo, hi):
        ours, numpys = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(200):
            got, want = exact_uniform(ours, lo, hi), numpys.uniform(lo, hi)
            assert type(got) is type(want) and got == want
        assert ours.random() == numpys.random()


class TestPopulation:
    def test_median_heterogeneity_two_orders(self):
        rng = np.random.default_rng(2)
        pop = make_population(StreamConfig(total_clicks=10, campaign_count=50), rng)
        medians = [c.delay.median for c in pop]
        assert max(medians) / min(medians) >= 100

    def test_high_delay_tags_exactly_ten_percent(self):
        rng = np.random.default_rng(3)
        pop = make_population(StreamConfig(total_clicks=10, campaign_count=50), rng)
        assert len(campaign_delay_quantiles(pop)) == 5

    def test_high_delay_tag_is_top_medians(self):
        rng = np.random.default_rng(4)
        pop = make_population(StreamConfig(total_clicks=10, campaign_count=20), rng)
        tags = campaign_delay_quantiles(pop)
        medians = {c.campaign_id: c.delay.median for c in pop}
        cutoff = min(medians[cid] for cid in tags)
        for cid, med in medians.items():
            if med > cutoff:
                assert cid in tags


class TestCampaignProfile:
    @pytest.mark.parametrize("weights", [
        (), (0.5, 0.5), tuple([1 / 7] * 7), (0.5, 0.5, 0.5, 0.0, 0.0, 0.0),
        (-0.1, 0.3, 0.2, 0.2, 0.2, 0.2), (math.nan, 0.2, 0.2, 0.2, 0.2, 0.2),
        (math.inf, 0.2, 0.2, 0.2, 0.2, 0.2),
    ], ids=["empty", "two", "seven", "sum-1.5", "negative", "nan", "inf"])
    def test_rejects_bad_segment_weights(self, weights):
        with pytest.raises(ValueError, match="campaign 0 segments"):
            single_campaign(segment_weights=weights)

    @pytest.mark.parametrize("name,value", [
        ("start_time", math.nan), ("start_time", -1.0), ("start_time", math.inf),
        ("attribution_window", -5.0), ("attribution_window", 0.0),
        ("attribution_window", math.nan), ("attribution_window", math.inf),
        ("drift_per_day", math.inf), ("drift_per_day", 0.0),
        ("drift_per_day", -1.0), ("drift_per_day", math.nan),
        ("value_lognorm", (0.0, -1.0)), ("value_lognorm", (0.0, math.nan)),
        ("value_lognorm", (0.0, math.inf)), ("value_lognorm", (math.nan, 0.5)),
        ("value_lognorm", (math.inf, 0.5)), ("value_lognorm", (0.0,)),
        ("value_lognorm", (0.0, 0.5, 1.0)),
    ])
    def test_rejects_bad_field(self, name, value):
        with pytest.raises(ValueError, match=f"^campaign 0: {name} must be "):
            replace(single_campaign(), **{name: value})

    def test_accepts_unit_spread_values_and_keeps_a_tuple(self):
        camp = single_campaign(value_lognorm=[0.0, 0.0])
        assert camp.value_lognorm == (0.0, 0.0)

    def test_default_segment_weights_are_uniform(self):
        assert single_campaign().segment_weights == tuple([1 / 6] * 6)


class TestGenerate:
    @pytest.mark.parametrize("field,ok,bad", [
        ("retraction_prob", (0.0, 1.0), (-0.1, 1.5, math.nan)),
        ("drift_magnitude", (0.0, 0.999), (-0.01, 1.0, math.inf, math.nan)),
    ])
    def test_config_range_is_checked(self, field, ok, bad):
        for value in ok:
            assert getattr(StreamConfig(**{field: value}), field) == value
        for value in bad:
            with pytest.raises(ValueError, match=f"^{field} must be in "):
                StreamConfig(**{field: value})

    def test_same_seed_identical(self, tmp_path):
        cfg = StreamConfig(total_clicks=500, campaign_count=5, rng_seed=42)
        a, b = generate(cfg), generate(cfg)
        pa, pb = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        write_stream(pa, a)
        write_stream(pb, b)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = generate(StreamConfig(total_clicks=500, campaign_count=5, rng_seed=1))
        b = generate(StreamConfig(total_clicks=500, campaign_count=5, rng_seed=2))
        pa, pb = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        write_stream(pa, a)
        write_stream(pb, b)
        assert pa.read_bytes() != pb.read_bytes()

    def test_population_mean_matches_gamma_prior(self):
        # single campaign, alpha=2 beta=1, no drift: mean mature label -> 2.0
        cfg = StreamConfig(
            total_clicks=50_000,
            campaign_count=1,
            cold_start_fraction=0.0,
            drift_magnitude=0.0,
            gamma_shape_range=(2.0, 2.0),
            mean_rate_range=(2.0, 2.0),  # alpha/beta = 2 -> beta = 1
            rng_seed=5,
        )
        stream = generate(cfg)
        camp = stream.ground_truth.campaigns[0]
        assert camp.gamma_shape == pytest.approx(2.0)
        assert camp.gamma_rate == pytest.approx(1.0)
        mean = statistics.fmean(mature_label(e) for e in stream.examples)
        assert mean == pytest.approx(2.0, abs=0.05)

    def test_all_delays_inside_window(self):
        stream = generate(StreamConfig(total_clicks=2000, campaign_count=5, rng_seed=6))
        for e in stream.examples:
            for ev in e.events:
                assert 0 <= ev.delay < e.attribution_window

    def test_sorted_with_increasing_ids(self):
        stream = generate(StreamConfig(total_clicks=2000, campaign_count=5, rng_seed=7))
        times = [e.click_time for e in stream.examples]
        ids = [e.example_id for e in stream.examples]
        assert times == sorted(times)
        assert ids == list(range(len(ids)))

    def test_cold_start_campaigns_click_after_start(self):
        cfg = StreamConfig(
            total_clicks=5000, campaign_count=10, cold_start_fraction=0.5, rng_seed=8
        )
        stream = generate(cfg)
        late = [
            c for c in stream.ground_truth.campaigns.values() if c.start_time > 0
        ]
        assert late, "expected some mid-stream campaigns"
        for e in stream.examples:
            camp = stream.ground_truth.campaigns[e.campaign_id]
            assert e.click_time >= camp.start_time

    def test_retractions_present_and_cancel(self):
        cfg = StreamConfig(
            total_clicks=3000, campaign_count=3, retraction_prob=0.5, rng_seed=9
        )
        stream = generate(cfg)
        negs = sum(
            1 for e in stream.examples for ev in e.events if ev.sign == -1
        )
        assert negs > 0
        for e in stream.examples:
            assert mature_label(e) >= -1e-9

    def test_value_labels(self):
        cfg = StreamConfig(
            total_clicks=2000, campaign_count=3, value_labels=True, rng_seed=10
        )
        stream = generate(cfg)
        values = [
            ev.value for e in stream.examples for ev in e.events
        ]
        assert values and any(abs(v - 1.0) > 1e-9 for v in values)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            StreamConfig(total_clicks=0)
        with pytest.raises(ValueError):
            StreamConfig(campaign_count=0)

    @pytest.mark.parametrize("value", [0.0, -DAY, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["duration", "attribution_window"])
    def test_rejects_time_span_not_finite_and_positive(self, name, value):
        # a window <= 0 made generate() loop forever; a NaN duration failed
        # later with an unrelated OverflowError
        with pytest.raises(ValueError):
            StreamConfig(total_clicks=10, campaign_count=2, **{name: value})


class TestPosteriorOracle:
    def test_closed_form_arithmetic(self):
        # k=0, alpha=1, beta=1, p=0.5 -> 0.5 * 1/1.5 = 1/3
        camp = single_campaign(alpha=1.0, beta=1.0)
        # pick the horizon where the truncated CDF is exactly 0.5
        target = camp.delay.median  # cdf = 0.5 untruncated
        p = camp.truncated_cdf(target)
        e = _example_with_delays([], camp)
        got = posterior_expected_tail(e, camp, target)
        assert got == pytest.approx((1 - p) * 1.0 / (1.0 + p))

    def test_zero_horizon_gives_prior_mean(self):
        camp = single_campaign(alpha=2.0, beta=4.0)
        e = _example_with_delays([], camp)
        assert posterior_expected_tail(e, camp, 0.0) == pytest.approx(2.0 / 4.0)

    def test_horizon_out_of_range(self):
        camp = single_campaign()
        e = _example_with_delays([], camp)
        with pytest.raises(ContractViolation):
            posterior_expected_tail(e, camp, M)
        with pytest.raises(ContractViolation):
            posterior_expected_tail(e, camp, -1.0)

    def test_requires_no_drift_no_retractions(self):
        camp = single_campaign(drift_per_day=1.01)
        e = _example_with_delays([], camp)
        with pytest.raises(ContractViolation):
            posterior_expected_tail(e, camp, 1 * DAY)

    def test_monte_carlo_conditional_tail_mean(self):
        # brute-force oracle: simulate, group by head count, compare means
        cfg = StreamConfig(
            total_clicks=50_000,
            campaign_count=1,
            cold_start_fraction=0.0,
            drift_magnitude=0.0,
            gamma_shape_range=(1.2, 1.2),
            mean_rate_range=(1.0, 1.0),
            rng_seed=11,
        )
        stream = generate(cfg)
        camp = stream.ground_truth.campaigns[0]
        horizon = camp.delay.median
        tails = {}
        for e in stream.examples:
            k = int(observed_prefix(e, horizon))
            tails.setdefault(k, []).append(mature_label(e) - k)
        for k in (0, 1, 2):
            expected = posterior_expected_tail(
                _example_with_delays([0.0] * k, camp), camp, horizon
            )
            got = statistics.fmean(tails[k])
            assert got == pytest.approx(expected, rel=0.05)


class TestCorrelationThroughTheta:
    def test_head_tail_correlation_matches_gamma_poisson(self):
        cfg = StreamConfig(
            total_clicks=100_000,
            campaign_count=1,
            cold_start_fraction=0.0,
            drift_magnitude=0.0,
            gamma_shape_range=(0.8, 0.8),
            mean_rate_range=(1.0, 1.0),
            rng_seed=12,
        )
        stream = generate(cfg)
        camp = stream.ground_truth.campaigns[0]
        horizon = camp.delay.median
        p = camp.truncated_cdf(horizon)
        q = 1 - p
        heads = np.array([observed_prefix(e, horizon) for e in stream.examples])
        totals = np.array([mature_label(e) for e in stream.examples])
        tails = totals - heads

        # thinning consistency: E[head]/E[total] -> p
        assert heads.mean() / totals.mean() == pytest.approx(p, rel=0.01)

        # analytic corr of two thinned Gamma-Poisson counts:
        # cov = p*q*Var(theta), var_head = p*mean + p^2*Var(theta)
        alpha, beta = camp.gamma_shape, camp.gamma_rate
        mean_t, var_t = alpha / beta, alpha / beta**2
        cov = p * q * var_t
        corr = cov / math.sqrt(
            (p * mean_t + p**2 * var_t) * (q * mean_t + q**2 * var_t)
        )
        sample_corr = float(np.corrcoef(heads, tails)[0, 1])
        assert sample_corr > 0
        assert sample_corr == pytest.approx(corr, rel=0.10)


class TestRecordMemory:
    def test_retained_bytes_per_click(self):
        # a first stream warms numpy's and the interpreter's own caches,
        # which would otherwise count against the measured one
        generate(StreamConfig(total_clicks=2000, rng_seed=1))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stream = generate(StreamConfig(total_clicks=2000, rng_seed=0))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(stream.examples) == 2000
        assert retained / 2000 <= 512

    def test_examples_share_serving_features(self):
        stream = generate(StreamConfig(total_clicks=2000, campaign_count=5,
                                       rng_seed=3))
        by_value = {}
        for e in stream.examples:
            by_value.setdefault(e.serving_features, set()).add(
                id(e.serving_features))
        assert len(by_value) < len(stream.examples)
        assert all(len(ids) == 1 for ids in by_value.values())
        e = stream.examples[0]
        assert not hasattr(e, "__dict__")
        assert all(type(ex.events) is tuple for ex in stream.examples)
        assert any(ex.events == () for ex in stream.examples)

    def test_unit_valued_events_share_one_value(self):
        stream = generate(StreamConfig(total_clicks=2000, campaign_count=5,
                                       retraction_prob=0.2, rng_seed=3))
        events = [ev for e in stream.examples for ev in e.events]
        assert any(ev.sign == -1 for ev in events)
        assert {ev.value for ev in events} == {1.0}
        assert len({id(ev.value) for ev in events}) == 1

    def test_thetas_are_an_array_by_example_id(self):
        stream = generate(StreamConfig(total_clicks=300, campaign_count=4,
                                       rng_seed=3))
        thetas = stream.ground_truth.thetas
        assert isinstance(thetas, np.ndarray) and thetas.dtype == np.float64
        assert thetas.shape == (len(stream.examples),)
        assert np.all(thetas > 0)


class TestFileFormats:
    def test_stream_roundtrip(self, tmp_path):
        # each line after the header holds every field of its click
        stream = generate(StreamConfig(total_clicks=300, campaign_count=4,
                                       retraction_prob=0.2, value_labels=True,
                                       rng_seed=13))
        path = tmp_path / "stream.ndjson"
        write_stream(path, stream)
        header, *lines = path.read_text().splitlines()
        assert json.loads(header) == {"schema_version": "v1"}
        assert len(lines) == len(stream.examples)
        for e, line in zip(stream.examples, lines):
            assert json.loads(line) == {
                "example_id": e.example_id,
                "click_time": e.click_time,
                "campaign_id": e.campaign_id,
                "campaign_start_time": e.campaign_start_time,
                "features": dict(e.serving_features),
                "attribution_window": e.attribution_window,
                "events": [{"delay": ev.delay, "value": ev.value,
                            "sign": ev.sign} for ev in e.events],
            }
        assert any(ev.sign == -1 for e in stream.examples for ev in e.events)

    def test_sidecar_roundtrip(self, tmp_path):
        # the header holds every campaign and the HIGH_DELAY tags, then one
        # line per click holds its theta
        stream = generate(StreamConfig(total_clicks=300, campaign_count=4,
                                       value_labels=True, rng_seed=15))
        truth = stream.ground_truth
        path = tmp_path / "truth.ndjson"
        write_sidecar(path, stream)
        header, *lines = (json.loads(line)
                          for line in path.read_text().splitlines())
        assert header.keys() == {"schema_version", "campaigns", "high_delay"}
        assert header["schema_version"] == "v2"
        assert header["high_delay"] == sorted(truth.high_delay)
        campaigns = header["campaigns"]
        assert [c["campaign_id"] for c in campaigns] == list(truth.campaigns)
        for c, camp in zip(campaigns, truth.campaigns.values()):
            assert c.pop("delay") == {
                "median": camp.delay.median,
                "weibull_shape": camp.delay.weibull_shape,
                "lognorm_sigma": camp.delay.lognorm_sigma,
                "weights": list(camp.delay.weights),
            }
            assert c == {
                "campaign_id": camp.campaign_id,
                "start_time": camp.start_time,
                "gamma_shape": camp.gamma_shape,
                "gamma_rate": camp.gamma_rate,
                "attribution_window": camp.attribution_window,
                "drift_per_day": camp.drift_per_day,
                "segment_weights": list(camp.segment_weights),
                "retraction_prob": camp.retraction_prob,
                "value_lognorm": list(camp.value_lognorm),
            }
        assert lines == [{"example_id": i, "theta": theta}
                         for i, theta in enumerate(truth.thetas.tolist())]

    @pytest.mark.parametrize("config,digests", [
        (dict(total_clicks=300, campaign_count=4, retraction_prob=0.2),
         ("fe56fe528d868239", "44c02913d28f9481")),
        (dict(total_clicks=300, campaign_count=4, retraction_prob=0.2,
              value_labels=True),
         ("cd6515e9762f6d1a", "8647f4ac2d86fe71")),
        # most of the 1,000 campaigns draw 0 or 1 clicks
        (dict(total_clicks=400, campaign_count=1000, retraction_prob=0.2,
              value_labels=True),
         ("e1b6404005095e62", "004d1ee96486e228")),
        (dict(total_clicks=2000), ("2bcf2a9c4bde196d", "df4140e8ad480b8d")),
    ], ids=["unit-values", "valued", "wide", "default"])
    def test_files_keep_their_bytes(self, tmp_path, config, digests):
        # sha256 prefixes of both files; the first two as first written,
        # with the thetas held in a dict and every event value a float of
        # its own, the last two as written before the exact draw helpers
        stream = generate(StreamConfig(rng_seed=15, **config))
        write_stream(tmp_path / "stream.ndjson", stream)
        write_sidecar(tmp_path / "truth.ndjson", stream)
        got = tuple(
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
            for name in ("stream.ndjson", "truth.ndjson")
        )
        assert got == digests

def _example_with_delays(delays, camp):
    from delayfeed.core import ClickExample, ConversionEvent

    return ClickExample(
        example_id=0,
        click_time=camp.start_time,
        campaign_id=camp.campaign_id,
        campaign_start_time=camp.start_time,
        serving_features=[("campaign", str(camp.campaign_id))],
        attribution_window=camp.attribution_window,
        events=[ConversionEvent(d, 1.0, 1) for d in sorted(delays)],
    )
