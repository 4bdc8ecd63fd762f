"""Deterministic synthetic click-stream generator.

Each campaign draws a per-click latent intensity theta ~ Gamma(shape, rate),
event counts ~ Poisson(theta * drift(t)), and event delays i.i.d. from a
per-campaign mixture of exponential / Weibull / lognormal components
truncated to the attribution window. The Gamma mixing makes head and tail
counts positively correlated, so the observed "label so far" genuinely
carries information about the unobserved tail, and it admits a closed-form
posterior tail mean used as an analytic stand-in for an ideal sub-model.

Stream files are newline-delimited JSON (schema "v1"), with a parallel
ground-truth sidecar keyed by example_id (schema "v2": a campaign's delay
mixture is stored by its median).

A stream is a pure function of its `StreamConfig`, and tests pin its bytes.
`choice_cdf` with `exact_choice`, and `exact_uniform`, draw exactly what
`Generator.choice(k, n, p=w)` and a scalar `Generator.uniform(lo, hi)` draw,
consuming the generator alike, without those methods' per-call argument
checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .core import DAY, ClickExample, ContractViolation, ConversionEvent, \
    is_integer, observed_prefix

SCHEMA_VERSION = "v1"
SIDECAR_SCHEMA_VERSION = "v2"

# the categorical fields of a click's serving features, in their order
CLICK_FIELDS = ("campaign", "segment", "context")
SEGMENT_TOKENS = tuple(f"s{i}" for i in range(6))
CONTEXT_TOKENS = tuple(f"c{i}" for i in range(8))

_UNIT_VALUE = 1.0


def choice_cdf(weights) -> np.ndarray:
    """The normalized cumulative weights `Generator.choice` searches."""
    cdf = np.asarray(weights, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf


def exact_choice(rng: np.random.Generator, cdf: np.ndarray, n: int) -> np.ndarray:
    """`rng.choice(len(w), n, p=w)` for `cdf = choice_cdf(w)`, bit for bit:
    numpy's own algorithm without its checks of `p`."""
    return cdf.searchsorted(rng.random(n), side="right")


def exact_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """`rng.uniform(lo, hi)` for scalar bounds, bit for bit."""
    return lo + (hi - lo) * rng.random()


def _check_simplex(weights: tuple, size: int, what: str):
    if len(weights) != size or not all(
            math.isfinite(w) and w >= 0 for w in weights):
        raise ValueError(
            f"{what}: need {size} finite non-negative weights, got {weights}")
    if not abs(sum(weights) - 1.0) <= 1e-9:
        raise ValueError(f"{what}: weights must sum to 1, got {weights}")


@dataclass(frozen=True)
class DelayMixture:
    """Mixture of Exponential + Weibull(shape) + LogNormal(sigma) delay
    distributions. Every component is scaled to the same `median`, so the
    mixture's median is `median` whatever the weights."""

    median: float
    weibull_shape: float
    lognorm_sigma: float
    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        _check_simplex(self.weights, 3, "delay mixture")
        if not all(0 < p < math.inf for p in
                   (self.median, self.weibull_shape, self.lognorm_sigma)):
            raise ValueError("mixture parameters must be positive and finite")

    @property
    def exp_mean(self) -> float:
        return self.median / math.log(2)

    @property
    def weibull_scale(self) -> float:
        return self.median / (math.log(2) ** (1.0 / self.weibull_shape))

    @property
    def lognorm_mu(self) -> float:
        return math.log(self.median)

    def cdf(self, t):
        """Exact mixture CDF (untruncated)."""
        t = np.asarray(t, dtype=float)
        safe = np.maximum(t, 1e-300)
        e = 1.0 - np.exp(-safe / self.exp_mean)
        w = 1.0 - np.exp(-((safe / self.weibull_scale) ** self.weibull_shape))
        z = (np.log(safe) - self.lognorm_mu) / (self.lognorm_sigma * math.sqrt(2))
        ln = 0.5 * (1.0 + _erf(z))
        out = self.weights[0] * e + self.weights[1] * w + self.weights[2] * ln
        out = np.where(t <= 0, 0.0, out)
        return float(out) if out.ndim == 0 else out

    def sample(self, rng: np.random.Generator, n: int, max_delay: float):
        """n i.i.d. draws truncated to [0, max_delay) by rejection."""
        # below a positive max_delay every component has positive mass, so
        # the rejection loop ends
        if not 0 < max_delay < math.inf:
            raise ValueError(f"max_delay must be finite and > 0, got {max_delay}")
        cdf = choice_cdf(self.weights)
        components = (  # exponential, Weibull, lognormal: k draws each
            lambda k: rng.exponential(self.exp_mean, k),
            lambda k: self.weibull_scale * rng.weibull(self.weibull_shape, k),
            lambda k: rng.lognormal(self.lognorm_mu, self.lognorm_sigma, k),
        )
        out = np.empty(n)
        pending = np.arange(n)
        while pending.size:
            comp = exact_choice(rng, cdf, pending.size)
            draws = np.empty(pending.size)
            for kind, k in enumerate(np.bincount(comp, minlength=3).tolist()):
                if k:
                    draws[comp == kind] = components[kind](k)
            out[pending] = draws
            pending = pending[draws >= max_delay]
        return out


def _erf(z):
    return np.vectorize(math.erf)(z) if np.ndim(z) else math.erf(z)


@dataclass(frozen=True)
class CampaignProfile:
    campaign_id: int
    start_time: float
    gamma_shape: float  # alpha of the per-click intensity prior
    gamma_rate: float   # beta (rate) of the prior; mean intensity = alpha/beta
    delay: DelayMixture
    attribution_window: float
    drift_per_day: float = 1.0
    segment_weights: tuple = (1 / len(SEGMENT_TOKENS),) * len(SEGMENT_TOKENS)
    retraction_prob: float = 0.0
    value_lognorm: tuple = None  # (mu, sigma) or None for unit values

    def __post_init__(self):
        if self.gamma_shape <= 0 or self.gamma_rate <= 0:
            raise ValueError(
                f"campaign {self.campaign_id}: gamma prior parameters must be positive"
            )
        if not 0.0 <= self.retraction_prob <= 1.0:
            raise ValueError(
                f"campaign {self.campaign_id}: retraction_prob outside [0, 1]"
            )
        object.__setattr__(self, "segment_weights", tuple(self.segment_weights))
        _check_simplex(self.segment_weights, len(SEGMENT_TOKENS),
                       f"campaign {self.campaign_id} segments")
        if (vl := self.value_lognorm) is not None:
            vl = tuple(vl)
            object.__setattr__(self, "value_lognorm", vl)
        # each check is written so that a NaN fails it
        for name, ok, rule in (
            ("start_time", 0 <= self.start_time < math.inf, "finite and >= 0"),
            ("attribution_window", 0 < self.attribution_window < math.inf,
             "finite and > 0"),
            ("drift_per_day", 0 < self.drift_per_day < math.inf,
             "finite and > 0"),
            ("value_lognorm", vl is None or (
                len(vl) == 2 and math.isfinite(vl[0]) and 0 <= vl[1] < math.inf),
             "None or a finite (mu, sigma) with sigma >= 0"),
        ):
            if not ok:
                raise ValueError(f"campaign {self.campaign_id}: {name} must be "
                                 f"{rule}, got {getattr(self, name)!r}")

    def truncated_cdf(self, t: float) -> float:
        """CDF of the actual delay distribution (mixture truncated to the
        attribution window)."""
        if t <= 0:
            return 0.0
        if t >= self.attribution_window:
            return 1.0
        return self.delay.cdf(t) / self.delay.cdf(self.attribution_window)

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignProfile":
        d = dict(d)
        return cls(delay=DelayMixture(**d.pop("delay")), **d)


@dataclass(frozen=True)
class StreamConfig:
    total_clicks: int = 200_000
    campaign_count: int = 50
    cold_start_fraction: float = 0.5
    duration: float = 90 * DAY
    rng_seed: int = 0
    attribution_window: float = 30 * DAY
    retraction_prob: float = 0.0
    value_labels: bool = False
    drift_magnitude: float = 0.01  # per-day rate drift sampled in 1 +/- this
    min_median_delay: float = 2 * 3600.0
    max_median_delay: float = 25 * DAY
    gamma_shape_range: tuple = (0.8, 2.0)
    mean_rate_range: tuple = (0.05, 3.0)

    def __post_init__(self):
        for name in ("total_clicks", "campaign_count", "rng_seed"):
            if not is_integer(value := getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.total_clicks < 1:
            raise ValueError("total_clicks must be >= 1")
        if self.campaign_count < 1:
            raise ValueError("campaign_count must be >= 1")
        if not 0 < self.duration < math.inf:
            raise ValueError("duration must be finite and > 0")
        if not 0 < self.attribution_window < math.inf:
            raise ValueError("attribution_window must be finite and > 0")
        if not 0 <= self.cold_start_fraction < 1:
            raise ValueError("cold_start_fraction must be in [0, 1)")
        # written so that a NaN fails them
        if not 0 <= self.retraction_prob <= 1:
            raise ValueError(f"retraction_prob must be in [0, 1], got "
                             f"{self.retraction_prob!r}")
        if not 0 <= self.drift_magnitude < 1:
            raise ValueError(f"drift_magnitude must be in [0, 1), got "
                             f"{self.drift_magnitude!r}")


@dataclass
class GroundTruth:
    """Generator-side truth used by slicing and the analytic oracle."""

    thetas: np.ndarray      # latent intensity, indexed by example_id
    campaigns: dict         # campaign_id -> CampaignProfile
    high_delay: set         # campaign ids tagged HIGH_DELAY


@dataclass
class Stream:
    examples: list
    config: StreamConfig
    ground_truth: GroundTruth


def make_population(config: StreamConfig, rng: np.random.Generator) -> list:
    """Campaign profiles with heterogeneous delay medians spanning at least
    two orders of magnitude (the first two campaigns anchor the extremes)."""
    campaigns = []
    n = config.campaign_count
    n_day_zero = max(1, round(n * (1 - config.cold_start_fraction)))
    mixture_alpha = np.ones(3)
    segment_alpha = np.ones(len(SEGMENT_TOKENS)) * 2
    for i in range(n):
        if i == 0 and n > 1:
            median = config.min_median_delay
        elif i == 1 and n > 2:
            median = config.max_median_delay
        else:
            median = math.exp(exact_uniform(
                rng,
                math.log(config.min_median_delay),
                math.log(config.max_median_delay),
            ))
        weights = tuple(rng.dirichlet(mixture_alpha).tolist())
        k = exact_uniform(rng, 0.8, 1.8)
        sigma = exact_uniform(rng, 0.5, 1.25)
        mixture = DelayMixture(median, k, sigma, weights)
        alpha = exact_uniform(rng, *config.gamma_shape_range)
        mean_rate = math.exp(exact_uniform(
            rng,
            math.log(config.mean_rate_range[0]),
            math.log(config.mean_rate_range[1]),
        ))
        start = 0.0 if i < n_day_zero else exact_uniform(
            rng, 0.1 * config.duration, 0.6 * config.duration
        )
        campaigns.append(CampaignProfile(
            campaign_id=i,
            start_time=start,
            gamma_shape=alpha,
            gamma_rate=alpha / mean_rate,
            delay=mixture,
            attribution_window=config.attribution_window,
            drift_per_day=exact_uniform(
                rng, 1 - config.drift_magnitude, 1 + config.drift_magnitude
            ),
            segment_weights=tuple(rng.dirichlet(segment_alpha).tolist()),
            retraction_prob=config.retraction_prob,
            value_lognorm=(0.0, 0.5) if config.value_labels else None,
        ))
    return campaigns


def campaign_delay_quantiles(campaigns) -> set:
    """Campaign ids whose delay median falls in the top 10% of medians
    across the population (the HIGH_DELAY tag)."""
    medians = [(c.delay.median, c.campaign_id) for c in campaigns]
    k = max(1, math.ceil(0.1 * len(medians)))
    medians.sort(reverse=True)
    return {cid for _, cid in medians[:k]}


def generate(config: StreamConfig) -> Stream:
    """Deterministic stream of clicks sorted by click_time, with the
    ground-truth sidecar (per-click theta, campaign profiles, delay tags)."""
    rng = np.random.default_rng(config.rng_seed)
    campaigns = make_population(config, rng)
    context_cdf = choice_cdf(rng.dirichlet(np.ones(len(CONTEXT_TOKENS)) * 3))
    share = rng.dirichlet(np.ones(config.campaign_count) * 2)
    clicks_per_campaign = rng.multinomial(config.total_clicks, share)

    records = []  # (click_time, campaign_id, theta, features, events)
    m = config.attribution_window
    # feature pairs and whole serving-feature tuples are shared between
    # clicks, so a click holds references, not copies
    campaign_field, segment_field, context_field = CLICK_FIELDS
    segment_pairs = [(segment_field, tok) for tok in SEGMENT_TOKENS]
    context_pairs = [(context_field, tok) for tok in CONTEXT_TOKENS]
    for camp, n_clicks in zip(campaigns, clicks_per_campaign.tolist()):
        if n_clicks == 0:
            continue
        times = rng.uniform(camp.start_time, config.duration, n_clicks)
        thetas = rng.gamma(camp.gamma_shape, 1.0 / camp.gamma_rate, n_clicks)
        drift = camp.drift_per_day ** ((times - camp.start_time) / DAY)
        counts = rng.poisson(thetas * drift)
        total_events = int(counts.sum())
        delays = camp.delay.sample(rng, total_events, m)
        if camp.value_lognorm is not None:
            values = rng.lognormal(*camp.value_lognorm, total_events).tolist()
        else:
            # every unit-valued event holds the one shared 1.0
            values = [_UNIT_VALUE] * total_events
        if camp.retraction_prob > 0:
            retracted = (rng.random(total_events) < camp.retraction_prob).tolist()
            retract_delays = (
                delays + rng.exponential(2 * DAY, total_events)).tolist()
        else:
            retracted = None
        segments = exact_choice(
            rng, choice_cdf(camp.segment_weights), n_clicks).tolist()
        contexts = exact_choice(rng, context_cdf, n_clicks).tolist()

        campaign_pair = (campaign_field, str(camp.campaign_id))
        feature_tuples = {}  # (segment, context) -> serving features
        delays = delays.tolist()
        pos = 0
        for t, theta, c, key in zip(times.tolist(), thetas.tolist(),
                                    counts.tolist(), zip(segments, contexts)):
            events = []
            for e in range(pos, pos + c):
                events.append(ConversionEvent(delays[e], values[e], 1))
                if retracted and retracted[e] and retract_delays[e] < m:
                    events.append(ConversionEvent(
                        retract_delays[e], values[e], -1
                    ))
            pos += c
            events.sort(key=lambda ev: ev.delay)
            features = feature_tuples.get(key)
            if features is None:
                features = feature_tuples[key] = (
                    campaign_pair, segment_pairs[key[0]], context_pairs[key[1]],
                )
            records.append((t, camp.campaign_id, theta, features, tuple(events)))

    records.sort(key=lambda r: r[0])
    examples = []
    thetas = np.array([r[2] for r in records])
    camp_by_id = {c.campaign_id: c for c in campaigns}
    for example_id, (t, cid, _, features, events) in enumerate(records):
        examples.append(ClickExample(
            example_id=example_id,
            click_time=t,
            campaign_id=cid,
            campaign_start_time=camp_by_id[cid].start_time,
            serving_features=features,
            attribution_window=m,
            events=events,
        ))

    truth = GroundTruth(
        thetas=thetas,
        campaigns=camp_by_id,
        high_delay=campaign_delay_quantiles(campaigns),
    )
    return Stream(examples=examples, config=config, ground_truth=truth)


def posterior_expected_tail(
    example: ClickExample, campaign: CampaignProfile, horizon: float
) -> float:
    """Closed-form posterior mean of the tail count in [horizon, M) given
    the observed head count: q * (alpha + k) / (beta + p) under the
    Gamma-Poisson conjugacy with independent thinning at probability
    p = P(delay < horizon). Valid only for no-drift, no-retraction
    campaigns."""
    if not 0 <= horizon < campaign.attribution_window:
        raise ContractViolation(
            f"horizon {horizon} outside [0, {campaign.attribution_window})"
        )
    if campaign.drift_per_day != 1.0 or campaign.retraction_prob > 0:
        raise ContractViolation(
            "analytic posterior requires a no-drift, no-retraction campaign"
        )
    p = campaign.truncated_cdf(horizon)
    k = observed_prefix(example, horizon)
    return (1.0 - p) * (campaign.gamma_shape + k) / (campaign.gamma_rate + p)


# -- file formats -----------------------------------------------------------

def write_stream(path, stream: Stream):
    with open(path, "w") as fh:
        fh.write(json.dumps({"schema_version": SCHEMA_VERSION}) + "\n")
        for e in stream.examples:
            fh.write(json.dumps({
                "example_id": e.example_id,
                "click_time": e.click_time,
                "campaign_id": e.campaign_id,
                "campaign_start_time": e.campaign_start_time,
                "features": {f: t for f, t in e.serving_features},
                "attribution_window": e.attribution_window,
                "events": [
                    {"delay": ev.delay, "value": ev.value, "sign": ev.sign}
                    for ev in e.events
                ],
            }) + "\n")


def read_stream(path) -> list:
    examples = []
    with open(path) as fh:
        header = json.loads(fh.readline())
        if header.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported stream schema {header.get('schema_version')!r}"
            )
        for line in fh:
            d = json.loads(line)
            examples.append(ClickExample(
                example_id=d["example_id"],
                click_time=d["click_time"],
                campaign_id=d["campaign_id"],
                campaign_start_time=d["campaign_start_time"],
                serving_features=list(d["features"].items()),
                attribution_window=d["attribution_window"],
                events=[
                    ConversionEvent(ev["delay"], ev["value"], ev["sign"])
                    for ev in d["events"]
                ],
            ))
    return examples


def write_sidecar(path, stream: Stream):
    truth = stream.ground_truth
    with open(path, "w") as fh:
        fh.write(json.dumps({
            "schema_version": SIDECAR_SCHEMA_VERSION,
            "campaigns": [asdict(c) for c in truth.campaigns.values()],
            "high_delay": sorted(truth.high_delay),
        }) + "\n")
        for example_id, theta in enumerate(truth.thetas.tolist()):
            fh.write(json.dumps({
                "example_id": example_id,
                "theta": theta,
            }) + "\n")


def read_sidecar(path) -> GroundTruth:
    with open(path) as fh:
        header = json.loads(fh.readline())
        if header.get("schema_version") != SIDECAR_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported sidecar schema {header.get('schema_version')!r}"
            )
        campaigns = {
            c["campaign_id"]: CampaignProfile.from_dict(c)
            for c in header["campaigns"]
        }
        by_id = {}
        for line in fh:
            d = json.loads(line)
            if d["example_id"] in by_id:
                raise ValueError(
                    f"sidecar repeats example_id {d['example_id']}"
                )
            by_id[d["example_id"]] = d["theta"]
    missing = set(range(len(by_id))) - by_id.keys()
    if missing:
        raise ValueError(
            f"sidecar misses example_id {min(missing)}: ids must run from 0 "
            f"to the number of clicks - 1"
        )
    return GroundTruth(
        thetas=np.array([by_id[i] for i in range(len(by_id))], dtype=float),
        campaigns=campaigns,
        high_delay=set(header["high_delay"]),
    )
