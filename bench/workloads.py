"""The benchmark's workloads: which variants replay which streams.

Each workload is a raw config dict for `delayfeed.cli.config_from_dict`,
the stream size of one replay pass and the number of sub-streams a run
sets up and replays. The first variant is the headline whose quality the
run reports. Why each workload exists, and which layers it loads or
bypasses, is recorded in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    variants: tuple            # headline first
    clicks: int                # stream size of one replay pass
    substreams: int            # set-ups per run, each with its own stream
    stream: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)

    def config_dict(self, clicks: int = None) -> dict:
        stream = dict(self.stream, total_clicks=clicks or self.clicks)
        return {"schema_version": "v1", "stream": stream,
                "variants": list(self.variants), **self.options}


# Stream sizes keep one pass at a few seconds, so that a 30 s run replays
# every sub-stream at least once. The quality metrics average over the
# sub-streams; the single-delay baselines are cheap per click but their
# headline M3 varies most between campaign populations, so they take more.
WORKLOADS = {w.name: w for w in (
    # the paper's model on the default stream
    Workload("thermometer_cascade", ("Proposed",), clicks=3000, substreams=8),
    # the three single-model label modes; no ensemble layer at all
    Workload("single_delay_baselines", ("M3", "M1", "Oracle"), clicks=5000,
             substreams=8),
    # two-output bucket ensemble on signed, valued labels, many campaigns
    Workload("signed_bucket_wide", ("M4",), clicks=3500, substreams=6,
             stream={"retraction_prob": 0.2, "value_labels": True,
                     "campaign_count": 1000},
             options={"two_output_mode": True}),
)}
