"""Command-line front end: generate streams, run variants, flatten reports
into plot-ready CSV.

Subcommands: gen, run, plotdata. Config files are JSON (schema "v1");
every output embeds a digest of the canonicalized config so reports from
different configurations refuse to aggregate. DELAYFEED_LOG in
{error, info, debug} controls log verbosity.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import glob
import hashlib
import json
import logging
import math
import os
import statistics
import sys
from dataclasses import dataclass, replace

from . import __version__
from .core import DAY, DelayBucketing
from .datagen import StreamConfig, generate, write_sidecar, write_stream
from .harness import compare, default_slices, report_csv_rows, run
from .regressor import RegressorConfig
from .variants import VARIANT_NAMES, build_variant, standard_specs

log = logging.getLogger("delayfeed")

BASE_CATEGORICAL_FIELDS = ("campaign", "segment", "context")


@dataclass(frozen=True)
class ExperimentConfig:
    stream: StreamConfig
    bucketing: DelayBucketing
    regressor: RegressorConfig
    m1_delay: float = 6 * 3600.0
    m2_delays: tuple = (7 * DAY, 15 * DAY)
    two_output_mode: bool = False
    variants: tuple = VARIANT_NAMES
    seeds: tuple = (0,)
    digest: str = ""


def _digest(d: dict) -> str:
    canon = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _section(d, path: str, keys: str) -> dict:
    """`d` if it is a JSON object with no key outside `keys`; raises
    ValueError naming the first other key by its path otherwise."""
    if not isinstance(d, dict):
        raise ValueError(f"config {path or 'file'} must be a JSON object")
    for key in d:
        if key not in keys.split():
            name = f"{path}.{key}" if path else key
            raise ValueError(f"unknown config key {name}; valid keys: "
                             f"{', '.join(keys.split())}")
    return d


def config_from_dict(d: dict) -> ExperimentConfig:
    _section(d, "", "schema_version stream bucketing regressor m1_delay_hours "
                    "m2_delays_days two_output_mode variants seeds")
    if d.get("schema_version", "v1") != "v1":
        raise ValueError(f"unsupported config schema {d.get('schema_version')!r}")
    s = _section(d.get("stream", {}), "stream",
                 "total_clicks campaign_count cold_start_fraction duration_days "
                 "rng_seed attribution_window_days retraction_prob value_labels "
                 "drift_magnitude")
    stream = StreamConfig(
        total_clicks=s.get("total_clicks", 200_000),
        campaign_count=s.get("campaign_count", 50),
        cold_start_fraction=s.get("cold_start_fraction", 0.5),
        duration=s.get("duration_days", 90) * DAY,
        rng_seed=s.get("rng_seed", 0),
        attribution_window=s.get("attribution_window_days", 30) * DAY,
        retraction_prob=s.get("retraction_prob", 0.0),
        value_labels=s.get("value_labels", False),
        drift_magnitude=s.get("drift_magnitude", 0.01),
    )
    b = _section(d.get("bucketing", {}), "bucketing", "boundaries_days")
    bucketing = DelayBucketing(
        boundaries=tuple(x * DAY for x in b.get("boundaries_days", (1, 3, 7, 15))),
        attribution_window=stream.attribution_window,
    )
    r = _section(d.get("regressor", {}), "regressor",
                 "embedding_dim hash_buckets_per_field hidden_layer_sizes "
                 "learning_rate adagrad_epsilon prior_rate rng_seed")
    prior_rate = r.get("prior_rate", 0.2)
    if not 0 < prior_rate < math.inf:
        raise ValueError(
            f"regressor.prior_rate must be finite and > 0, got {prior_rate}"
        )
    regressor = RegressorConfig(
        categorical_fields=BASE_CATEGORICAL_FIELDS,
        embedding_dim=r.get("embedding_dim", 8),
        hash_buckets_per_field=r.get("hash_buckets_per_field", 4096),
        hidden_layer_sizes=tuple(r.get("hidden_layer_sizes", (32, 32))),
        learning_rate=r.get("learning_rate", 0.05),
        adagrad_epsilon=r.get("adagrad_epsilon", 1e-6),
        output_bias_init=math.log(prior_rate),
        rng_seed=r.get("rng_seed", 0),
    )
    m1_delay = d.get("m1_delay_hours", 6) * 3600.0
    m2_delays = tuple(x * DAY for x in d.get("m2_delays_days", (7, 15)))
    for key, delays in (("m1_delay_hours", (m1_delay,)),
                        ("m2_delays_days", m2_delays)):
        if not all(0 <= x < math.inf for x in delays):
            raise ValueError(f"{key} must be finite and >= 0, got {d[key]}")
    variants = tuple(d.get("variants", VARIANT_NAMES))
    if variants == ("all",):
        variants = VARIANT_NAMES
    return ExperimentConfig(
        stream=stream,
        bucketing=bucketing,
        regressor=regressor,
        m1_delay=m1_delay,
        m2_delays=m2_delays,
        two_output_mode=d.get("two_output_mode", False),
        variants=variants,
        seeds=tuple(d.get("seeds", (0,))),
        digest=_digest(d),
    )


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def default_config(**overrides) -> ExperimentConfig:
    """Config with all defaults; overrides patch the raw JSON dict."""
    d = {"schema_version": "v1"}
    d.update(overrides)
    return config_from_dict(d)


def variant_specs_for(cfg: ExperimentConfig) -> dict:
    return standard_specs(
        cfg.bucketing, cfg.regressor,
        m1_delay=cfg.m1_delay, m2_delays=cfg.m2_delays,
        two_output_mode=cfg.two_output_mode,
    )


def stream_for_seed(cfg: ExperimentConfig, seed: int):
    return generate(replace(cfg.stream, rng_seed=cfg.stream.rng_seed + seed))


# per-process stream cache for parallel (variant, seed) tasks
_stream_cache = {}


def _run_task(cfg: ExperimentConfig, name: str, seed: int):
    key = (cfg.digest, seed)
    stream = _stream_cache.get(key)
    if stream is None:
        _stream_cache.clear()
        stream = _stream_cache[key] = stream_for_seed(cfg, seed)
    specs = variant_specs_for(cfg)
    if name not in specs:
        raise ValueError(
            f"unknown variant {name!r}; valid names: {', '.join(sorted(specs))}"
        )
    variant = build_variant(specs[name], seed_offset=seed * 101)
    slices = default_slices(stream.ground_truth.high_delay)
    log.info("running %s seed %d (%d clicks)", name, seed, len(stream.examples))
    return run(variant, stream.examples, slices)


def run_matrix(cfg: ExperimentConfig, names, seeds, jobs: int = 1) -> dict:
    """{seed: {variant: RunResult}} for the requested matrix."""
    tasks = [(name, seed) for seed in seeds for name in names]
    out = {seed: {} for seed in seeds}
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(_run_task, cfg, name, seed): (name, seed)
                for name, seed in tasks
            }
            for fut in concurrent.futures.as_completed(futures):
                name, seed = futures[fut]
                out[seed][name] = fut.result()
    else:
        for name, seed in tasks:
            out[seed][name] = _run_task(cfg, name, seed)
    return out


def seed_report(cfg: ExperimentConfig, seed: int, results: dict) -> dict:
    return compare(results, config_digest=cfg.digest, extra={
        "artifact_version": __version__,
        "seed": seed,
    })


def aggregate_reports(reports: list) -> dict:
    """Mean and standard deviation per (variant, slice, metric) across
    per-seed reports sharing one config digest."""
    digests = {r["config_digest"] for r in reports}
    if len(digests) != 1:
        raise ValueError(f"refusing to aggregate mismatched config digests: {digests}")
    agg = {
        "schema_version": "v1",
        "config_digest": digests.pop(),
        "artifact_version": __version__,
        "seeds": sorted(r.get("seed") for r in reports),
        "variants": {},
    }
    for name in reports[0]["variants"]:
        slices = {}
        for slice_name in reports[0]["variants"][name]["slices"]:
            metrics = {}
            for metric in ("pll", "bias", "pll_vs_M3_pct"):
                vals = [
                    r["variants"][name]["slices"][slice_name].get(metric)
                    for r in reports
                ]
                vals = [v for v in vals if v is not None]
                if vals:
                    metrics[metric] = {
                        "mean": statistics.fmean(vals),
                        "stdev": statistics.stdev(vals) if len(vals) > 1 else 0.0,
                    }
            slices[slice_name] = metrics
        agg["variants"][name] = {"slices": slices}
    return agg


def write_report_files(report: dict, out_dir, stem: str):
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, f"{stem}.json")
    with open(json_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    with open(csv_path, "w", newline="") as fh:
        csv.writer(fh).writerows(report_csv_rows(report))
    return json_path, csv_path


# -- subcommands -------------------------------------------------------------

def cmd_gen(args) -> int:
    cfg = load_config(args.config)
    stream = generate(cfg.stream)
    os.makedirs(args.out, exist_ok=True)
    stream_path = os.path.join(args.out, "stream.ndjson")
    sidecar_path = os.path.join(args.out, "ground_truth.ndjson")
    write_stream(stream_path, stream)
    write_sidecar(sidecar_path, stream)

    medians_days = sorted(
        c.delay.median / DAY for c in stream.ground_truth.campaigns.values()
    )
    hist = {}
    for m in medians_days:
        bucket = "<1d" if m < 1 else ("1-7d" if m < 7 else ">=7d")
        hist[bucket] = hist.get(bucket, 0) + 1
    print(f"config digest: {cfg.digest}")
    print(f"clicks: {len(stream.examples)}")
    print(f"campaigns: {len(stream.ground_truth.campaigns)}")
    print(f"delay-median histogram (days): {hist}")
    print(f"wrote {stream_path} and {sidecar_path}")
    return 0


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    seeds = (
        tuple(int(s) for s in args.seed.split(",")) if args.seed else cfg.seeds
    )
    names = cfg.variants if args.variant == "all" else (args.variant,)
    valid = set(variant_specs_for(cfg))
    unknown = [n for n in names if n not in valid]
    if unknown:
        print(
            f"unknown variant(s) {', '.join(unknown)}; valid names: "
            f"{', '.join(sorted(valid))}",
            file=sys.stderr,
        )
        return 2

    matrix = run_matrix(cfg, names, seeds, jobs=args.jobs)
    reports = []
    for seed in seeds:
        report = seed_report(cfg, seed, matrix[seed])
        reports.append(report)
        paths = write_report_files(report, args.out, f"report_seed{seed}")
        print(f"seed {seed}: wrote {paths[0]}")
    if len(reports) > 1:
        agg = aggregate_reports(reports)
        path = os.path.join(args.out, "aggregate.json")
        with open(path, "w") as fh:
            json.dump(agg, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


def cmd_plotdata(args) -> int:
    paths = sorted(glob.glob(os.path.join(args.reports, "report_seed*.json")))
    if not paths:
        print(
            f"no report files found; expected {args.reports}/report_seed<N>.json",
            file=sys.stderr,
        )
        return 2
    reports = []
    for p in paths:
        with open(p) as fh:
            reports.append((p, json.load(fh)))
    digests = {r["config_digest"] for _, r in reports}
    if len(digests) != 1:
        print(f"refusing to mix config digests: {digests}", file=sys.stderr)
        return 2

    out_dir = args.out or args.reports
    os.makedirs(out_dir, exist_ok=True)

    for path, report in reports:
        stem = os.path.splitext(os.path.basename(path))[0]
        names = sorted(report["variants"])
        header = ["day"]
        for name in names:
            header += [f"{name}_pll", f"{name}_bias"]
        by_day = {}
        for name in names:
            for row in report["variants"][name]["timeseries"]:
                by_day.setdefault(row["day"], {})[name] = row
        ts_path = os.path.join(out_dir, f"{stem}_timeseries.csv")
        with open(ts_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for day in sorted(by_day):
                row = [day]
                for name in names:
                    entry = by_day[day].get(name, {})
                    row += [entry.get("cum_pll"), entry.get("cum_bias")]
                w.writerow(row)
        print(f"wrote {ts_path}")

    bars_path = os.path.join(out_dir, "pll_improvement.csv")
    with open(bars_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["variant", "slice", "seed", "pll", "pll_vs_M3_pct"])
        for _, report in reports:
            for name in sorted(report["variants"]):
                for slice_name, entry in sorted(
                    report["variants"][name]["slices"].items()
                ):
                    w.writerow([
                        name, slice_name, report.get("seed"),
                        entry.get("pll"), entry.get("pll_vs_M3_pct"),
                    ])
    print(f"wrote {bars_path}")
    return 0


def main(argv=None) -> int:
    level = os.environ.get("DELAYFEED_LOG", "error").upper()
    logging.basicConfig(level=getattr(logging, level, logging.ERROR))

    parser = argparse.ArgumentParser(
        prog="delayfeed",
        description="Delayed-feedback conversion prediction benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a stream + ground-truth sidecar")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", help="run variants and write reports")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--variant", default="all")
    p_run.add_argument("--seed", default=None, help="comma-separated seed list")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.set_defaults(func=cmd_run)

    p_plot = sub.add_parser("plotdata", help="flatten reports into plot CSVs")
    p_plot.add_argument("--reports", required=True)
    p_plot.add_argument("--out", default=None)
    p_plot.set_defaults(func=cmd_plotdata)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
