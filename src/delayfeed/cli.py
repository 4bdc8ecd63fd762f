"""Command-line front end: generate streams, run variants, flatten reports
into plot-ready CSV.

Subcommands: gen, run, plotdata. Config files are JSON (schema "v1");
every output embeds a digest of the resolved config so reports from
different configurations refuse to aggregate. DELAYFEED_LOG in
{error, info, debug} controls log verbosity.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import glob
import hashlib
import itertools
import json
import logging
import math
import numbers
import os
import statistics
import sys
import time
from dataclasses import dataclass, fields, replace

from . import __version__
from .core import DAY, as_float, is_integer
from .datagen import CLICK_FIELDS, StreamConfig, generate, write_sidecar, \
    write_stream
from .harness import compare, default_slices, report_csv_rows, run
from .regressor import RegressorConfig
from .variants import build_variant, standard_specs

log = logging.getLogger("delayfeed")

# the JSON kind of each config key that is not a number
_KINDS = {"schema_version": str, "stream": dict, "bucketing": dict,
          "regressor": dict, "value_labels": bool, "two_output_mode": bool,
          "boundaries_days": list, "hidden_layer_sizes": list,
          "m2_delays_days": list, "variants": list, "seeds": list}
_KIND_NAMES = {str: "string", dict: "object", bool: "boolean (true or false)",
               list: "list", numbers.Real: "number"}
# a key ending in a unit holds a time, handed on in seconds without it
_UNITS = {"days": DAY, "hours": 3600.0}


@dataclass(frozen=True)
class ExperimentConfig:
    """What a run runs: the stream, every variant spec the config builds
    (by name, in report order), the variants and seeds to run, their digest."""

    stream: StreamConfig
    specs: dict
    variants: tuple
    seeds: tuple
    digest: str


def _digest(obj) -> str:
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                       default=lambda o: {f.name: getattr(o, f.name)
                                          for f in fields(o)})
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _seconds(value, unit: float, path: str) -> float:
    """`value` units in seconds; raises ValueError unless a number that is
    finite and >= 0 in seconds too."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        seconds = as_float(value) * unit
        if 0 <= seconds < math.inf:
            return seconds
    raise ValueError(f"{path} must be finite and >= 0, in seconds too, got "
                     f"{value!r}")


def _section(d, path: str, keys: str) -> dict:
    """The entries of `d`, which must be a JSON object whose keys are all
    in `keys`, each holding a value of its kind in _KINDS (a number if not
    listed); a time (or each time of a list) must be finite and >= 0, and
    is returned in seconds under its key without the unit. Raises
    ValueError naming the first bad key by its path."""
    if not isinstance(d, dict):
        raise ValueError(f"config {path or 'file'} must be a JSON object")
    out = {}
    for key, value in d.items():
        name = f"{path}.{key}" if path else key
        if key not in keys.split():
            raise ValueError(f"unknown config key {name}; valid keys: "
                             f"{', '.join(keys.split())}")
        kind = _KINDS.get(key, numbers.Real)
        # a JSON boolean is a Python int: it counts as no number
        if not isinstance(value, kind) or (kind is not bool
                                           and isinstance(value, bool)):
            raise ValueError(f"{name} must be a JSON {_KIND_NAMES[kind]}, "
                             f"got {value!r}")
        base, _, unit = key.rpartition("_")
        if unit in _UNITS:
            key, scale = base, _UNITS[unit]
            value = (tuple(_seconds(x, scale, name) for x in value)
                     if kind is list else _seconds(value, scale, name))
        out[key] = value
    return out


def _repeated(items: tuple) -> str:
    """The items listed more than once, comma-separated; empty if none."""
    return ", ".join(map(str, sorted({s for s in items if items.count(s) > 1})))


def config_from_dict(d: dict) -> ExperimentConfig:
    """The resolved config of a JSON dict. Only the keys present reach the
    dataclasses and `standard_specs`, so each default is stated by its
    owner."""
    d = _section(d, "", "schema_version stream bucketing regressor "
                        "m1_delay_hours m2_delays_days two_output_mode "
                        "variants seeds")
    if d.get("schema_version", "v1") != "v1":
        raise ValueError(f"unsupported config schema {d.get('schema_version')!r}")
    stream = StreamConfig(**_section(
        d.get("stream", {}), "stream",
        "total_clicks campaign_count cold_start_fraction duration_days "
        "rng_seed attribution_window_days retraction_prob value_labels "
        "drift_magnitude"))
    r = _section(d.get("regressor", {}), "regressor",
                 "embedding_dim hash_buckets_per_field hidden_layer_sizes "
                 "learning_rate adagrad_epsilon prior_rate rng_seed")
    if "prior_rate" in r:
        if not 0 < as_float(prior_rate := r.pop("prior_rate")) < math.inf:
            raise ValueError(f"regressor.prior_rate must be finite and > 0, "
                             f"got {prior_rate}")
        r["output_bias_init"] = math.log(prior_rate)
    regressor = RegressorConfig(categorical_fields=CLICK_FIELDS, **r)
    specs = standard_specs(
        stream.attribution_window, regressor,
        **_section(d.get("bucketing", {}), "bucketing", "boundaries_days"),
        **{k: d[k] for k in ("m1_delay", "m2_delays", "two_output_mode")
           if k in d})
    seeds = tuple(d.get("seeds", (0,)))
    if not seeds or not all(is_integer(s) and s >= 0 for s in seeds):
        raise ValueError(f"seeds must be a non-empty list of integers >= 0, "
                         f"got {list(seeds)}")
    if repeated := _repeated(seeds):
        raise ValueError(f"seeds lists {repeated} more than once; each seed "
                         f"runs once")
    # every variant this config builds, unless a list of names is given
    variants = tuple(d.get("variants", ["all"]))
    variants = tuple(specs) if variants == ("all",) else variants
    if not variants or not all(isinstance(name, str) for name in variants):
        raise ValueError(f"variants must be a non-empty list of names, got "
                         f"{list(variants)}")
    if repeated := _repeated(variants):
        raise ValueError(f"variants lists {repeated} more than once; each "
                         f"variant runs once")
    resolved = {"stream": stream, "specs": specs, "variants": variants,
                "seeds": seeds}
    return ExperimentConfig(**resolved, digest=_digest(resolved))


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def variant_specs_for(cfg: ExperimentConfig) -> dict:
    return cfg.specs


def stream_for_seed(cfg: ExperimentConfig, seed: int):
    return generate(replace(cfg.stream, rng_seed=cfg.stream.rng_seed + seed))


# per-process stream cache for parallel (variant, seed) tasks
_stream_cache = {}


def _run_task(cfg: ExperimentConfig, name: str, seed: int):
    """(seed, name, RunResult, runtime_s) of one (variant, seed) task; the
    runtime is the replay's alone, without the stream's set-up. A
    non-finite training step ends the task with a FloatingPointError that
    names the seed too."""
    if name not in cfg.specs:
        raise ValueError(f"unknown variant {name!r}; valid names: "
                         f"{', '.join(sorted(cfg.specs))}")
    key = (cfg.digest, seed)
    stream = _stream_cache.get(key)
    if stream is None:
        _stream_cache.clear()
        stream = _stream_cache[key] = stream_for_seed(cfg, seed)
    variant = build_variant(cfg.specs[name], seed_offset=seed * 101)
    slices = default_slices(stream.ground_truth.high_delay)
    log.info("running %s seed %d (%d clicks)", name, seed, len(stream.examples))
    t0 = time.perf_counter()
    try:
        result = run(variant, stream.examples, slices)
    except FloatingPointError as exc:
        raise FloatingPointError(f"seed {seed}: {exc}") from exc
    return seed, name, result, time.perf_counter() - t0


def run_matrix(cfg: ExperimentConfig, tasks, jobs: int = 1):
    """Run each (variant name, seed) task of `tasks`, on min(`jobs`, task
    count) worker processes if more than one, and yield (seed, name,
    RunResult, runtime_s) as each finishes. At most `jobs` tasks are
    submitted and unfinished at a time, the next one submitted as one
    finishes. The first task that fails ends the run: no task is submitted
    after it, and its error is raised once the tasks still running have
    ended."""
    tasks = list(tasks)
    jobs = min(jobs, len(tasks))
    if jobs > 1:
        pending = iter(tasks)
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            running = {pool.submit(_run_task, cfg, name, seed)
                       for name, seed in itertools.islice(pending, jobs)}
            while running:
                done, running = concurrent.futures.wait(
                    running, return_when=concurrent.futures.FIRST_COMPLETED)
                # every finished task's result before any submission, so
                # that a failure among them submits nothing
                results = [fut.result() for fut in done]
                running |= {pool.submit(_run_task, cfg, name, seed)
                            for name, seed in itertools.islice(pending,
                                                               len(done))}
                yield from results
    else:
        for name, seed in tasks:
            yield _run_task(cfg, name, seed)


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
    seeds = cfg.seeds
    if args.seed:
        entries = args.seed.split(",")
        if not all(s.strip().isdecimal() for s in entries):
            print(f"--seed takes comma-separated integers >= 0, got "
                  f"{args.seed!r}", file=sys.stderr)
            return 2
        seeds = tuple(map(int, entries))
    if repeated := _repeated(seeds):
        print(f"--seed lists {repeated} more than once; each seed runs once",
              file=sys.stderr)
        return 2
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    names = cfg.variants if args.variant == "all" else (args.variant,)
    unknown = [n for n in names if n not in cfg.specs]
    if unknown:
        print(
            f"unknown variant(s) {', '.join(unknown)}; valid names: "
            f"{', '.join(sorted(cfg.specs))}",
            file=sys.stderr,
        )
        return 2

    matrix = {seed: {} for seed in seeds}
    tasks = [(name, seed) for seed in seeds for name in names]
    for seed, name, result, _ in run_matrix(cfg, tasks, jobs=args.jobs):
        matrix[seed][name] = result
    reports = []
    for seed in seeds:
        report = compare(matrix[seed], config_digest=cfg.digest,
                         extra={"artifact_version": __version__, "seed": seed})
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


def _is_day_row(row) -> bool:
    day = row.get("day") if isinstance(row, dict) else None
    return isinstance(day, (int, float)) and not isinstance(day, bool)


def _is_report(value) -> bool:
    """Whether a loaded JSON value holds what plotdata reads of a report:
    each variant's slices are objects, and its timeseries rows objects
    with a numeric `day`."""
    return (isinstance(value, dict)
            and isinstance(value.get("config_digest"), str)
            and isinstance(value.get("variants"), dict)
            and all(isinstance(v, dict) and isinstance(v.get("slices"), dict)
                    and isinstance(v.get("timeseries"), list)
                    and all(isinstance(e, dict) for e in v["slices"].values())
                    and all(map(_is_day_row, v["timeseries"]))
                    for v in value["variants"].values()))


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
        with open(p, "rb") as fh:
            try:
                report = json.load(fh)
            except ValueError as exc:  # no JSON, or no UTF-8 text
                print(f"{p} is not valid JSON: {exc}", file=sys.stderr)
                return 2
        if not _is_report(report):
            print(f"{p} is not a report: expected a JSON object with a "
                  f"config_digest whose variants each hold slices of "
                  f"objects and timeseries rows with a day", file=sys.stderr)
            return 2
        reports.append((p, report))
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
    except (OSError, ValueError, FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
