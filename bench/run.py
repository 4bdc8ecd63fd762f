"""delayfeed benchmark: replay one workload, check its outputs, print its
metrics.

    python3 bench/run.py --workload thermometer_cascade --seed 1 \
        --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. One process, one thread, BLAS pinned to one thread.

The workload seed picks K sub-stream seeds (K per workload). Each
sub-stream is one timed set-up: config resolution, stream generation and
`build_variant` for every variant; `setup_s` is their median. Replay
passes then cycle over the sub-streams through `harness.run` until
`--seconds` have been measured, each sub-stream at least once. Every pass
builds fresh variants, so every pass over a sub-stream must reproduce the
first one's report bit for bit. After each untraced pass a closed-loop
probe with one caller times one `serve` call per click per variant; the
latency percentiles are taken over segments of PROBE_SEGMENT calls and
their median reported. Quality metrics are means over the sub-streams.

Every time is rescaled by the speed of a fixed reference computation timed
around it (see calibrate.py), because the speed of a shared core drifts;
the raw wall-clock figures are in the detail line.

With `--trace 0` the last line carries the end-to-end metrics. With
`--trace 1` each untraced pass is followed by a traced pass of the same
sub-stream; traced passes wrap the package's public functions from
outside (see tracing.py) and the last line carries the per-layer metrics.
Earlier lines hold the provenance and the raw figures; the same JSON, and
the traced run's sampled spans, are written under `.bench_out/`.

Exit status is 0 only when every output check passes and no operation
failed; a failing run is still reported.
"""

from __future__ import annotations

import os

# pinned before numpy is first imported
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SEED_STRIDE = 101            # seed offset per workload seed, as in `delayfeed run`
NEW_CAMPAIGN_AGE = 10 * 86400.0
SLICES = ("ALL", "NEW_CAMPAIGN", "HIGH_DELAY")
PROBE_SEGMENT = 1000         # serve calls per latency percentile; p99 leaves 10 above


def import_package():
    """Import delayfeed from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "delayfeed", "__init__.py")):
        print(f"error: no delayfeed sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import delayfeed
    if os.path.dirname(os.path.abspath(delayfeed.__file__)) != os.path.join(SRC, "delayfeed"):
        print(f"error: imported delayfeed from {delayfeed.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


import_package()

import numpy as np  # noqa: E402
from delayfeed import cli, harness, regressor, variants  # noqa: E402

from calibrate import Calibration  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# -- measurement -------------------------------------------------------------

def _counting(fn, counts, key):
    def counted(*args, **kwargs):
        out = fn(*args, **kwargs)
        counts[key] += 1
        return out
    return counted


def serve_probe(models, examples):
    """Closed loop, one caller: time one serve call per click per model.
    Returns (p50 and p99 in ns of each PROBE_SEGMENT consecutive calls,
    calls timed, exact sum of predictions, failed calls)."""
    lat, preds, failed = [], [], 0
    clock = time.perf_counter_ns
    for model in models:
        serve = model.serve
        for e in examples:
            t0 = clock()
            try:
                rate = serve(e)
            except Exception:
                failed += 1
                continue
            lat.append(clock() - t0)
            preds.append(rate)
    segments = []
    n_seg = len(lat) // PROBE_SEGMENT or (1 if lat else 0)
    for j in range(n_seg):
        # the last segment takes the remainder
        seg = sorted(lat[j * PROBE_SEGMENT:(j + 1) * PROBE_SEGMENT if j < n_seg - 1 else None])
        segments.append((percentile(seg, 50), percentile(seg, 99)))
    return segments, len(lat), math.fsum(preds), failed


def median_or_nan(values):
    values = list(values)
    return statistics.median(values) if values else math.nan


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


# -- output checks -----------------------------------------------------------

def label(e):
    return math.fsum(ev.sign * ev.value for ev in e.events)


def slice_members(stream):
    """Each report slice's predicate, applied independently of the harness."""
    high = stream.ground_truth.high_delay
    return {
        "ALL": list(stream.examples),
        "NEW_CAMPAIGN": [e for e in stream.examples
                         if e.click_time - e.campaign_start_time < NEW_CAMPAIGN_AGE],
        "HIGH_DELAY": [e for e in stream.examples if e.campaign_id in high],
    }


def reference_nll(stream, members):
    """Per slice: (mean ln(y!) term, Poisson NLL of the hindsight
    per-campaign mean predictor without that term). The normalised PLL
    divides the headline's full Poisson NLL by the reference's, which
    cancels most of the spread that comes from the sampled campaign
    population."""
    sums = {}
    for e in stream.examples:
        s = sums.setdefault(e.campaign_id, [0.0, 0])
        s[0] += label(e)
        s[1] += 1
    mean = {c: max(s[0] / s[1], 1e-12) for c, s in sums.items()}
    out = {}
    for name, exs in members.items():
        if not exs:
            out[name] = (math.nan, math.nan)
            continue
        ys = [label(e) for e in exs]
        lgam = math.fsum(math.lgamma(y + 1.0) for y in ys) / len(ys)
        nll = math.fsum(mean[e.campaign_id] - y * math.log(mean[e.campaign_id])
                        for e, y in zip(exs, ys)) / len(ys)
        out[name] = (lgam, nll)
    return out


def train_counts(factory, names, stream):
    """Per variant, from training_schedule over the stream: (TRAIN events
    scheduled, those due no later than the last click)."""
    end = stream.examples[-1].click_time
    out = {}
    for n in names:
        model = factory(n)
        times = [t for e in stream.examples for t, _ in model.training_schedule(e)]
        out[n] = (len(times), sum(t <= end for t in times))
    return out


def check_pass(p, names, n_clicks, train, slice_n):
    problems = []
    for n in names:
        r = p["results"][n]
        if r is None:
            continue
        if r.n_examples != n_clicks:
            problems.append(f"{n}: n_examples {r.n_examples} != stream length {n_clicks}")
        got = p["done"][n]["train"] + r.dropped_train_events
        if got != train[n][0]:
            problems.append(f"{n}: dispatched + dropped TRAIN {got} != scheduled {train[n][0]}")
        for s, entry in p["report"]["variants"][n]["slices"].items():
            if entry["n"] != slice_n[s]:
                problems.append(f"{n}/{s}: {entry['n']} examples, predicate gives {slice_n[s]}")
            for k in ("pll", "bias"):
                v = entry[k]
                if v is None or not math.isfinite(v):
                    problems.append(f"{n}/{s}: {k} is {v}")
    return problems


def quality(p):
    """The bit-exact quality part of a pass report."""
    return {n: v["slices"] for n, v in p["report"]["variants"].items()}


# -- provenance ----------------------------------------------------------------

def provenance(workload, args, stream_clicks):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = None
    try:
        # the ceiling keeps git from searching directories above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        if git.returncode == 0:
            sha = git.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "delayfeed")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return {
        "workload": workload.name,
        "variants": list(workload.variants),
        "seed": args.seed,
        "substreams": workload.substreams,
        "stream_clicks": stream_clicks,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


# -- per-layer metrics from the trace ---------------------------------------------

LABEL_SPANS = ("core.observed_prefix", "core.slice_label", "core.split_signed",
               "core.mature_label")


def layer_metrics(snaps, passes, setup_snap, stream, overhead_pct):
    """Counts are those of the first traced pass (they must repeat exactly);
    times are summed over all traced passes and given per call. The
    hash_token cache is process-wide, so its hit ratio covers the whole run."""
    first = snaps[0]["agg"]
    edges = snaps[0]["edges"]
    total = {k: [sum(s["agg"][k][j] for s in snaps) for j in range(3)] for k in first}

    def calls(*names):
        return sum(first[n][0] for n in names)

    def self_us(*names):
        c = sum(total[n][0] for n in names)
        return sum(total[n][2] for n in names) / c / 1e3 if c else 0.0

    def incl_s(agg, name):
        c = agg[name][0]
        return agg[name][1] / c / 1e9 if c else 0.0

    def events(p):
        return sum(d["eval"] + d["train"] for d in p["done"].values())

    p = passes[0]
    all_events = sum(events(q) for q in passes)
    harness_self = total["harness.run"][2] / 1e3 / all_events if all_events else 0.0
    completions = edges.get(("ensemble.training_label", "regressor.forward"), 0)
    ens_train = calls("ensemble.train_on")
    hits_misses = regressor.hash_token.cache_info()
    lookups = hits_misses.hits + hits_misses.misses
    return {
        "datagen.generate_s": (incl_s(setup_snap["agg"], "datagen.generate"), "s"),
        "datagen.conversion_events": (sum(len(e.events) for e in stream.examples), "count"),
        "harness.events": (events(p), "count"),
        "harness.dropped_train_events": (
            sum(r.dropped_train_events for r in p["results"].values()), "count"),
        "harness.self_us_per_event": (harness_self, "us"),
        "harness.compare_s": (incl_s(total, "harness.compare"), "s"),
        "variants.serve_calls": (calls("variants.serve"), "count"),
        "variants.serve_self_us": (self_us("variants.serve"), "us"),
        "variants.train_on_calls": (calls("variants.train_on"), "count"),
        "variants.train_on_self_us": (self_us("variants.train_on"), "us"),
        "ensemble.serve_calls": (calls("ensemble.serve"), "count"),
        "ensemble.serve_self_us": (self_us("ensemble.serve"), "us"),
        "ensemble.train_on_calls": (ens_train, "count"),
        "ensemble.train_on_self_us": (self_us("ensemble.train_on"), "us"),
        "ensemble.training_label_self_us": (self_us("ensemble.training_label"), "us"),
        "ensemble.features_for_calls": (calls("ensemble.features_for"), "count"),
        "ensemble.features_for_self_us": (self_us("ensemble.features_for"), "us"),
        "ensemble.completion_forwards": (completions, "count"),
        "ensemble.completion_forwards_per_train": (
            completions / ens_train if ens_train else 0.0, "ratio"),
        "ensemble.negative_label_clamps": (
            sum(r.negative_label_clamps for r in p["results"].values()), "count"),
        "regressor.train_step_calls": (calls("regressor.train_step"), "count"),
        "regressor.train_step_self_us": (self_us("regressor.train_step"), "us"),
        "regressor.forward_calls": (calls("regressor.forward"), "count"),
        "regressor.forward_self_us": (self_us("regressor.forward"), "us"),
        "regressor.hash_token_hit_ratio": (
            hits_misses.hits / lookups if lookups else 0.0, "ratio"),
        "core.label_calls": (calls(*LABEL_SPANS), "count"),
        "core.label_self_us": (self_us(*LABEL_SPANS), "us"),
        "core.record_calls": (calls("core.record"), "count"),
        "core.record_self_us": (self_us("core.record"), "us"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


# -- driver ----------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--clicks", type=int, default=None,
                    help="override the workload's stream size (smoke tests)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


class SubStream:
    """One set-up's stream and what the checks expect of its replay."""

    def __init__(self, workload, seed, clicks):
        self.seed = seed
        # the timed set-up: config, stream, every variant
        t0 = time.perf_counter()
        self.cfg = cli.config_from_dict(workload.config_dict(clicks))
        self.stream = cli.stream_for_seed(self.cfg, seed)
        self.specs = cli.variant_specs_for(self.cfg)
        for name in self.cfg.variants:
            self.factory(name)
        self.setup_s = time.perf_counter() - t0
        self.train = train_counts(self.factory, self.cfg.variants, self.stream)
        self.slices = harness.default_slices(self.stream.ground_truth.high_delay)
        members = slice_members(self.stream)
        self.slice_n = {s: len(m) for s, m in members.items()}
        self.ref = reference_nll(self.stream, members)

    def factory(self, name):
        return variants.build_variant(self.specs[name], seed_offset=self.seed * SEED_STRIDE)

    def replay(self):
        """One pass: every variant replays the stream through harness.run.
        An exception is caught and noted; that variant's result is None."""
        p = {"results": {}, "models": {}, "done": {}, "wall": 0.0, "problems": []}
        for name in self.cfg.variants:
            model = self.factory(name)
            done = {"eval": 0, "train": 0}
            model.serve = _counting(model.serve, done, "eval")
            model.train_on = _counting(model.train_on, done, "train")
            t0 = time.perf_counter()
            try:
                result = harness.run(model, self.stream.examples, self.slices)
            except Exception:
                result = None
                p["problems"].append(f"{name}: {traceback.format_exc()}")
            p["wall"] += time.perf_counter() - t0
            # back to the class methods; this also breaks the reference cycle
            # through the wrappers, so the model is freed once it is dropped
            del model.serve, model.train_on
            p["results"][name] = result
            p["models"][name] = model
            p["done"][name] = done
        ok = {n: r for n, r in p["results"].items() if r is not None}
        p["report"] = harness.compare(ok, config_digest=self.cfg.digest)
        p["problems"] += check_pass(p, self.cfg.variants, len(self.stream.examples),
                                    self.train, self.slice_n)
        return p

    def headline(self, p, problems):
        """Raw PLL and bias per slice of the headline variant, and its
        normalised PLL per slice (NaN, with a problem noted, when undefined)."""
        head = self.cfg.variants[0]
        slices = p["report"]["variants"].get(head, {}).get("slices", {})
        raw = {s: {k: slices.get(s, {}).get(k) for k in ("pll", "bias")} for s in SLICES}
        norm = {}
        for s in SLICES:
            pll = raw[s]["pll"]
            lgam, ref_nll = self.ref[s]
            if pll is None or not ref_nll + lgam > 0:
                problems.append(f"sub-stream {self.seed}/{s}: cannot normalise "
                                f"PLL {pll} by {ref_nll}")
                norm[s] = math.nan
            else:
                norm[s] = (pll + lgam) / (ref_nll + lgam)
        return raw, norm


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    tracer = Tracer()

    # The workload seed picks K sub-stream seeds; each is one timed set-up.
    # Traced runs record the datagen spans of every set-up.
    K = workload.substreams
    cal = Calibration()
    if traced:
        tracer.install()
    subs = []
    for k in range(K):
        subs.append(SubStream(workload, args.seed * K + k, args.clicks))
        subs[-1].setup_slowness = cal.tick()
    if traced:
        tracer.uninstall()
    setup_snap = tracer.snapshot()
    names = subs[0].cfg.variants

    # Replay rounds cycle over the sub-streams until the time is measured.
    # Untraced runs replay every sub-stream at least once, as the quality
    # metrics average over them; traced runs follow each untraced pass with a
    # traced pass of the same sub-stream.
    rounds = []                          # (sub index, untraced pass, traced pass)
    snaps = []
    probes = []          # (sub index, segment percentiles, calls, prediction sum, slowness)
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        k = len(rounds) % K
        sub = subs[k]
        plain = sub.replay()
        plain["slowness"] = cal.tick()
        pair = None
        if traced:
            tracer.reset()
            with tracer:
                pair = sub.replay()
            pair["slowness"] = cal.tick()
            snaps.append((k, tracer.snapshot()))
        else:
            segments, timed, pred_sum, probe_failed = serve_probe(
                plain["models"].values(), sub.stream.examples)
            slowness = cal.tick()
            attempted += timed + probe_failed
            failed += probe_failed
            probes.append((k, segments, timed, pred_sum, slowness))
        for p in (plain, pair):
            if p is None:
                continue
            p.pop("models", None)
            for n in names:
                ops = len(sub.stream.examples) + sub.train[n][1]
                attempted += ops
                failed += ops - p["done"][n]["eval"] - p["done"][n]["train"]
        rounds.append((k, plain, pair))
        elapsed = time.perf_counter() - t_start
        enough = len(rounds) >= (1 if traced else K)
        if enough and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break

    # every pass over a sub-stream must repeat the first pass's report
    problems = []
    first = {}
    for i, (k, plain, pair) in enumerate(rounds):
        for p in (plain, pair):
            if p is None:
                continue
            problems += p["problems"]
            ref = first.setdefault(k, quality(p))
            if quality(p) != ref:
                problems.append(f"round {i}: report differs from the first pass "
                                f"over sub-stream {k}")
    for k in range(K):
        if len({pr[3] for pr in probes if pr[0] == k}) > 1:
            problems.append(f"serve predictions differ between passes over sub-stream {k}")

    headline = [subs[k].headline(plain, problems) for k, plain, _ in rounds[:K]]
    cps = [sum(r.n_examples for r in p["results"].values() if r) / p["wall"]
           for _, p, _ in rounds]
    detail = {
        "substream_seeds": [sub.seed for sub in subs],
        "rounds": len(rounds),
        "wall_clicks_per_s_by_pass": cps,
        "slowness_by_pass": [p["slowness"] for _, p, _ in rounds],
        "wall_setup_s_by_substream": [sub.setup_s for sub in subs],
        "slowness_by_setup": [sub.setup_slowness for sub in subs],
        "wall_serve_p50_p99_us_by_segment": [[(a / 1e3, b / 1e3) for a, b in pr[1]]
                                             for pr in probes],
        "slowness_by_probe": [pr[4] for pr in probes],
        "serve_calls_timed": sum(pr[2] for pr in probes),
        "serve_segments": sum(len(pr[1]) for pr in probes),
        "reference_s": cal.samples,
        "headline": names[0],
        "headline_by_substream": [{"pll": {s: raw[s]["pll"] for s in SLICES},
                                   "bias": {s: raw[s]["bias"] for s in SLICES}}
                                  for raw, _ in headline],
        "reference_nll_by_substream": [
            {s: {"ln_y_factorial": sub.ref[s][0], "campaign_mean_pll": sub.ref[s][1]}
             for s in SLICES} for sub in subs],
        "slice_examples_by_substream": [sub.slice_n for sub in subs],
        "failed_op_share": failed / attempted if attempted else 0.0,
    }

    if traced:
        counts = {}
        for k, snap in snaps:
            c = {name: v[0] for name, v in snap["agg"].items()}
            if counts.setdefault(k, c) != c:
                problems.append(f"traced passes over sub-stream {k} disagree on call counts")
        overhead = statistics.median(
            (pair["wall"] / pair["slowness"]) / (plain["wall"] / plain["slowness"])
            for _, plain, pair in rounds)
        layer = layer_metrics([s for _, s in snaps], [pair for _, _, pair in rounds],
                              setup_snap, subs[0].stream, (overhead - 1.0) * 100.0)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        def mean_norm(s):
            return statistics.fmean(norm[s] for _, norm in headline)
        biases = [raw["ALL"]["bias"] or math.nan for raw, _ in headline]
        metrics = {
            "clicks_per_s": (statistics.median(
                c * p["slowness"] for c, (_, p, _) in zip(cps, rounds)), "clicks/s"),
            "setup_s": (statistics.median(
                sub.setup_s / sub.setup_slowness for sub in subs), "s"),
            "serve_p50_us": (median_or_nan(
                p50 / pr[4] for pr in probes for p50, _ in pr[1]) / 1e3, "us"),
            "serve_p99_us": (median_or_nan(
                p99 / pr[4] for pr in probes for _, p99 in pr[1]) / 1e3, "us"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "norm_pll_all": (mean_norm("ALL"), "ratio"),
            "norm_pll_new_campaign": (mean_norm("NEW_CAMPAIGN"), "ratio"),
            "norm_pll_high_delay": (mean_norm("HIGH_DELAY"), "ratio"),
            "calib_factor_all": (statistics.fmean(max(b, 1.0 / b) for b in biases), "ratio"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    detail["problems"] = problems[:50]
    correct = not problems and failed == 0
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    prov = provenance(workload, args, [len(sub.stream.examples) for sub in subs])
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload.name}_seed{args.seed}_trace{args.trace}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(stem + ".json", "w") as fh:
        json.dump({"provenance": prov, "detail": detail, "result": result}, fh, indent=1)
    if traced:
        with open(stem + "_spans.json", "w") as fh:
            json.dump({"fields": ["id", "name", "start_ns", "end_ns", "parent_id"],
                       "spans": tracer.spans}, fh)
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
