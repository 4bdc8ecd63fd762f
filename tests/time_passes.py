"""Time each kind of model pass, and hash the state two replays leave.

    PYTHONPATH=src python tests/time_passes.py

Replays 3,000 clicks of the default config's seed-1 stream through
Proposed, M4 and M3, recording every model pass: each
`PoissonRegressor.forward` and `train_step` and each `RegressorStack.read`.
Then, in the same process, it replays each kind of pass alone from that
record, in a loop, five times, and keeps the fastest: `train_step` from the
models' initial state, so that the steps alone retrace the replay's
training, `forward` and `read` on the trained models. The steps' trace must
leave each sub-model's `params` and `g2` as the replay did. Last it times
whole replays of fresh variants, five times each, and keeps the fastest:
as they run, and with the kernel's three passes (`kernel.forward`,
`train_step` and `read`) replaced by stubs that return constants, so that
what is left is the replay's Python work (less `_fill`'s hashing: a stub
never misses the memo).

The whole is run in 4 processes, one after another. Prints, per variant,
µs per call of each pass (the fastest process; the loop's own cost
included) with its number of calls; µs per click of the replay, of the
stubbed replay, and the Python share that follows (stubbed over whole, the
fastest process of each); then the sha256 of each sub-model's
`params` bytes followed by its `g2` bytes, which every process must agree
on. Two checkouts can so be compared per call and bit for bit. Exits 1 if
the processes or the steps' trace disagree on a hash.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

PROCESSES = 4
REPEATS = 5
CLICKS = 3000
SEED = 1
VARIANTS = ("Proposed", "M4", "M3")
PASSES = ("forward", "train_step", "read")


def state_hashes(models) -> list:
    return [hashlib.sha256(m.params.tobytes() + m.g2.tobytes()).hexdigest()
            for m in models]


def record(variant, stream, slices) -> list:
    """[(pass, bound method, args)] of every pass of one replay, in order."""
    from delayfeed import harness

    calls = []

    def recorder(kind, method):
        def recorded(*args):
            calls.append((kind, method, args))
            return method(*args)
        return recorded

    for model in variant.sub_models:
        model.forward = recorder("forward", model.forward)
        model.train_step = recorder("train_step", model.train_step)
    variant.stack.read = recorder("read", variant.stack.read)
    try:
        harness.run(variant, stream.examples, slices)
    finally:
        for model in variant.sub_models:
            del model.forward, model.train_step
        del variant.stack.read
    return calls


def best_us(calls, reset) -> float:
    """The fastest of REPEATS loops over `calls`, each after `reset()`, in
    µs per call."""
    best = float("inf")
    for _ in range(REPEATS):
        reset()
        start = time.perf_counter_ns()
        for method, args in calls:
            method(*args)
        best = min(best, time.perf_counter_ns() - start)
    return best / 1e3 / len(calls)


def replay_us(spec, stream, slices, stubbed) -> float:
    """µs per click of the fastest of REPEATS replays of `stream`, each by
    a fresh variant of `spec`; with `stubbed`, the kernel's passes return
    constants (a rate, or a pair of them in two-output mode; a loss)."""
    from delayfeed import harness, kernel, variants

    passes = {name: getattr(kernel, name) for name in PASSES}
    best = float("inf")
    for _ in range(REPEATS):
        variant = variants.build_variant(spec, seed_offset=SEED * 101)
        if stubbed:
            rate = (0.2, 0.0) if variant.sub_models[0].n_outputs == 2 else 0.2
            kernel.forward = lambda net, pairs, values, memo: rate
            kernel.train_step = lambda net, pairs, values, labels, memo: 0.5
            kernel.read = lambda nets, pairs, memo: 0.2
        try:
            start = time.perf_counter_ns()
            harness.run(variant, stream.examples, slices)
            best = min(best, time.perf_counter_ns() - start)
        finally:
            for name, method in passes.items():
                setattr(kernel, name, method)
    return best / 1e3 / len(stream.examples)


def measure() -> dict:
    """{variant: {"us": {pass: µs}, "calls": {pass: n}, "sha256": [...],
    "traced": [...], "click_us": {"replay": µs, "stubbed": µs}}} of one
    process."""
    from delayfeed import cli, harness, variants

    cfg = cli.config_from_dict({"stream": {"total_clicks": CLICKS},
                                "variants": list(VARIANTS), "seeds": [SEED]})
    stream = cli.stream_for_seed(cfg, SEED)
    slices = harness.default_slices(stream.ground_truth.high_delay)
    out = {}
    for name in VARIANTS:
        variant = variants.build_variant(cfg.specs[name],
                                         seed_offset=SEED * 101)
        models = variant.sub_models
        initial = [(m.params.copy(), m.g2.copy()) for m in models]
        calls = record(variant, stream, slices)
        replayed = state_hashes(models)
        by_pass = {kind: [(method, args) for k, method, args in calls
                          if k == kind] for kind in PASSES}

        def restore():
            for m, (params, g2) in zip(models, initial):
                m.params[:], m.g2[:] = params, g2
        us = {kind: best_us(by_pass[kind],
                            restore if kind == "train_step" else lambda: None)
              for kind in PASSES if by_pass[kind]}
        # the last loop of steps ran from the initial state
        traced = state_hashes(models)
        click_us = {kind: replay_us(cfg.specs[name], stream, slices,
                                    kind == "stubbed")
                    for kind in ("replay", "stubbed")}
        out[name] = {"us": us, "sha256": replayed, "traced": traced,
                     "calls": {k: len(v) for k, v in by_pass.items() if v},
                     "click_us": click_us}
    return out


def main() -> int:
    if sys.argv[1:] == ["--child"]:
        print(json.dumps(measure()))
        return 0
    runs = []
    for _ in range(PROCESSES):
        child = subprocess.run([sys.executable, os.path.abspath(__file__),
                                "--child"], capture_output=True, text=True,
                               check=True)
        runs.append(json.loads(child.stdout))
    bad = 0
    for name in VARIANTS:
        first = runs[0][name]
        us = {k: min(run[name]["us"][k] for run in runs) for k in first["us"]}
        print(f"{name}: " + ", ".join(
            f"{k} {us[k]:.3f} us ({first['calls'][k]:,} calls)" for k in us))
        click = {k: min(run[name]["click_us"][k] for run in runs)
                 for k in first["click_us"]}
        print(f"  replay {click['replay']:.2f} us a click, passes stubbed "
              f"{click['stubbed']:.2f} us: Python "
              f"{click['stubbed'] / click['replay']:.0%}")
        for i, digest in enumerate(first["sha256"]):
            print(f"  sub-model {i} params+g2 sha256 {digest}")
        if any(run[name]["sha256"] != first["sha256"]
               or run[name]["traced"] != first["sha256"] for run in runs):
            print(f"  the processes or the steps' trace disagree on {name}'s "
                  f"state")
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
