"""Smoke test of the benchmark itself, at a tiny stream size.

    python3 bench/smoke.py

For every workload it runs bench/run.py untraced and traced at one seed
and checks that
  - both exit 0 and end with one JSON object holding exactly the keys
    correct, attempted, failed and metrics, with correct true;
  - the untraced run names every end-to-end metric of BENCHMARK.json with
    its unit, and the traced run every per-layer metric;
  - the traced run's headline PLL and bias equal the untraced run's bit for
    bit, so the outside wrappers do not perturb the program.
Then it copies BENCHMARK.json and the benchmark alone into a scratch
directory and checks that the benchmark fails there without a result.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLICKS = 400
SEED = 3


def run(command, args, cwd=ROOT):
    proc = subprocess.run([*command, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def fail(msg):
    print(f"smoke: FAIL {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        quality = {}
        for trace in (0, 1):
            code, lines, err = run(spec["command"], ["--workload", w["name"], "--seed", str(SEED),
                                    "--seconds", "1", "--trace", str(trace),
                                    "--clicks", str(CLICKS)])
            label = f"{w['name']} trace {trace}"
            if code != 0 or not lines:
                fail(f"{label}: exit {code}\n{err}")
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{label}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{label}: {result['correct']=} {result['failed']=} {result['attempted']=}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                fail(f"{label}: metrics/units differ from BENCHMARK.json: "
                     f"{sorted(set(got.items()) ^ set(expected[trace].items()))}")
            detail = json.loads(lines[-2])["detail"]
            quality[trace] = detail["headline_by_substream"]
        # a traced run covers a prefix of the untraced run's sub-streams
        if not quality[1] or quality[0][:len(quality[1])] != quality[1]:
            fail(f"{w['name']}: traced quality {quality[1]} != untraced {quality[0]}")
        print(f"smoke: {w['name']} ok")

    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = run(spec["command"], ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or lines:
        fail(f"without sources: exit {code}, output {lines[-1:]}")
    print("smoke: fails without sources, ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
