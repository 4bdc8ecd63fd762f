"""End-to-end acceptance gate. Each test prints one PASS/FAIL line on the
real stdout so the verdicts survive pytest's capture.

The benchmark matrix (8 variants x 5 seeds at full scale) takes a while on
one core, so its summaries are cached under tests/_cache/, one file per
(variant, seed) task and one per seed for the stream's delay mass. Every
file name holds the digest of the resolved default config and a sha256 of
src/delayfeed/*.py, so any source or config change misses the cache and
reruns the missing tasks through `delayfeed run`'s own `run_matrix`, on as
many worker processes as there are usable CPUs. test_cli.py fails while a
file keyed on another config or source is left in the directory.
"""

import hashlib
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import delayfeed
from delayfeed.cli import config_from_dict, main, run_matrix, stream_for_seed
from delayfeed.core import (
    DAY,
    ContractViolation,
    mature_label,
    observed_prefix,
    slice_label,
    split_signed,
)
from delayfeed.datagen import StreamConfig, generate, posterior_expected_tail
from delayfeed.ensemble import BUCKET, SubModelEnsemble, VariantSpec
from delayfeed.harness import default_slices, run
from delayfeed.regressor import (
    FeatureVector,
    PoissonRegressor,
    RegressorConfig,
    hash_token,
)
from delayfeed.variants import build_variant, standard_specs

from test_core import windows

SEEDS = (1, 2, 3, 4, 5)
CACHE_DIR = Path(__file__).parent / "_cache"
SOURCE_DIR = Path(delayfeed.__file__).parent
DELAY_MASS = "_delay_mass_beyond_1d"

WINDOWS = windows(1 * DAY, 3 * DAY, 7 * DAY, 15 * DAY)
SMALL_RC = RegressorConfig(
    categorical_fields=("campaign", "segment", "context"),
    embedding_dim=2,
    hash_buckets_per_field=64,
    hidden_layer_sizes=(4,),
    output_bias_init=math.log(0.5),
    rng_seed=0,
)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _verdict_to_terminal(capfd):
    # verdict lines must reach the terminal even though pytest captures
    # file descriptors for passing tests
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def verdict(ok: bool, name: str, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] {name}" + (f": {detail}" if detail else "")
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


# -- benchmark matrix ---------------------------------------------------------

def _summarize(result):
    slices = {}
    for name, acc in result.slices.items():
        pll, bias = acc.finalize()
        slices[name] = {"pll": pll, "bias": bias}
    windows = [
        [day] + list(vals)
        for day, vals in sorted(result.slices["ALL"].windows.items())
    ]
    return {"slices": slices, "windows": windows}


def _delay_mass_beyond(stream, threshold: float) -> float:
    camps = stream.ground_truth.campaigns
    tail = {cid: 1.0 - c.truncated_cdf(threshold) for cid, c in camps.items()}
    return statistics.fmean(tail[e.campaign_id] for e in stream.examples)


def source_digest(source_dir: Path = SOURCE_DIR) -> str:
    """sha256 of the package's modules, each by file name and bytes."""
    h = hashlib.sha256()
    for path in sorted(source_dir.glob("*.py")):
        h.update(f"{path.name}\0{path.stat().st_size}\0".encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cache_prefix(cfg, source_dir: Path = SOURCE_DIR) -> str:
    """What the name of every cache file of `cfg`'s matrix begins with: the
    digest of the resolved config and that of the source that ran it."""
    return f"matrix_{cfg.digest}_{source_digest(source_dir)}_seed"


def _write_json(path: Path, value):
    # written whole or not at all, so a killed run leaves no torn entry
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(value))
    tmp.replace(path)


@pytest.fixture(scope="session")
def matrix():
    """The default config's matrix, one cache file per (variant, seed) task
    and one per seed for the stream's delay mass. Each missing task runs
    through `cli.run_matrix`, the path of `delayfeed run`, and is written
    as it finishes, so a killed rerun keeps every finished task."""
    cfg = config_from_dict({})
    prefix = cache_prefix(cfg)

    def path(seed, entry):
        return CACHE_DIR / f"{prefix}{seed}_{entry}.json"

    CACHE_DIR.mkdir(exist_ok=True)
    for seed in SEEDS:
        if not path(seed, DELAY_MASS).exists():
            stream = stream_for_seed(cfg, seed)
            _write_json(path(seed, DELAY_MASS),
                        _delay_mass_beyond(stream, 1 * DAY))
    missing = [(name, seed) for seed in SEEDS for name in cfg.variants
               if not path(seed, name).exists()]
    jobs = min(len(missing), len(os.sched_getaffinity(0)))
    for seed, name, result, runtime_s in run_matrix(cfg, missing, jobs):
        _write_json(path(seed, name),
                    {**_summarize(result), "runtime_s": runtime_s})
    return {"digest": cfg.digest, "seeds": list(SEEDS), "results": {
        str(seed): {entry: json.loads(path(seed, entry).read_text())
                    for entry in (DELAY_MASS, *cfg.variants)}
        for seed in SEEDS}}


def _pll(matrix, seed, variant, slice_name="ALL"):
    return matrix["results"][str(seed)][variant]["slices"][slice_name]["pll"]


def _final_quarter_bias(windows) -> float:
    """Cumulative bias over the trailing days covering the last quarter of
    evaluated examples."""
    total = sum(row[4] for row in windows)
    need = 0.25 * total
    seen = pred = label = 0.0
    for row in reversed(windows):
        seen += row[4]
        pred += row[2]
        label += row[3]
        if seen >= need:
            break
    return pred / label


# -- the ten gates ------------------------------------------------------------

def test_label_completion_unbiased_with_analytic_tail():
    t0 = time.perf_counter()
    stream = generate(StreamConfig(
        total_clicks=100_000,
        drift_magnitude=0.0,
        retraction_prob=0.0,
        rng_seed=7,
    ))
    camps = stream.ground_truth.campaigns
    ens = SubModelEnsemble(
        VariantSpec("Proposed", SMALL_RC, WINDOWS, use_aux=True))

    def tail(example, m):
        return posterior_expected_tail(
            example, camps[example.campaign_id], WINDOWS[m][0]
        )

    true_mean = statistics.fmean(mature_label(e) for e in stream.examples)
    errors = []
    for age, _ in WINDOWS:
        est_mean = statistics.fmean(
            ens.estimate_mature_label(e, e.click_time + age, tail_predictor=tail)
            for e in stream.examples
        )
        errors.append(abs(est_mean / true_mean - 1.0))
    elapsed = time.perf_counter() - t0
    ok = max(errors) < 0.01 and elapsed < 30.0
    verdict(
        ok, "label completion unbiased with analytic tail",
        f"max horizon error {max(errors):.4%}, {elapsed:.1f}s",
    )


def test_proposed_final_quarter_calibration(matrix):
    biases, runtimes = [], []
    for seed in SEEDS:
        summary = matrix["results"][str(seed)]["Proposed"]
        biases.append(_final_quarter_bias(summary["windows"]))
        runtimes.append(summary["runtime_s"])
    hits = sum(0.97 <= b <= 1.03 for b in biases)
    ok = hits >= 4 and max(runtimes) < 300.0
    verdict(
        ok, "final-quarter calibration of Proposed",
        f"bias per seed {[round(b, 3) for b in biases]}, "
        f"{hits}/5 in [0.97, 1.03], max runtime {max(runtimes):.0f}s",
    )


def test_short_delay_baseline_underpredicts(matrix):
    masses = [matrix["results"][str(seed)][DELAY_MASS] for seed in SEEDS]
    biases = [
        matrix["results"][str(seed)]["M1"]["slices"]["ALL"]["bias"]
        for seed in SEEDS
    ]
    ok = min(masses) >= 0.20 and all(b < 0.90 for b in biases)
    verdict(
        ok, "M1 underprediction",
        f"delay mass beyond 1d {min(masses):.0%}+, "
        f"bias per seed {[round(b, 3) for b in biases]}",
    )


def test_all_data_pll_ranking(matrix):
    chain_hits = beats_m3 = 0
    rows = []
    for seed in SEEDS:
        oracle, prop = _pll(matrix, seed, "Oracle"), _pll(matrix, seed, "Proposed")
        m4, m5, m3 = (_pll(matrix, seed, v) for v in ("M4", "M5", "M3"))
        chain_hits += oracle < prop < min(m4, m5)
        beats_m3 += prop < m3
        rows.append(f"seed {seed}: O={oracle:.4f} P={prop:.4f} "
                    f"M4={m4:.4f} M5={m5:.4f} M3={m3:.4f}")
    ok = chain_hits >= 4 and beats_m3 >= 4
    verdict(
        ok, "all-data PLL ranking",
        f"Oracle<Proposed<min(M4,M5) on {chain_hits}/5, "
        f"Proposed<M3 on {beats_m3}/5; " + "; ".join(rows),
    )


def test_cold_start_slice_advantage(matrix):
    wins = wider = 0
    for seed in SEEDS:
        gap_new = (_pll(matrix, seed, "M4", "NEW_CAMPAIGN")
                   - _pll(matrix, seed, "Proposed", "NEW_CAMPAIGN"))
        gap_all = (_pll(matrix, seed, "M4")
                   - _pll(matrix, seed, "Proposed"))
        wins += gap_new > 0
        wider += gap_new > gap_all
    ok = wins >= 4 and wider >= 3
    verdict(
        ok, "cold-start slice advantage over disjoint encoding",
        f"Proposed beats M4 on NEW_CAMPAIGN {wins}/5, wider gap than ALL {wider}/5",
    )


def test_high_delay_slice_advantage(matrix):
    wider = 0
    for seed in SEEDS:
        hits = 0
        for base in ("M1", "M2_7d"):
            imp_high = (_pll(matrix, seed, base, "HIGH_DELAY")
                        - _pll(matrix, seed, "Proposed", "HIGH_DELAY"))
            imp_all = (_pll(matrix, seed, base)
                       - _pll(matrix, seed, "Proposed"))
            hits += imp_high > imp_all
        wider += hits == 2
    ok = wider >= 3
    verdict(
        ok, "high-delay slice advantage over fixed-delay baselines",
        f"improvement larger on HIGH_DELAY than ALL on {wider}/5 seeds",
    )


def test_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    h = 1e-5
    worst = 0.0
    for trial in range(100):
        fields = tuple(f"f{i}" for i in range(int(rng.integers(1, 3))))
        numerics = tuple(f"x{i}" for i in range(int(rng.integers(0, 3))))
        config = RegressorConfig(
            categorical_fields=fields,
            numeric_features=numerics,
            embedding_dim=int(rng.integers(1, 4)),
            hash_buckets_per_field=8,
            hidden_layer_sizes=((), (3,), (4, 2))[trial % 3],
            two_output_mode=bool(trial % 2),
            output_bias_init=math.log(0.5),
            rng_seed=trial,
        )
        model = PoissonRegressor(config)
        # jitter the zero-initialized biases so no ReLU pre-activation sits
        # exactly on its kink, where the finite difference straddles the
        # subgradient (a fully dead layer leaves the next pre-activation
        # equal to its bias)
        for arr in model.biases:
            arr += rng.uniform(-0.3, 0.3, arr.shape)
        fv = FeatureVector(
            categorical=[(f, f"tok{rng.integers(0, 5)}") for f in fields],
            numeric=[(n, float(rng.uniform(0.0, 3.0))) for n in numerics],
        )
        if config.two_output_mode:
            label = (float(rng.uniform(0, 2)), float(rng.uniform(0, 2)))
        else:
            label = float(rng.uniform(0, 2))
        _, w_grads, b_grads, emb_grads = model.gradients(fv, label)

        def fd(array, idx):
            orig = array[idx]
            array[idx] = orig + h
            up = model.gradients(fv, label)[0]
            array[idx] = orig - h
            down = model.gradients(fv, label)[0]
            array[idx] = orig
            return (up - down) / (2 * h)

        checks = []
        for layer, grad in enumerate(w_grads):
            idx = tuple(int(rng.integers(0, s)) for s in grad.shape)
            checks.append((model.weights[layer], idx, grad[idx]))
        for layer, grad in enumerate(b_grads):
            idx = (int(rng.integers(0, grad.shape[0])),)
            checks.append((model.biases[layer], idx, grad[idx]))
        for (field_id, row), grad in emb_grads.items():
            col = int(rng.integers(0, grad.shape[0]))
            checks.append(
                (model.embeddings[field_id], (row, col), grad[col])
            )
        for array, idx, analytic in checks:
            numeric = fd(array, idx)
            err = abs(analytic - numeric) / max(abs(numeric), 1e-8)
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 10.0
    verdict(
        ok, "analytic gradients match finite differences",
        f"worst relative error {worst:.2e}, {elapsed:.1f}s",
    )


def test_structural_invariants(tmp_path):
    checks = []

    # overlapping-tail labels are suffix sums of the disjoint bucket labels,
    # which are what the bucket-encoded sub-models train on
    rng = np.random.default_rng(5)
    from test_core import buckets, make_example, thermometer
    bucket_ens = SubModelEnsemble(
        VariantSpec("M4", SMALL_RC, WINDOWS, encoding=BUCKET))
    for _ in range(50):
        delays = sorted(rng.uniform(0, 30 * DAY, size=rng.integers(0, 8)))
        e = make_example(list(delays))
        thermo = thermometer(e, WINDOWS)
        slices = buckets(e, WINDOWS)
        for m in range(len(WINDOWS)):
            assert thermo[m] == pytest.approx(sum(slices[m:]))
            assert bucket_ens.training_label(e, m) == slices[m]
    checks.append("label identities")

    # training before an example matures for a sub-model is rejected
    ens = SubModelEnsemble(
        VariantSpec("Proposed", SMALL_RC, WINDOWS, use_aux=True))
    e = make_example([0.5 * DAY])
    with pytest.raises(ContractViolation):
        ens.train_on(e, 1, now=e.click_time + 1 * DAY)
    checks.append("maturity filter")

    # serving in overlapping-tail mode runs exactly one forward pass
    before = [m.forward_calls for m in ens.sub_models]
    ens.serve(e)
    deltas = [m.forward_calls - b for m, b in zip(ens.sub_models, before)]
    assert deltas == [1] + [0] * (len(ens.sub_models) - 1)
    checks.append("single-forward serving")

    # each example is evaluated before any of its training events fire
    class Recorder:
        name = "recorder"
        log = []

        def serve(self, example):
            self.log.append(("eval", example.example_id))
            return 1.0

        def training_schedule(self, example):
            return ens.training_schedule(example)

        def train_on(self, example, i, now=None):
            self.log.append(("train", example.example_id, i))
            return 0.0

    rec = Recorder()
    run(rec, [e], stream_end=e.click_time + 40 * DAY)
    assert rec.log[0] == ("eval", e.example_id)
    assert [entry[2] for entry in rec.log[1:]] == list(
        range(len(WINDOWS))
    )
    checks.append("evaluate-then-train ordering")

    # one training step only touches the embedding rows it looked up
    model = PoissonRegressor(SMALL_RC)
    fv = FeatureVector(categorical=[("campaign", "c1")])
    snapshot = {f: t.copy() for f, t in model.embeddings.items()}
    model.train_step(fv, 2.0)
    buckets = SMALL_RC.hash_buckets_per_field
    touched_rows = {(f, hash_token(f, t, buckets)) for f, t in fv.categorical}
    for f, table in model.embeddings.items():
        for row in range(table.shape[0]):
            if (f, row) not in touched_rows:
                assert np.array_equal(table[row], snapshot[f][row])
    checks.append("sparse-update locality")

    # full pipeline is deterministic: rerunning yields byte-identical reports
    config = {
        "schema_version": "v1",
        "stream": {"total_clicks": 600, "campaign_count": 4,
                   "duration_days": 50, "attribution_window_days": 20},
        "bucketing": {"boundaries_days": [1, 5]},
        "regressor": {"embedding_dim": 2, "hidden_layer_sizes": [4],
                      "hash_buckets_per_field": 64},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["run", "--config", str(cfg_path), "--variant", "Proposed",
                     "--seed", "1", "--out", str(out)]) == 0
        digests.append(
            hashlib.sha256((out / "report_seed1.json").read_bytes()).hexdigest()
        )
    assert digests[0] == digests[1]
    checks.append("byte-identical reruns")

    verdict(True, "structural invariants", ", ".join(checks))


def test_conditional_tail_means_match_closed_form():
    t0 = time.perf_counter()
    stream = generate(StreamConfig(
        total_clicks=200_000,
        campaign_count=1,
        cold_start_fraction=0.0,
        drift_magnitude=0.0,
        gamma_shape_range=(1.5, 1.5),
        mean_rate_range=(1.5, 1.5),
        rng_seed=11,
    ))
    camp = stream.ground_truth.campaigns[0]
    horizon = camp.delay.median
    by_head = {}
    for e in stream.examples:
        k = int(observed_prefix(e, horizon))
        by_head.setdefault(k, []).append(mature_label(e) - k)
    errors = {}
    for k in (0, 1, 2, 3):
        p = camp.truncated_cdf(horizon)
        closed = (1.0 - p) * (camp.gamma_shape + k) / (camp.gamma_rate + p)
        got = statistics.fmean(by_head[k])
        errors[k] = abs(got / closed - 1.0)
    elapsed = time.perf_counter() - t0
    ok = max(errors.values()) < 0.02 and elapsed < 60.0
    verdict(
        ok, "conditional tail means match closed form",
        f"errors by head count {({k: round(v, 4) for k, v in errors.items()})}, "
        f"{elapsed:.1f}s",
    )


def test_retraction_two_output_pipeline():
    stream = generate(StreamConfig(
        total_clicks=30_000,
        retraction_prob=0.3,
        rng_seed=13,
    ))
    spec = standard_specs(
        30 * DAY,
        RegressorConfig(
            categorical_fields=("campaign", "segment", "context"),
            output_bias_init=math.log(0.5),
            rng_seed=0,
        ),
        two_output_mode=True,
    )["Proposed"]
    variant = build_variant(spec)

    # the signed decomposition is exact, for labels and for predictions
    decompose_exact = True
    for e in stream.examples[:500]:
        for lo, _ in WINDOWS:
            hi = e.attribution_window
            pos, neg = split_signed(e, lo, hi)
            if pos - neg != slice_label(e, lo, hi):
                decompose_exact = False
    f0 = variant.sub_models[0]
    probe = FeatureVector(categorical=stream.examples[0].serving_features)
    plus, minus = f0.forward(probe)
    if f0.predict(probe) != plus - minus:
        decompose_exact = False

    slices = default_slices(stream.ground_truth.high_delay)
    result = run(variant, stream.examples, slices)
    _, bias = result.slices["ALL"].finalize()
    ok = decompose_exact and 0.9 <= bias <= 1.1
    verdict(
        ok, "retraction pipeline with signed two-output predictions",
        f"decomposition exact: {decompose_exact}, cumulative bias {bias:.3f}",
    )
