"""The benchmark under bench/ traces the package from outside: it wraps the
functions and methods named in bench/tracing.py's TARGETS and derives its
per-layer metrics from their spans and call edges. These tests fail when a
change to the package would silently break those metrics."""

import importlib.util
import math
import os
import sys

import pytest

from delayfeed import cli, harness, regressor, variants

from test_regressor import count_passes

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = load_bench_module("tracing")
workloads = load_bench_module("workloads")


@pytest.mark.parametrize("name,owner,attr", tracing.TARGETS,
                         ids=[t[0] for t in tracing.TARGETS])
def test_every_target_resolves(name, owner, attr):
    assert callable(getattr(owner, attr, None)), name


def test_hash_token_cache_is_inspectable():
    info = regressor.hash_token.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def traced_replay(workload_name, variant):
    """(passes, tracer) of a traced 200-click replay of one variant on the
    workload's stream at seed 1: `passes` counts each sub-model's
    forward passes (`count_passes`)."""
    workload = workloads.WORKLOADS[workload_name]
    cfg = cli.config_from_dict(workload.config_dict(200))
    stream = cli.stream_for_seed(cfg, 1)
    model = variants.build_variant(cli.variant_specs_for(cfg)[variant])
    passes = count_passes(model.sub_models, model.stack)
    slices = harness.default_slices(stream.ground_truth.high_delay)
    with tracing.Tracer(keep=0) as tracer:
        result = harness.run(model, stream.examples, slices)
    assert result.n_examples == 200
    return passes, tracer


def test_second_replay_hits_the_hash_token_cache():
    # every model owns its row memo, so a new model asks hash_token for
    # each pair once, and a second replay in the process finds every pair
    # in its cache: the bench's regressor.hash_token_hit_ratio reads reuse
    traced_replay("thermometer_cascade", "Proposed")
    before = regressor.hash_token.cache_info()
    traced_replay("thermometer_cascade", "Proposed")
    after = regressor.hash_token.cache_info()
    assert after.hits > before.hits
    assert after.misses == before.misses


def test_traced_proposed_replay_records_completion_edges():
    _, tracer = traced_replay("thermometer_cascade", "Proposed")
    edges, agg = tracer.edges, tracer.agg
    assert edges.get(("ensemble.training_label", "regressor.forward"), 0) > 0
    assert edges.get(("ensemble.train_on", "regressor.train_step"), 0) == (
        agg["regressor.train_step"][0]) > 0
    # a training step runs its own forward pass, outside the traced method
    assert ("regressor.train_step", "regressor.forward") not in edges
    assert agg["ensemble.features_for"][0] > 0


def test_traced_bucket_replay_serves_in_one_stacked_forward():
    passes, tracer = traced_replay("signed_bucket_wide", "M4")
    serves = tracer.agg["ensemble.serve"][0]
    assert serves == 200
    # all sub-models run inside ensemble.serve, none through forward()
    assert ("ensemble.serve", "regressor.forward") not in tracer.edges
    assert tracer.agg["regressor.forward"][0] == 0
    # bucket encoding completes no labels: each forward pass is one serve's
    assert passes == [serves] * 5


def test_traced_single_delay_replay_serves_through_variants():
    # the bench's variants.* metrics come from SingleDelayModel's methods
    _, tracer = traced_replay("single_delay_baselines", "M1")
    agg = tracer.agg
    assert agg["variants.serve"][0] == 200
    assert agg["variants.train_on"][0] == agg["regressor.train_step"][0] > 0
    # the inherited methods run inside the variants.* spans, not as spans
    # of their own
    assert agg["ensemble.serve"][0] == agg["ensemble.train_on"][0] == 0


@pytest.mark.parametrize("workload,variant,serve", [
    ("thermometer_cascade", "Proposed", "ensemble.serve"),
    ("single_delay_baselines", "M1", "variants.serve"),
])
def test_traced_thermometer_serve_is_one_traced_forward(workload, variant, serve):
    # a thermometer serve is one forward of f_0, so the bench's
    # regressor.forward_* count serves as well as label completions
    _, tracer = traced_replay(workload, variant)
    edges = tracer.edges
    assert edges.get((serve, "regressor.forward"), 0) == 200
    completions = edges.get(("ensemble.training_label", "regressor.forward"), 0)
    assert tracer.agg["regressor.forward"][0] == 200 + completions


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_setup_runs(name):
    # the bench's timed set-up, on a small stream
    workload = workloads.WORKLOADS[name]
    cfg = cli.config_from_dict(workload.config_dict(200))
    stream = cli.stream_for_seed(cfg, 1)
    assert len(stream.examples) == 200
    count = cfg.stream.campaign_count
    assert len(stream.ground_truth.campaigns) == count
    assert len(stream.ground_truth.high_delay) == math.ceil(0.1 * count)
    specs = cli.variant_specs_for(cfg)
    for variant in cfg.variants:
        assert variants.build_variant(specs[variant]).name == variant
