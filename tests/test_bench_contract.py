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


def test_traced_proposed_replay_records_completion_edges():
    workload = workloads.WORKLOADS["thermometer_cascade"]
    cfg = cli.config_from_dict(workload.config_dict(200))
    stream = cli.stream_for_seed(cfg, 1)
    model = variants.build_variant(cli.variant_specs_for(cfg)["Proposed"])
    slices = harness.default_slices(stream.ground_truth.high_delay)
    with tracing.Tracer(keep=0) as tracer:
        result = harness.run(model, stream.examples, slices)
    assert result.n_examples == 200
    edges, agg = tracer.edges, tracer.agg
    assert edges.get(("ensemble.training_label", "regressor.forward"), 0) > 0
    assert edges.get(("ensemble.train_on", "regressor.train_step"), 0) == (
        agg["regressor.train_step"][0]) > 0
    # a training step runs its own forward pass, outside the traced method
    assert ("regressor.train_step", "regressor.forward") not in edges
    assert agg["ensemble.features_for"][0] > 0


def test_traced_bucket_replay_serves_in_one_stacked_forward():
    workload = workloads.WORKLOADS["signed_bucket_wide"]
    cfg = cli.config_from_dict(workload.config_dict(200))
    stream = cli.stream_for_seed(cfg, 1)
    model = variants.build_variant(cli.variant_specs_for(cfg)["M4"])
    slices = harness.default_slices(stream.ground_truth.high_delay)
    with tracing.Tracer(keep=0) as tracer:
        result = harness.run(model, stream.examples, slices)
    assert result.n_examples == 200
    serves = tracer.agg["ensemble.serve"][0]
    assert serves == 200
    # all sub-models run inside ensemble.serve, none through forward()
    assert ("ensemble.serve", "regressor.forward") not in tracer.edges
    assert tracer.agg["regressor.forward"][0] == 0
    # bucket encoding completes no labels: each forward call is one serve's
    assert [m.forward_calls for m in model.sub_models] == [serves] * 5


def test_traced_single_delay_replay_serves_through_variants():
    # the bench's variants.* metrics come from SingleDelayModel's methods
    workload = workloads.WORKLOADS["single_delay_baselines"]
    cfg = cli.config_from_dict(workload.config_dict(200))
    stream = cli.stream_for_seed(cfg, 1)
    model = variants.build_variant(cli.variant_specs_for(cfg)["M1"])
    slices = harness.default_slices(stream.ground_truth.high_delay)
    with tracing.Tracer(keep=0) as tracer:
        result = harness.run(model, stream.examples, slices)
    assert result.n_examples == 200
    agg = tracer.agg
    assert agg["variants.serve"][0] == 200
    assert agg["variants.train_on"][0] == agg["regressor.train_step"][0] > 0
    # the inherited methods run inside the variants.* spans, not as spans
    # of their own
    assert agg["ensemble.serve"][0] == agg["ensemble.train_on"][0] == 0


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
