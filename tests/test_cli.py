import concurrent.futures
import csv
import hashlib
import json
import os
import re
import shutil
import time

import pytest

from delayfeed import cli
from delayfeed.cli import (
    aggregate_reports,
    config_from_dict,
    load_config,
    main,
    run_matrix,
)
from delayfeed.harness import compare
from delayfeed.regressor import PoissonRegressor
from delayfeed.variants import build_variant

from test_acceptance import CACHE_DIR, SOURCE_DIR, cache_prefix
from test_variants import STANDARD_NAMES

SMALL = {
    "schema_version": "v1",
    "stream": {
        "total_clicks": 800,
        "campaign_count": 5,
        "duration_days": 50,
        "attribution_window_days": 20,
    },
    "bucketing": {"boundaries_days": [1, 5]},
    "regressor": {"embedding_dim": 2, "hidden_layer_sizes": [4],
                  "hash_buckets_per_field": 64},
    "seeds": [1],
}
# 10**400, a JSON integer too large for a float
BIG = "1" + "0" * 400
# every variant at two seeds, at 400 clicks
MATRIX = dict(SMALL, stream=dict(SMALL["stream"], total_clicks=400),
              seeds=[1, 2])


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestConfig:
    def test_defaults(self):
        cfg = config_from_dict({})
        assert cfg.stream.total_clicks == 200_000
        assert cfg.stream.campaign_count == 50
        assert tuple(cfg.specs) == cfg.variants == STANDARD_NAMES
        assert len(cfg.specs["Proposed"].windows) == 5
        assert cfg.seeds == (0,)
        assert cfg.digest

    def test_digest_stable_and_sensitive(self):
        a = config_from_dict(dict(SMALL))
        b = config_from_dict(dict(SMALL))
        assert a.digest == b.digest
        for changed in (
            dict(SMALL, stream=dict(SMALL["stream"], total_clicks=801)),
            dict(SMALL, m1_delay_hours=7),
            dict(SMALL, two_output_mode=True),
            dict(SMALL, regressor=dict(SMALL["regressor"], prior_rate=0.3)),
        ):
            assert config_from_dict(changed).digest != a.digest

    def test_rejects_bucketing_boundary_at_window(self, tmp_path):
        bad = dict(SMALL, bucketing={"boundaries_days": [1, 20]})
        with pytest.raises(ValueError):
            config_from_dict(bad)

    @pytest.mark.parametrize("boundaries,window", [
        ([3, 1], 30), ([0, 3], 30), ([1, 30], 30), ([1, 40], 30), ([7], 30),
        (list(range(1, 11)), 30), ([1, 3], 2),
    ], ids=["descending", "first-at-zero", "last-at-window",
            "last-past-window", "two-windows", "eleven-windows",
            "window-before-boundaries"])
    def test_bucketing_refusal_names_the_key_in_days(self, boundaries, window):
        raw = {"stream": {"attribution_window_days": window},
               "bucketing": {"boundaries_days": boundaries}}
        with pytest.raises(ValueError, match=re.escape(
                f"inside (0, {float(window)}), the attribution window in "
                f"days: got {[float(b) for b in boundaries]}")) as exc:
            config_from_dict(raw)
        assert str(exc.value).startswith("bucketing.boundaries_days ")

    @pytest.mark.parametrize("section,key,value", [
        ("regressor", "learning_rate", "NaN"),
        ("regressor", "learning_rate", "Infinity"),
        ("regressor", "adagrad_epsilon", "NaN"),
        ("regressor", "prior_rate", "NaN"),
        ("regressor", "prior_rate", "0"),
        ("regressor", "prior_rate", "-1"),
        ("regressor", "prior_rate", "Infinity"),
        ("regressor", "hidden_layer_sizes", "[0]"),
        ("regressor", "hidden_layer_sizes", "[-1]"),
        ("stream", "duration_days", "NaN"),
        ("stream", "attribution_window_days", "NaN"),
        ("stream", "attribution_window_days", "Infinity"),
    ])
    def test_rejects_invalid_numeric_values(self, tmp_path, section,
                                                key, value):
        # the json module reads NaN and Infinity from a config file
        path = tmp_path / "config.json"
        text = json.dumps({**SMALL, section: {**SMALL[section], key: "@"}})
        path.write_text(text.replace('"@"', value))
        with pytest.raises(ValueError):
            load_config(str(path))

    @pytest.mark.parametrize("key,value,where", [
        ("prior_rate", "0", "regressor"),
        ("prior_rate", "-1", "regressor"),
        ("prior_rate", "NaN", "regressor"),
        ("m1_delay_hours", "-1", None),
        ("m1_delay_hours", "NaN", None),
        ("m1_delay_hours", "Infinity", None),
        ("m2_delays_days", "[NaN]", None),
        ("m2_delays_days", "[7, -1]", None),
        # booleans must be JSON booleans: the string "false" is truthy
        ("two_output_mode", '"false"', None),
        ("two_output_mode", "0", None),
        ("value_labels", '"false"', "stream"),
        ("value_labels", "1", "stream"),
        # integers must be integers, and no JSON boolean counts as one
        ("total_clicks", "300.5", "stream"),
        ("campaign_count", "true", "stream"),
        ("rng_seed", "1.5", "stream"),
        ("rng_seed", "1.5", "regressor"),
        ("embedding_dim", "2.5", "regressor"),
        ("hash_buckets_per_field", "64.0", "regressor"),
        ("hidden_layer_sizes", "[4.5]", "regressor"),
        ("seeds", "[1.5]", None),
        ("seeds", "[true]", None),
        # seeds are integers >= 0
        ("seeds", "[-1]", None),
        ("seeds", "[2, -3]", None),
        ("rng_seed", "-1", "stream"),
        ("rng_seed", "-5", "regressor"),
        # each seed runs once
        ("seeds", "[3, 3]", None),
        ("seeds", "[1, 2, 1]", None),
        # list keys must be JSON lists
        ("seeds", '"12"', None),
        ("variants", '"M1"', None),
        ("variants", "[1]", None),
        ("m2_delays_days", "7", None),
        ("m2_delays_days", '["7"]', None),
        ("boundaries_days", "7", "bucketing"),
        ("hidden_layer_sizes", "4", "regressor"),
        # every other value is a number
        ("learning_rate", '"0.05"', "regressor"),
        ("m1_delay_hours", "true", None),
        ("schema_version", "1", None),
        # a probability in [0, 1], a drift in [0, 1)
        ("retraction_prob", "1.5", "stream"),
        ("retraction_prob", "-0.1", "stream"),
        ("retraction_prob", "NaN", "stream"),
        ("drift_magnitude", "1", "stream"),
        ("drift_magnitude", "-0.01", "stream"),
        ("drift_magnitude", "NaN", "stream"),
        # numbers too large for a float, and times too large for one in
        # seconds
        *(pytest.param(key, value, where, id=f"{key}-10**400-{where}")
          for key, value, where in [
              ("duration_days", BIG, "stream"),
              ("attribution_window_days", BIG, "stream"),
              ("m1_delay_hours", BIG, None),
              ("m2_delays_days", f"[{BIG}]", None),
              ("boundaries_days", f"[{BIG}]", "bucketing"),
              ("learning_rate", BIG, "regressor"),
              ("adagrad_epsilon", BIG, "regressor"),
              ("prior_rate", BIG, "regressor")]),
        ("duration_days", "1e305", "stream"),
        ("attribution_window_days", "1e305", "stream"),
        ("m1_delay_hours", "1e305", None),
        ("m2_delays_days", "[7, 1e305]", None),
        ("boundaries_days", "[1, 1e305]", "bucketing"),
    ])
    def test_rejection_names_the_key(self, tmp_path, key, value, where):
        raw = dict(SMALL)
        if where:
            raw[where] = {**SMALL[where], key: "@"}
        else:
            raw[key] = "@"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw).replace('"@"', value))
        with pytest.raises(ValueError, match=key):
            load_config(str(path))

    def test_default_variants_follow_the_configured_delays(self):
        assert config_from_dict({}).variants == STANDARD_NAMES
        assert config_from_dict({"variants": ["all"]}).variants == STANDARD_NAMES
        want = ("M1", "M2_3d", "M3", "M4", "M5", "Proposed", "Oracle")
        assert config_from_dict({"m2_delays_days": [3]}).variants == want
        assert config_from_dict(
            {"m2_delays_days": [3], "variants": ["all"]}).variants == want
        assert config_from_dict({"variants": ["M3", "M1"]}).variants == (
            "M3", "M1")

    @pytest.mark.parametrize("names,repeated", [
        (["M1", "M1"], "M1"),
        (["M3", "M1", "M3", "Proposed", "M1"], "M1, M3"),
    ])
    def test_repeated_variant_is_refused_naming_it(self, names, repeated):
        # a variant listed twice would run twice and keep one report entry
        with pytest.raises(ValueError) as exc:
            config_from_dict({"variants": names})
        assert str(exc.value) == (f"variants lists {repeated} more than once; "
                                  f"each variant runs once")

    def test_load_config(self, config_path):
        cfg = load_config(config_path)
        assert cfg.stream.total_clicks == 800

    @pytest.mark.parametrize("raw,path,valid", [
        ({"hidden_layers": [4]}, "hidden_layers", "m1_delay_hours"),
        ({"m1_delay_hour": 12}, "m1_delay_hour", "m1_delay_hours"),
        ({"stream": {"total_click": 5000}}, "stream.total_click", "total_clicks"),
        ({"bucketing": {"boundaries": [1, 5]}}, "bucketing.boundaries",
         "boundaries_days"),
        ({"regressor": {"hidden_layers": [4]}}, "regressor.hidden_layers",
         "hidden_layer_sizes"),
    ])
    def test_rejects_unknown_key_by_its_path(self, raw, path, valid):
        with pytest.raises(ValueError, match=re.escape(
                f"unknown config key {path}; valid keys: ")) as exc:
            config_from_dict(raw)
        assert valid in str(exc.value).split("valid keys: ")[1].split(", ")

    @pytest.mark.parametrize("raw", [[], {"stream": [1]}, {"regressor": 3}])
    def test_rejects_a_section_that_is_not_an_object(self, raw):
        with pytest.raises(ValueError, match="must be a JSON object"):
            config_from_dict(raw)

    @staticmethod
    def readme_config() -> dict:
        readme = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "README.md")
        with open(readme) as fh:
            block = re.search(r"Example config.*?```json\n(.*?)```", fh.read(),
                              re.DOTALL).group(1)
        return json.loads(block)

    def test_readme_example_config_is_the_defaults(self):
        assert config_from_dict(self.readme_config()) == config_from_dict({})

    def test_configs_that_resolve_alike_share_one_digest(self):
        # the digest is of the resolved config, not of the JSON text
        digests = {config_from_dict(raw).digest for raw in (
            {}, self.readme_config(), {"variants": ["all"]},
            {"stream": {"total_clicks": 200000}},
        )}
        assert len(digests) == 1

    def test_cached_matrices_are_keyed_on_the_config_and_source(self):
        # a stale cache file would grade the gate on another config's or
        # another source's runs: delete it and rerun the gate
        prefix = cache_prefix(config_from_dict({}))
        names = os.listdir(CACHE_DIR) if CACHE_DIR.is_dir() else []
        stale = [n for n in names
                 if n.startswith("matrix_") and not n.startswith(prefix)]
        assert stale == [], f"cache files not keyed on {prefix}*"

    @pytest.mark.parametrize("module", sorted(
        p.name for p in SOURCE_DIR.glob("*.py")))
    def test_cache_key_covers_every_source_byte(self, tmp_path, module):
        for path in SOURCE_DIR.glob("*.py"):
            shutil.copy(path, tmp_path)
        cfg = config_from_dict({})
        assert cache_prefix(cfg, tmp_path) == cache_prefix(cfg)
        target = tmp_path / module
        code = bytearray(target.read_bytes())
        code[len(code) // 2] ^= 1
        target.write_bytes(code)
        assert cache_prefix(cfg, tmp_path) != cache_prefix(cfg)

    def test_cache_key_follows_the_resolved_config(self):
        default = cache_prefix(config_from_dict({}))
        assert cache_prefix(config_from_dict(
            {"stream": {"total_clicks": 200000}})) == default
        for raw in ({"regressor": {"learning_rate": 0.02}}, {"seeds": [1]},
                    {"stream": {"retraction_prob": 0.1}}):
            assert cache_prefix(config_from_dict(raw)) != default


class TestGen:
    def test_gen_deterministic(self, config_path, tmp_path, capsys):
        out1, out2 = tmp_path / "g1", tmp_path / "g2"
        assert main(["gen", "--config", config_path, "--out", str(out1)]) == 0
        assert main(["gen", "--config", config_path, "--out", str(out2)]) == 0
        assert file_digest(out1 / "stream.ndjson") == file_digest(out2 / "stream.ndjson")
        assert file_digest(out1 / "ground_truth.ndjson") == file_digest(
            out2 / "ground_truth.ndjson"
        )

    def test_gen_summary_campaign_count(self, config_path, tmp_path, capsys):
        main(["gen", "--config", config_path, "--out", str(tmp_path / "g")])
        out = capsys.readouterr().out
        assert "campaigns: 5" in out
        assert "clicks: 800" in out

    def test_gen_invalid_config_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(SMALL, bucketing={"boundaries_days": [1, 25]})))
        rc = main(["gen", "--config", str(bad), "--out", str(tmp_path / "x")])
        assert rc != 0

    @pytest.mark.parametrize("raw,key", [
        (dict(SMALL, stream=dict(SMALL["stream"], total_clicks=300.5)),
         "stream.total_clicks"),
        (dict(SMALL, m2_delays_days=7), "m2_delays_days"),
        (dict(SMALL, regressor=dict(SMALL["regressor"], embedding_dim=2.5)),
         "embedding_dim"),
        (dict(SMALL, stream=dict(SMALL["stream"], retraction_prob=1.5)),
         "retraction_prob"),
        (dict(SMALL, stream=dict(SMALL["stream"], drift_magnitude=1.0)),
         "drift_magnitude"),
        # an empty list would run nothing
        (dict(SMALL, seeds=[]), "seeds"),
        (dict(SMALL, variants=[]), "variants"),
    ])
    @pytest.mark.parametrize("command", ["gen", "run"])
    def test_ill_typed_value_exits_1_naming_the_key(self, tmp_path, capsys,
                                                     monkeypatch, raw, key,
                                                     command):
        # refused while resolving, before the config is digested
        monkeypatch.setattr(cli, "_digest", lambda obj: pytest.fail(
            "digest of a config that should be refused"))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / "x"
        assert main([command, "--config", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key.split(".")[-1] in err
        assert not out.exists()


class TestRun:
    def test_run_matrix_jobs_yield_each_task_once_alike(self):
        cfg = config_from_dict(MATRIX)
        tasks = [(name, seed) for seed in cfg.seeds for name in cfg.variants]
        reports = {}
        for jobs in (1, 2):
            done = list(run_matrix(cfg, tasks, jobs))
            assert sorted((name, seed) for seed, name, _, _ in done) == \
                sorted(tasks)
            assert all(runtime_s > 0 for *_, runtime_s in done)
            reports[jobs] = {(seed, name): json.dumps(compare({name: result}))
                             for seed, name, result, _ in done}
        assert reports[1] == reports[2]

    @pytest.mark.parametrize("tasks, workers", [
        ([("M1", 1), ("M3", 1)], [2]),
        ([("M1", 1)], []),
    ])
    def test_run_matrix_starts_no_more_workers_than_tasks(self, monkeypatch,
                                                          tasks, workers):
        # threads stand in for the worker processes, so no process starts
        built = []

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                built.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(cli, "_run_task",
                            lambda cfg, name, seed: (seed, name, None, 0.0))
        done = run_matrix(config_from_dict(MATRIX), iter(tasks), jobs=8)
        assert sorted((name, seed) for seed, name, *_ in done) == sorted(tasks)
        assert built == workers

    def test_unknown_variant_is_refused_before_its_stream(self, monkeypatch):
        monkeypatch.setattr(cli, "stream_for_seed", lambda cfg, seed: pytest.fail(
            "stream generated for an unknown variant"))
        monkeypatch.setattr(cli, "_stream_cache", {})
        with pytest.raises(ValueError, match="unknown variant 'M9'"):
            list(run_matrix(config_from_dict(MATRIX), [("M9", 1)]))

    def test_first_failed_task_cancels_the_tasks_not_started(self, tmp_path,
                                                             monkeypatch):
        # every task marks its start with a file; the one of seed 1 fails
        # at once, the others take 0.5 s each before failing too
        cfg = config_from_dict(MATRIX)

        def stream_for_seed(cfg, seed):
            (tmp_path / f"started{seed}").touch()
            if seed != 1:
                time.sleep(0.5)
            raise RuntimeError(f"task of seed {seed} failed")

        monkeypatch.setattr(cli, "stream_for_seed", stream_for_seed)
        monkeypatch.setattr(cli, "_stream_cache", {})
        tasks = [("M1", seed) for seed in range(1, 17)]
        with pytest.raises(RuntimeError, match="task of seed 1 failed"):
            list(run_matrix(cfg, tasks, jobs=2))
        started = sorted(int(p.name[7:]) for p in tmp_path.iterdir())
        # only the tasks running when it failed: one per worker
        assert started[0] == 1 and len(started) <= 2, started

    def test_run_jobs_2_writes_the_bytes_of_jobs_1(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(MATRIX))
        outs = [tmp_path / f"jobs{jobs}" for jobs in (1, 2)]
        for jobs, out in zip((1, 2), outs):
            assert main(["run", "--config", str(path), "--out", str(out),
                         "--jobs", str(jobs)]) == 0
        names = sorted(os.listdir(outs[0]))
        assert "aggregate.json" in names and sorted(os.listdir(outs[1])) == names
        for name in names:
            assert file_digest(outs[0] / name) == file_digest(outs[1] / name)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_non_finite_step_exits_1_naming_its_task(self, tmp_path, capfd,
                                                     monkeypatch, jobs):
        # each process's 50th train_step fails, which is in the first task
        # it runs: (M1, seed 1) with one worker, any task with two
        cfg = config_from_dict(MATRIX)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(MATRIX))
        real = PoissonRegressor.train_step
        calls = []

        def train_step(self, categorical, numeric, label):
            calls.append(None)
            if len(calls) == 50:
                raise FloatingPointError("non-finite loss or gradient "
                                         "(loss=nan); step not applied")
            return real(self, categorical, numeric, label)

        monkeypatch.setattr(PoissonRegressor, "train_step", train_step)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "r"),
                     "--jobs", str(jobs)]) == 1
        err = capfd.readouterr().err
        line = re.fullmatch(r"error: seed (\d+): (\w+) sub-model (\d+), example "
                            r"(\d+) at time (\S+): non-finite loss or gradient "
                            r"\(loss=nan\); step not applied\n", err)
        assert line, err
        seed, name = int(line[1]), line[2]
        if jobs == 1:
            assert (name, seed) == ("M1", 1)
        # the 50th step of that task, as an unpatched replay schedules it
        monkeypatch.setattr(PoissonRegressor, "train_step", real)
        steps = []
        cls = type(build_variant(cfg.specs[name]))
        train_on = cls.train_on

        def record(self, example, i, now):
            steps.append((str(i), str(example.example_id), str(now)))
            return train_on(self, example, i, now)

        monkeypatch.setattr(cls, "train_on", record)
        cli._run_task(cfg, name, seed)
        assert line.groups()[2:] == steps[49]

    def test_run_single_variant_m3(self, config_path, tmp_path):
        out = tmp_path / "r"
        rc = main([
            "run", "--config", config_path, "--variant", "M3",
            "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads((out / "report_seed1.json").read_text())
        assert report["variants"]["M3"]["slices"]["ALL"]["pll_vs_M3_pct"] == 0.0
        assert report["config_digest"]
        assert report["artifact_version"]
        assert (out / "report_seed1.csv").exists()

    def test_run_all_has_eight_variants(self, config_path, tmp_path):
        out = tmp_path / "r"
        rc = main([
            "run", "--config", config_path, "--variant", "all",
            "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads((out / "report_seed1.json").read_text())
        assert len(report["variants"]) == 8
        assert set(report["variants"]) == {
            "M1", "M2_7d", "M2_15d", "M3", "M4", "M5", "Proposed", "Oracle"
        }

    def test_run_default_variants_with_other_m2_delays(self, tmp_path):
        raw = dict(SMALL, m2_delays_days=[3],
                   stream=dict(SMALL["stream"], total_clicks=200))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "r"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report_seed1.json").read_text())
        assert set(report["variants"]) == {
            "M1", "M2_3d", "M3", "M4", "M5", "Proposed", "Oracle"
        }

    def test_run_duplicate_variant_names_exits_1(self, tmp_path, capsys):
        for variants in ({}, {"variants": ["M1"]}):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(
                dict(SMALL, m2_delays_days=[6.8, 7.2], **variants)))
            rc = main(["run", "--config", str(path),
                       "--out", str(tmp_path / "r")])
            assert rc == 1
            assert "duplicate variant name M2_7d" in capsys.readouterr().err
            assert not (tmp_path / "r").exists()

    def test_rerun_byte_identical(self, config_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main([
                "run", "--config", config_path, "--variant", "M1",
                "--seed", "1", "--out", str(out),
            ])
            outs.append(file_digest(out / "report_seed1.json"))
        assert outs[0] == outs[1]

    def test_run_bad_boundary_list_exits_1(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(SMALL, bucketing={
            "boundaries_days": [5, 1]})))
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / "r")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bucketing.boundaries_days ")
        assert "got [5.0, 1.0]" in err
        assert not (tmp_path / "r").exists()

    def test_run_unknown_config_key_exits_1(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(
            dict(SMALL, stream=dict(SMALL["stream"], total_click=5000))))
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / "r")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "unknown config key stream.total_click; valid keys: " in err
        assert not (tmp_path / "r").exists()

    def test_unknown_variant_lists_valid_names(self, config_path, tmp_path, capsys):
        rc = main([
            "run", "--config", config_path, "--variant", "M99",
            "--out", str(tmp_path / "r"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "M99" in err and "Proposed" in err

    def test_repeated_seed_exits_2_naming_it(self, config_path, tmp_path,
                                             capsys):
        rc = main([
            "run", "--config", config_path, "--variant", "M1",
            "--seed", "4,5,4", "--out", str(tmp_path / "r"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--seed lists 4 more than once" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("seed", ["-1", "x", "1.5", "1,-2", "1,,2"])
    def test_bad_seed_exits_2_naming_it(self, config_path, tmp_path, capsys,
                                        seed):
        rc = main([
            "run", "--config", config_path, "--variant", "M1",
            f"--seed={seed}", "--out", str(tmp_path / "r"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"--seed takes comma-separated integers >= 0, got {seed!r}\n")
        assert not (tmp_path / "r").exists()

    def test_time_too_large_for_a_float_exits_1_naming_it(self, tmp_path,
                                                          capsys):
        path = tmp_path / "config.json"
        stream = dict(SMALL["stream"], duration_days="@")
        path.write_text(json.dumps(dict(SMALL, stream=stream)).replace('"@"', BIG))
        rc = main(["run", "--config", str(path), "--variant", "M1",
                   "--out", str(tmp_path / "r")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stream.duration_days must be finite")
        assert err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_layout_too_large_to_allocate_exits_1(self, tmp_path, capfd, jobs):
        # 2**50 buckets a field: an allocation no host grants, so no array
        # is made, let alone touched; two tasks, so that two jobs start a
        # pool and the error crosses the process boundary
        path = tmp_path / "config.json"
        raw = dict(SMALL, seeds=[1, 2],
                   stream=dict(SMALL["stream"], total_clicks=50),
                   regressor=dict(SMALL["regressor"], hash_buckets_per_field=2**50))
        path.write_text(json.dumps(raw))
        rc = main(["run", "--config", str(path), "--variant", "M1",
                   "--out", str(tmp_path / "r"), "--jobs", str(jobs)])
        assert rc == 1
        err = capfd.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_exits_2_before_any_task(self, config_path, tmp_path,
                                                     capsys, monkeypatch, jobs):
        def no_run(*args, **kwargs):
            raise AssertionError("a task ran")

        monkeypatch.setattr(cli, "run_matrix", no_run)
        rc = main([
            "run", "--config", config_path, "--variant", "M1",
            "--jobs", str(jobs), "--out", str(tmp_path / "r"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == f"--jobs must be >= 1, got {jobs}\n"
        assert not (tmp_path / "r").exists()

    def test_multi_seed_aggregate(self, config_path, tmp_path):
        out = tmp_path / "r"
        rc = main([
            "run", "--config", config_path, "--variant", "M1",
            "--seed", "1,2", "--out", str(out),
        ])
        assert rc == 0
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["seeds"] == [1, 2]
        entry = agg["variants"]["M1"]["slices"]["ALL"]["pll"]
        assert "mean" in entry and "stdev" in entry

    def test_aggregate_refuses_mismatched_digests(self):
        a = {"config_digest": "x", "seed": 1, "variants": {}}
        b = {"config_digest": "y", "seed": 2, "variants": {}}
        with pytest.raises(ValueError):
            aggregate_reports([a, b])


class TestPlotdata:
    def test_plotdata_columns(self, config_path, tmp_path):
        out = tmp_path / "r"
        main([
            "run", "--config", config_path, "--variant", "all",
            "--seed", "1", "--out", str(out),
        ])
        assert main(["plotdata", "--reports", str(out)]) == 0
        with open(out / "report_seed1_timeseries.csv") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        # day column plus 2 metric columns per variant
        assert header[0] == "day"
        assert len(header) - 1 == 8 * 2
        assert len(rows) > 1
        with open(out / "pll_improvement.csv") as fh:
            bars = list(csv.reader(fh))
        assert bars[0] == ["variant", "slice", "seed", "pll", "pll_vs_M3_pct"]
        assert any(r[0] == "Proposed" for r in bars[1:])

    def test_oracle_bias_series_near_one_on_stationary_stream(self, tmp_path):
        config = dict(
            SMALL,
            stream={"total_clicks": 12000, "campaign_count": 5,
                    "duration_days": 60, "attribution_window_days": 20,
                    "drift_magnitude": 0.0, "cold_start_fraction": 0.0},
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "r"
        main(["run", "--config", str(cfg_path), "--variant", "Oracle",
              "--seed", "1", "--out", str(out)])
        main(["plotdata", "--reports", str(out)])
        with open(out / "report_seed1_timeseries.csv") as fh:
            rows = list(csv.DictReader(fh))
        tail = [float(r["Oracle_bias"]) for r in rows[len(rows) // 2:]]
        assert all(0.85 < b < 1.15 for b in tail)

    def test_plotdata_missing_reports_exit(self, tmp_path, capsys):
        rc = main(["plotdata", "--reports", str(tmp_path)])
        assert rc == 2
        assert "report_seed" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        {"seed": 1},
        [1, 2],
        {"config_digest": "x", "variants": {"M3": {"slices": {}}}},
        {"config_digest": "x",
         "variants": {"M3": {"slices": {"ALL": 5}, "timeseries": []}}},
        {"config_digest": "x",
         "variants": {"M3": {"slices": {}, "timeseries": [3]}}},
        {"config_digest": "x",
         "variants": {"M3": {"slices": {}, "timeseries": [{"cum_pll": 1.0}]}}},
    ], ids=["no_digest", "list", "no_timeseries", "slice_not_object",
            "row_not_object", "row_without_day"])
    def test_plotdata_refuses_a_file_that_is_no_report(self, tmp_path, capsys,
                                                       content):
        # the report that sorts first is sound: nothing is written before
        # every file is checked
        good = {"config_digest": "x", "seed": 1,
                "variants": {"M3": {"slices": {}, "timeseries": []}}}
        (tmp_path / "report_seed1.json").write_text(json.dumps(good))
        bad = tmp_path / "report_seed2.json"
        bad.write_text(json.dumps(content))
        out = tmp_path / "out"
        rc = main(["plotdata", "--reports", str(tmp_path), "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{bad} is not a report")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("content", [b"{not json", b"\x80{}"],
                             ids=["not_json", "not_utf8"])
    def test_plotdata_refuses_a_file_that_is_no_json(self, tmp_path, capsys,
                                                     content):
        good = {"config_digest": "x", "seed": 1,
                "variants": {"M3": {"slices": {}, "timeseries": []}}}
        (tmp_path / "report_seed1.json").write_text(json.dumps(good))
        bad = tmp_path / "report_seed2.json"
        bad.write_bytes(content)
        out = tmp_path / "out"
        rc = main(["plotdata", "--reports", str(tmp_path), "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{bad} is not valid JSON: ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out.exists()

    def test_plotdata_empty_timeseries_header_only(self, tmp_path):
        report = {
            "config_digest": "x",
            "seed": 1,
            "variants": {"M3": {"slices": {}, "timeseries": []}},
        }
        (tmp_path / "report_seed1.json").write_text(json.dumps(report))
        assert main(["plotdata", "--reports", str(tmp_path)]) == 0
        with open(tmp_path / "report_seed1_timeseries.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["day", "M3_pll", "M3_bias"]]
