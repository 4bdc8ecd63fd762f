import csv
import hashlib
import json
import os
import re
import shutil

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
from delayfeed.variants import VARIANT_NAMES

from test_acceptance import CACHE_DIR, SOURCE_DIR, cache_prefix

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
        assert tuple(cfg.specs) == cfg.variants == VARIANT_NAMES
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
        assert config_from_dict({}).variants == VARIANT_NAMES
        assert config_from_dict({"variants": ["all"]}).variants == VARIANT_NAMES
        want = ("M1", "M2_3d", "M3", "M4", "M5", "Proposed", "Oracle")
        assert config_from_dict({"m2_delays_days": [3]}).variants == want
        assert config_from_dict(
            {"m2_delays_days": [3], "variants": ["all"]}).variants == want
        assert config_from_dict({"variants": ["M3", "M1"]}).variants == (
            "M3", "M1")

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
