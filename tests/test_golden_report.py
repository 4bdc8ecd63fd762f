"""Fixed-seed report regression: every variant's slices and timeseries must
match the committed golden file exactly, so a refactor that changes a
single floating-point bit of a report fails here.

Regenerate (only when a change is meant to alter the numbers):
    PYTHONPATH=src python tests/test_golden_report.py
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from delayfeed.cli import config_from_dict, stream_for_seed, variant_specs_for
from delayfeed.harness import compare, default_slices, run
from delayfeed.variants import build_variant

from test_variants import STANDARD_NAMES

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_reports.json"

SEED = 1
CONFIGS = {
    "defaults": {"stream": {"total_clicks": 500}},
    "two_output_signed": {
        "stream": {"total_clicks": 500, "retraction_prob": 0.2,
                   "value_labels": True},
        "two_output_mode": True,
    },
}


def golden_reports() -> dict:
    """{config name: {variant: {"slices", "timeseries"}}} for all variants."""
    out = {}
    for name, raw in CONFIGS.items():
        cfg = config_from_dict(raw)
        stream = stream_for_seed(cfg, SEED)
        slices = default_slices(stream.ground_truth.high_delay)
        specs = variant_specs_for(cfg)
        results = {
            v: run(build_variant(specs[v], seed_offset=SEED * 101),
                   stream.examples, slices)
            for v in STANDARD_NAMES
        }
        report = compare(results)
        out[name] = {
            v: {"slices": r["slices"], "timeseries": r["timeseries"]}
            for v, r in report["variants"].items()
        }
    # JSON round trip so tuples/lists and int/float keys compare like the file
    return json.loads(json.dumps(out))


# what picks numpy's, OpenBLAS's and glibc's libm kernels, none of which a
# report's bits may depend on: every model pass runs in the compiled
# `delayfeed.kernel`. The last makes glibc take its non-FMA `exp` and `log`,
# which the generator reaches through `math` and numpy's samplers; they move
# no bit of these 500-click streams' reports
KERNEL_CHOICES = {"haswell-blas": {"OPENBLAS_CORETYPE": "Haswell"},
                  "no-avx512-numpy": {"NPY_DISABLE_CPU_FEATURES": "X86_V4"},
                  "no-fma-libm": {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA"}}


def host_note() -> str:
    """The host's kernel choices, for a failure message: the environment
    variables that choose them and numpy's SIMD targets."""
    env = {k: os.environ.get(k) for choice in KERNEL_CHOICES.values()
           for k in choice}
    try:
        simd = np.show_config(mode="dicts")["SIMD Extensions"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        simd = f"unknown (numpy {np.__version__})"
    return f"host {env}, numpy SIMD {simd}"


@pytest.fixture(scope="module")
def reports():
    return golden_reports()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("variant", STANDARD_NAMES)
def test_report_matches_golden(reports, golden, config_name, variant):
    want = golden[config_name][variant]
    got = reports[config_name][variant]
    assert got["slices"] == want["slices"], host_note()
    assert got["timeseries"] == want["timeseries"], host_note()


@pytest.mark.parametrize("choice", sorted(KERNEL_CHOICES))
def test_reports_do_not_depend_on_numpy_or_blas_kernels(reports, choice):
    # each report built again in a child process whose numpy and OpenBLAS
    # take other kernels than this one's
    here = pathlib.Path(__file__).parent
    env = {**os.environ, **KERNEL_CHOICES[choice],
           "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    child = subprocess.run(
        [sys.executable, "-c", "import json, test_golden_report as t; "
         "print(json.dumps(t.golden_reports(), sort_keys=True))"],
        env=env, cwd=here, capture_output=True, text=True, check=True)
    assert child.stdout == json.dumps(reports, sort_keys=True) + "\n"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_reports(), indent=1, sort_keys=True) + "\n")
