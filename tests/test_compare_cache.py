"""`compare_cache.py`, the check behind every claim that a regenerated
acceptance-gate cache equals the old one."""

import json
import math

import pytest

import compare_cache

OLD = {"1_M1.json": {"slices": {"ALL": {"pll": 0.5, "bias": 1.0}},
                     "runtime_s": 3.0},
       "1__delay_mass_beyond_1d.json": 0.25}


def write_cache(directory, key, entries):
    directory.mkdir(exist_ok=True)
    for entry, value in entries.items():
        (directory / f"matrix_{key}_seed{entry}").write_text(json.dumps(value))
    return str(directory)


def compare(capsys, old, new):
    """(exit status, stdout lines) of one comparison."""
    status = compare_cache.main([old, new])
    return status, capsys.readouterr().out.splitlines()


def test_only_runtime_differing_is_equal(tmp_path, capsys):
    new = {**OLD, "1_M1.json": {**OLD["1_M1.json"], "runtime_s": 9.0}}
    assert compare(capsys, write_cache(tmp_path / "old", "cfg_src1", OLD),
                   write_cache(tmp_path / "new", "cfg_src2", new)) == (
        0, ["2 entries equal (runtime_s aside)"])


@pytest.mark.parametrize("new,line", [
    ({**OLD, "1_M1.json": {"slices": {"ALL": {"pll": 0.5, "bias": 1.01}},
                           "runtime_s": 3.0}},
     "differs: 1_M1.json: largest relative move 0.01 at slices.ALL.bias"),
    ({**OLD, "1__delay_mass_beyond_1d.json": 0.26},
     "differs: 1__delay_mass_beyond_1d.json: largest relative move 0.04 at "
     "the value"),
    ({"1_M1.json": OLD["1_M1.json"]},
     "missing in NEW: 1__delay_mass_beyond_1d.json"),
    ({**OLD, "2_M1.json": OLD["1_M1.json"]}, "missing in OLD: 2_M1.json"),
], ids=["changed-value", "changed-number", "missing-in-new", "missing-in-old"])
def test_a_changed_or_missing_entry_exits_1_naming_it(tmp_path, capsys, new,
                                                       line):
    status, out = compare(capsys, write_cache(tmp_path / "old", "cfg_src1", OLD),
                          write_cache(tmp_path / "new", "cfg_src2", new))
    assert status == 1
    assert out[0] == line and out[1].startswith("1 of ")


@pytest.mark.parametrize("old,new,want", [
    ({"a": [1.0, 2.0, 4.0]}, {"a": [1.0, 2.0 * (1 + 1e-14), 4.0 * (1 - 3e-14)]},
     (3e-14, "a[2]")),
    ({"windows": [[0, 1.5], [1, 2.5]]}, {"windows": [[0, 1.5], [1, 2.5]]},
     (0.0, "")),
    ({"a": 0.0, "b": 1.0}, {"a": 1e-300, "b": 2.0}, (math.inf, "a")),
    ({"a": [1.0, 2.0]}, {"a": [1.0, 2.0, 3.0]}, (math.inf, "a")),
    ({"a": {"x": 1.0}}, {"a": {"y": 1.0}}, (math.inf, "a")),
    ({"a": None, "b": 1.0}, {"a": 0.5, "b": 1.0}, (math.inf, "a")),
], ids=["nested", "equal", "old-zero", "length", "keys", "none"])
def test_largest_move_names_its_key(old, new, want):
    move, key = compare_cache.largest_move(old, new)
    assert (pytest.approx(move, rel=1e-3), key) == want


def test_an_empty_directory_exits_2(tmp_path, capsys):
    old = write_cache(tmp_path / "old", "cfg_src1", OLD)
    empty = write_cache(tmp_path / "new", "cfg_src2", {})
    assert compare(capsys, old, empty) == (2, [])
    assert compare(capsys, empty, old) == (2, [])


def test_files_of_two_keys_in_one_directory_exit_2(tmp_path, capsys):
    old = write_cache(tmp_path / "old", "cfg_src1", OLD)
    write_cache(tmp_path / "old", "cfg_src0", {"3_M1.json": 0.0})
    new = write_cache(tmp_path / "new", "cfg_src2", OLD)
    assert compare_cache.main([old, new]) == 2
    assert "found 2 keys" in capsys.readouterr().err
