"""Compare two directories of acceptance-gate cache files entry by entry.

    python tests/compare_cache.py OLD NEW

Each directory holds the `matrix_<config digest>_<source digest>_seed*.json`
files of one key, as `tests/test_acceptance.py` writes them. Entries are
matched by what follows `_seed` in their names (`<seed>_<entry>.json`), so
a cache regenerated under a new source digest compares with the old one.
Every value but a task's `runtime_s` must be equal. Prints one line per
entry that is missing on either side or differs, then a summary, and exits
1 if there is any; exits 2 if a directory holds no cache files or files of
more than one key.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def entries(directory) -> dict:
    """{"<seed>_<entry>.json": value without `runtime_s`} of one key."""
    out, prefixes = {}, set()
    for path in sorted(Path(directory).glob("matrix_*_seed*.json")):
        prefix, _, entry = path.name.partition("_seed")
        prefixes.add(prefix)
        value = json.loads(path.read_text())
        if isinstance(value, dict):
            value.pop("runtime_s", None)
        out[entry] = value
    if len(prefixes) != 1:
        raise ValueError(f"{directory}: expected the cache files of one key, "
                         f"found {len(prefixes)} keys: {sorted(prefixes)}")
    return out


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        old, new = (entries(d) for d in argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bad = 0
    for entry in sorted(old.keys() | new.keys()):
        if entry not in new or entry not in old:
            side = "NEW" if entry not in new else "OLD"
            print(f"missing in {side}: {entry}")
        elif old[entry] != new[entry]:
            print(f"differs: {entry}")
        else:
            continue
        bad += 1
    if bad:
        print(f"{bad} of {len(old.keys() | new.keys())} entries missing or "
              f"different")
        return 1
    print(f"{len(new)} entries equal (runtime_s aside)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
