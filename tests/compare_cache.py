"""Compare two directories of acceptance-gate cache files entry by entry.

    python tests/compare_cache.py OLD NEW

Each directory holds the `matrix_<config digest>_<source digest>_seed*.json`
files of one key, as `tests/test_acceptance.py` writes them. Entries are
matched by what follows `_seed` in their names (`<seed>_<entry>.json`), so
a cache regenerated under a new source digest compares with the old one.
Every value but a task's `runtime_s` must be equal. Prints one line per
entry that is missing on either side or differs, then a summary, and exits
1 if there is any; exits 2 if a directory holds no cache files or files of
more than one key. The line of an entry that differs gives its largest
relative move, |new - old| / |old| over every number in it, and the key
where it occurs, such as `slices.ALL.pll` or `windows[3][2]`.
"""

from __future__ import annotations

import json
import math
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


def largest_move(old, new, key="") -> tuple:
    """(move, key) of the number of `new` that moves most, relative to its
    value in `old`: 0.0 where the two are equal, inf where an old 0 moved
    or where the two differ in shape (a key, a length or a type), at the
    first such key."""
    number = (int, float)
    if old == new:
        return 0.0, key
    if (isinstance(old, number) and isinstance(new, number)
            and not isinstance(old, bool) and not isinstance(new, bool)):
        return (abs(new - old) / abs(old) if old else math.inf), key
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        moves = [largest_move(old[k], new[k], f"{key}.{k}" if key else str(k))
                 for k in old]
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        moves = [largest_move(a, b, f"{key}[{i}]")
                 for i, (a, b) in enumerate(zip(old, new))]
    else:
        return math.inf, key
    return max(moves, key=lambda m: m[0])


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
            move, key = largest_move(old[entry], new[entry])
            print(f"differs: {entry}: largest relative move {move:.3g} at "
                  f"{key or 'the value'}")
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
