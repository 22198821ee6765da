"""Rewrite ``digests.json`` from the current source tree.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

Every digest that moves is printed as ``run/seed part``.  A change that
moves one must list each moved run and the reason in CHANGES.md.
"""

from __future__ import annotations

import json
import os

from golden_corpus import DIGESTS_PATH, digest, key, run_ids, runs


def main() -> None:
    old = {}
    if os.path.exists(DIGESTS_PATH):
        with open(DIGESTS_PATH, encoding="utf-8") as handle:
            old = json.load(handle)
    new = {}
    for name, seed in run_ids():
        new[key(name, seed)] = digest(runs(seed)[name], seed)
        for part, value in new[key(name, seed)].items():
            if old.get(key(name, seed), {}).get(part) not in (None, value):
                print(f"moved: {key(name, seed)} {part}")
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(new, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(new)} runs to {DIGESTS_PATH}")


if __name__ == "__main__":
    main()
