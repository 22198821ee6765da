"""Every run of the golden corpus reproduces its pinned digests.

A failure names the run, the seed and each part (``records``,
``trace``, ``prometheus``, ``otlp``) whose digest moved.  If the move
is intended, rerun ``tests/golden/regenerate.py`` and say why in
CHANGES.md.
"""

from __future__ import annotations

import pytest
from golden_corpus import PARTS, digest, key, load_digests, run_ids, runs

PINNED = load_digests()


def test_corpus_matches_the_pinned_runs():
    assert sorted(PINNED) == sorted(key(n, s) for n, s in run_ids())
    assert all(sorted(parts) == sorted(PARTS) for parts in PINNED.values())


@pytest.mark.parametrize(("name", "seed"), run_ids(),
                         ids=[key(n, s) for n, s in run_ids()])
def test_run_is_bit_identical(name, seed):
    got = digest(runs(seed)[name], seed)
    pinned = PINNED[key(name, seed)]
    moved = [part for part in PARTS if got[part] != pinned[part]]
    assert not moved, f"{key(name, seed)}: {', '.join(moved)} moved"
