"""Shared benchmark fixtures and the ``BENCH_<suite>.json`` artifact.

The quantization bench needs a trained model; training happens once per
session here (outside any timed region).

Every benchmark session additionally writes a machine-readable artifact
``BENCH_<suite>.json`` (suite from the ``BENCH_SUITE`` env var, default
``smoke``) at the repo root: per-test outcome and wall time, the
pytest-benchmark timing stats when timing ran, and any headline numbers
the benches recorded through the :func:`bench_headline` fixture.  The
artifact is stamped with provenance — git SHA, UTC timestamp, and the
paper-point config fingerprint — so ``repro bench-diff`` can tell a
perf regression from a baseline pinned at a different operating point.
CI's benchmark-smoke job uploads the file, so runs leave a comparable
trail.
"""

from __future__ import annotations

import heapq
import json
import os
import time
from collections import OrderedDict
from datetime import datetime, timezone

import numpy as np
import pytest

from repro.config import ModelConfig, paper_accelerator, transformer_base
from repro.nmt import SyntheticTranslationTask, train_model
from repro.transformer import Transformer

_TEST_RESULTS: "OrderedDict[str, dict]" = OrderedDict()
_HEADLINES: dict[str, object] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    _TEST_RESULTS[item.nodeid] = {
        "outcome": report.outcome,
        "duration_s": round(report.duration, 6),
    }


def _benchmark_stats(session):
    """Timing stats from pytest-benchmark (empty under --benchmark-disable)."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:
        return []
    stats = []
    for bench in getattr(bench_session, "benchmarks", []):
        benched = getattr(bench, "stats", None)
        if benched is None:
            continue
        stats.append({
            "name": bench.fullname,
            "mean_s": benched.mean,
            "stddev_s": benched.stddev,
            "rounds": benched.rounds,
        })
    return stats


def pytest_sessionfinish(session, exitstatus):
    from repro.telemetry import config_fingerprint, git_sha

    suite = os.environ.get("BENCH_SUITE", "smoke")
    artifact = {
        "suite": suite,
        "exit_status": int(exitstatus),
        "generated_unix": int(time.time()),
        "generated_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git_sha": git_sha(cwd=str(session.config.rootpath)),
        "config_fingerprint": config_fingerprint(),
        "tests": dict(_TEST_RESULTS),
        "benchmarks": _benchmark_stats(session),
        "headlines": dict(_HEADLINES),
    }
    path = os.path.join(str(session.config.rootpath), f"BENCH_{suite}.json")
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.fixture(scope="session")
def bench_headline():
    """Recorder for headline numbers: ``bench_headline(name, value)``.

    Recorded values land in the ``headlines`` section of the
    ``BENCH_<suite>.json`` artifact, keyed by name (last write wins).
    """

    def record(name: str, value) -> None:
        _HEADLINES[name] = value

    return record


@pytest.fixture
def heap_events(monkeypatch):
    """Running count of ``heapq.heappop`` calls from here to test end.

    The event loops pop their heap once per simulated event, so the
    difference of two readings is the events simulated in between.
    """
    count = 0
    pop = heapq.heappop

    def counted_pop(heap):
        nonlocal count
        count += 1
        return pop(heap)

    monkeypatch.setattr(heapq, "heappop", counted_pop)
    return lambda: count


@pytest.fixture
def call_count(monkeypatch):
    """``call_count(owner, name)`` counts calls of ``owner.name`` from
    here to test end and returns a reading of the running count."""

    def watch(owner, name):
        count = 0
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            nonlocal count
            count += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return lambda: count

    return watch


@pytest.fixture(scope="session")
def base_model():
    return transformer_base()


@pytest.fixture(scope="session")
def paper_acc():
    return paper_accelerator()


@pytest.fixture(scope="session")
def trained_nmt_bench():
    """A synthetic-NMT model trained well enough for the BLEU study."""
    task = SyntheticTranslationTask(num_words=24, min_len=4, max_len=10)
    config = ModelConfig(
        "nmt-bench", d_model=64, d_ff=256, num_heads=1,
        num_encoder_layers=2, num_decoder_layers=2,
        max_seq_len=24, dropout=0.0,
    )
    rng = np.random.default_rng(42)
    model = Transformer(
        config, len(task.src_vocab), len(task.tgt_vocab), rng=rng
    )
    train, valid, test = task.splits(train=1600, valid=100, test=100, seed=7)
    train_model(model, task, train, epochs=16, batch_size=32, warmup=300,
                lr_factor=2.0, seed=3)
    return model, task, valid, test
