"""Turn one ``bench/run.py --json`` result into a ``repro bench-diff`` baseline.

Compare two runs with the repo's own gate instead of a second differ::

    python3 bench/run.py --workload all --seed 0 --json A.json
    python3 bench/run.py --workload all --seed 0 --json B.json
    python3 bench/baseline.py A.json -o A-baseline.json
    PYTHONPATH=src python -m repro bench-diff --current B.json \\
        --baseline A-baseline.json

End-to-end metrics take their direction and bound from
``BENCHMARK.json``.  Per-layer metrics are deterministic counts or
simulated values, pinned exactly (``rel_tol`` 0); host-time shares and
overhead fractions have no bound and stay out of the baseline, so
bench-diff lists them as ``new``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Per-layer metrics measured in host time: no bound, never pinned.
UNPINNED_SUFFIXES = (".self_share", "_overhead_frac")


def baseline(result: dict, spec: dict) -> dict:
    """The bench-diff baseline document pinning ``result``'s headlines."""
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    headlines = {}
    for key, value in sorted(result["headlines"].items()):
        metric = key.split(".", 1)[1]
        if metric in end_to_end:
            entry = end_to_end[metric]
            rel_tol = entry["bound"]
        elif metric in per_layer and not metric.endswith(UNPINNED_SUFFIXES):
            entry = per_layer[metric]
            rel_tol = 0.0
        else:
            continue
        headlines[key] = {
            "value": value, "direction": entry["better"], "rel_tol": rel_tol,
        }
    meta = {k: result[k] for k in ("git_sha", "generated_utc",
                                    "config_fingerprint", "seed")
            if k in result}
    return {**meta, "headlines": headlines}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result", help="a bench/run.py --json output")
    parser.add_argument("-o", "--out", help="write here (default: stdout)")
    args = parser.parse_args(argv)
    with open(args.result) as handle:
        result = json.load(handle)
    with open(SPEC_PATH) as handle:
        spec = json.load(handle)
    text = json.dumps(baseline(result, spec), indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
