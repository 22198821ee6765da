"""One benchmark process: a set-up sample, the timed reps, or the traced run.

``run.py`` starts this script in a fresh interpreter for every sample
and reads the JSON object it prints as its last line.  Running it by
hand is useful only to debug one workload::

    PYTHONPATH=src python bench/worker.py run --workload serving-overload \\
        --seed 0 --seconds 15

Modes:

* ``setup`` times importing the repo, building the workload's configs
  and generating its inputs, then times the reference loop three times;
* ``run`` times reps of the workload's call for ``--seconds`` (see
  :func:`measure.run_reps`) and reports the interpreter's peak RSS;
* ``trace`` runs :func:`layers.traced_run` and writes the Chrome trace.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Optional

from measure import load_config, reference_time, run_reps


def setup_sample(name: str, seed: int, iterations: int) -> dict:
    start = time.process_time()
    # Imported here, not at the top: importing the repo is part of the
    # set-up being timed, and this interpreter has not imported it yet.
    import workloads

    workloads.get(name).build(seed, 1.0)
    setup_s = time.process_time() - start
    return {"setup_s": setup_s,
            "calib_s": [reference_time(iterations) for _ in range(3)]}


def run_sample(name: str, seed: int, seconds: float, config: dict) -> dict:
    import workloads

    workload = workloads.get(name)
    inputs = workload.build(seed, 1.0)
    reps = run_reps(
        workload, inputs, seconds, config["min_reps"],
        config["reference_loop"]["iterations"],
    )
    # ru_maxrss is KiB on Linux.
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"reps": reps, "peak_rss_mib": rss_kib / 1024}


def trace_sample(name: str, seed: int, trace_out: Optional[str],
                 config: dict) -> dict:
    import layers
    import workloads

    return layers.traced_run(
        workloads.get(name), seed, 1.0,
        config["reference_loop"]["iterations"], trace_out,
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    config = load_config()
    if args.mode == "setup":
        payload = setup_sample(
            args.workload, args.seed,
            config["reference_loop"]["iterations"],
        )
    elif args.mode == "run":
        payload = run_sample(args.workload, args.seed, args.seconds, config)
    else:
        payload = trace_sample(
            args.workload, args.seed, args.trace_out, config
        )
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
