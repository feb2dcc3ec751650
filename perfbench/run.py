"""Benchmark of the SES matcher: four workloads, one command.

    python3 perfbench/run.py --workload batch-group --seed 1 \
        --seconds 10 --trace 0

Runs one workload from the root of a source checkout (the program is
imported from ``src/``; nothing is installed).  With ``--trace 0`` it
prints the end-to-end metrics, with ``--trace 1`` the per-layer metrics
of a traced run.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads, metrics and reference
figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("batch-group", "batch-exclusive", "stream-registry",
             "serve-push")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from sesbench import run_workload

    scratch = os.path.join(ROOT, "perfbench", ".work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        outcome, metrics = run_workload(ROOT, workdir, args.workload,
                                        args.seed, args.seconds,
                                        bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for fault in outcome.faults[:20]:
        print(f"FAULT {fault}", file=sys.stderr)
    for op, count in sorted(outcome.failed_ops.items()):
        print(f"failed operation: {op} x{count}")
    for name, value in sorted(outcome.notes.items()):
        print(f"note: {name} = {value}")
    print("rounds: " + json.dumps(outcome.rounds.rows))
    for name, row in metrics.items():
        print(f"{args.workload} {name} = {row['value']:.6g} {row['unit']}")
    print(json.dumps({"correct": not outcome.faults,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
