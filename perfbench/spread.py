"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads batch-group serve-push \
        --seeds 1 2 3 4 5 [--seconds 12] [--trace 0] [--out rows.jsonl]

For every workload and metric it prints the median over the seeds and
the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  It
also prints the failed share of attempted operations per run, which
must be the same on every run.  Runs go one after another, never in
parallel, so they do not disturb each other's timings.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", help="append every result as a JSON line")
    args = parser.parse_args()
    for workload in args.workloads:
        rows = []
        for seed in args.seeds:
            row = run_once(workload, seed, args.seconds, args.trace)
            rows.append(row)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps({"workload": workload,
                                             "seed": seed, **row}) + "\n")
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in rows})
        ratios = {r["failed"] / r["attempted"] for r in rows}
        correct = all(r["correct"] for r in rows)
        print(f"{workload}: correct={correct} failed/attempted={shares} "
              f"({'same share' if len(ratios) == 1 else 'SHARES DIFFER'})")
        for name in rows[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in rows]
            unit = rows[0]["metrics"][name]["unit"]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else float("nan")
            else:
                spread = float("nan")
            print(f"  {name:40s} median {median:12.6g} {unit:10s} "
                  f"spread {spread:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
