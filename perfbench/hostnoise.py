"""Time a fixed CPU loop several times: the host's own run-to-run noise.

    python3 perfbench/hostnoise.py [--runs 6] [--iterations 20000000]

The loop (the benchmark's calibration loop) does the same integer work
every time, so any spread between its timings comes from the host
(frequency changes, other tenants), not from the program.
"""

from __future__ import annotations

import argparse
import statistics
import time

from sesbench.common import calibration_loop


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=6)
    parser.add_argument("--iterations", type=int, default=20_000_000)
    args = parser.parse_args()
    times = []
    for _ in range(args.runs):
        start = time.perf_counter()
        calibration_loop(args.iterations)
        times.append(time.perf_counter() - start)
    median = statistics.median(times)
    print("runs: " + " ".join(f"{t:.3f}" for t in times) + " s")
    print(f"min {min(times):.3f} s, median {median:.3f} s, "
          f"max {max(times):.3f} s, (max-min)/median "
          f"{(max(times) - min(times)) / median:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
