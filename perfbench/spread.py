"""Run-to-run spread of the end-to-end metrics.

``python3 perfbench/spread.py --workload W [--runs 10] [--first-seed 1]``
runs the benchmark ``--runs`` times with consecutive seeds and prints, for
each end-to-end metric, the median, the quartiles and the spread: the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``).  A steady benchmark keeps every
spread below a third of the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        took = time.perf_counter() - start
        if done.returncode != 0:
            print(done.stdout, done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}"
              f"/{result['attempted']} in {took:.0f}s", flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    worst = 0.0
    for name, series in values.items():
        q1, _, q3 = statistics.quantiles(series, n=4)
        med = statistics.median(series)
        share = (q3 - q1) / med if med else float("inf")
        worst = max(worst, share / bounds[name]) if name != "setup_s" else worst
        print(f"{name:14s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {share:6.3f}  bound {bounds[name]:.2f}")
    print(f"largest spread/bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
