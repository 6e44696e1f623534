"""Repeatability check: run one workload under several seeds and print
each metric's median and quartile spread.

Usage, from the root of a checkout::

    python3 perfbench/repeat.py --workload audit-grid --seeds 1-10 \\
        --seconds 15 [--trace 0]

The spread of a metric is ``(Q3 - Q1) / median`` over the runs, with
quartiles from ``statistics.quantiles(values, n=4)``; the table in
``README.md`` was made with this script.  Each run is a fresh
``run.py`` process, one after the other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    """``"1-5"`` or ``"1,4,9"`` -> list of ints."""
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    results = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        result = json.loads(last)
        results.append(result)
        print(f"seed {seed}: " + "  ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
        ), flush=True)
    print(f"\n{args.workload}: {len(results)} runs")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        print(f"  {name:<28} median {statistics.median(values):>12.5g}  "
              f"spread {spread(values):7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
