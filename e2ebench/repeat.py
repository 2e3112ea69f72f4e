#!/usr/bin/env python3
"""Run a workload once per seed and report each metric's median, quartiles
and spread (interquartile range as a share of the median).

    python3 e2ebench/repeat.py --workload nash_certify --seeds 1-10 --seconds 30

This is how the README's reference figures were made: ten seeds per set,
two sets. Each run is a separate `run.py` process, one after another.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8-9")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    results = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        results.append(result)
        print(json.dumps({"seed": seed, **result}), flush=True)

    print(f"\n{args.workload}: {len(results)} runs, failed/attempted "
          f"{sorted({(r['failed'], r['attempted']) for r in results})}, "
          f"all correct: {all(r['correct'] for r in results)}")
    print(f"{'metric':<44} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8}")
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        if len(values) < 2:
            continue
        q1, median, q3 = statistics.quantiles(values, n=4)
        share = stats.spread(values) if median else float("nan")
        print(f"{name:<44} {q1:>12.6g} {median:>12.6g} {q3:>12.6g} {share:>8.3f}")


if __name__ == "__main__":
    main()
