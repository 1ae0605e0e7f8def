"""Run-to-run spread of the end-to-end metrics.

Runs ``run.py`` once per seed, one run at a time, and prints each
metric's median and its interquartile distance as a share of the
median (the figure the benchmark's bounds are compared with)::

    python3 repobench/steady.py --workload sweep --seeds 0 1 2 3 4
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import spread

HERE = Path(__file__).resolve().parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    values = {}
    for seed in args.seeds:
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(child.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}"
              f"/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    if len(args.seeds) >= 2:
        for name, series in values.items():
            median = statistics.median(series)
            share = spread(series) if median else 0.0
            print(f"{name:<30} median {median:.6g}  spread {share:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
