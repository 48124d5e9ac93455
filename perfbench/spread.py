"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root::

    python3 perfbench/spread.py --runs 10 --seconds 12

Runs ``perfbench/run.py`` untraced on seeds 1..N and every workload of
``BENCHMARK.json``, alternating workloads run by run rather than in
blocks, and prints for every
end-to-end metric its median and its interquartile range as a share of
the median (``statistics.quantiles(values, n=4)``), next to the bound
``BENCHMARK.json`` fixes for it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for run in range(args.runs):
        seed = 1 + run
        order = workloads[run % len(workloads):] + workloads[:run % len(workloads)]
        for workload in order:
            started = time.perf_counter()
            completed = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True,
            )
            last = json.loads(completed.stdout.strip().splitlines()[-1])
            print(f"run {run} {workload} seed={seed} exit={completed.returncode} "
                  f"correct={last['correct']} failed={last['failed']}/{last['attempted']} "
                  f"wall={time.perf_counter() - started:.1f}s",
                  flush=True)
            for name, metric in last["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
    for workload in workloads:
        print(f"\n{workload}")
        for name, series in values[workload].items():
            median = statistics.median(series)
            if len(series) >= 2 and median:
                q1, _, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / abs(median)
            else:
                spread = 0.0
            bound = bounds[name]
            flag = "" if spread < bound / 3 else "  <-- above bound/3"
            print(f"  {name:36s} median {median:14.4f}  spread {spread:7.3f}"
                  f"  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
