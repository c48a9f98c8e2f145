"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/seeds.py --workloads analysis,sweep,pde,cli --seeds 1-10

Each run is `bench/run.py --trace 0` at the `run_seconds` that
BENCHMARK.json sets.  Prints, per workload and end-to-end metric, the
median, the quartiles and the quartile spread as a share of the median
(Python's `statistics.quantiles(values, n=4)`), and writes the same as
JSON to bench/out/seeds.json.  bench/baseline.json was made this way.
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
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [
        int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="analysis,sweep,pde,cli")
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = str(json.load(fh)["run_seconds"])

    summary: dict = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["run_s"] = time.perf_counter() - t0
            runs.append(result)
            print(workload, seed, json.dumps(result), flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            metrics[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median if median else None,
                             "values": values}
            print(f"{workload} {name}: median {median:.6g} "
                  f"spread {metrics[name]['spread']}", flush=True)
        summary[workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "run_s": [r["run_s"] for r in runs], "metrics": metrics}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "seeds.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"seeds": args.seeds, "seconds": seconds,
                   "workloads": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
