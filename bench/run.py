"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload analysis --seed 1 --seconds 8 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: every end-to-end metric
with `--trace 0`, every per-layer metric with `--trace 1`.  The lines
before it are a readable report, and a fuller record (environment,
failure counts, spans) is written under bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# One BLAS/OpenMP thread (at most nproc): the steadiest timing on a
# shared machine.  Set before numpy loads; children inherit it.
THREAD_CAP = "1"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("analysis", "sweep", "pde", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "musselbed", "__init__.py")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = THREAD_CAP
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, SRC)

    import harness  # after the thread caps and the import path are set

    section = "per_layer" if args.trace else "end_to_end"
    units = harness.declared(os.path.join(ROOT, "BENCHMARK.json"), section)
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        if args.trace:
            result, tracer = harness.per_layer(args.workload, args.seed,
                                               args.seconds, workdir)
            tracer.dump(os.path.join(OUT, f"{stem}-spans.json"))
        else:
            result = harness.end_to_end(args.workload, args.seed,
                                        args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           f"differ from BENCHMARK.json {section}")
    record = dict(result, environment=harness.environment(args.seed),
                  workload=args.workload, seconds=args.seconds)
    with open(os.path.join(OUT, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(json.dumps({"environment": record["environment"]}))
    for key, value in sorted(result["report"].items()):
        print(f"{key}: {value}")
    for key in sorted(metrics):
        print(f"{key} = {metrics[key]} {units[key]}")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
