"""Run the benchmark over several seeds and summarize it into one JSON file.

    python3 perfbench/collect.py --seeds 1-10 --seconds 30 --out perfbench/baseline/seed.json

For each workload, runs ``run.py --trace 0`` once per seed (one process at
a time) and records every end-to-end value, its median and the quartile
spread ((q3 - q1) / median, quartiles as ``statistics.quantiles(n=4)``);
then runs ``--trace 1`` once on the first seed and records its per-layer
metrics, its notes (tracing overhead, layer map) and the first seed's
per-instance properties.  Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    report = {
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
        },
        "seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = []
        for seed in seeds:
            result, _ = run_once(workload, seed, args.seconds, 0)
            runs.append(result)
            values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            print(workload, seed, result["correct"], result["attempted"], result["failed"], values, flush=True)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            entry["end_to_end"][name] = {
                "unit": first["unit"],
                "median": statistics.median(values),
                "spread": spread(values) if len(values) > 1 else None,
                "values": values,
            }
            print(f"  {name}: median {statistics.median(values):.6g}"
                  + (f", spread {spread(values):.3f}" if len(values) > 1 else ""), flush=True)
        traced, lines = run_once(workload, seeds[0], args.seconds, 1)
        notes = dict(line.strip().split(": ", 1) for line in lines if line.startswith("  ") and ": " in line)
        entry["properties"] = json.loads(notes.pop("properties"))
        entry["traced"] = {
            "seed": seeds[0],
            "correct": traced["correct"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "notes": notes,
        }
        report["workloads"][workload] = entry
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
