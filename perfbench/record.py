"""Append one trajectory point to ``perfbench/trajectory.json``.

    python3 perfbench/record.py --label NAME [--seed 46107] [--second-seed 7]

Runs every workload untraced and traced on ``--seed``, and the two oracle
workloads untraced on ``--second-seed`` as well, so that a later claim can
be checked on a seed that was not used while it was written.  Each run is
``run.py`` with the ``run_seconds`` of BENCHMARK.json; runs go one after
another.  The point holds every end-to-end metric, the per-layer metrics of
the traced run, the tracing overhead, the error rate and the load averages
of each run, and the environment.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def summary(record: dict, result: dict) -> dict:
    return {"seed": record["seed"], "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "error_rate": record["error_rate"], "metrics": record["metrics"],
            "loadavg": [[s["loadavg_before"], s["loadavg_after"]]
                        for s in record["samples"]]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=46107)
    parser.add_argument("--second-seed", type=int, default=7)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    point = {"label": args.label,
             "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "run_seconds": seconds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        record, result = bench(name, args.seed, seconds, 0)
        point["environment"] = record["environment"]
        entry = {"end_to_end": summary(record, result)}
        record, result = bench(name, args.seed, seconds, 1)
        entry["traced"] = summary(record, result)
        entry["traced"]["verdicts_match"] = record.get("verdicts_match")
        entry["tracing_overhead_s"] = record.get("tracing_overhead_s")
        entry["tracing_overhead_ratio"] = record.get("tracing_overhead_ratio")
        if name.startswith("oracle_"):
            record, result = bench(name, args.second_seed, seconds, 0)
            entry["second_seed"] = summary(record, result)
        point["workloads"][name] = entry
    points = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    points.append(point)
    TRAJECTORY.write_text(json.dumps(points, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
