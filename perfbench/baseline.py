"""Measure every workload once untraced and once traced; write BASELINE.json.

    python3 perfbench/baseline.py --seed 1 --seconds 36

Records the end-to-end metrics, the per-layer metrics, each layer's share
of the traced self time, the Python version and the git commit.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import subprocess
import sys
from pathlib import Path

from jobs import WORKLOADS
from worker import LAYER_METRICS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["errors"] = int(re.search(r"(\d+) errors", lines[0]).group(1))
    return {k: round(v["value"], 6) for k, v in result["metrics"].items()}, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    args = parser.parse_args()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                            stdout=subprocess.PIPE).stdout.strip() or "unknown"
    baseline = {"commit": commit, "python": platform.python_version(),
                "machine": platform.machine(), "seed": args.seed,
                "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        end_to_end, result = run(workload, args.seed, args.seconds, 0)
        per_layer, _ = run(workload, args.seed, args.seconds, 1)
        total = sum(per_layer[f"{layer}.self_s"] for layer in LAYER_METRICS)
        baseline["workloads"][workload] = {
            "jobs_attempted": result["attempted"],
            "jobs_failed": result["failed"],
            "error_rate": round(result["errors"] / result["attempted"], 6),
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "self_time_share": {layer: round(per_layer[f"{layer}.self_s"] / total, 4)
                                for layer in LAYER_METRICS},
        }
    (BENCH_DIR / "BASELINE.json").write_text(
        json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
