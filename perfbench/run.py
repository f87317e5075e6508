"""liechar benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload cohomology_ladder --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each measurement runs in a fresh
interpreter (worker.py) with PYTHONHASHSEED fixed; this process only starts
them one after another and reports.  With --trace 0 the result holds the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
The last line of standard output is the result; the lines before it repeat
the figures for people.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from jobs import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_RUNS = 7           # processes whose set-up time is measured; the median is reported
DEADLINE_S = 170         # the whole run, set-ups included
NEEDED = ("src/liechar/__init__.py", "fixtures/oscillator.json",
          "fixtures/heisenberg.json", "fixtures/filiform.json")


def spawn(args, extra, deadline):
    command = [sys.executable, "-S", str(BENCH_DIR / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.monotonic()
    proc = subprocess.run(command + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        print(f"not a liechar checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                code, result = spawn(args, ["--setup-only"], deadline)
                if code != 0 or result is None:
                    print(f"set-up run failed with exit code {code}", file=sys.stderr)
                    return 1
                setups.append(result["setup_s"])
        code, result = spawn(args, [], deadline)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {DEADLINE_S} s", file=sys.stderr)
        return 1
    if code != 0 or result is None:
        print(f"workload {args.workload} failed (exit code {code})", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    errors = result["errors"]
    print(f"workload {args.workload}, seed {args.seed}: {result['attempted']} jobs, "
          f"{errors} errors (error_rate {errors / result['attempted']:.4f} share), "
          f"{result['failed']} failed")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
