"""Record the answers the benchmark checks against, from the current code.

    PYTHONHASHSEED=0 python3 perfbench/record.py

Runs one pass of every workload at the default seed (every oracle still
applies) and writes expected/answers.json.  Run it only on a commit whose
answers are trusted; the file pins cohomology bases and class projections,
every Delta_f representative and the CLI's stdout and exit codes.
"""

from __future__ import annotations

import json
import os
import sys

import jobs
import worker


def main() -> int:
    os.chdir(worker.ROOT)
    answers = {}
    for name in jobs.WORKLOADS:
        lib = worker.load_library(name)
        workload = jobs.build(name, jobs.DEFAULT_SEED, lib)
        runner = worker.Runner(workload, {})
        runner.phase(0.0)
        if runner.failed:
            print("\n".join(runner.failures), file=sys.stderr)
            return 1
        answers[name] = {job.name: runner.reference[job.name] for job in workload.jobs
                         if job.known_defect is None}
    worker.EXPECTED.write_text(
        json.dumps({"seed": jobs.DEFAULT_SEED, "answers": answers}, indent=1, sort_keys=True)
        + "\n", encoding="utf-8")
    print(f"wrote {worker.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
