"""Run one workload in this process and print its figures as one JSON line.

run.py starts this script in a fresh interpreter for every measurement.
The process imports liechar from ``src/`` of the checkout, builds the
workload from the seed, then runs its job list over and over, one job at a
time, until the time is up.  Every answer is checked; a wrong answer stops
the run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED = BENCH_DIR / "expected" / "answers.json"
MIN_JOBS = 100
LAYER_METRICS = ("scalars", "linalg", "liealg", "cochains", "extensions",
                 "characteristic", "workspace", "cli")


# Times are reported at a fixed machine speed: the one at which
# ``_reference_kernel`` takes REFERENCE_S.  On a shared machine whole
# minutes run up to 1.7 times slower than others, and the kernel slows down
# with the jobs; scaling each job by the kernel's time measured next to it
# cancels most of that.  The kernel uses only the standard library, so no
# change to liechar can move it.
REFERENCE_S = 0.001
REFERENCE_EVERY_S = 0.05


def _reference_kernel():
    acc = Fraction(0)
    table = {}
    for i in range(1, 80):
        x = Fraction(i, i + 1) * Fraction(3, 7) - Fraction(1, i)
        table[(i % 7, i % 5)] = x + table.get((i % 7, i % 5), 0)
        acc += x
    return acc


def reference_time() -> float:
    """Fastest of three runs of the reference kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best


class WrongAnswer(Exception):
    pass


def load_library(workload: str):
    sys.path.insert(0, str(ROOT / "src"))
    import liechar
    import liechar.catalog
    cli = None
    if workload == "cli_session":
        import liechar.cli as cli
    return SimpleNamespace(liechar=liechar, catalog=liechar.catalog, cli=cli)


def covers(actual, expected) -> bool:
    """True when ``actual`` holds every key and value of ``expected``.

    New keys in JSON output are allowed; existing ones must keep their value.
    """
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            k in actual and covers(actual[k], v) for k, v in expected.items())
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(actual) == len(expected)
                and all(covers(a, e) for a, e in zip(actual, expected)))
    return actual == expected


def matches_recorded(job_name: str, answer, recorded) -> bool:
    if job_name.endswith(".json") and isinstance(answer, dict) and answer.get("exit") == 0:
        return (answer["exit"] == recorded["exit"]
                and covers(json.loads(answer["stdout"]), json.loads(recorded["stdout"])))
    return answer == recorded


class Runner:
    def __init__(self, workload, recorded):
        self.workload = workload
        self.recorded = recorded      # job name -> answer recorded at the seed commit
        self.reference = {}           # job name -> first answer of this run
        self.attempted = 0
        self.failed = 0
        self.errors = 0
        self.failures = []

    def execute(self, job, tracer=None):
        start = time.perf_counter()
        try:
            result = job.call()
            raised = None
        except Exception as exc:  # a job that raises is counted, not fatal
            raised = exc
        latency = time.perf_counter() - start
        self.attempted += 1
        problems = []
        if raised is None:
            answer = job.answer(result)
            if job.check:
                problems = job.check(answer)
        else:
            self.errors += 1
            if job.known_defect is not None and isinstance(raised, job.known_defect):
                answer = {"raised": type(raised).__name__}
            else:
                self.failed += 1
                self.failures.append(f"{job.name}: {type(raised).__name__}: {raised}")
                return latency, None, tracer.take() if tracer else None
        if job.name not in self.reference:
            self.reference[job.name] = answer
            recorded = self.recorded.get(job.name)
            if recorded is not None and not matches_recorded(job.name, answer, recorded):
                problems.append("answer differs from the one recorded at the seed commit")
        elif answer != self.reference[job.name]:
            problems.append("answer differs from this job's first answer in the run")
        if problems:
            raise WrongAnswer(f"{job.name}: " + "; ".join(str(p) for p in problems))
        trace = None
        if tracer is not None:
            if isinstance(answer, dict) and "stdout" in answer:
                tracer.counters["cli.stdout_bytes"] += len(answer["stdout"].encode("utf-8"))
            trace = tracer.take()
        return latency, answer, trace

    def phase(self, until: float, tracer=None, jobs_before=0):
        """Cycle through the job list until ``until``; at least one full pass.

        Latencies are scaled to the reference speed (see ``reference_time``),
        which is measured again whenever 50 ms have passed since the last time.
        """
        jobs = self.workload.jobs
        speed_at = -REFERENCE_EVERY_S
        latencies = {job.name: [] for job in jobs}
        traces = {job.name: [] for job in jobs}
        first_pass = {}
        count = 0
        index = 0
        while True:
            job = jobs[index]
            if time.perf_counter() - speed_at >= REFERENCE_EVERY_S:
                scale = REFERENCE_S / reference_time()
                speed_at = time.perf_counter()
            latency, answer, trace = self.execute(job, tracer)
            latencies[job.name].append(latency * scale)
            if trace is not None:
                traces[job.name].append(trace)
            count += 1
            if first_pass is not None:
                first_pass[job.name] = answer
            index += 1
            if index == len(jobs):
                index = 0
                if first_pass is not None:
                    if all(a is not None for a in first_pass.values()):
                        problems = self.workload.check_pass(first_pass)
                        if problems:
                            raise WrongAnswer("pass check: " + "; ".join(problems))
                    first_pass = None
            if (first_pass is None and time.monotonic() >= until
                    and jobs_before + count >= MIN_JOBS):
                return latencies, traces


def typical(latencies):
    """Each job's median latency in the run, at the reference speed."""
    return [statistics.median(v) for v in latencies.values()]


def end_to_end(latencies):
    jobs = sorted(typical(latencies))
    deciles = statistics.quantiles(jobs, n=10, method="inclusive")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (sum(jobs), "s"),
        "job_ms_p50": (1000 * statistics.median(jobs), "ms"),
        "job_ms_p90": (1000 * deciles[8], "ms"),
        "peak_rss_mib": (peak_kib / 1024, "MiB"),
    }


def per_layer(traces, untraced_wall: float, traced_wall: float):
    """Per-layer figures for one pass over the job list.

    Each job contributes the median of each figure over its traced runs.
    """
    total = Counter()
    for runs in traces.values():
        for key in set().union(*runs):
            total[key] += statistics.median(run[key] for run in runs)

    def ratio(num, den):
        return total[num] / total[den] if total[den] else 0.0

    metrics = {}
    for layer in LAYER_METRICS:
        metrics[f"{layer}.self_s"] = (total[f"{layer}.self_s"], "s")
        metrics[f"{layer}.calls"] = (total[f"{layer}.calls"], "count")
    named = {
        "cochains.ce_differential.calls": ("cochains.ce_differential.calls", "count"),
        "characteristic.differential_matrix.s": ("characteristic.differential_matrix.s", "s"),
        "linalg.solve_linear.calls": ("linalg.solve_linear.calls", "count"),
        "linalg.matrix_entries": ("linalg.matrix_entries", "count"),
        "linalg.poly_rhs.calls": ("linalg.poly_rhs.calls", "count"),
        "cochains.sym_evaluate.calls": ("cochains.SymMultiMap.evaluate.calls", "count"),
        "cochains.compose_sym.s": ("cochains.compose_sym.s", "s"),
        "extensions.is_invariant.calls": ("extensions.is_invariant.calls", "count"),
        "extensions.is_invariant.s": ("extensions.is_invariant.s", "s"),
        "scalars.integrate.calls": ("scalars.integrate_poly_simplex.calls", "count"),
        "scalars.integrated_terms": ("scalars.integrated_terms", "count"),
        "extensions.kernel_coords.calls": ("extensions.kernel_coords.calls", "count"),
        "characteristic.cohomology_space.calls": ("characteristic.cohomology_space.calls",
                                                  "count"),
        "characteristic.delta_f.calls": ("characteristic.delta_f.calls", "count"),
        "characteristic.cochain_dim": ("characteristic.cochain_dim", "count"),
        "workspace.parse.s": ("workspace.parse_workspace.s", "s"),
        "workspace.serialize.s": ("workspace.serialize_workspace.s", "s"),
        "workspace.bytes_parsed": ("workspace.bytes_parsed", "bytes"),
        "cli.stdout_bytes": ("cli.stdout_bytes", "bytes"),
    }
    for metric, (key, unit) in named.items():
        metrics[metric] = (total[key], unit)
    metrics["linalg.nonzero_ratio"] = (
        ratio("linalg.matrix_nonzeros", "linalg.matrix_entries"), "ratio")
    metrics["cochains.sym_evaluate.useful_ratio"] = (
        ratio("cochains.sym_evaluate.useful", "cochains.sym_evaluate.visited"), "ratio")
    metrics["scalars.multipoly_ops"] = (
        sum(v for k, v in total.items()
            if k.startswith("scalars.MultiPoly.") and k.endswith(".calls")), "count")
    metrics["liealg.validate.s"] = (
        total["liealg.check_jacobi.s"] + total["liealg.check_representation.s"], "s")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall - 1, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started us")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    lib = load_library(args.workload)
    import jobs
    workload = jobs.build(args.workload, args.seed, lib)
    recorded = json.loads(EXPECTED.read_text("utf-8"))
    answers = recorded["answers"].get(args.workload, {})
    if args.seed != recorded["seed"]:
        answers = {k: v for k, v in answers.items() if k in workload.seed_independent}
    setup_s = (time.monotonic() - args.spawned_at) * REFERENCE_S / reference_time()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    runner = Runner(workload, answers)
    start = time.monotonic()
    try:
        if not args.trace:
            latencies, _ = runner.phase(start + args.seconds)
            metrics = end_to_end(latencies)
        else:
            from tracer import Tracer
            untraced, _ = runner.phase(start + args.seconds / 3)
            before = runner.attempted
            tracer = Tracer()
            tracer.install()
            try:
                traced, traces = runner.phase(start + args.seconds, tracer, before)
            finally:
                tracer.uninstall()
            metrics = per_layer(traces, sum(typical(untraced)), sum(typical(traced)))
    except WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        return 1
    for line in runner.failures[:20]:
        print(f"failed job: {line}", file=sys.stderr)
    print(json.dumps({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "setup_s": setup_s,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
