"""One pass of one workload, in a fresh single-threaded process.

Run by ``run.py``; prints one JSON line.  Set-up (interpreter start, the
package import from this checkout's ``src`` and seeded input generation)
ends at the ``ready`` stamp, taken on the system-wide monotonic clock so
that the parent can subtract its spawn time.  With ``--setup-only`` the
worker then samples the reference computation and stops.  Otherwise it
runs the job list back to back, timing each job, and checks the answers
after the last job.  With ``--traced`` it
wraps the package's entry points first and reports per-layer metrics; the
spans are written to ``--spans``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def import_package():
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    fb = importlib.import_module("fareybratteli")
    importlib.import_module("fareybratteli.cli")
    seconds = time.perf_counter() - start
    if Path(fb.__file__).resolve().parent != SRC / "fareybratteli":
        raise RuntimeError(f"imported fareybratteli from {fb.__file__}, not from {SRC}")
    return fb, seconds


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    fb, import_s = import_package()
    scratch = BENCH / "out" / f"tmp-{args.workload}-{args.seed}-{time.monotonic_ns()}"
    scratch.mkdir(parents=True)
    try:
        jobs = workloads.build(args.workload, fb, args.seed, args.small, scratch)
        tracer = None
        if args.traced:
            tracer = tracing.Tracer()
            tracing.install(tracer, fb)
        ready = time.monotonic()
        result = {"ready": ready, "import_s": import_s}
        if args.setup_only:
            result["reference_s"] = [reference() for _ in range(3)]
        else:
            result.update(run_jobs(jobs, tracer, args.spans))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


# The machine's speed swings by up to 2x within seconds when other tenants
# load it.  A fixed reference computation, timed between jobs every
# PROBE_GAP_S, samples that speed; the parent scales job times by it.
PROBE_GAP_S = 0.2


def reference() -> float:
    """Seconds for a fixed pure-Python Fraction and dict computation
    (about 7 ms on an unloaded 2.1 GHz x86-64 core with Python 3.11)."""
    start = time.perf_counter()
    acc, x = Fraction(0), Fraction(3, 7)
    for i in range(1, 1500):
        acc += x * Fraction(i, i + 2)
        if acc.denominator > 10**30:
            acc = Fraction(acc.numerator % 97, 13)
    table: dict = {}
    for i in range(3000):
        table[(i, i % 7)] = table.get((i % 50, 1), 0) + i
    return time.perf_counter() - start


def run_jobs(jobs, tracer, spans_path) -> dict:
    answers, timings = [], []
    probes = [(time.perf_counter(), reference())]
    for job in jobs:
        start = time.perf_counter()
        try:
            answer, error = (tracer.span("job." + job.group, job.run) if tracer else job.run()), None
        except Exception:  # a failing job is counted, and the pass goes on
            answer, error = None, traceback.format_exc(limit=3)
        end = time.perf_counter()
        timings.append(end - start)
        answers.append((answer, error))
        if end - probes[-1][0] >= PROBE_GAP_S:
            probes.append((time.perf_counter(), reference()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out: dict = {"peak_rss_mb": peak_rss_mb}
    if tracer:
        tracer.enabled = False
        out["layers"] = tracer.layer_metrics()
        if spans_path:
            tracer.dump(spans_path)

    records = []
    for job, seconds, (answer, error) in zip(jobs, timings, answers):
        if error is None:
            try:
                error = job.check(answer)
            except Exception:
                error = "answer check raised: " + traceback.format_exc(limit=3)
        records.append({"name": job.name, "group": job.group, "seconds": seconds, "error": error,
                        "summary": None if error else summarize(job.group, answer)})
    out["jobs"] = records
    out["reference_s"] = [value for _, value in probes]
    return out


def summarize(group: str, answer):
    """The few answer fields the parent aggregates: caught mutants and the
    relation checks a summary reports."""
    if group == "mutant":
        info, ok, first = answer
        return {"caught": not ok, "kind": info["kind"], "first": first}
    if group.startswith("N"):
        return {"checks": sum(int(line.split("/")[1].split()[0]) for line in answer[1].splitlines())}
    return None


if __name__ == "__main__":
    sys.exit(main())
