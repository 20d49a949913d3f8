"""Benchmark of the farey-bratteli toolkit: one command, three workloads.

    python3 bench/run.py --workload suites|mutation|diagram --seed N \\
        --seconds S --trace 0|1 [--small]

Closed loop with one client: passes over the workload's job list run back
to back, each pass in a fresh single-threaded worker process
(``worker.py``), until ``--seconds`` is used up; there is always at least
one pass.  A fresh process per pass means every pass pays the program's
own memo caches cold, as a command-line user does.  Set-up is timed in
five extra set-up-only workers as well as in every pass.

Every answer is checked after the timed jobs of its pass.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, from untraced passes only.  With ``--trace 1`` untraced
and traced passes alternate, at least one untraced and two traced, and the
metrics are per layer; the exact counters of the traced passes must agree,
or the run fails without a result.  Lines above the last one print every
metric by name and unit for people, and ``bench/out/`` receives the run
record and the spans of each traced pass.

``--small`` runs reduced sizes (floors 4-5, shallow depths); the self-test
uses it.  The result of a reduced run is not comparable with a full one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

sys.path.insert(0, str(BENCH))
from tracing import EXACT_COUNTERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 7
# Job and set-up times are reported at the speed of the machine at which the
# reference computation in worker.py takes REFERENCE_S, its time on an
# unloaded core here.  Other tenants slow this machine by up to 2x within
# seconds; scaling each worker's times by the mean of the reference times
# it sampled removes most of that drift from run-to-run comparisons.
REFERENCE_S = 0.007
RUN_LIMIT_S = 170  # every worker is killed by then, within the 180 s a run may take

# metric names and units, as BENCHMARK.json declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class HarnessError(Exception):
    """The benchmark itself could not produce a trustworthy number."""


def spawn(args, mode: str, deadline: float, spans: Path | None = None) -> dict:
    argv = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]
    argv += {"setup": ["--setup-only"], "plain": [], "traced": ["--traced"]}[mode]
    if args.small:
        argv.append("--small")
    if spans:
        argv += ["--spans", str(spans)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{mode} worker exceeded the run's time limit") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["mode"] = mode
    result["setup_s"] = result["ready"] - spawned
    result["process_s"] = time.monotonic() - spawned
    scale = REFERENCE_S / statistics.mean(result["reference_s"])
    result["ref_setup_s"] = result["setup_s"] * scale
    for job in result.get("jobs", ()):
        job["ref_seconds"] = job["seconds"] * scale
    return result


def run_passes(args) -> tuple[list[dict], list[dict]]:
    start = time.monotonic()
    limit = start + RUN_LIMIT_S
    setups = [spawn(args, "setup", limit) for _ in range(SETUP_PROBES)]
    required = ["plain", "traced", "traced"] if args.trace else ["plain"]
    cycle = ["plain", "traced"] if args.trace else ["plain"]
    passes: list[dict] = []
    while True:
        i = len(passes)
        if i >= len(required):
            # start another pass only if at least half of it fits in the window
            typical = statistics.median(p["process_s"] for p in passes)
            if time.monotonic() - start + typical / 2 > args.seconds:
                break
            mode = cycle[(i - len(required)) % len(cycle)]
        else:
            mode = required[i]
        spans = OUT / f"spans-{args.workload}-seed{args.seed}-pass{i}.json" if mode == "traced" else None
        passes.append(spawn(args, mode, limit, spans))
    return setups, passes


def group_seconds(passes: list[dict], prefix: str) -> list[float]:
    """Per pass, the reference-speed seconds of the jobs whose group starts with prefix."""
    return [sum(j["ref_seconds"] for j in p["jobs"] if j["group"].startswith(prefix)) for p in passes]


def mean_reference(passes: list[dict]) -> float:
    return statistics.mean(r for p in passes for r in p["reference_s"])


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def job_list_seconds(passes: list[dict], key: str = "ref_seconds") -> float:
    """Time of one pass over the job list: the sum over jobs of each job's
    median across passes.  Every pass runs the same jobs in the same order."""
    return sum(statistics.median(p["jobs"][i][key] for p in passes) for i in range(len(passes[0]["jobs"])))


def end_to_end(setups: list[dict], plain: list[dict]) -> dict:
    return {
        "ref_wall_s": job_list_seconds(plain),
        "setup_s": statistics.median(p["ref_setup_s"] for p in setups + plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }


def per_layer(setups: list[dict], plain: list[dict], traced: list[dict], attempted: int, failed: int) -> dict:
    counters = [{name: p["layers"][name] for name in EXACT_COUNTERS} for p in traced]
    if any(c != counters[0] for c in counters):
        raise HarnessError(f"exact counters differ between traced passes of the same inputs: {counters}")
    metrics = {name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
    metrics.update(counters[0])

    mutants = [j for p in traced + plain for j in p["jobs"] if j["group"] == "mutant"]
    caught = sum(1 for j in mutants if j["summary"] and j["summary"]["caught"])
    metrics["path_algebra.mutant_s"] = median_or_zero(
        j["ref_seconds"] for p in traced for j in p["jobs"] if j["group"] == "mutant")
    metrics["path_algebra.caught_ratio"] = ratio(caught, len(mutants))

    figures = untraced_figures(plain)
    metrics.update(figures)
    metrics["path_algebra.growth.N5_N4"] = ratio(figures["floor_s.N5"], figures["floor_s.N4"])
    metrics["path_algebra.growth.N6_N5"] = ratio(figures["floor_s.N6"], figures["floor_s.N5"])

    metrics["setup.import_s"] = statistics.median(p["import_s"] for p in setups + plain)
    untraced = job_list_seconds(plain)
    with_spans = job_list_seconds(traced)
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.traced_wall_s"] = with_spans
    metrics["trace.overhead_ratio"] = ratio(with_spans, untraced)
    metrics["machine.reference_s"] = mean_reference(plain + traced)
    metrics["error_ratio"] = ratio(failed, attempted)
    return metrics


def untraced_figures(plain: list[dict]) -> dict:
    """Workload-specific figures of the untraced passes, at the reference
    speed: seconds per floor (summed over its lambda values), relation checks
    and mutants per second.  Zero where the workload has no such job."""
    figures = {f"floor_s.N{n}": median_or_zero(group_seconds(plain, f"N{n}")) for n in (4, 5, 6)}
    suite_jobs = [j for p in plain for j in p["jobs"] if j["group"].startswith("N") and j["summary"]]
    figures["checks_per_s"] = ratio(sum(j["summary"]["checks"] for j in suite_jobs), sum(j["ref_seconds"] for j in suite_jobs))
    mutants = [j for p in plain for j in p["jobs"] if j["group"] == "mutant"]
    figures["mutants_per_s"] = ratio(len(mutants), sum(j["ref_seconds"] for j in mutants))
    return figures


def provenance() -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true", help="reduced sizes, for the self-test")
    args = parser.parse_args()

    if not (ROOT / "src" / "fareybratteli" / "__init__.py").is_file():
        print(f"no fareybratteli package under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        setups, passes = run_passes(args)
        plain = [p for p in passes if p["mode"] == "plain"]
        traced = [p for p in passes if p["mode"] == "traced"]
        attempted = sum(len(p["jobs"]) for p in passes)
        failed = sum(1 for p in passes for j in p["jobs"] if j["error"])
        if args.trace:
            metrics, units = per_layer(setups, plain, traced, attempted, failed), PER_LAYER
        else:
            metrics, units = end_to_end(setups, plain), END_TO_END
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    info = provenance()
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
          f"{' small' if args.small else ''}")
    print(f"# git {info['git_sha']}  python {info['python']}  nproc {info['nproc']}")
    print(f"# {len(plain)} untraced and {len(traced)} traced passes, {len(setups) + len(passes)} set-ups")
    lines = [(name, metrics[name], unit) for name, unit in units.items()]
    if not args.trace:
        lines += [(name, value, PER_LAYER[name]) for name, value in untraced_figures(plain).items()]
        lines.append(("measured_wall_s", job_list_seconds(plain, "seconds"), "s"))
        lines.append(("measured_setup_s", statistics.median(p["setup_s"] for p in setups + plain), "s"))
        lines.append(("machine.reference_s", mean_reference(plain), "s"))
        lines.append(("error_ratio", ratio(failed, attempted), "ratio"))
    for name, value, unit in lines:
        print(f"{name:40s} {value:14.6f} {unit}")
    for p in passes:
        for job in p["jobs"]:
            if job["error"]:
                print(f"# FAILED {job['name']}: {job['error'].strip().splitlines()[-1]}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = dict(result, args=vars(args), provenance=info, setups=setups, passes=passes)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
