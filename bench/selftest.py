"""Self-test of the benchmark at reduced size (floors 4-5, shallow depths).

    python3 bench/selftest.py

Asserts, for every workload, that an untraced and a traced run emit every
metric named in BENCHMARK.json with its unit, that no answer is wrong
(error_ratio 0), that the exact counters repeat between two traced runs
of the same seed, and that a copy holding only BENCHMARK.json and the
benchmark's files exits non-zero without printing a result.  Takes about
half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(BENCH))
from tracing import EXACT_COUNTERS  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--small"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(workload: str, trace: int) -> dict:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values()), result["metrics"]
        assert any(line.split()[:2] == ["error_ratio", "0.000000"] for line in proc.stdout.splitlines())
    else:
        assert result["metrics"]["error_ratio"]["value"] == 0
    return result


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        result_of(workload, 0)
        first, second = result_of(workload, 1), result_of(workload, 1)
        for name in EXACT_COUNTERS:
            assert first["metrics"][name] == second["metrics"][name], (workload, name)
        print(f"{workload}: every metric emitted, error_ratio 0, exact counters repeat")

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("without the package: exits", proc.returncode, "and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
