"""Quick smoke run of the benchmark: every workload at a tiny size, untraced
and traced, with all output checks, plus a run in a directory holding only
the benchmark, which must refuse without printing a result.

    python3 bench/smoke.py

Exits 0 when everything passed.  Takes about half a minute.
"""
from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.5",
                       "--trace", str(trace), "--smoke")
            label = f"{workload} trace={trace}"
            try:
                result = json.loads(done.stdout.splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no result (exit {done.returncode}): {done.stderr[-500:]}")
                continue
            if done.returncode != 0 or not result["correct"] or result["failed"] or not result["attempted"]:
                problems.append(f"{label}: {done.stdout.splitlines()[-1][:200]} {done.stderr[-500:]}")
            if set(result["metrics"]) != wanted[trace]:
                problems.append(f"{label}: metrics {sorted(set(result['metrics']) ^ wanted[trace])}")
            print(f"{label}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run(bare, "--workload", "trials", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    if done.returncode == 0 or done.stdout.strip():
        problems.append(f"without the program: exit {done.returncode}, stdout {done.stdout[:200]!r}")
    else:
        print(f"without the program: exit {done.returncode}, nothing printed")

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
