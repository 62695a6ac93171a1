"""Smoke test of the benchmark itself: a tiny run of each workload, traced and not.

    python3 bench/smoke.py

Checks that every run exits 0, reports correct with no failed op, and prints
exactly the metric names and units that BENCHMARK.json lists. Exits 1 on
any mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                    "--seed", "1", "--seconds", "0.2", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
            label = f"{workload} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{label}: metrics {sorted(units)} != {sorted(expected[trace])}")
            print(f"{label}: {len(units)} metrics, {result['attempted']} ops")
    for problem in problems:
        print("FAIL " + problem)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
