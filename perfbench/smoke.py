#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny sizes, traced and not.

    python3 perfbench/smoke.py

Checks that each run exits 0 with a result line of exactly the keys
correct/attempted/failed/metrics, that every operation passed its check, and
that the metrics are exactly BENCHMARK.json's end-to-end (trace 0) or
per-layer (trace 1) names with their units, end-to-end values above 0.  It
also checks that a directory holding only BENCHMARK.json and the benchmark
exits non-zero without a result.  Exit status 1 on the first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def check_result(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
               "--size", "tiny")
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        raise SystemExit(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        raise SystemExit(f"{where}: {result['failed']} of {result['attempted']} failed\n{proc.stderr}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        raise SystemExit(f"{where}: metrics differ from BENCHMARK.json: {set(got) ^ set(wanted)}")
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value) or (not trace and value <= 0):
            raise SystemExit(f"{where}: {name} = {value!r}")
    print(f"ok  {where}: {result['attempted']} operations, {len(got)} metrics", flush=True)


def check_without_program() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, "--workload", "mc_bulk", "--seed", "1", "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            raise SystemExit(f"without the program: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  without the program: non-zero exit, no result", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(spec, workload, trace)
    check_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
