#!/usr/bin/env python3
"""Steadiness check: repeat each workload with different seeds and compare
each end-to-end metric's spread with its bound.

    python3 perfbench/steady.py                      # 10 runs per workload
    python3 perfbench/steady.py --runs 5 --workloads mc_bulk --sets 2

For every metric it prints the median and quartiles of the runs (Python's
``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) / median and the
bound.  A spread must stay within the bound, and below a third of it to leave
room; ``setup_s`` is exempt from the spread rule.  With ``--sets 2`` the runs
are made twice and the second median must not be worse than the first by
more than the bound.  Exit status 1 when a rule is broken.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    ok = True
    for workload in args.workloads:
        sets = []
        for s in range(args.sets):
            seeds = range(args.first_seed + s * args.runs, args.first_seed + (s + 1) * args.runs)
            runs = []
            for seed in seeds:
                runs.append(run_once(workload, seed, args.seconds))
                print(f"  {workload} seed {seed}: {json.dumps(runs[-1])}", flush=True)
            sets.append(runs)
        print(f"{workload}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line = f"  {name:14s} bound {bound:.2f}"
            medians = []
            for runs in sets:
                values = [r[name] for r in runs]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / q2
                medians.append(q2)
                verdict = "ok" if name == "setup_s" or spread < bound / 3 else (
                    "WIDE" if spread < bound else "FAIL")
                ok &= verdict != "FAIL"
                line += f" | median {q2:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} {verdict}"
            if len(medians) == 2:
                worse = (medians[1] - medians[0]) / medians[0]
                if metric["better"] == "higher":
                    worse = -worse
                shift_ok = worse <= bound
                ok &= shift_ok
                line += f" | second median worse by {worse:+.4f} {'ok' if shift_ok else 'FAIL'}"
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
