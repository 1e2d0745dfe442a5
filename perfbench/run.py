#!/usr/bin/env python3
"""bertrand-lab benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program is taken from its ``src``
directory.  The last line of stdout is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with the machine, the per-operation medians and the headline figures
of the workload.  With ``--trace 0`` the metrics are the end-to-end metrics
of BENCHMARK.json, with ``--trace 1`` its per-layer metrics, and the spans of
the traced run are written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any

from workloads import ROOT, SCRATCH, SIZES, SRC, WORKLOADS, program_env

TAIL_PERCENTILE = 75
# Lower-quartile time of ``reference_kernel`` on an idle 2-vCPU x86-64 host.
# End-to-end times are scaled by it, so they read as seconds on that host.
REFERENCE_S = 0.07
REFERENCE_EVERY_S = 1.0


def cpu_seconds() -> float:
    """CPU time of this process, its threads and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def machine() -> dict[str, Any]:
    info: dict[str, Any] = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "program": [sys.executable, "-m", "bertrand_lab"],
        "pythonpath": "src",
    }
    for package in ("numpy", "scipy"):
        try:
            info[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            info[package] = None
    libc = ctypes.CDLL(None)
    libc.sysconf.restype, libc.sysconf.argtypes = ctypes.c_long, [ctypes.c_int]
    info["l2_bytes"] = libc.sysconf(191)  # _SC_LEVEL2_CACHE_SIZE (glibc)
    info["l3_bytes"] = libc.sysconf(194)  # _SC_LEVEL3_CACHE_SIZE (glibc)
    info["blas_threads"] = None
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                info["blas_threads"] = getattr(lib, fn)()
                break
    return info


def reference_kernel() -> float:
    """Seconds for a fixed numpy kernel that shares no code with the program.

    The host is shared: for tens of seconds at a time it can run everything,
    CPU time included, a third slower, and memory-bound work slower still.
    The kernel mixes batch sampling with a memory-bound floor and a
    matrix-vector product (BLAS threads), so that it slows down with the
    workloads; dividing by its time removes most of that drift.
    """
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(12345))
    grid, weights = rng.random((1024, 1000)), rng.random(1024)
    t0 = time.perf_counter()
    for _ in range(20):
        pts = rng.uniform(-1.0, 1.0, size=(1 << 15, 2))
        inside = pts[(pts * pts).sum(axis=1) <= 1.0]
        np.count_nonzero(np.sqrt(1.0 - (inside * inside).sum(axis=1)) > 0.5)
        np.floor(grid * 1.5, out=grid)
        weights @ grid
    return time.perf_counter() - t0


def time_op(op) -> tuple[float, float, str | None]:
    """Wall and CPU seconds of one operation, then its check outside the timing."""
    c0, t0 = cpu_seconds(), time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a failed operation is counted, the run goes on
        out, error = None, f"{op.kind}: {type(exc).__name__}: {exc}"
    else:
        error = None
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    if error is None:
        try:
            op.check(out)
        except Exception as exc:
            error = f"{op.kind}: {type(exc).__name__}: {exc}"
    return wall, cpu, error


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: list[tuple[int, str, float]] = []  # (pass, kind, wall)
        self.cpu: list[float] = []  # CPU seconds of each sample
        self.reference: list[float] | None = None  # reference_kernel times, when sampled
        self._last_reference = -math.inf

    def run_pass(self, ops, index: int) -> float:
        """Runs the operations in order and returns their total wall time.

        When reference times are kept, the kernel runs before an operation
        at most once a second, outside the operations' timing."""
        wall = 0.0
        for op in ops:
            if self.reference is not None and time.perf_counter() - self._last_reference >= REFERENCE_EVERY_S:
                self.reference.append(reference_kernel())
                self._last_reference = time.perf_counter()
            t, c, error = time_op(op)
            self.attempted += 1
            if error is not None:
                self.failures.append(error)
            self.samples.append((index, op.kind, t))
            self.cpu.append(c)
            wall += t
        return wall


def setup_seconds(args) -> tuple[list[float], list[float]]:
    """Fresh interpreters that import, build the inputs and run one warm-up op,
    each after a sample of the reference kernel."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size]
    times, reference = [], []
    for _ in range(SIZES[args.size].setups):
        reference.append(reference_kernel())
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.decode()[-500:]}")
    return times, reference


def lower_quartile(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def end_to_end(workload, tally: Tally, setups: list[float], setup_reference: list[float]):
    """End-to-end metrics from the operations' wall and CPU times.

    The host is shared and slows down in bursts.  Each operation's cost is
    therefore the lower quartile of its samples, the time it takes when it
    is not held up, and ``tail_ratio`` keeps the held-up samples in view.
    Times are then divided by the host's slowdown while they were taken,
    measured by the reference kernel against ``REFERENCE_S``.
    """
    slowdown = lower_quartile(tally.reference) / REFERENCE_S
    setup_slowdown = lower_quartile(setup_reference) / REFERENCE_S
    walls: dict[str, list[float]] = {}
    cpus: dict[str, list[float]] = {}
    for (_, kind, t), c in zip(tally.samples, tally.cpu):
        walls.setdefault(kind, []).append(t)
        cpus.setdefault(kind, []).append(c)
    wall = {kind: lower_quartile(ts) for kind, ts in walls.items()}
    medians = {kind: statistics.median(ts) for kind, ts in walls.items()}
    ratios = sorted(t / medians[kind] for _, kind, t in tally.samples)
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(ratios))
    metrics = {
        "setup_s": statistics.median(setups) / setup_slowdown,
        "pass_s": sum(wall.values()) / slowdown,
        "op_gmean_s": math.exp(statistics.fmean(math.log(t) for t in wall.values())) / slowdown,
        "tail_ratio": ratios[rank - 1],
        "pass_cpu_s": sum(lower_quartile(cs) for cs in cpus.values()) / slowdown,
        "peak_rss_mib": workload.peak_rss_mib(),
    }
    report = {
        "host_slowdown": {"setup": setup_slowdown, "passes": slowdown},
        "reference_s": {"setup": setup_reference, "passes": tally.reference},
        "op_lower_quartiles_s": wall,
        "op_medians_s": medians,
        "tail_percentile": TAIL_PERCENTILE,
        "ops": len(ratios),
        "ops_beyond_tail": len(ratios) - rank,
        "setups_s": setups,
        "headline": workload.headline(tally.samples),
    }
    return metrics, report


def plain_run(args, workload) -> tuple[dict, dict, Tally]:
    size = SIZES[args.size]
    setups, setup_reference = setup_seconds(args)
    workload.warm_up()
    tally = Tally()
    tally.reference = []
    start, index = time.perf_counter(), 0
    while index == 0 or time.perf_counter() - start < args.seconds or len(tally.samples) < size.min_ops:
        tally.run_pass(workload.ops(index), index)
        index += 1
    metrics, report = end_to_end(workload, tally, setups, setup_reference)
    report["passes"] = index
    return metrics, report, tally


def import_probe(reps: int = 3) -> dict[str, float]:
    """Import costs from ``-X importtime`` and a bare interpreter start."""
    env = program_env()
    runs: dict[str, list[float]] = {k: [] for k in ("total", "scipy", "numpy", "interp")}
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True, timeout=60)
        runs["interp"].append(time.perf_counter() - t0)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import bertrand_lab.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        total = {"total": 0, "scipy": 0, "numpy": 0}
        for line in proc.stderr.splitlines():
            # "import time: <self us> | <cumulative us> | <2 spaces per level><module>"
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            own, cumulative, name = int(fields[0]), int(fields[1]), fields[2][1:]
            if not name.startswith(" "):
                total["total"] += cumulative
            for package in ("scipy", "numpy"):
                if name.strip() == package or name.strip().startswith(package + "."):
                    total[package] += own
        for key, us in total.items():
            runs[key].append(us / 1e6)
    return {f"import.{key}_s": statistics.median(v) for key, v in runs.items()}


def traced_run(args, workload) -> tuple[dict, dict, Tally]:
    from tracing import Tracer, instrumented, layer_metrics

    run_id = f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
    tracer = Tracer(run_id)
    workload.warm_up()
    imports = import_probe()
    tally = Tally()
    walls = {"untraced": 0.0, "traced": 0.0}
    start, index = time.perf_counter(), 0
    while True:
        t0 = time.perf_counter()
        walls["untraced"] += tally.run_pass(workload.inproc_ops(index), index)
        with instrumented(tracer, workload.lab):
            walls["traced"] += tally.run_pass(workload.inproc_ops(index, tracer), index)
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - t0) > args.seconds:
            break
    metrics = {**imports, **layer_metrics(tracer.spans, index)}
    metrics["trace.overhead_ratio"] = walls["traced"] / walls["untraced"]
    spans_file = SCRATCH / f"spans-{run_id}.jsonl"
    tracer.write(spans_file)
    report = {"passes": index, "spans": len(tracer.spans), "spans_file": str(spans_file.relative_to(ROOT)),
              "pass_walls_s": walls}
    return metrics, report, tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'tiny' is for the smoke test only")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "bertrand_lab" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'bertrand_lab'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload](args.seed, SIZES[args.size])
    if args.setup_only:
        workload.warm_up()
        return 0

    metrics, report, tally = (traced_run if args.trace else plain_run)(args, workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    failed = len(tally.failures)
    report.update(
        {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "machine": machine(),
            "failed_frac": {"value": failed / tally.attempted, "failed": failed,
                            "attempted": tally.attempted},
            "failures": tally.failures[:5],
        }
    )
    for message in tally.failures[:5]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
