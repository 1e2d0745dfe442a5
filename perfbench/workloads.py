"""The benchmark's workloads: inputs made from the seed, operations and checks.

Each workload is a closed loop with one client: an operation starts when the
previous one has ended.  An operation returns the program's output and its
check raises ``CheckFailed`` when that output is wrong.  The program runs
from the checkout's ``src`` directory, in process or as
``sys.executable -m bertrand_lab`` with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

CHORDS = {"midpoint_uniform": 1 / 4, "tangent_angle_uniform": 1 / 3, "polar_uniform": 1 / 2}
NEEDLES = {"center_angle": 2 / math.pi, "endpoints": 1 / 2}
DRAWS_LAW = "geometric:0.001"


@dataclass(frozen=True)
class Size:
    mc_n: int  # trials per montecarlo.run
    ks: tuple[int, ...]  # family indices of the series set, both families
    grid: int  # cdf_grid points per (family, k)
    probe_k: int  # geometric k of the probe queries
    probes: int  # probe points per pass
    draws: int  # rationals drawn per pass through the CLI
    min_ops: int  # operations per run, so that >= 10 lie beyond the p75
    setups: int  # fresh-interpreter set-ups per run


SIZES = {
    "full": Size(10**7, (10, 100, 1000, 10_000), 1000, 10**5, 4, 10**6, 40, 5),
    "tiny": Size(1 << 16, (10, 100), 50, 1000, 1, 10**4, 0, 1),
}


class CheckFailed(Exception):
    """The program's output is wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def program() -> SimpleNamespace:
    """The program's modules, imported from the checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from bertrand_lab import bertrand, buffon, cli, montecarlo, rationals, squares

    return SimpleNamespace(
        bertrand=bertrand, buffon=buffon, cli=cli, montecarlo=montecarlo,
        rationals=rationals, squares=squares,
    )


def program_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("BERTRAND_LAB_SEED", None)  # every seeded command passes --seed
    return env


def pass_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}/{index}")


# --- reference values, computed without the program --------------------------


def fmt(x: float) -> str:
    return format(x, ".9g")


def within_wilson(p_hat: float, n: int, exact: float, z: float = 5.0) -> bool:
    """Whether ``exact`` lies in the Wilson score interval of width z = 5."""
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2.0 * n)) / denom
    margin = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n))
    return center - margin <= exact <= center + margin


def mean_reciprocal(kind: str, k: int) -> float:
    """E[1/M] in closed form: geometric w = 1/k, or M = 1 + Poisson(k)."""
    if kind == "geometric":
        w = 1.0 / k
        return -w * math.log(w) / (1.0 - w)
    return -math.expm1(-k) / k


def poisson_pmf(mean: float) -> list[tuple[int, float]]:
    """(m, P{M = m}) for M = 1 + Poisson(mean), until the tail is negligible."""
    out, m, p = [], 1, math.exp(-mean)
    while m <= mean or p > 1e-20:
        out.append((m, p))
        p *= mean / m
        m += 1
    return out


def series_cdf(x: float, pmf: list[tuple[int, float]]) -> float:
    """F(x) with exact floors at the float's exact value."""
    xq = Fraction(x)
    return sum(p * (math.floor(m * xq) + 1) / (m + 1) for m, p in pmf)


def series_interval(a: float, b: float, pmf: list[tuple[int, float]]) -> float:
    aq, bq = Fraction(a), Fraction(b)
    return sum(p * (math.floor(m * bq) - math.floor(m * aq)) / (m + 1) for m, p in pmf)


def geometric_atom(q: Fraction, w: float) -> float:
    total, multiple = 0.0, q.denominator
    while True:
        term = w * (1.0 - w) ** (multiple - 1) / (multiple + 1)
        total += term
        if term < 1e-20:
            return total
        multiple += q.denominator


# --- checks on CLI output -----------------------------------------------------


def csv_rows(out: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(out.decode())))


def check_chords(rows: list[dict[str, str]], n: int, seed: int) -> None:
    expect([r["model"] for r in rows[:3]] == list(CHORDS), f"chord models {rows[:3]}")
    for r in rows[:3]:
        exact = CHORDS[r["model"]]
        expect(r["exact_p"] == fmt(exact), f"{r['model']} exact_p {r['exact_p']}")
        expect(r["n"] == str(n) and r["seed"] == str(seed), f"{r['model']} n/seed {r}")
        expect(within_wilson(float(r["p_hat"]), n, exact), f"{r['model']} p_hat {r['p_hat']}")


def check_sample(lines: Iterable[str], n: int, seed: int) -> None:
    """Canonical atoms sorted by (denominator, numerator) whose counts sum to n."""
    lines = iter(lines)
    expect(next(lines).rstrip("\n") == "law,q,count,frequency,n,seed", "sample header")
    total, last = 0, (0, 0)
    tail = f",{n},{seed}"
    for line in lines:
        line = line.rstrip("\n")
        _, q, count, _ = line.split(",", 3)
        num, den = (int(part) for part in q.split("/"))
        expect(0 <= num <= den and math.gcd(num, den) == 1, f"atom {q} is not canonical")
        expect((den, num) > last and line.endswith(tail), f"sample row {line!r}")
        last = (den, num)
        total += int(count)
    expect(total == n, f"sample counts sum to {total}, not {n}")


# --- workloads ----------------------------------------------------------------


class ColdCli:
    """About ten cold ``python -m bertrand_lab`` commands, every subcommand at
    the CLI's default sizes.  Interpreter start and imports dominate."""

    name = "cli_cold"

    def __init__(self, seed: int, size: Size):
        self.lab: SimpleNamespace | None = None  # imported only for in-process passes
        rng = random.Random(seed)
        s = rng.randrange(1, 2**31)
        x = rng.random()
        a, b = sorted((rng.random(), rng.random()))
        den = rng.randint(2, 12)
        q = Fraction(rng.randint(1, den - 1), den)
        pmf4 = poisson_pmf(4.0)
        self.serial_out: bytes | None = None

        def chords(out: bytes) -> None:
            check_chords(csv_rows(out), 100_000, s)
            self.serial_out = out

        def sharded(out: bytes) -> None:
            expect(out == self.serial_out, "--shards 2 output differs from --shards 1")

        def pushforward(out: bytes) -> None:
            rows = csv_rows(out)
            check_chords(rows, 100_000, s)
            expect(rows[3]["model"] == "midpoint_to_polar_pushforward", "pushforward row")
            expect(rows[3]["exact_p"] == fmt(0.25), f"pushforward {rows[3]['exact_p']}")

        def needles(out: bytes) -> None:
            rows = json.loads(out)["rows"]
            expect([r["model"] for r in rows] == list(NEEDLES), "needle models")
            for r in rows:
                exact = NEEDLES[r["model"]]
                expect(r["exact_p"] == float(fmt(exact)), f"{r['model']} exact_p {r['exact_p']}")
                expect(within_wilson(r["p_hat"], 100_000, exact), f"{r['model']} p_hat {r['p_hat']}")

        square_rows = [
            ["uniform_x", "50", "0.5"],
            ["naive_uniform_square", "2500", "0.75"],
            ["pushforward_square", "2500", "0.5"],
        ]
        counting_rows = [["counting_plain", "50", "1/2"], ["counting_squared", "2500", "1/2"]]

        def table(expected: list[list[str]]) -> Callable[[bytes], None]:
            def check(out: bytes) -> None:
                got = [list(r.values()) for r in csv_rows(out)]
                expect(got == expected, f"squares rows {got}")

            return check

        def value(column: str, reference: float) -> Callable[[bytes], None]:
            def check(out: bytes) -> None:
                got = float(csv_rows(out)[0][column])
                expect(abs(got - reference) <= 1e-8, f"{column} {got} != {reference}")

            return check

        def sample(out: bytes) -> None:
            check_sample(io.StringIO(out.decode()), 100_000, s)

        def converge(out: bytes) -> None:
            for r in json.loads(out)["rows"]:
                mu = mean_reciprocal("geometric", r["k"])
                expect(abs(r["mean_reciprocal"] - mu) <= 1e-8 * mu, f"E[1/M] at k={r['k']}")
                expect(r["interval_error"] <= 1.5 * mu, f"sandwich at k={r['k']}")

        seeded = ["--seed", str(s)]
        self.commands: list[tuple[str, list[str], Callable[[bytes], None]]] = [
            ("bertrand", ["bertrand", *seeded], chords),
            ("bertrand_shards2", ["bertrand", *seeded, "--shards", "2"], sharded),
            ("bertrand_pushforward", ["bertrand", *seeded, "--pushforward"], pushforward),
            ("buffon_json", ["buffon", *seeded, "--format", "json"], needles),
            ("squares", ["squares"], table(square_rows)),
            ("squares_finite", ["squares", "--finite", "100"], table(square_rows + counting_rows)),
            ("atom", ["rationals", "atom", "--q", f"{q.numerator}/{q.denominator}",
                      "--law", "geometric:0.5"], value("probability", geometric_atom(q, 0.5))),
            ("cdf", ["rationals", "cdf", "--x", repr(x), "--law", "poisson:4"],
             value("value", series_cdf(x, pmf4))),
            ("interval", ["rationals", "interval", "--a", repr(a), "--b", repr(b),
                          "--law", "poisson:4"], value("probability", series_interval(a, b, pmf4))),
            ("sample", ["rationals", "sample", "--law", "geometric:0.1", *seeded], sample),
            ("converge", ["rationals", "converge", "--format", "json"], converge),
        ]

    @staticmethod
    def cold(argv: list[str]) -> bytes:
        proc = subprocess.run(
            [sys.executable, "-m", "bertrand_lab", *argv],
            cwd=ROOT, env=program_env(), capture_output=True, timeout=120,
        )
        expect(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
        return proc.stdout

    def warm(self, argv: list[str], tracer=None) -> bytes:
        buf = io.StringIO()
        is_sample = argv[:2] == ["rationals", "sample"]
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.span("cli.main", command=argv[0], sample=is_sample))
            stack.enter_context(contextlib.redirect_stdout(buf))
            code = self.lab.cli.main(argv)
        expect(code == 0, f"cli.main exit {code}")
        return buf.getvalue().encode()

    def warm_up(self) -> None:
        self.cold(["squares"])

    def ops(self, index: int) -> list[Op]:
        return [Op(kind, lambda argv=argv: self.cold(argv), check) for kind, argv, check in self.commands]

    def inproc_ops(self, index: int, tracer=None) -> list[Op]:
        """Warm in-process ``cli.main`` for each command of the matrix."""
        if self.lab is None:
            self.lab = program()
        return [
            Op(kind, lambda argv=argv: self.warm(argv, tracer), check)
            for kind, argv, check in self.commands
        ]

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def headline(self, samples: list[tuple[int, str, float]]) -> dict[str, Any]:
        times = sorted(t for _, _, t in samples)
        rank = math.ceil(0.75 * len(times))
        return {
            "cli_p50_s": statistics.median(times),
            "cli_tail_s": times[rank - 1],
            "cli_tail_percentile": 75,
            "cli_samples": len(times),
            "cli_samples_beyond_tail": len(times) - rank,
        }


class McBulk:
    """``montecarlo.run`` at n = 1e7 for the six experiments, with shards 1 and 2."""

    name = "mc_bulk"

    def __init__(self, seed: int, size: Size):
        from tracing import EXPERIMENT_LAYERS

        self.lab = program()
        self.seed = seed
        self.n = size.mc_n
        bt, bf = self.lab.bertrand, self.lab.buffon
        self.experiments = (
            [(EXPERIMENT_LAYERS[m.value], bt.chord_exceed_experiment(m), CHORDS[m.value])
             for m in bt.ChordModel]
            + [(EXPERIMENT_LAYERS[m.value], bf.needle_cross_experiment(m), NEEDLES[m.value])
               for m in bf.NeedleModel]
            + [("square", self.lab.squares.square_exceed_experiment(50.0), 0.5)]
        )
        self.successes: dict[tuple[int, str], int] = {}

    def check(self, index: int, layer: str, exact: float, out: Any) -> None:
        successes = getattr(out, "successes", out)
        expect(within_wilson(successes / self.n, self.n, exact), f"{layer} p_hat {successes / self.n}")
        first = self.successes.setdefault((index, layer), successes)
        expect(successes == first, f"{layer}: {successes} successes, another run counted {first}")

    def warm_up(self) -> None:
        _, experiment, _ = self.experiments[-1]
        self.lab.montecarlo.run(experiment, self.n, self.seed, 1)

    def ops(self, index: int) -> list[Op]:
        seed = pass_rng(self.seed, index).getrandbits(63)
        mc = self.lab.montecarlo
        return [
            Op(f"{layer}@{shards}",
               lambda e=experiment, s=shards: mc.run(e, self.n, seed, s),
               lambda out, l=layer, p=exact: self.check(index, l, p, out))
            for layer, experiment, exact in self.experiments
            for shards in (1, 2)
        ]

    def inproc_ops(self, index: int, tracer=None) -> list[Op]:
        """Untraced: the same as ``ops``.  Traced: the serial run by the
        benchmark's replica of the batch loop, the sharded one by ``run``;
        both through experiments whose sampler and predicate are traced."""
        if tracer is None:
            return self.ops(index)
        from tracing import replica_count, traced_experiment

        seed = pass_rng(self.seed, index).getrandbits(63)
        mc = self.lab.montecarlo
        ops = []
        for layer, experiment, exact in self.experiments:
            traced = traced_experiment(tracer, experiment, layer)

            def check(out, l=layer, p=exact):
                self.check(index, l, p, out)

            ops.append(Op(f"{layer}@1", lambda e=traced: replica_count(tracer, mc, e, self.n, seed), check))
            ops.append(Op(f"{layer}@2", lambda e=traced: mc.run(e, self.n, seed, 2), check))
        return ops

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def headline(self, samples: list[tuple[int, str, float]]) -> dict[str, Any]:
        walls: dict[tuple[int, str], float] = {}
        for index, kind, t in samples:
            key = (index, kind.rsplit("@", 1)[1])
            walls[key] = walls.get(key, 0.0) + t
        trials = self.n * len(self.experiments)

        def rate(shards: str) -> float:
            return statistics.median(trials / t for (_, s), t in walls.items() if s == shards)

        return {"mc_trials_per_s": rate("1"), "mc_sharded_trials_per_s": rate("2"), "n": self.n}


class RationalsSeries:
    """The series work of ``scripts/rational_uniform_limit.py`` for both families,
    probe queries at geometric k = 1e5, and 1e6 draws through ``rationals sample``."""

    name = "rationals_series"

    def __init__(self, seed: int, size: Size):
        import numpy as np

        self.np = np
        self.lab = program()
        self.seed = seed
        self.size = size
        rat = self.lab.rationals
        self.families = [rat.GeometricFamily(), rat.PoissonFamily()]
        self.xs = np.arange(size.grid) / size.grid
        self.probe_law = rat.GeometricFamily().law(size.probe_k)
        self.probe_mu = mean_reciprocal("geometric", size.probe_k)
        self.draws_path = SCRATCH / f"draws-{os.getpid()}.csv"

    def script(self, family) -> tuple[list, list[float]]:
        rat, np = self.lab.rationals, self.np
        rows = rat.convergence_table(family, list(self.size.ks))
        sups = [
            float(np.max(np.abs(rat.cdf_grid(self.xs, family.law(k)) - self.xs)))
            for k in self.size.ks
        ]
        return rows, sups

    @staticmethod
    def check_script(kind: str, out: tuple[list, list[float]]) -> None:
        rows, sups = out
        for row, sup in zip(rows, sups):
            mu = mean_reciprocal(kind, row.k)
            expect(abs(row.mean_reciprocal - mu) <= 1e-8 * mu, f"{kind} E[1/M] at k={row.k}")
            expect(row.interval_error <= 1.5 * mu, f"{kind} |P - len| > (1+len) E[1/M] at k={row.k}")
            expect(sup <= mu, f"{kind} sup|F - x| > E[1/M] at k={row.k}")

    def draws(self, seed: int, tracer=None) -> Path:
        argv = ["rationals", "sample", "--law", DRAWS_LAW, "--samples", str(self.size.draws),
                "--seed", str(seed), "--out", str(self.draws_path)]
        SCRATCH.mkdir(exist_ok=True)
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.span("cli.main", command="rationals", sample=True))
            code = self.lab.cli.main(argv)
        expect(code == 0, f"rationals sample exit {code}")
        return self.draws_path

    def check_draws(self, seed: int, path: Path) -> None:
        try:
            with open(path) as f:
                check_sample(f, self.size.draws, seed)
        finally:
            path.unlink(missing_ok=True)

    def warm_up(self) -> None:
        self.lab.rationals.interval_probability(0.25, 0.75, self.probe_law)

    def ops(self, index: int) -> list[Op]:
        return self.inproc_ops(index)

    def inproc_ops(self, index: int, tracer=None) -> list[Op]:
        rat, law, mu = self.lab.rationals, self.probe_law, self.probe_mu
        rng = pass_rng(self.seed, index)
        ops = [
            Op(f"script_{family.kind}", lambda f=family: self.script(f),
               lambda out, kind=family.kind: self.check_script(kind, out))
            for family in self.families
        ]
        for _ in range(self.size.probes):
            a, b = sorted((rng.random(), rng.random()))
            x = rng.random()
            # a fixed denominator keeps the atom series at L / 7 terms for every seed
            q = rat.canonicalize(rng.randint(1, 6), 7)

            def interval_ok(p, a=a, b=b):
                expect(abs(p - (b - a)) <= (1 + b - a) * mu, f"interval ({a}, {b}]: {p}")

            def cdf_ok(p, x=x):
                expect(abs(p - x) <= mu, f"cdf({x}) = {p}")

            def atom_ok(p, q=q):
                expect(0.0 < p <= mu, f"atom {q}: {p}")

            ops += [
                Op("interval", lambda a=a, b=b: rat.interval_probability(a, b, law), interval_ok),
                Op("cdf", lambda x=x: rat.cdf(x, law), cdf_ok),
                Op("atom", lambda q=q: rat.atom_probability(q, law), atom_ok),
            ]
        seed = rng.randrange(1, 2**31)
        ops.append(Op("draws", lambda: self.draws(seed, tracer), lambda path: self.check_draws(seed, path)))
        return ops

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def headline(self, samples: list[tuple[int, str, float]]) -> dict[str, Any]:
        series: dict[int, float] = {}
        draws = []
        for index, kind, t in samples:
            if kind == "draws":
                draws.append(self.size.draws / t)
            else:
                series[index] = series.get(index, 0.0) + t
        return {
            "series_pass_s": statistics.median(series.values()),
            "rational_draws_per_s": statistics.median(draws),
            "draws": self.size.draws,
            "draws_law": DRAWS_LAW,
        }


WORKLOADS = {w.name: w for w in (ColdCli, McBulk, RationalsSeries)}
