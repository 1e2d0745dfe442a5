"""Command-line front end: run the experiments and emit CSV or JSON tables.

Every run is deterministic: the seed defaults to a fixed constant, can be
overridden by the BERTRAND_LAB_SEED environment variable or --seed, and the
output bytes depend only on the parsed arguments.  Floats are printed with 9
significant digits (round-half-even); exact rationals are printed as "n/m"
strings, never as decimals.  CSV uses RFC-4180 quoting with LF line endings;
JSON output is a single object with a "rows" array carrying the same fields.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
from typing import Any, Sequence

import numpy as np

from . import bertrand, buffon, montecarlo, rationals, squares

DEFAULT_SEED = 42
SEED_ENV_VAR = "BERTRAND_LAB_SEED"
DEFAULT_SAMPLES = 100_000
DEFAULT_TOL = rationals.DEFAULT_TOL
# isqrt(2**63 - 1): den * base + num fits in int64 for any base up to this
_MAX_CODE_BASE = 3_037_000_499

_CHORD_TOKENS = {
    "midpoint": bertrand.ChordModel.MIDPOINT_UNIFORM,
    "tangent": bertrand.ChordModel.TANGENT_ANGLE_UNIFORM,
    "polar": bertrand.ChordModel.POLAR_UNIFORM,
}
_NEEDLE_TOKENS = {
    "center-angle": buffon.NeedleModel.CENTER_ANGLE,
    "endpoints": buffon.NeedleModel.ENDPOINTS,
}


class CliError(Exception):
    """A configuration problem that should exit with status 2."""


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _render_csv(rows: list[dict[str, Any]]) -> str:
    header = list(rows[0])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(row[h]) for h in header])
    return buf.getvalue()


def _render_json(rows: list[dict[str, Any]]) -> str:
    # pin floats to the same 9 significant digits the CSV shows
    json_rows = [
        {h: float(_fmt(v)) if isinstance(v, float) else v for h, v in row.items()}
        for row in rows
    ]
    return json.dumps({"rows": json_rows}, indent=2) + "\n"


def _emit(args: argparse.Namespace, rows: list[dict[str, Any]]) -> int:
    """Write the rows, whose keys (the same for every row) are the header."""
    text = _render_csv(rows) if args.format == "csv" else _render_json(rows)
    if args.out:
        with open(args.out, "w", newline="") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _resolve_seed(args: argparse.Namespace) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise CliError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return DEFAULT_SEED


def _check_samples(n: int, minimum: int = 1) -> int:
    if n < minimum:
        raise CliError(f"--samples must be >= {minimum}, got {n}")
    return n


def _estimate_row(
    model: str, exact_p: float, est: montecarlo.Estimate | None, **extra: float
) -> dict[str, Any]:
    """A model's exact value beside its estimate; blank estimate cells without one."""

    def field(name: str) -> Any:
        return None if est is None else getattr(est, name)

    return {
        "model": model,
        "exact_p": exact_p,
        "p_hat": field("p_hat"),
        "ci_low": field("ci_low"),
        "ci_high": field("ci_high"),
        **extra,
        "n": field("n"),
        "seed": field("seed"),
    }


def cmd_bertrand(args: argparse.Namespace) -> int:
    n = _check_samples(args.samples)
    seed = _resolve_seed(args)
    models = list(_CHORD_TOKENS.values()) if args.model == "all" else [_CHORD_TOKENS[args.model]]
    rows = [
        _estimate_row(
            model.value,
            bertrand.exact_exceed_probability(model),
            montecarlo.run(bertrand.chord_exceed_experiment(model), n, seed, args.shards),
        )
        for model in models
    ]
    if args.pushforward:
        value = bertrand.exceed_probability_under_measure(
            bertrand.ChordModel.MIDPOINT_UNIFORM, bertrand.ChordModel.POLAR_UNIFORM
        )
        rows.append(_estimate_row("midpoint_to_polar_pushforward", value, None))
    return _emit(args, rows)


def cmd_buffon(args: argparse.Namespace) -> int:
    n = _check_samples(args.samples, minimum=1000)
    seed = _resolve_seed(args)
    models = list(_NEEDLE_TOKENS.values()) if args.model == "all" else [_NEEDLE_TOKENS[args.model]]
    rows = []
    for model in models:
        pi_est = buffon.estimate_pi(model, n, seed, args.shards)
        rows.append(
            _estimate_row(
                model.value,
                buffon.exact_cross_probability(model),
                pi_est.crossings,
                pi_estimate=pi_est.value,
                pi_ci_low=pi_est.ci_low,
                pi_ci_high=pi_est.ci_high,
            )
        )
    return _emit(args, rows)


def cmd_squares(args: argparse.Namespace) -> int:
    t = args.threshold
    if not 0.0 <= t <= squares.X_MAX:
        raise CliError(f"--threshold must lie in [0, 100], got {t}")
    rows = []
    for model in squares.IntervalModel:
        threshold = squares.model_threshold(model, t)
        rows.append(
            {
                "model": model.value,
                "threshold": threshold,
                "probability": squares.exceed_probability(model, threshold),
            }
        )
    if args.finite is not None:
        if args.finite < 1:
            raise CliError(f"--finite must be >= 1, got {args.finite}")
        if t != int(t):
            raise CliError(f"--threshold must be an integer for counting, got {t}")
        ti = int(t)
        for model, threshold, squared in (
            ("counting_plain", ti, False),
            ("counting_squared", ti * ti, True),
        ):
            probability = squares.finite_counting_probability(args.finite, threshold, squared)
            rows.append({"model": model, "threshold": threshold, "probability": str(probability)})
    return _emit(args, rows)


def _parse_law(text: str) -> rationals.DenominatorLaw:
    kind, _, rest = text.partition(":")
    try:
        if kind == "geometric":
            return rationals.GeometricLaw(float(rest))
        if kind == "poisson":
            return rationals.PoissonLaw(float(rest))
        if kind == "degenerate":
            return rationals.DegenerateLaw(int(rest))
        if kind == "custom":
            table = {}
            for item in rest.split(","):
                m, sep, p = item.partition("=")
                if not sep:
                    raise CliError(f"bad custom table entry {item!r}, expected m=p")
                table[int(m)] = float(p)
            return rationals.CustomLaw(table)
    except ValueError as exc:
        raise CliError(f"bad law {text!r}: {exc}") from exc
    raise CliError(
        f"unknown law {text!r}; expected geometric:W, poisson:MEAN, degenerate:M "
        "or custom:m=p,..."
    )


def _parse_rational(text: str) -> rationals.Rational:
    parts = text.split("/")
    if len(parts) != 2:
        raise CliError(f"expected a fraction like 1/2, got {text!r}")
    try:
        return rationals.canonicalize(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def cmd_rationals(args: argparse.Namespace) -> int:
    if args.mode == "atom":
        law = _parse_law(args.law)
        q = _parse_rational(args.q)
        value = rationals.atom_probability(q, law, args.tol)
        return _emit(args, [{"law": args.law, "q": str(q), "probability": value}])

    if args.mode == "cdf":
        law = _parse_law(args.law)
        value = rationals.cdf(args.x, law, args.tol)
        return _emit(args, [{"law": args.law, "x": args.x, "value": value}])

    if args.mode == "interval":
        law = _parse_law(args.law)
        value = rationals.interval_probability(args.a, args.b, law, args.tol)
        return _emit(args, [{"law": args.law, "a": args.a, "b": args.b, "probability": value}])

    if args.mode == "sample":
        law = _parse_law(args.law)
        n = _check_samples(args.samples)
        seed = _resolve_seed(args)
        rng = montecarlo.stream_generator(seed, 0)
        nums, dens = rationals.sample_rational_batch(law, rng, n)
        # encode (denominator, numerator) pairs so np.unique sorts them stably
        base = int(dens.max()) + 1
        if base > _MAX_CODE_BASE:
            raise CliError(f"drew denominator {base - 1}; sample tabulates up to {_MAX_CODE_BASE - 1}")
        codes, counts = np.unique(dens * base + nums, return_counts=True)
        rows = []
        for code, count in zip(codes.tolist(), counts.tolist()):
            den, num = divmod(code, base)
            rows.append(
                {
                    "law": args.law,
                    "q": f"{num}/{den}",
                    "count": count,
                    "frequency": count / n,
                    "n": n,
                    "seed": seed,
                }
            )
        return _emit(args, rows)

    # converge
    family = (
        rationals.GeometricFamily() if args.family == "geometric" else rationals.PoissonFamily()
    )
    try:
        ks = [int(part) for part in args.ks.split(",")]
        a, b = (float(part) for part in args.probe.split(","))
    except ValueError as exc:
        raise CliError(f"bad --ks or --probe: {exc}") from exc
    table = rationals.convergence_table(family, ks, (a, b), args.tol)
    return _emit(args, [{"family": args.family, **dataclasses.asdict(d)} for d in table])


def _add_output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None, help="write to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bertrand-lab",
        description="Exact and Monte Carlo answers for the classic 'at random' paradoxes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bertrand", help="random chords vs the inscribed-triangle edge")
    b.add_argument("--model", choices=[*_CHORD_TOKENS, "all"], default="all")
    b.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    b.add_argument("--seed", type=int, default=None)
    b.add_argument("--shards", type=int, default=1)
    b.add_argument(
        "--pushforward",
        action="store_true",
        help="add the midpoint measure integrated in polar coordinates",
    )
    _add_output_options(b)
    b.set_defaults(handler=cmd_bertrand)

    f = sub.add_parser("buffon", help="needle crossings and the implied pi estimate")
    f.add_argument("--model", choices=[*_NEEDLE_TOKENS, "all"], default="all")
    f.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    f.add_argument("--seed", type=int, default=None)
    f.add_argument("--shards", type=int, default=1)
    _add_output_options(f)
    f.set_defaults(handler=cmd_buffon)

    s = sub.add_parser("squares", help="number-vs-square probabilities on [0, 100]")
    s.add_argument("--threshold", type=float, default=50.0, help="threshold on the [0, 100] scale")
    s.add_argument("--finite", type=int, default=None, metavar="N_MAX",
                   help="also count integers 1..N_MAX exactly")
    _add_output_options(s)
    s.set_defaults(handler=cmd_squares)

    r = sub.add_parser("rationals", help="random rationals in [0, 1]")
    rsub = r.add_subparsers(dest="mode", required=True)

    atom = rsub.add_parser("atom", help="probability of one rational value")
    atom.add_argument("--q", required=True, help="the rational, e.g. 1/2")
    atom.add_argument("--law", required=True, help="e.g. geometric:0.5, degenerate:2")
    atom.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_output_options(atom)

    cdfp = rsub.add_parser("cdf", help="cumulative distribution at a point")
    cdfp.add_argument("--x", type=float, required=True)
    cdfp.add_argument("--law", required=True)
    cdfp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_output_options(cdfp)

    inter = rsub.add_parser("interval", help="probability of (a, b]")
    inter.add_argument("--a", type=float, required=True)
    inter.add_argument("--b", type=float, required=True)
    inter.add_argument("--law", required=True)
    inter.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_output_options(inter)

    samp = rsub.add_parser("sample", help="draw rationals and tabulate atom frequencies")
    samp.add_argument("--law", required=True)
    samp.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    samp.add_argument("--seed", type=int, default=None)
    _add_output_options(samp)

    conv = rsub.add_parser("converge", help="flattening diagnostics along a law family")
    conv.add_argument("--family", choices=["geometric", "poisson"], default="geometric")
    conv.add_argument("--ks", default="10,100,1000", help="comma-separated k schedule")
    conv.add_argument("--probe", default="0,0.5", help="probe interval a,b")
    conv.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_output_options(conv)

    r.set_defaults(handler=cmd_rationals)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
