#!/usr/bin/env python3
"""Watch discrete laws on the rationals flatten toward equiprobability.

Prints the diagnostics table for a k-indexed family and verifies the
interval sandwich |P(a < Q <= b) - (b - a)| <= (1 + (b - a)) E[1/M] row by
row, together with the uniform distance of the CDF from the identity.
An argument the table cannot use exits 2 with a message.
"""

import argparse

import numpy as np

from bertrand_lab import rationals


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--family", choices=["geometric", "poisson"], default="geometric")
    ap.add_argument("--ks", default="10,100,1000,10000")
    ap.add_argument("--probe", default="0,0.5")
    ap.add_argument("--grid", type=int, default=1000, help="points for the CDF sup check")
    args = ap.parse_args()

    if args.grid < 1:
        ap.error(f"--grid must be at least 1, got {args.grid}")
    family = (
        rationals.GeometricFamily() if args.family == "geometric" else rationals.PoissonFamily()
    )
    try:
        ks = [int(part) for part in args.ks.split(",")]
    except ValueError:
        ap.error(f"--ks must be integers separated by commas, got {args.ks!r}")
    try:
        a, b = (float(part) for part in args.probe.split(","))
    except ValueError:
        ap.error(f"--probe must be two numbers a,b, got {args.probe!r}")
    xs = np.arange(args.grid) / args.grid
    try:
        rows = rationals.convergence_table(family, ks, (a, b))
        sups = [np.max(np.abs(rationals.cdf_grid(xs, family.law(row.k)) - xs)) for row in rows]
    except ValueError as exc:
        ap.error(str(exc))

    print(f"{args.family} family, probe interval ({a:g}, {b:g}]")
    print(
        f"{'k':>7} {'sup pmf':>12} {'sup*ln k':>12} {'E[1/M]':>12} "
        f"{'|P - len|':>12} {'bound':>12} {'sup|F-x|':>12}"
    )
    for row, sup_f in zip(rows, sups):
        bound = (1.0 + (b - a)) * row.mean_reciprocal
        ok = row.interval_error <= bound and sup_f <= row.mean_reciprocal
        print(
            f"{row.k:>7} {row.pmf_sup:>12.5e} {row.pmf_sup_log_k:>12.5e} "
            f"{row.mean_reciprocal:>12.5e} {row.interval_error:>12.5e} "
            f"{bound:>12.5e} {sup_f:>12.5e} {'ok' if ok else 'VIOLATED'}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
