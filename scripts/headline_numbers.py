#!/usr/bin/env python3
"""Reproduce every headline number in one run: exact and sampled.

Covers the three chord models (1/4, 1/3, 1/2) with the pushforward
resolution, both needle models (2/pi, 1/2) with their pi estimates, the
squares triple (1/2, 3/4, 1/2) with the finite counting pair, and a probe of
the rational-number construction.
"""

import argparse
import math

from bertrand_lab import bertrand, buffon, rationals, squares
from bertrand_lab.montecarlo import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=10**6)
    ap.add_argument("--pi-samples", type=int, default=10**7)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()
    n, seed = args.samples, args.seed

    print("=== Random chords: P(length > sqrt(3)) ===")
    for model in bertrand.ChordModel:
        est = run(bertrand.chord_exceed_experiment(model), n, seed)
        exact = bertrand.exact_exceed_probability(model)
        print(
            f"{model.value:24s} exact={exact:.6f} sampled={est.p_hat:.6f} "
            f"ci=[{est.ci_low:.6f}, {est.ci_high:.6f}]"
        )
    push = bertrand.exceed_probability_under_measure(
        bertrand.ChordModel.MIDPOINT_UNIFORM, bertrand.ChordModel.POLAR_UNIFORM
    )
    print(f"midpoint measure evaluated in polar coordinates: {push:.9f} (the paradox resolved)")

    print("\n=== Needle throws: P(cross) and the implied 2/p estimate ===")
    for model in buffon.NeedleModel:
        pi_est = buffon.estimate_pi(model, args.pi_samples, seed)
        exact = buffon.exact_cross_probability(model)
        est = pi_est.crossings
        print(
            f"{model.value:24s} exact={exact:.6f} sampled={est.p_hat:.6f} "
            f"2/p_hat={pi_est.value:.5f} ci=[{pi_est.ci_low:.5f}, {pi_est.ci_high:.5f}]"
        )
    print(f"(for reference: pi = {math.pi:.5f}, and the endpoint model targets 4.00000)")

    print("\n=== A number vs its square on [0, 100], threshold 50 ===")
    for model in squares.IntervalModel:
        t = 50.0 if model is squares.IntervalModel.UNIFORM_X else 2500.0
        print(f"{model.value:24s} P(> {t:g}) = {squares.exceed_probability(model, t)}")
    plain = squares.finite_counting_probability(100, 50, False)
    squared = squares.finite_counting_probability(100, 2500, True)
    print(f"counting 1..100:          plain={plain}  squared={squared}  (always equal)")

    print("\n=== Random rationals: geometric law with rate 1/1000 ===")
    law = rationals.GeometricFamily().law(1000)
    mu = rationals.mean_reciprocal(law)
    p = rationals.interval_probability(0.0, 0.5, law)
    print(f"E[1/M] = {mu:.6f}")
    print(f"P(0 < Q <= 1/2) = {p:.6f}  (flat laws approach interval length 0.5)")
    print(f"P(Q = 1/2) = {rationals.atom_probability(rationals.Rational(1, 2), law):.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
