"""Acceptance suite: every headline number, reproduced exactly and statistically.

One test per criterion; each prints a PASS line when its assertions hold
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).
"""

import math

import numpy as np
import pytest

from bertrand_lab import bertrand, buffon, cli, rationals, squares
from bertrand_lab.montecarlo import run, stream_generator

SEED = 42
N = 10**6
PI_N = 10**7


def sigma(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def test_criterion_1_bertrand_exact_values():
    assert bertrand.exact_exceed_probability(bertrand.ChordModel.MIDPOINT_UNIFORM) == 0.25
    assert bertrand.exact_exceed_probability(bertrand.ChordModel.TANGENT_ANGLE_UNIFORM) == 1.0 / 3.0
    assert bertrand.exact_exceed_probability(bertrand.ChordModel.POLAR_UNIFORM) == 0.5
    report("1 bertrand exact values (1/4, 1/3, 1/2)")


def test_criterion_2_bertrand_monte_carlo():
    for model in bertrand.ChordModel:
        est = run(bertrand.chord_exceed_experiment(model), N, seed=SEED)
        p = bertrand.exact_exceed_probability(model)
        assert abs(est.p_hat - p) <= 3.0 * sigma(p, N), model
    report("2 bertrand monte carlo within 3 sigma at 1e6")


def test_criterion_3_paradox_resolution():
    value = bertrand.exceed_probability_under_measure(
        bertrand.ChordModel.MIDPOINT_UNIFORM, bertrand.ChordModel.POLAR_UNIFORM
    )
    assert abs(value - 0.25) <= 1e-9
    # the same fact, sampled: midpoint-uniform chords, read off in polar
    r = np.sqrt(bertrand._disc_radius_sq(stream_generator(SEED, 0), N))
    p_hat = np.count_nonzero(r < 0.5) / N
    assert abs(p_hat - 0.25) <= 3.0 * sigma(0.25, N)
    report("3 paradox resolution: midpoint measure in polar coordinates = 1/4")


def test_criterion_4_buffon():
    for model in buffon.NeedleModel:
        est = run(buffon.needle_cross_experiment(model), N, seed=SEED)
        p = buffon.exact_cross_probability(model)
        assert abs(est.p_hat - p) <= 3.0 * sigma(p, N), model
    pi_hat = buffon.estimate_pi(buffon.NeedleModel.CENTER_ANGLE, PI_N, seed=SEED)
    assert 3.13 <= pi_hat.value <= 3.15
    four_hat = buffon.estimate_pi(buffon.NeedleModel.ENDPOINTS, PI_N, seed=SEED)
    assert 3.99 <= four_hat.value <= 4.01
    report("4 buffon crossing rates and pi estimates (3.14 vs 4.00)")


def test_criterion_5_squares():
    assert squares.exceed_probability(squares.IntervalModel.UNIFORM_X, 50.0) == 0.5
    assert squares.exceed_probability(squares.IntervalModel.NAIVE_UNIFORM_SQUARE, 2500.0) == 0.75
    assert squares.exceed_probability(squares.IntervalModel.PUSHFORWARD_SQUARE, 2500.0) == 0.5
    half = squares.finite_counting_probability(100, 50, False)
    assert half == squares.finite_counting_probability(100, 2500, True)
    assert half == 0.5 and half.numerator == 1 and half.denominator == 2
    # squaring is a bijection on {1..n}: exhaustive over every n up to 1e4
    for n_max in range(1, 10_001):
        for t in (0, 1, n_max // 3, n_max // 2, n_max - 1, n_max):
            assert squares.finite_counting_probability(
                n_max, t, False
            ) == squares.finite_counting_probability(n_max, t * t, True)
    report("5 squares: (1/2, 3/4, 1/2) and exact counting invariance")


def test_criterion_6_rationals_analytics():
    # independent oracle: direct summation of the defining series to l = 60
    w = 0.5
    oracle = sum(w * (1.0 - w) ** (2 * ell - 1) / (2 * ell + 1) for ell in range(1, 61))
    value = rationals.atom_probability(rationals.Rational(1, 2), rationals.GeometricLaw(w))
    assert abs(value - oracle) <= 1e-9

    total = sum(
        rationals.atom_probability(rationals.Rational(n, m), rationals.DegenerateLaw(7))
        for m in range(1, 8)
        for n in range(m + 1)
        if math.gcd(n, m) == 1
    )
    assert abs(total - 1.0) <= 1e-10

    law = rationals.GeometricLaw(0.3)
    coprime = [(n, m) for m in range(1, 51) for n in range(m + 1) if math.gcd(n, m) == 1]
    for n, m in coprime:
        q, mirrored = rationals.Rational(n, m), rationals.Rational(m - n, m)
        assert abs(
            rationals.atom_probability(q, law) - rationals.atom_probability(mirrored, law)
        ) <= 1e-13

    rng = np.random.default_rng(2)
    for _ in range(100):
        a, b = np.sort(rng.uniform(0.0, 1.0, 2))
        if a == b:
            continue
        gap = rationals.interval_probability(float(a), float(b), law) - (
            rationals.cdf(float(b), law) - rationals.cdf(float(a), law)
        )
        assert abs(gap) <= 2.0 * rationals.DEFAULT_TOL
    report("6 rationals analytics vs brute-force series oracle")


@pytest.mark.parametrize(
    "family, ks",
    [
        (rationals.GeometricFamily(), [10, 100, 1000, 10_000]),
        (rationals.PoissonFamily(), [10, 100, 1000]),
    ],
    ids=["geometric", "poisson"],
)
def test_criterion_7_asymptotic_equiprobability(family, ks):
    xs = np.arange(1000) / 1000.0
    rows = rationals.convergence_table(family, ks, probe=(0.0, 0.5))
    flatness = [row.pmf_sup_log_k for row in rows]
    assert flatness == sorted(flatness, reverse=True)  # (a) decreasing toward 0
    mus = [row.mean_reciprocal for row in rows]
    assert mus == sorted(mus, reverse=True)  # (b) decreasing
    for row in rows:
        assert row.interval_error <= 1.5 * row.mean_reciprocal + 1e-9  # (c) sandwich
    for k, mu in zip(ks, mus):
        law = family.law(k)
        sup = float(np.max(np.abs(rationals.cdf_grid(xs, law) - xs)))
        assert sup <= mu + 1e-9  # (d) uniform closeness of the cdf
    report(f"7 asymptotic equiprobability ({family.kind} family)")


def test_criterion_8_sampler_agreement():
    rng = stream_generator(SEED, 0)
    nums, dens = rationals.sample_rational_batch(rationals.DegenerateLaw(2), rng, N)
    third = 1.0 / 3.0
    for nn, dd in [(0, 1), (1, 2), (1, 1)]:
        freq = np.count_nonzero((nums == nn) & (dens == dd)) / N
        assert abs(freq - third) <= 3.0 * sigma(third, N), (nn, dd)

    rng = stream_generator(SEED, 0)
    nums, dens = rationals.sample_rational_batch(rationals.GeometricLaw(0.5), rng, N)
    p_half = 0.0986123
    freq = np.count_nonzero((nums == 1) & (dens == 2)) / N
    assert abs(freq - p_half) <= 3.0 * sigma(p_half, N)
    report("8 sampler frequencies match atom probabilities")


def test_criterion_9_cli_determinism(capsys):
    subcommands = [
        ["bertrand", "--model", "all", "--samples", "20000", "--seed", "9", "--pushforward"],
        ["buffon", "--samples", "10000", "--seed", "9"],
        ["squares", "--finite", "100", "--threshold", "50"],
        ["rationals", "atom", "--q", "1/2", "--law", "geometric:0.5"],
        ["rationals", "cdf", "--x", "0.6", "--law", "degenerate:2"],
        ["rationals", "interval", "--a", "0", "--b", "0.5", "--law", "poisson:4"],
        ["rationals", "sample", "--law", "degenerate:2", "--samples", "5000", "--seed", "9"],
        ["rationals", "converge", "--family", "geometric", "--ks", "10,100"],
    ]
    for argv in subcommands:
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        second = capsys.readouterr().out
        assert first == second, argv
        assert first.endswith("\n")

    for base in (
        ["bertrand", "--model", "midpoint", "--samples", "65536", "--seed", "9"],
        ["buffon", "--samples", "65536", "--seed", "9"],
    ):
        outputs = []
        for shards in ("1", "2", "4"):
            assert cli.main(base + ["--shards", shards]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2], base
    report("9 CLI byte-identical across runs and shard counts {1,2,4}")
