"""Every Monte Carlo experiment counts exactly what its stream draws.

An experiment may skip or not materialise the draws its event does not read,
but each batch's success count must equal the count rebuilt from that
batch's stream, drawn by the public ``sample_chord_batch`` or, for needles,
by numpy's documented uniform calls, and the length or crossing rule, for
any threshold, size and seed.
"""

import math

import numpy as np
import pytest

from bertrand_lab.bertrand import (
    TRIANGLE_EDGE,
    ChordModel,
    chord_exceed_experiment,
    sample_chord_batch,
)
from bertrand_lab.buffon import NeedleModel, _endpoints_y, needle_cross_experiment
from bertrand_lab.montecarlo import BATCH_SIZE, run, stream_generator

THRESHOLDS = [
    0.0,
    5e-324,
    0.5,
    math.nextafter(TRIANGLE_EDGE, 0.0),
    TRIANGLE_EDGE,
    math.nextafter(TRIANGLE_EDGE, 2.0),
    2.0 - 1e-12,
    2.0,
]
SIZES = [1, 17, BATCH_SIZE, BATCH_SIZE + 1]
SEEDS = [0, 42, 2**64 - 1]


def batches(n):
    """(index, size) of each logical batch of an n-trial run."""
    return [(b, min(BATCH_SIZE, n - lo)) for b, lo in enumerate(range(0, n, BATCH_SIZE))]


def numpy_needles(model, rng, size):
    """A batch of needles as numpy draws them: theta, then z; or x, then y in [x - 1, x + 1]."""
    if model is NeedleModel.CENTER_ANGLE:
        theta = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size)
        return theta, rng.uniform(0.0, 1.0, size)
    x = rng.uniform(0.0, 1.0, size)
    return x, rng.uniform(x - 1.0, x + 1.0)


def needle_crossings(model, first, second):
    """The crossing rule written out on (theta, z) or (x, y); touching counts."""
    if model is NeedleModel.CENTER_ANGLE:
        half_span = 0.5 * np.cos(first)
        return (second <= half_span) | (second >= 1.0 - half_span)
    return (second <= 0.0) | (second >= 1.0)


def replica_count(experiment, n, seed):
    """The engine's serial batch loop as the benchmark tracer rebuilds it."""
    return sum(
        int(np.count_nonzero(experiment.event(experiment.sample(stream_generator(seed, b), size))))
        for b, size in batches(n)
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("model", list(ChordModel))
def test_chord_counts_match_public_sampler(model, seed):
    for n in SIZES:
        lengths = [
            sample_chord_batch(model, stream_generator(seed, b), size)[2] for b, size in batches(n)
        ]
        for t in THRESHOLDS:
            expected = sum(int(np.count_nonzero(length > t)) for length in lengths)
            experiment = chord_exceed_experiment(model, t)
            assert run(experiment, n, seed).successes == expected, (n, t)
            assert replica_count(experiment, n, seed) == expected, (n, t)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("model", list(NeedleModel))
def test_needle_counts_match_numpy_needles(model, seed):
    experiment = needle_cross_experiment(model)
    for n in SIZES:
        expected = sum(
            int(np.count_nonzero(needle_crossings(model, *numpy_needles(model, stream_generator(seed, b), size))))
            for b, size in batches(n)
        )
        assert run(experiment, n, seed).successes == expected, n
        assert replica_count(experiment, n, seed) == expected, n


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("size", SIZES)
def test_endpoints_batch_is_numpy_uniform(size, seed):
    """The endpoints experiment's y is numpy's, and its stream ends where numpy's does."""
    rng, reference = stream_generator(seed, 0), stream_generator(seed, 0)
    y = _endpoints_y(rng, size)
    _, y_ref = numpy_needles(NeedleModel.ENDPOINTS, reference, size)
    assert np.array_equal(y, y_ref)
    assert rng.random() == reference.random()


def ulp_walk(center, steps):
    """The floats within ``steps`` ulps of ``center`` that lie in [0, pi]."""
    bits = np.array([center]).view(np.int64) + np.arange(-steps, steps + 1)
    values = bits[bits >= 0].view(np.float64)
    return values[values <= math.pi]


@pytest.mark.parametrize(
    "t", [0.0, 0.5, TRIANGLE_EDGE, 2.0 - 1e-8, 2.0 - 1e-12, math.nextafter(2.0, 0.0), 2.0]
)
def test_tangent_event_at_its_guard_band(t):
    """Betas where the comparison and the sine could disagree, in batches of all and of one."""
    event = chord_exceed_experiment(ChordModel.TANGENT_ANGLE_UNIFORM, t).event
    edge = math.asin(t / 2.0)
    centers = [edge + d for d in (-1e-9, 0.0, 1e-9)] + [math.pi - edge + d for d in (-1e-9, 0.0, 1e-9)]
    beta = np.concatenate([ulp_walk(c, 5000) for c in centers])
    reference = 2.0 * np.sin(beta) > t
    assert np.array_equal(event(beta), reference)
    single = np.array([event(beta[i : i + 1])[0] for i in range(len(beta))])
    assert np.array_equal(single, reference)


@pytest.mark.parametrize("t", THRESHOLDS)
@pytest.mark.parametrize(
    "model, length",
    [
        (ChordModel.MIDPOINT_UNIFORM, lambda s: 2.0 * np.sqrt(np.maximum(0.0, 1.0 - s))),
        (ChordModel.POLAR_UNIFORM, lambda r: 2.0 * np.sqrt(np.maximum(0.0, 1.0 - r * r))),
    ],
    ids=["midpoint_s", "polar_r"],
)
def test_radial_event_at_its_cut(model, length, t):
    """The midpoint event reads x*x + y*y and the polar event reads r; both
    must agree with the length rule on every float near the cut."""
    s_edge = max(0.0, 1.0 - t * t / 4.0)
    center = s_edge if model is ChordModel.MIDPOINT_UNIFORM else math.sqrt(s_edge)
    u = ulp_walk(center, 2000)
    u = np.concatenate([u[u <= 1.0], [0.0, 1.0]])
    assert np.array_equal(chord_exceed_experiment(model, t).event(u), length(u) > t)
