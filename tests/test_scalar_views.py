"""A size-1 batch is the textbook scalar draw.

Drawing one value with ``sample_chord_batch``, the needle experiments'
samplers (``_center_angle_batch``, ``_endpoints_y``) or
``sample_rational_batch`` at size 1 must equal the draw written out below
with scalar generator calls and ``math``, and leave the generator in the
same state, so consecutive size-1 batches reproduce the scalar stream
value for value.
"""

import math

import pytest

from bertrand_lab.bertrand import ChordModel, sample_chord_batch
from bertrand_lab.buffon import NeedleModel, _center_angle_batch, _endpoints_y
from bertrand_lab.montecarlo import stream_generator
from bertrand_lab.rationals import (
    CustomLaw,
    DegenerateLaw,
    GeometricLaw,
    PoissonLaw,
    Rational,
    sample_rational_batch,
)

SEEDS = [0, 3, 11, 2024]
DRAWS = 200
LAWS = [
    GeometricLaw(0.2),
    GeometricLaw(1e-6),
    PoissonLaw(4.0),
    PoissonLaw(1e4),
    DegenerateLaw(3),
    CustomLaw({2: 0.5, 3: 0.25, 7: 0.25}),
]


def twin_streams(seed):
    return stream_generator(seed, 0), stream_generator(seed, 0)


def scalar_chord(model, rng):
    """One chord's coordinates and length, drawn a value at a time."""
    if model is ChordModel.MIDPOINT_UNIFORM:
        while True:  # rejection from the bounding square
            x = 2.0 * rng.random() - 1.0
            y = 2.0 * rng.random() - 1.0
            s = x * x + y * y
            if s <= 1.0:
                return x, y, 2.0 * math.sqrt(1.0 - s)
    if model is ChordModel.TANGENT_ANGLE_UNIFORM:
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        beta = rng.uniform(0.0, math.pi)
        return alpha, beta, 2.0 * math.sin(beta)
    r = rng.uniform(0.0, 1.0)
    theta = rng.uniform(-math.pi, math.pi)
    return r, (math.pi if theta == -math.pi else theta), 2.0 * math.sqrt(1.0 - r * r)


def scalar_needle(model, rng):
    if model is NeedleModel.CENTER_ANGLE:
        return rng.uniform(-math.pi / 2.0, math.pi / 2.0), rng.uniform(0.0, 1.0)
    x = rng.uniform(0.0, 1.0)
    return x, rng.uniform(x - 1.0, x + 1.0)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("model", list(ChordModel))
def test_chord(model, seed):
    scalar, batch = twin_streams(seed)
    for _ in range(DRAWS):
        a, b, length = scalar_chord(model, scalar)
        first, second, lengths = sample_chord_batch(model, batch, 1)
        assert (first[0], second[0]) == (a, b)
        assert lengths[0] == pytest.approx(length, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("model", list(NeedleModel))
def test_needle(model, seed):
    scalar, batch = twin_streams(seed)
    for _ in range(DRAWS):
        a, b = scalar_needle(model, scalar)
        if model is NeedleModel.CENTER_ANGLE:
            theta, z = _center_angle_batch(batch, 1)
            assert (a, b) == (theta[0], z[0])
        else:  # the endpoints sampler keeps y alone
            assert b == _endpoints_y(batch, 1)[0]
    assert scalar.random() == batch.random()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("law", LAWS, ids=repr)
def test_rational(law, seed):
    scalar, batch = twin_streams(seed)
    for _ in range(DRAWS):
        m = int(law.sample(scalar, 1)[0])
        n = int(scalar.integers(0, m + 1))
        g = math.gcd(n, m)
        q = Rational(n // g, m // g)
        nums, dens = sample_rational_batch(law, batch, 1)
        assert (q.numerator, q.denominator) == (nums[0], dens[0])
