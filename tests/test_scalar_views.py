"""The scalar samplers are size-1 draws of the batch samplers.

Drawing one value with ``sample_chord``/``sample_needle``/``sample_rational``
must equal element 0 of the batch sampler at size 1 and leave the generator
in the same state, so a run of consecutive scalar draws reproduces the
size-1 batch stream value for value.
"""

from dataclasses import astuple

import pytest

from bertrand_lab.bertrand import ChordModel, sample_chord, sample_chord_batch
from bertrand_lab.buffon import NeedleModel, sample_needle, sample_needle_batch
from bertrand_lab.montecarlo import stream_generator
from bertrand_lab.rationals import (
    CustomLaw,
    DegenerateLaw,
    GeometricLaw,
    PoissonLaw,
    sample_rational,
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


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("model", list(ChordModel))
def test_chord(model, seed):
    scalar, batch = twin_streams(seed)
    for _ in range(DRAWS):
        s = sample_chord(model, scalar)
        first, second, length = sample_chord_batch(model, batch, 1)
        assert (astuple(s.coords), s.length) == ((first[0], second[0]), length[0])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("model", list(NeedleModel))
def test_needle(model, seed):
    scalar, batch = twin_streams(seed)
    for _ in range(DRAWS):
        first, second = sample_needle_batch(model, batch, 1)
        assert sample_needle(model, scalar).coords == (first[0], second[0])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("law", LAWS, ids=repr)
def test_rational(law, seed):
    scalar, batch = twin_streams(seed)
    for _ in range(DRAWS):
        q = sample_rational(law, scalar)
        nums, dens = sample_rational_batch(law, batch, 1)
        assert (q.numerator, q.denominator) == (nums[0], dens[0])
