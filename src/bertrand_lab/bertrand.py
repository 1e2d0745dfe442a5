"""Three "take a chord at random" conventions and the measure change between them.

Each model makes a different pair of chord coordinates uniform:

* ``MIDPOINT_UNIFORM``    - midpoint (x, y) uniform on the unit disc
* ``TANGENT_ANGLE_UNIFORM`` - endpoint position and tangent angle uniform on
  [0, 2pi] x [0, pi]
* ``POLAR_UNIFORM``       - chord-diameter intersection (r, theta) uniform on
  [0, 1] x (-pi, pi]

The three choices are mutually incompatible measures, which is why the
probability that a chord beats the inscribed-triangle edge comes out as
1/4, 1/3 or 1/2 depending on the model.  ``exceed_probability_under_measure``
evaluates the event under the midpoint measure in polar coordinates and
gets the midpoint model's 1/4, not the polar model's 1/2: the measure
decides, not the coordinates, which is where the apparent paradox dissolves.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, NamedTuple

import numpy as np

from .montecarlo import BATCH_SIZE, Experiment, _scratch

# Edge length of the equilateral triangle inscribed in the unit circle: the
# classical threshold the random chord is compared against.
TRIANGLE_EDGE = math.sqrt(3.0)


class ChordModel(enum.Enum):
    MIDPOINT_UNIFORM = "midpoint_uniform"
    TANGENT_ANGLE_UNIFORM = "tangent_angle_uniform"
    POLAR_UNIFORM = "polar_uniform"


class _Chord(NamedTuple):
    """One chord model: its exact answer and Monte Carlo experiment.

    ``event_sample(rng, size)`` draws a batch's chords as
    ``chord_exceed_experiment`` states them, but builds only the one array
    the event reads, and ``event(t)`` maps that array to ``length > t``, bit
    for bit as the chords' coordinates give it.
    """

    exact: float
    event_sample: Callable[[np.random.Generator, int], np.ndarray]
    event: Callable[[float], Callable[[np.ndarray], np.ndarray]]


def _event_radius(threshold: float) -> float:
    """Radius below which a chord's midpoint/intersection beats ``threshold``."""
    return math.sqrt(max(0.0, 1.0 - threshold * threshold / 4.0))


def _length_from_radius_sq(s: np.ndarray) -> np.ndarray:
    return 2.0 * np.sqrt(np.maximum(0.0, 1.0 - s))


# Most proposals the midpoint walk draws at once.  At two doubles each they
# fill one batch-sized array, and smaller blocks measured no faster.
_DISC_BLOCK = BATCH_SIZE // 2


def _disc_radius_sq(rng: np.random.Generator, size: int) -> np.ndarray:
    """``x*x + y*y`` of ``size`` points uniform on the unit disc, in the thread's scratch.

    Rejection from the bounding square [-1, 1]^2, about 4/pi proposals per
    point: the points are the first ``size`` proposals (x, y) = (2u - 1,
    2v - 1), from the stream's draws taken in (u, v) pairs, that lie in the
    closed unit disc.  x = 2u - 1 is 2 * (u - 1/2) exactly, so x*x + y*y is
    4 * ((u - 1/2)**2 + (v - 1/2)**2) exactly, and the point is kept when
    that quarter is at most 1/4.  The proposals are drawn in blocks of about
    4/pi per missing point plus a margin, at most ``_DISC_BLOCK``, and a
    further block is drawn in the rare case that one falls short; the
    stream is left after the last block.  A radius transform is
    deliberately avoided because it would presuppose the non-uniform r/pi
    law.  The blocks live in the thread's ``disc.*`` scratch.
    """
    out, filled = _scratch("batch", size), 0
    while filled < size:
        missing = size - filled
        block = min(int(missing * 4.0 / math.pi + 3.0 * math.sqrt(missing) + 16.0), _DISC_BLOCK)
        half = rng.random(out=_scratch("disc.half", 2 * block))
        half -= 0.5
        np.square(half, out=half)  # (u - 1/2)**2 and (v - 1/2)**2, interleaved
        quarter = np.add(half[0::2], half[1::2], out=_scratch("disc.quarter_radius_sq", block))
        accepted = np.less_equal(quarter, 0.25, out=_scratch("disc.accepted", block, np.bool_))
        kept = np.flatnonzero(accepted)[:missing]
        np.take(quarter, kept, out=out[filled : filled + len(kept)], mode="clip")
        filled += len(kept)
    out *= 4.0
    return out


def _tangent_beta(rng: np.random.Generator, size: int) -> np.ndarray:
    """A batch's tangent angles beta, drawn after its alphas, which are skipped.

    PCG64 takes one 64-bit step per double, so advancing ``size`` steps
    leaves the stream where drawing the alphas would.
    """
    rng.bit_generator.advance(size)
    beta = rng.random(out=_scratch("draws", size))
    beta *= math.pi  # rng.uniform(0.0, math.pi) bit for bit
    return beta


def _cut_event(
    length: Callable[[np.ndarray], np.ndarray], threshold: float
) -> Callable[[np.ndarray], np.ndarray]:
    """``length(u) > threshold`` as one comparison ``u < cut`` on [0, 1].

    ``length`` must be non-increasing in float arithmetic, which holds when
    it is built from correctly rounded monotone steps (products of
    non-negatives, ``1 - s``, ``max``, ``sqrt``), and ``length(1)`` must not
    exceed the threshold.  ``cut`` is the least float u in [0, 1] with
    ``length(u) <= threshold``, found by bisection on the bit patterns,
    which order non-negative floats.
    """

    def longer(bits: int) -> bool:
        return bool(length(np.array([bits]).view(np.float64))[0] > threshold)

    below, cut = -1, int(np.array([1.0]).view(np.int64)[0])
    while cut - below > 1:
        mid = (below + cut) // 2
        if longer(mid):
            below = mid
        else:
            cut = mid
    cut_value = float(np.array([cut]).view(np.float64)[0])
    return lambda u: u < cut_value


# Half-width of the band around the tangent event's edges asin(t/2) and
# pi - asin(t/2) where the sine decides, and the absolute error allowed on
# 2*sin(beta) outside it: hundreds of ulps above what libm or numpy's sin make.
_TANGENT_BAND = 1e-9
_TANGENT_SLACK = 1e-13


def _tangent_event(threshold: float) -> Callable[[np.ndarray], np.ndarray]:
    """``2.0*np.sin(beta) > threshold`` without the sine where the answer is certain.

    The chord beats the threshold when |beta - pi/2| < pi/2 - asin(t/2).  A
    batch with no beta within ``_TANGENT_BAND`` of that edge is decided by
    the comparison: there 2*sin(beta) is at least 2*band*cos(asin(t/2) + band)
    away from t, and that gap must exceed ``_TANGENT_SLACK``.  A batch with a
    beta in the band, and every batch when t is so close to 2 that the gap
    is smaller, falls back to the sine.
    """
    beta_low = math.asin(threshold / 2.0)
    edge = math.pi / 2.0 - beta_low
    certified = 2.0 * _TANGENT_BAND * math.cos(beta_low + _TANGENT_BAND) > _TANGENT_SLACK

    def exceeds(beta: np.ndarray) -> np.ndarray:
        if certified:
            offset = np.subtract(beta, math.pi / 2.0, out=_scratch("event", len(beta)))
            np.abs(offset, out=offset)
            inside = offset < edge - _TANGENT_BAND
            if np.count_nonzero(inside) == np.count_nonzero(offset < edge + _TANGENT_BAND):
                return inside
        return 2.0 * np.sin(beta) > threshold

    return exceeds


_CHORDS = {
    ChordModel.MIDPOINT_UNIFORM: _Chord(
        exact=0.25,
        event_sample=_disc_radius_sq,
        event=lambda t: _cut_event(_length_from_radius_sq, t),
    ),
    ChordModel.TANGENT_ANGLE_UNIFORM: _Chord(
        exact=1.0 / 3.0,
        event_sample=_tangent_beta,
        event=_tangent_event,
    ),
    ChordModel.POLAR_UNIFORM: _Chord(
        exact=0.5,
        # r = rng.uniform(0.0, 1.0) bit for bit; theta, drawn after it, is never read
        event_sample=lambda rng, size: rng.random(out=_scratch("draws", size)),
        event=lambda t: _cut_event(lambda r: _length_from_radius_sq(r * r), t),
    ),
}


def exact_exceed_probability(model: ChordModel) -> float:
    """Closed-form P(chord length > sqrt(3)) under the model's own measure."""
    return _CHORDS[model].exact


def exceed_probability_under_measure(
    measure: ChordModel,
    evaluation_system: ChordModel,
    threshold: float = TRIANGLE_EDGE,
) -> float:
    """P(length > threshold) under ``measure``, integrated in ``evaluation_system``.

    The event is coordinate-free, so the answer depends only on the measure;
    evaluating it in a foreign coordinate system requires the pushforward
    density rather than the foreign model's own uniform one.  The one
    supported pair is midpoint-uniform evaluated in polar coordinates: the
    density r/pi (the disc's 1/pi times r, the inverse of the polar Jacobian
    1/r), integrated over theta in (-pi, pi] and r in [0, R], is R**2.
    Every other pair, a model in its own coordinates included, raises
    ``NotImplementedError``; a threshold outside [0, 2] raises
    ``ValueError`` first.
    """
    if not 0.0 <= threshold <= 2.0:
        raise ValueError(f"threshold must lie in [0, 2], got {threshold}")

    if (
        measure is ChordModel.MIDPOINT_UNIFORM
        and evaluation_system is ChordModel.POLAR_UNIFORM
    ):
        # the integral of the density r/pi times 2pi, that is 2r, over [0, R]
        radius = _event_radius(threshold)
        return radius * radius

    raise NotImplementedError(
        f"no pushforward available for measure={measure.value} "
        f"in coordinates of {evaluation_system.value}"
    )


def chord_exceed_experiment(model: ChordModel, threshold: float = TRIANGLE_EDGE) -> Experiment:
    """Bernoulli experiment: does a random chord beat ``threshold``?

    A batch of n chords is, bit for bit: the first n proposals (2u - 1,
    2v - 1) of ``rng.random()`` pairs inside the closed unit disc (midpoint);
    ``rng.uniform(0, 2pi, n)`` then ``rng.uniform(0, pi, n)`` (tangent); or
    ``rng.uniform(0, 1, n)`` then ``rng.uniform(-pi, pi, n)`` (polar).  Each
    batch counts those chords, but draws and keeps only what the event reads.
    """
    if not 0.0 <= threshold <= 2.0:
        raise ValueError(f"threshold must lie in [0, 2], got {threshold}")
    chord = _CHORDS[model]
    return Experiment(
        name=f"chord_{model.value}_exceeds_{threshold:.9g}",
        sample=chord.event_sample,
        event=chord.event(threshold),
    )
