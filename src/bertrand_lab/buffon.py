"""Two "throw a needle at random" conventions and the pi-estimation experiment.

A unit-length needle falls on a plane ruled with parallel lines one unit
apart.  The classical convention makes the pair (tilt angle, center
distance) uniform and yields crossing probability 2/pi; making the two
endpoint abscissas (x, y) jointly uniform on their band instead yields 1/2.
Inverting the crossing frequency therefore "measures" either pi or 4,
depending on which coordinates were declared uniform.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from .montecarlo import Estimate, Experiment, _scratch, run


class NeedleModel(enum.Enum):
    CENTER_ANGLE = "center_angle"
    ENDPOINTS = "endpoints"


class DegenerateEstimateError(ArithmeticError):
    """Raised when no crossings were observed, so 2/p_hat is undefined."""


class _Needle(NamedTuple):
    """One needle model: its exact answer and batch sampler.

    ``event_sample(rng, size)`` draws a batch from a PCG64 stream, building
    only what the event reads in the calling thread's scratch, and ``event``
    maps that batch to the crossings; touching (equality) counts.
    """

    exact: float
    event_sample: Callable[[np.random.Generator, int], Any]
    event: Callable[[Any], np.ndarray]


def _center_angle_crosses(theta: np.ndarray, z: np.ndarray) -> np.ndarray:
    half_span = 0.5 * np.cos(theta)
    return (z <= half_span) | (z >= 1.0 - half_span)


def _center_angle_batch(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
    """theta = rng.uniform(-pi/2, pi/2) and z = rng.uniform(0, 1), bit for bit.

    numpy's uniform computes ``low + (high - low) * u``; here ``high - low``
    is pi exactly and z is u.  Both arrays live in the calling thread's
    scratch.
    """
    draws = rng.random(out=_scratch("draws", 2 * size))
    theta, z = draws[:size], draws[size:]
    theta *= math.pi
    theta -= math.pi / 2.0
    return theta, z


# Half-width of the band of float32 margins that the center-angle event
# re-decides in float64.
_CENTER_ANGLE_BAND = 1e-5


def _center_angle_event(batch: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``_center_angle_crosses`` decided in float32, and in float64 near its edges.

    The needle crosses when the margin |z - 1/2| + cos(theta)/2 - 1/2 is at
    least 0.  Here it is computed in float32.  Rounding theta to float32
    moves it by at most 2**-24, and z by at most 2**-25.  numpy's float32
    cosine is taken to be within 2 ulps (2**-23 absolute) of the cosine of
    its argument, so cos(theta)/2 is off by at most 1.5 * 2**-24.  The
    three roundings after it (z - 1/2, + cos/2, - 1/2) add at most
    2**-26 + 2**-25 + 2**-25.  So the float32 margin lies within
    3.25 * 2**-24 < 2**-22 (about 2.4e-7) of the exact one, about 40 times
    inside ``_CENTER_ANGLE_BAND``.
    The float64 rule is exact to about 2**-52.  Trials whose float32 margin
    lies inside the band, 4e-5 of them (1.3 per batch of 32768), are
    re-decided by ``_center_angle_crosses``.  For all others the two
    margins have the same sign.
    """
    theta, z = batch
    half_cos = _scratch("event", len(z), np.float32)
    np.copyto(half_cos, theta, casting="same_kind")
    np.cos(half_cos, out=half_cos)
    half_cos *= 0.5
    margin = _scratch("event.margin", len(z), np.float32)
    np.copyto(margin, z, casting="same_kind")
    margin -= 0.5
    np.abs(margin, out=margin)
    margin += half_cos
    margin -= 0.5
    hits = margin >= 0.0
    np.abs(margin, out=margin)
    near = np.flatnonzero(margin <= _CENTER_ANGLE_BAND)
    if near.size:
        hits[near] = _center_angle_crosses(theta[near], z[near])
    return hits


def _endpoints_y(rng: np.random.Generator, size: int) -> np.ndarray:
    """y of x = rng.uniform(0, 1) and y = rng.uniform(x - 1, x + 1), bit for bit.

    numpy's uniform computes ``low + (high - low) * u``, and for x in [0, 1)
    the range ``(x + 1) - (x - 1)`` rounds to exactly 2, so y is
    ``(x - 1) + 2u``.  x is not kept; y lives in the calling thread's
    scratch.
    """
    draws = rng.random(out=_scratch("draws", 2 * size))
    x, y = draws[:size], draws[size:]
    x -= 1.0
    y *= 2.0
    y += x
    return y


def _endpoints_cross(y: np.ndarray) -> np.ndarray:
    return (y <= 0.0) | (y >= 1.0)


_NEEDLES = {
    NeedleModel.CENTER_ANGLE: _Needle(
        exact=2.0 / math.pi,
        event_sample=_center_angle_batch,
        event=_center_angle_event,
    ),
    NeedleModel.ENDPOINTS: _Needle(
        exact=0.5,
        event_sample=_endpoints_y,
        event=_endpoints_cross,
    ),
}


def exact_cross_probability(model: NeedleModel) -> float:
    """Closed-form crossing probability: 2/pi or 1/2."""
    return _NEEDLES[model].exact


def needle_cross_experiment(model: NeedleModel) -> Experiment:
    """Bernoulli experiment: does a random needle cross a line?

    Each batch draws theta = rng.uniform(-pi/2, pi/2, size) then
    z = rng.uniform(0, 1, size), or x = rng.uniform(0, 1, size) then
    y = rng.uniform(x - 1, x + 1), bit for bit, but keeps only what the
    event reads.
    """
    needle = _NEEDLES[model]
    return Experiment(
        name=f"needle_{model.value}_crosses",
        sample=needle.event_sample,
        event=needle.event,
    )


@dataclass(frozen=True)
class PiEstimate:
    """The value 2/p_hat with its confidence interval and the underlying run."""

    value: float
    ci_low: float
    ci_high: float
    crossings: Estimate


def _pi_from_crossings(est: Estimate) -> PiEstimate:
    if est.successes == 0:
        raise DegenerateEstimateError(
            "no crossings observed; 2/p_hat is undefined at p_hat = 0"
        )
    # 2/p is monotone decreasing, so the transformed Wilson interval is
    # again a confidence interval with the endpoints swapped
    return PiEstimate(
        value=2.0 / est.p_hat,
        ci_low=2.0 / est.ci_high,
        ci_high=2.0 / est.ci_low,
        crossings=est,
    )


def estimate_pi(model: NeedleModel, n: int, seed: int, shards: int = 1) -> PiEstimate:
    """Estimate pi (or, under ENDPOINTS, the value 4) as 2/p_hat from n throws.

    Raises ValueError for n < 1000 and DegenerateEstimateError when no
    crossing occurs.
    """
    if n < 1000:
        raise ValueError(f"need at least 1000 throws for a pi estimate, got {n}")
    est = run(needle_cross_experiment(model), n, seed, shards)
    return _pi_from_crossings(est)
