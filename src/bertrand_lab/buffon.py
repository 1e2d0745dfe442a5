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
from typing import Callable, NamedTuple

import numpy as np

from .montecarlo import Estimate, Experiment, run
from .quadrature import gauss_legendre


class NeedleModel(enum.Enum):
    CENTER_ANGLE = "center_angle"
    ENDPOINTS = "endpoints"


class DegenerateEstimateError(ArithmeticError):
    """Raised when no crossings were observed, so 2/p_hat is undefined."""


class _Needle(NamedTuple):
    """One needle model: its exact answer, sampler, crossing predicate and measure.

    The first coordinate ranges over ``first``.  ``crosses(a, b)`` is the
    crossing predicate, where touching (equality) counts.
    ``crossing_measure(a)`` is the density times the length of the crossing
    set of the second coordinate, for one value of the first.
    """

    first: tuple[float, float]
    exact: float
    sample: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]
    crosses: Callable[[np.ndarray, np.ndarray], np.ndarray]
    crossing_measure: Callable[[np.ndarray], np.ndarray]


def _center_angle_crosses(theta: np.ndarray, z: np.ndarray) -> np.ndarray:
    half_span = 0.5 * np.cos(theta)
    return (z <= half_span) | (z >= 1.0 - half_span)


def _endpoints_batch(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
    """x = rng.uniform(0, 1) and y = rng.uniform(x - 1, x + 1), bit for bit.

    numpy's uniform computes ``low + (high - low) * u``, and for x in [0, 1)
    the range ``(x + 1) - (x - 1)`` rounds to exactly 2, so y is
    ``(x - 1) + 2u``, built here without the temporaries of the bounds.
    """
    x = rng.random(size)
    y = rng.random(size)
    y *= 2.0
    y += x - 1.0
    return x, y


def _endpoints_crossing_measure(x: np.ndarray) -> np.ndarray:
    lower = np.maximum(0.0, 0.0 - (x - 1.0))  # y in [x-1, 0]
    upper = np.maximum(0.0, (x + 1.0) - 1.0)  # y in [1, x+1]
    return 0.5 * (lower + upper)


_NEEDLES = {
    NeedleModel.CENTER_ANGLE: _Needle(
        first=(-math.pi / 2.0, math.pi / 2.0),
        exact=2.0 / math.pi,
        sample=lambda rng, size: (
            rng.uniform(-math.pi / 2.0, math.pi / 2.0, size),
            rng.uniform(0.0, 1.0, size),
        ),
        crosses=_center_angle_crosses,
        # for a given tilt, the crossing z-values occupy two bands of total
        # length cos(theta)
        crossing_measure=lambda theta: np.cos(theta) / math.pi,
    ),
    NeedleModel.ENDPOINTS: _Needle(
        first=(0.0, 1.0),
        exact=0.5,
        sample=_endpoints_batch,
        crosses=lambda x, y: (y <= 0.0) | (y >= 1.0),
        crossing_measure=_endpoints_crossing_measure,
    ),
}


def exact_cross_probability(model: NeedleModel) -> float:
    """Closed-form crossing probability: 2/pi or 1/2."""
    return _NEEDLES[model].exact


def sample_needle_batch(
    model: NeedleModel, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized needle sampler: (theta, z) or (x, y) arrays.

    For CENTER_ANGLE, theta is the tilt from the line normal in
    [-pi/2, pi/2] and z the center's distance from the left line in [0, 1].
    For ENDPOINTS, x and y are the distances of the upper and lower needle
    ends from the left line, with x in [0, 1] and |x - y| <= 1.
    """
    return _NEEDLES[model].sample(rng, size)


def crosses_batch(model: NeedleModel, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Vectorized crossing predicate; touching (equality) counts."""
    return _NEEDLES[model].crosses(first, second)


def cross_probability_by_quadrature(model: NeedleModel) -> float:
    """Crossing probability by integrating the model's density over the event.

    Independent numerical route to the closed forms by Gauss-Legendre
    quadrature, accurate to about 1e-15.
    """
    needle = _NEEDLES[model]
    return gauss_legendre(needle.crossing_measure, *needle.first)


def needle_cross_experiment(model: NeedleModel) -> Experiment:
    """Bernoulli experiment: does a random needle cross a line?"""
    needle = _NEEDLES[model]
    return Experiment(
        name=f"needle_{model.value}_crosses",
        sample=needle.sample,
        event=lambda batch: needle.crosses(*batch),
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
