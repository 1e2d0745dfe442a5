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

import numpy as np

from .montecarlo import Estimate, Experiment, run
from .quadrature import gauss_legendre


class NeedleModel(enum.Enum):
    CENTER_ANGLE = "center_angle"
    ENDPOINTS = "endpoints"


class DegenerateEstimateError(ArithmeticError):
    """Raised when no crossings were observed, so 2/p_hat is undefined."""


@dataclass(frozen=True)
class NeedleSample:
    """One needle throw.

    For CENTER_ANGLE the coordinates are (theta, z): tilt from the line
    normal in [-pi/2, pi/2] and center distance from the left line in
    [0, 1].  For ENDPOINTS they are (x, y): distances of the upper and lower
    needle ends from the left line, with x in [0, 1] and |x - y| <= 1.
    """

    model: NeedleModel
    coords: tuple[float, float]

    def __post_init__(self) -> None:
        a, b = self.coords
        if self.model is NeedleModel.CENTER_ANGLE:
            if not (-math.pi / 2.0 <= a <= math.pi / 2.0 and 0.0 <= b <= 1.0):
                raise ValueError(f"(theta, z) = ({a}, {b}) outside the support")
        else:
            if not (0.0 <= a <= 1.0 and abs(a - b) <= 1.0):
                raise ValueError(f"(x, y) = ({a}, {b}) outside the support")


def exact_cross_probability(model: NeedleModel) -> float:
    """Closed-form crossing probability: 2/pi or 1/2."""
    if model is NeedleModel.CENTER_ANGLE:
        return 2.0 / math.pi
    return 0.5


def crosses(sample: NeedleSample) -> bool:
    """Whether the needle lies across a line; touching (equality) counts."""
    a, b = sample.coords
    if sample.model is NeedleModel.CENTER_ANGLE:
        half_span = 0.5 * math.cos(a)
        return b <= half_span or b >= 1.0 - half_span
    return b <= 0.0 or b >= 1.0


def sample_needle(model: NeedleModel, rng: np.random.Generator) -> NeedleSample:
    """Draw one needle throw from the model's uniform measure."""
    if model is NeedleModel.CENTER_ANGLE:
        theta = rng.uniform(-math.pi / 2.0, math.pi / 2.0)
        z = rng.uniform(0.0, 1.0)
        return NeedleSample(model, (theta, z))
    x = rng.uniform(0.0, 1.0)
    y = rng.uniform(x - 1.0, x + 1.0)
    return NeedleSample(model, (x, y))


def sample_needle_batch(
    model: NeedleModel, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized needle sampler: (theta, z) or (x, y) arrays."""
    if model is NeedleModel.CENTER_ANGLE:
        theta = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size)
        z = rng.uniform(0.0, 1.0, size)
        return theta, z
    x = rng.uniform(0.0, 1.0, size)
    y = rng.uniform(x - 1.0, x + 1.0)
    return x, y


def crosses_batch(model: NeedleModel, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Vectorized crossing predicate matching ``crosses``."""
    if model is NeedleModel.CENTER_ANGLE:
        half_span = 0.5 * np.cos(first)
        return (second <= half_span) | (second >= 1.0 - half_span)
    return (second <= 0.0) | (second >= 1.0)


def cross_probability_by_quadrature(model: NeedleModel) -> float:
    """Crossing probability by integrating the model's density over the event.

    Independent numerical route to the closed forms by Gauss-Legendre
    quadrature, accurate to about 1e-15.
    """
    if model is NeedleModel.CENTER_ANGLE:
        # for a given tilt, the crossing z-values occupy two bands of total
        # length cos(theta)
        return gauss_legendre(lambda t: np.cos(t) / math.pi, -math.pi / 2.0, math.pi / 2.0)

    def crossing_measure(x: np.ndarray) -> np.ndarray:
        lower = np.maximum(0.0, 0.0 - (x - 1.0))  # y in [x-1, 0]
        upper = np.maximum(0.0, (x + 1.0) - 1.0)  # y in [1, x+1]
        return 0.5 * (lower + upper)

    return gauss_legendre(crossing_measure, 0.0, 1.0)


def needle_cross_experiment(model: NeedleModel) -> Experiment:
    """Bernoulli experiment: does a random needle cross a line?"""

    def draw(rng: np.random.Generator, size: int):
        return sample_needle_batch(model, rng, size)

    def hit(batch) -> np.ndarray:
        return crosses_batch(model, batch[0], batch[1])

    return Experiment(name=f"needle_{model.value}_crosses", sample=draw, event=hit)


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
