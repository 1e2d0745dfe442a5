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
evaluates the event under one measure while parameterizing it in another
coordinate system, which is where the apparent paradox dissolves.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    PointXY,
    PolarRT,
    TangentAngles,
    chord_length_from_midpoint,
    chord_length_from_polar,
    chord_length_from_tangent_angle,
)
from .montecarlo import Experiment
from .quadrature import gauss_legendre

# Edge length of the equilateral triangle inscribed in the unit circle: the
# classical threshold the random chord is compared against.
TRIANGLE_EDGE = math.sqrt(3.0)


class ChordModel(enum.Enum):
    MIDPOINT_UNIFORM = "midpoint_uniform"
    TANGENT_ANGLE_UNIFORM = "tangent_angle_uniform"
    POLAR_UNIFORM = "polar_uniform"


_COORD_TYPES = {
    ChordModel.MIDPOINT_UNIFORM: PointXY,
    ChordModel.TANGENT_ANGLE_UNIFORM: TangentAngles,
    ChordModel.POLAR_UNIFORM: PolarRT,
}


@dataclass(frozen=True)
class ChordSample:
    """One random chord, carrying its native coordinates and its length."""

    model: ChordModel
    coords: PointXY | TangentAngles | PolarRT
    length: float

    def __post_init__(self) -> None:
        expected = _COORD_TYPES[self.model]
        if not isinstance(self.coords, expected):
            raise TypeError(f"{self.model.value} carries {expected.__name__} coordinates")
        if not 0.0 <= self.length <= 2.0:
            raise ValueError(f"chord length must lie in [0, 2], got {self.length}")
        if isinstance(self.coords, PointXY):
            if self.coords.x**2 + self.coords.y**2 > 1.0 + 1e-12:
                raise ValueError("midpoint must lie in the closed unit disc")
        elif isinstance(self.coords, PolarRT) and self.coords.r > 1.0 + 1e-12:
            raise ValueError("intersection radius must be <= 1")


def exact_exceed_probability(model: ChordModel) -> float:
    """Closed-form P(chord length > sqrt(3)) under the model's own measure."""
    if model is ChordModel.MIDPOINT_UNIFORM:
        return 0.25
    if model is ChordModel.TANGENT_ANGLE_UNIFORM:
        return 1.0 / 3.0
    return 0.5


def density(model: ChordModel, point: PointXY | TangentAngles | PolarRT) -> float:
    """Joint density of the model's native coordinate pair at ``point``.

    Zero outside the support; the point type must match the model's
    coordinate system.
    """
    if model is ChordModel.MIDPOINT_UNIFORM:
        if not isinstance(point, PointXY):
            raise TypeError("midpoint model expects a PointXY")
        inside = point.x * point.x + point.y * point.y <= 1.0
        return 1.0 / math.pi if inside else 0.0
    if model is ChordModel.TANGENT_ANGLE_UNIFORM:
        if not isinstance(point, TangentAngles):
            raise TypeError("tangent-angle model expects TangentAngles")
        # the type already constrains (alpha, beta) to the support rectangle
        return 1.0 / (2.0 * math.pi**2)
    if not isinstance(point, PolarRT):
        raise TypeError("polar model expects a PolarRT")
    return 1.0 / (2.0 * math.pi) if point.r <= 1.0 else 0.0


def pushforward_polar_density(point: PolarRT, base: ChordModel = ChordModel.MIDPOINT_UNIFORM) -> float:
    """Density of (r, theta) when the chord midpoint is uniform on the disc.

    The polar map has Jacobian 1/r, so the disc-uniform density 1/pi becomes
    r/pi on [0, 1] x [-pi, pi]: radii near the rim are more likely, and
    (r, theta) is not uniform.  Only the midpoint-uniform base is available
    in closed form.
    """
    if base is not ChordModel.MIDPOINT_UNIFORM:
        raise NotImplementedError(
            "closed-form pushforward is only available for the midpoint-uniform base"
        )
    return point.r / math.pi if point.r <= 1.0 else 0.0


def _event_radius(threshold: float) -> float:
    """Radius below which a chord's midpoint/intersection beats ``threshold``."""
    return math.sqrt(max(0.0, 1.0 - threshold * threshold / 4.0))


def exceed_probability_under_measure(
    measure: ChordModel,
    evaluation_system: ChordModel,
    threshold: float = TRIANGLE_EDGE,
) -> float:
    """P(length > threshold) under ``measure``, integrated in ``evaluation_system``.

    The event is coordinate-free, so the answer depends only on the measure;
    evaluating it in a foreign coordinate system requires the pushforward
    density rather than the foreign model's own uniform one.  Supported
    pairs: the three native (measure == evaluation_system) cases and
    midpoint-uniform evaluated in polar coordinates, whose radial integral
    is a Gauss-Legendre rule exact to rounding on this linear integrand.
    """
    if not 0.0 <= threshold <= 2.0:
        raise ValueError(f"threshold must lie in [0, 2], got {threshold}")

    if measure is evaluation_system:
        # the native densities are uniform, so the event mass is the density
        # times the event's area: a disc of radius rho, a band of tangent
        # angles, or a strip of radii
        if measure is ChordModel.MIDPOINT_UNIFORM:
            return max(0.0, 1.0 - threshold * threshold / 4.0)
        if measure is ChordModel.TANGENT_ANGLE_UNIFORM:
            beta_lo = math.asin(min(1.0, threshold / 2.0))
            return max(0.0, math.pi - 2.0 * beta_lo) / math.pi
        return _event_radius(threshold)

    if (
        measure is ChordModel.MIDPOINT_UNIFORM
        and evaluation_system is ChordModel.POLAR_UNIFORM
    ):
        # the pushforward density r/pi, integrated over theta in closed form
        # and over r numerically
        return gauss_legendre(
            lambda r: (r / math.pi) * 2.0 * math.pi, 0.0, _event_radius(threshold)
        )

    raise NotImplementedError(
        f"no pushforward available for measure={measure.value} "
        f"in coordinates of {evaluation_system.value}"
    )


def density_total_mass(model: ChordModel) -> float:
    """Integral of the model's density over its support (should be 1).

    This is the event mass at threshold 0, which every chord meets.
    """
    return exceed_probability_under_measure(model, model, 0.0)


def pushforward_total_mass() -> float:
    """Integral of the midpoint-to-polar pushforward density (should be 1)."""
    return exceed_probability_under_measure(
        ChordModel.MIDPOINT_UNIFORM, ChordModel.POLAR_UNIFORM, 0.0
    )


def sample_chord(model: ChordModel, rng: np.random.Generator) -> ChordSample:
    """Draw one chord from the model's uniform measure.

    Midpoint-uniform sampling rejects from the bounding square [-1, 1]^2
    (about 4/pi proposals per accepted point); a radius transform is
    deliberately avoided because it would presuppose the non-uniform r/pi
    law.  Each call consumes a deterministic, seed-reproducible amount of
    the generator stream.
    """
    if model is ChordModel.MIDPOINT_UNIFORM:
        while True:
            x = rng.uniform(-1.0, 1.0)
            y = rng.uniform(-1.0, 1.0)
            if x * x + y * y <= 1.0:
                break
        p = PointXY(x, y)
        return ChordSample(model, p, chord_length_from_midpoint(p))
    if model is ChordModel.TANGENT_ANGLE_UNIFORM:
        angles = TangentAngles(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, math.pi))
        return ChordSample(model, angles, chord_length_from_tangent_angle(angles.beta))
    r = rng.uniform(0.0, 1.0)
    theta = rng.uniform(-math.pi, math.pi)
    if theta == -math.pi:
        theta = math.pi
    pol = PolarRT(r, theta)
    return ChordSample(model, pol, chord_length_from_polar(pol))


def _disc_batch(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
    xs = np.empty(size)
    ys = np.empty(size)
    filled = 0
    while filled < size:
        pts = rng.uniform(-1.0, 1.0, size=(size - filled, 2))
        acc = pts[pts[:, 0] ** 2 + pts[:, 1] ** 2 <= 1.0]
        k = len(acc)
        xs[filled : filled + k] = acc[:, 0]
        ys[filled : filled + k] = acc[:, 1]
        filled += k
    return xs, ys


def sample_chord_batch(
    model: ChordModel, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized chord sampler: ``(first, second, length)`` arrays.

    The coordinate order matches the model: (x, y), (alpha, beta) or
    (r, theta).  This path consumes the generator stream differently from
    repeated ``sample_chord`` calls but is itself fully seed-deterministic.
    """
    if model is ChordModel.MIDPOINT_UNIFORM:
        x, y = _disc_batch(rng, size)
        return x, y, 2.0 * np.sqrt(np.maximum(0.0, 1.0 - (x * x + y * y)))
    if model is ChordModel.TANGENT_ANGLE_UNIFORM:
        alpha = rng.uniform(0.0, 2.0 * math.pi, size)
        beta = rng.uniform(0.0, math.pi, size)
        return alpha, beta, 2.0 * np.sin(beta)
    r = rng.uniform(0.0, 1.0, size)
    theta = rng.uniform(-math.pi, math.pi, size)
    theta[theta == -math.pi] = math.pi
    return r, theta, 2.0 * np.sqrt(np.maximum(0.0, 1.0 - r * r))


def chord_exceed_experiment(model: ChordModel, threshold: float = TRIANGLE_EDGE) -> Experiment:
    """Bernoulli experiment: does a random chord beat ``threshold``?"""
    if not 0.0 <= threshold <= 2.0:
        raise ValueError(f"threshold must lie in [0, 2], got {threshold}")

    def draw(rng: np.random.Generator, size: int):
        return sample_chord_batch(model, rng, size)

    def exceeds(batch) -> np.ndarray:
        return batch[2] > threshold

    return Experiment(
        name=f"chord_{model.value}_exceeds_{threshold:.9g}", sample=draw, event=exceeds
    )
