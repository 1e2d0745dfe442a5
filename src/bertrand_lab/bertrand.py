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
from typing import Any, Callable, NamedTuple

import numpy as np

from .geometry import PointXY, PolarRT, TangentAngles
from .montecarlo import Experiment
from .quadrature import gauss_legendre

# Edge length of the equilateral triangle inscribed in the unit circle: the
# classical threshold the random chord is compared against.
TRIANGLE_EDGE = math.sqrt(3.0)


class ChordModel(enum.Enum):
    MIDPOINT_UNIFORM = "midpoint_uniform"
    TANGENT_ANGLE_UNIFORM = "tangent_angle_uniform"
    POLAR_UNIFORM = "polar_uniform"


class _Chord(NamedTuple):
    """One chord model: which coordinate pair it declares uniform, and where.

    ``inside(coords, slack)`` is the support predicate, relaxed by ``slack``
    (the coordinate type may already confine the point to the support);
    ``exceed(t)`` is the native event mass P(length > t), the density times
    the area of the event; ``sample(rng, size)`` draws the coordinate arrays
    and ``length`` maps them to chord lengths.
    """

    coords: type
    inside: Callable[[Any, float], bool]
    density: float
    exact: float
    exceed: Callable[[float], float]
    sample: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]
    length: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _event_radius(threshold: float) -> float:
    """Radius below which a chord's midpoint/intersection beats ``threshold``."""
    return math.sqrt(max(0.0, 1.0 - threshold * threshold / 4.0))


def _length_from_radius_sq(s: np.ndarray) -> np.ndarray:
    return 2.0 * np.sqrt(np.maximum(0.0, 1.0 - s))


def _disc_batch(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Rejection from the bounding square [-1, 1]^2, about 4/pi proposals per point.

    A radius transform is deliberately avoided because it would presuppose
    the non-uniform r/pi law.
    """
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


def _polar_batch(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
    r = rng.uniform(0.0, 1.0, size)
    theta = rng.uniform(-math.pi, math.pi, size)
    theta[theta == -math.pi] = math.pi
    return r, theta


_CHORDS = {
    ChordModel.MIDPOINT_UNIFORM: _Chord(
        coords=PointXY,
        inside=lambda p, slack: p.x * p.x + p.y * p.y <= 1.0 + slack,
        density=1.0 / math.pi,
        exact=0.25,
        exceed=lambda t: max(0.0, 1.0 - t * t / 4.0),
        sample=_disc_batch,
        length=lambda x, y: _length_from_radius_sq(x * x + y * y),
    ),
    ChordModel.TANGENT_ANGLE_UNIFORM: _Chord(
        coords=TangentAngles,
        inside=lambda angles, slack: True,
        density=1.0 / (2.0 * math.pi**2),
        exact=1.0 / 3.0,
        exceed=lambda t: max(0.0, math.pi - 2.0 * math.asin(min(1.0, t / 2.0))) / math.pi,
        sample=lambda rng, size: (
            rng.uniform(0.0, 2.0 * math.pi, size),
            rng.uniform(0.0, math.pi, size),
        ),
        length=lambda alpha, beta: 2.0 * np.sin(beta),
    ),
    ChordModel.POLAR_UNIFORM: _Chord(
        coords=PolarRT,
        inside=lambda p, slack: p.r <= 1.0 + slack,
        density=1.0 / (2.0 * math.pi),
        exact=0.5,
        exceed=_event_radius,
        sample=_polar_batch,
        length=lambda r, theta: _length_from_radius_sq(r * r),
    ),
}


def _checked(model: ChordModel, coords: PointXY | TangentAngles | PolarRT) -> _Chord:
    """The model's record, once ``coords`` is known to be its coordinate type."""
    chord = _CHORDS[model]
    if not isinstance(coords, chord.coords):
        raise TypeError(f"{model.value} carries {chord.coords.__name__} coordinates")
    return chord


@dataclass(frozen=True)
class ChordSample:
    """One random chord, carrying its native coordinates and its length."""

    model: ChordModel
    coords: PointXY | TangentAngles | PolarRT
    length: float

    def __post_init__(self) -> None:
        chord = _checked(self.model, self.coords)
        if not 0.0 <= self.length <= 2.0:
            raise ValueError(f"chord length must lie in [0, 2], got {self.length}")
        if not chord.inside(self.coords, 1e-12):
            raise ValueError(f"{self.coords} lies outside the {self.model.value} support")


def exact_exceed_probability(model: ChordModel) -> float:
    """Closed-form P(chord length > sqrt(3)) under the model's own measure."""
    return _CHORDS[model].exact


def density(model: ChordModel, point: PointXY | TangentAngles | PolarRT) -> float:
    """Joint density of the model's native coordinate pair at ``point``.

    Zero outside the support; the point type must match the model's
    coordinate system.
    """
    chord = _checked(model, point)
    return chord.density if chord.inside(point, 0.0) else 0.0


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
        return _CHORDS[measure].exceed(threshold)

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

    This is element 0 of ``sample_chord_batch(model, rng, 1)``: it consumes
    the generator stream exactly as a size-1 batch does.
    """
    first, second, length = sample_chord_batch(model, rng, 1)
    coords = _CHORDS[model].coords(float(first[0]), float(second[0]))
    return ChordSample(model, coords, float(length[0]))


def sample_chord_batch(
    model: ChordModel, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized chord sampler: ``(first, second, length)`` arrays.

    The coordinate order matches the model: (x, y), (alpha, beta) or
    (r, theta).  Midpoint-uniform chords are drawn by rejection from the
    bounding square; the draws are fully seed-deterministic.
    """
    chord = _CHORDS[model]
    first, second = chord.sample(rng, size)
    return first, second, chord.length(first, second)


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
