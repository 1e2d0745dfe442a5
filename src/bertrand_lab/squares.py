"""The number-vs-its-square paradox on [0, 100]: measuring stretches, counting doesn't.

Asking "is a random number in [0, 100] above 50?" and "is a random number in
[0, 10000] above 2500?" feel like the same question, but the uniform answers
are 1/2 and 3/4: squaring does not preserve the uniform measure.  The law of
X^2 when X itself is uniform restores agreement, and the finite counting
version never disagreed in the first place because a bijection on finitely
many equiprobable items cannot move probability around.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple

# the closed forms and the counting are plain arithmetic: only the experiment loads numpy
if TYPE_CHECKING:
    from .montecarlo import Experiment

X_MAX = 100.0
Y_MAX = X_MAX * X_MAX


class IntervalModel(enum.Enum):
    UNIFORM_X = "uniform_x"
    NAIVE_UNIFORM_SQUARE = "naive_uniform_square"
    PUSHFORWARD_SQUARE = "pushforward_square"


class _Interval(NamedTuple):
    """One convention: the coordinate it reads off X on [0, 100], and its P(> t)."""

    coordinate: Callable[[float], float]
    exceed: Callable[[float], float]


_INTERVALS = {
    IntervalModel.UNIFORM_X: _Interval(lambda x: x, lambda t: (X_MAX - t) / X_MAX),
    IntervalModel.NAIVE_UNIFORM_SQUARE: _Interval(lambda x: x * x, lambda t: (Y_MAX - t) / Y_MAX),
    IntervalModel.PUSHFORWARD_SQUARE: _Interval(
        lambda x: x * x, lambda t: 1.0 - math.sqrt(t) / X_MAX
    ),
}


def model_threshold(model: IntervalModel, x_threshold: float) -> float:
    """The threshold on the model's own scale that ``x_threshold`` on [0, 100] means."""
    return _INTERVALS[model].coordinate(x_threshold)


def exceed_probability(model: IntervalModel, threshold: float) -> float:
    """Closed-form P(value > threshold) under the chosen convention.

    UNIFORM_X treats the number itself as uniform on [0, 100];
    NAIVE_UNIFORM_SQUARE treats its square as uniform on [0, 10000];
    PUSHFORWARD_SQUARE uses the actual law of X^2 for X uniform on [0, 100].
    """
    hi = model_threshold(model, X_MAX)
    if not 0.0 <= threshold <= hi:
        raise ValueError(f"threshold {threshold} outside [0, {hi:g}] for {model.value}")
    return _INTERVALS[model].exceed(threshold)


def finite_counting_probability(n_max: int, threshold: float, squared: bool = False) -> Fraction:
    """Exact fraction of k in {1..n_max} with k > threshold (or k^2 > threshold).

    Counting is transform-invariant: squaring the finite equiprobable set
    {1..n_max} relabels its elements without sharing probability, so
    (n_max, t, plain) and (n_max, t^2, squared) always agree.  The result is
    an exact rational, never a float.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if math.isnan(threshold):
        raise ValueError(f"threshold must be a number, got {threshold}")
    # every element exceeds a negative threshold and none the largest value, so
    # clamp to [0, largest] first: it also gives the infinities a floor
    whole = math.floor(min(max(threshold, 0), n_max * n_max if squared else n_max))
    not_exceeding = math.isqrt(whole) if squared else whole
    return Fraction(n_max - not_exceeding, n_max)


def square_exceed_experiment(x_threshold: float = 50.0) -> Experiment:
    """Bernoulli experiment: X uniform on [0, 100], does X^2 beat x_threshold^2?"""
    import numpy as np
    from .montecarlo import Experiment, _scratch

    if not 0.0 <= x_threshold <= X_MAX:
        raise ValueError(f"x_threshold must lie in [0, {X_MAX:g}], got {x_threshold}")
    y_threshold = x_threshold * x_threshold

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        xs = rng.random(out=_scratch("draws", size))
        xs *= X_MAX  # rng.uniform(0.0, X_MAX) bit for bit: 0 + X_MAX * u
        return xs

    def exceeds(xs: np.ndarray) -> np.ndarray:
        return np.multiply(xs, xs, out=_scratch("event", len(xs))) > y_threshold

    return Experiment(
        name=f"square_exceeds_{y_threshold:.9g}", sample=draw, event=exceeds
    )
