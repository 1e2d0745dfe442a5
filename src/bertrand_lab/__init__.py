"""Exact and Monte Carlo toolkit for the classic "at random" paradoxes.

Four model families, each with closed-form probabilities, seeded samplers
and the measure-change machinery that reconciles their seemingly
contradictory answers: random chords on the unit circle, needle throws on
ruled paper, a number vs its square on [0, 100], and discrete laws on the
rationals in [0, 1] that become asymptotically equiprobable.
"""

from .bertrand import (
    TRIANGLE_EDGE,
    ChordModel,
    ChordSample,
    chord_exceed_experiment,
    density,
    exact_exceed_probability,
    exceed_probability_under_measure,
    pushforward_polar_density,
    sample_chord,
    sample_chord_batch,
)
from .buffon import (
    DegenerateEstimateError,
    NeedleModel,
    NeedleSample,
    PiEstimate,
    crosses,
    estimate_pi,
    exact_cross_probability,
    needle_cross_experiment,
    sample_needle,
)
from .geometry import (
    PointXY,
    PolarRT,
    TangentAngles,
    cartesian_to_polar,
    chord_length_from_midpoint,
    chord_length_from_polar,
    chord_length_from_tangent_angle,
    polar_jacobian,
    polar_to_cartesian,
)
from .montecarlo import (
    BATCH_SIZE,
    Estimate,
    Experiment,
    derive_stream_seed,
    run,
    stream_generator,
    wilson_interval,
)
from .rationals import (
    ConvergenceDiagnostics,
    CustomLaw,
    DegenerateLaw,
    DenominatorLaw,
    GeometricFamily,
    GeometricLaw,
    PoissonFamily,
    PoissonLaw,
    Rational,
    atom_probability,
    canonical_rationals,
    canonicalize,
    cdf,
    cdf_grid,
    convergence_table,
    harmonic_number,
    interval_probability,
    mean_reciprocal,
    sample_rational,
    sample_rational_batch,
    sup_pmf,
)
from .squares import (
    IntervalModel,
    exceed_probability,
    finite_counting_probability,
    pushforward_square_density,
    square_exceed_experiment,
)

__version__ = "0.1.0"
