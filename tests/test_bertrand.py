import itertools
import math

import numpy as np
import pytest
from scipy import stats

from bertrand_lab.bertrand import (
    _CHORDS,
    TRIANGLE_EDGE,
    ChordModel,
    _disc_radius_sq,
    _length_from_radius_sq,
    chord_exceed_experiment,
    exact_exceed_probability,
    exceed_probability_under_measure,
)
from bertrand_lab.montecarlo import run, stream_generator
from test_stream_identity import numpy_chords

N = 10**6


def sigma(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


class TestExactValues:
    def test_three_answers(self):
        assert exact_exceed_probability(ChordModel.MIDPOINT_UNIFORM) == 0.25
        assert exact_exceed_probability(ChordModel.TANGENT_ANGLE_UNIFORM) == 1.0 / 3.0
        assert exact_exceed_probability(ChordModel.POLAR_UNIFORM) == 0.5


def event_lengths(model, array):
    """Chord lengths from the one array the model's experiment reads: x*x + y*y, beta or r."""
    if model is ChordModel.MIDPOINT_UNIFORM:
        return _length_from_radius_sq(array)
    if model is ChordModel.TANGENT_ANGLE_UNIFORM:
        return 2.0 * np.sin(array)
    return _length_from_radius_sq(array * array)


def event_batch(model, rng, size):
    """A fresh copy of the array the model's experiment reads, drawn into the thread's scratch."""
    return _CHORDS[model].event_sample(rng, size).copy()


def event_radius(t: float) -> float:
    """Radius of the disc of midpoints (or intersections) whose chord beats ``t``."""
    return math.sqrt(1.0 - t * t / 4.0)


# Each model's uniform density times the area of the event length > t in its
# own coordinates: the inner disc of radius rho (density 1/pi on the unit
# disc), the strip r < rho (1/(2 pi) on [0, 1] x (-pi, pi]), and the band
# asin(t/2) < beta < pi - asin(t/2) (1/(2 pi^2) on [0, 2pi] x [0, pi]).
AREA_FRACTION = {
    ChordModel.MIDPOINT_UNIFORM: lambda t: math.pi * event_radius(t) ** 2 / math.pi,
    ChordModel.POLAR_UNIFORM: lambda t: event_radius(t) * 2.0 * math.pi / (2.0 * math.pi),
    ChordModel.TANGENT_ANGLE_UNIFORM: lambda t: (
        2.0 * math.pi * (math.pi - 2.0 * math.asin(t / 2.0)) / (2.0 * math.pi**2)
    ),
}


class TestDensity:
    """Each model's Monte Carlo answer at a threshold is its uniform density
    times the event's area; only the midpoint measure has a closed form off
    sqrt(3), so the experiment stands for the others."""

    THRESHOLDS = (0.0, 0.5, 1.0, TRIANGLE_EDGE, 1.9, 2.0)
    SIZE = 200_000

    def check(self, model):
        for t in self.THRESHOLDS:
            p = AREA_FRACTION[model](t)
            est = run(chord_exceed_experiment(model, t), self.SIZE, seed=42)
            # at t = 0 and t = 2 the event is certain or impossible, so sigma is 0
            assert abs(est.p_hat - p) <= 4.0 * sigma(p, self.SIZE) + 1e-12, t

    def test_midpoint_density_values(self):
        self.check(ChordModel.MIDPOINT_UNIFORM)

    def test_polar_density_values(self):
        self.check(ChordModel.POLAR_UNIFORM)

    def test_tangent_density_value(self):
        self.check(ChordModel.TANGENT_ANGLE_UNIFORM)

    @pytest.mark.parametrize("model", list(ChordModel))
    def test_normalization(self, model):
        # the density is one over the support's measure: the coordinate the
        # event reads (x*x + y*y, beta or r) is uniform over its whole support
        top = math.pi if model is ChordModel.TANGENT_ANGLE_UNIFORM else 1.0
        array = event_batch(model, stream_generator(42, 0), self.SIZE)
        observed, _ = np.histogram(array, bins=50, range=(0.0, top))
        assert observed.sum() == self.SIZE
        _, p_value = stats.chisquare(observed, np.full(50, self.SIZE / 50))
        assert p_value > 0.001


class TestPushforward:
    def test_normalization(self):
        value = exceed_probability_under_measure(
            ChordModel.MIDPOINT_UNIFORM, ChordModel.POLAR_UNIFORM, 0.0
        )
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_only_midpoint_base_supported(self):
        # r/pi is the midpoint measure read in polar coordinates, and nothing else
        with pytest.raises(NotImplementedError):
            exceed_probability_under_measure(
                ChordModel.TANGENT_ANGLE_UNIFORM, ChordModel.POLAR_UNIFORM
            )
        with pytest.raises(NotImplementedError):
            exceed_probability_under_measure(
                ChordModel.MIDPOINT_UNIFORM, ChordModel.TANGENT_ANGLE_UNIFORM
            )


class TestExceedUnderMeasure:
    """The measure decides, not the coordinates: the midpoint measure read in
    polar coordinates keeps the midpoint model's answer."""

    def test_midpoint_measure_in_polar_coordinates_gives_one_quarter(self):
        value = exceed_probability_under_measure(
            ChordModel.MIDPOINT_UNIFORM, ChordModel.POLAR_UNIFORM
        )
        assert value == pytest.approx(
            exact_exceed_probability(ChordModel.MIDPOINT_UNIFORM), abs=1e-9
        )
        assert value != pytest.approx(
            exact_exceed_probability(ChordModel.POLAR_UNIFORM), abs=1e-9
        )

    @pytest.mark.parametrize("model", list(ChordModel))
    def test_native_coordinates_reproduce_exact_values(self, model):
        # each closed form is the model's density times the event's area at sqrt(3)
        assert AREA_FRACTION[model](TRIANGLE_EDGE) == pytest.approx(
            exact_exceed_probability(model), abs=1e-12
        )

    def test_zero_threshold_is_certain(self):
        value = exceed_probability_under_measure(
            ChordModel.MIDPOINT_UNIFORM, ChordModel.POLAR_UNIFORM, threshold=0.0
        )
        assert value == 1.0
        for model in ChordModel:
            array = event_batch(model, stream_generator(9, 0), 10_000)
            assert np.all(chord_exceed_experiment(model, 0.0).event(array))

    def test_max_threshold_is_impossible(self):
        value = exceed_probability_under_measure(
            ChordModel.MIDPOINT_UNIFORM, ChordModel.POLAR_UNIFORM, threshold=2.0
        )
        assert value == 0.0
        # no chord beats the diameter, not even one through the centre
        for model in ChordModel:
            top = math.pi if model is ChordModel.TANGENT_ANGLE_UNIFORM else 1.0
            array = np.append(np.linspace(0.0, top, 10_001), top / 2.0)
            assert not np.any(chord_exceed_experiment(model, 2.0).event(array))

    def test_threshold_out_of_range_rejected(self):
        # before any pair is looked at, the supported one included
        for measure, system in itertools.product(ChordModel, repeat=2):
            with pytest.raises(ValueError):
                exceed_probability_under_measure(measure, system, threshold=2.5)

    def test_unsupported_pushforward_pairs(self):
        # every pair but (midpoint, polar), a model in its own coordinates included
        pairs = set(itertools.product(ChordModel, repeat=2))
        pairs.remove((ChordModel.MIDPOINT_UNIFORM, ChordModel.POLAR_UNIFORM))
        assert len(pairs) == 8
        for measure, system in pairs:
            with pytest.raises(NotImplementedError):
                exceed_probability_under_measure(measure, system)


class TestSampling:
    @pytest.mark.parametrize("model", list(ChordModel))
    def test_monte_carlo_matches_exact_probability(self, model):
        est = run(chord_exceed_experiment(model), N, seed=42)
        p = exact_exceed_probability(model)
        assert abs(est.p_hat - p) <= 3.0 * sigma(p, N)

    def test_midpoint_event_is_the_inner_disc(self):
        # P(x^2 + y^2 < 1/4) is the same event as length > sqrt(3)
        s = _disc_radius_sq(stream_generator(42, 0), N)
        p_hat = np.count_nonzero(s < 0.25) / N
        assert abs(p_hat - 0.25) <= 3.0 * sigma(0.25, N)

    def test_measure_travels_with_the_samples_not_the_coordinates(self):
        # midpoint-uniform samples, re-read in polar coordinates, still give 1/4
        r = np.sqrt(_disc_radius_sq(stream_generator(42, 0), N))
        p_hat = np.count_nonzero(r < 0.5) / N
        assert abs(p_hat - 0.25) <= 3.0 * sigma(0.25, N)

    def test_midpoint_radius_follows_the_pushforward_marginal(self):
        # histogram of r in 100 bins against the 2r marginal density
        r = np.sqrt(_disc_radius_sq(stream_generator(42, 0), N))
        edges = np.linspace(0.0, 1.0, 101)
        observed, _ = np.histogram(r, bins=edges)
        expected = (edges[1:] ** 2 - edges[:-1] ** 2) * N
        _, p_value = stats.chisquare(observed, expected)
        assert p_value > 0.001

    @pytest.mark.parametrize("model", list(ChordModel))
    def test_batch_coordinates_stay_in_support(self, model):
        array = event_batch(model, stream_generator(11, 0), 50_000)
        length = event_lengths(model, array)
        assert np.all((length >= 0.0) & (length <= 2.0))
        if model is ChordModel.TANGENT_ANGLE_UNIFORM:
            assert np.all((array >= 0.0) & (array <= math.pi))
        else:  # x*x + y*y, or r
            assert np.all((array >= 0.0) & (array <= 1.0))

    @pytest.mark.parametrize("model", list(ChordModel))
    def test_batch_lengths_match_scalar_geometry(self, model):
        length = event_lengths(model, event_batch(model, stream_generator(5, 0), 1000))
        a, b = numpy_chords(model, stream_generator(5, 0), 1000)
        for i in range(0, 1000, 97):
            if model is ChordModel.MIDPOINT_UNIFORM:
                # the chord is orthogonal to the radius through its midpoint
                expected = 2.0 * math.sqrt(1.0 - (a[i] ** 2 + b[i] ** 2))
            elif model is ChordModel.TANGENT_ANGLE_UNIFORM:
                expected = 2.0 * math.sin(b[i])
            else:
                expected = 2.0 * math.sqrt(1.0 - a[i] ** 2)
            assert length[i] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("model", list(ChordModel))
    def test_scalar_sampler_is_seed_deterministic(self, model):
        first = event_batch(model, stream_generator(3, 0), 1)
        rng_a = stream_generator(3, 0)
        rng_b = stream_generator(3, 0)
        run_a = np.array([event_batch(model, rng_a, 1) for _ in range(200)])
        run_b = np.array([event_batch(model, rng_b, 1) for _ in range(200)])
        assert np.array_equal(run_a, run_b)
        assert np.array_equal(run_a[0], first)

    @pytest.mark.parametrize("model", list(ChordModel))
    def test_scalar_sample_is_well_formed(self, model):
        rng = stream_generator(8, 0)
        top = math.pi if model is ChordModel.TANGENT_ANGLE_UNIFORM else 1.0
        for _ in range(500):
            array = event_batch(model, rng, 1)
            length = event_lengths(model, array)
            for values in (array, length):
                assert values.shape == (1,) and values.dtype == np.float64
            assert 0.0 <= length[0] <= 2.0
            assert 0.0 <= array[0] <= top

    def test_experiment_threshold_validated(self):
        with pytest.raises(ValueError):
            chord_exceed_experiment(ChordModel.POLAR_UNIFORM, threshold=3.0)

    def test_triangle_edge_constant(self):
        assert TRIANGLE_EDGE == math.sqrt(3.0)


class TestChordSampleInvariants:
    def test_length_range_enforced(self):
        # the kernels clamp at the rim, so no coordinate gives a length
        # outside [0, 2] or a NaN, even a little past the support
        s = np.linspace(0.0, 1.5, 3001)
        radial = event_lengths(ChordModel.POLAR_UNIFORM, np.sqrt(s))
        assert np.all((radial >= 0.0) & (radial <= 2.0))
        beta = np.linspace(0.0, math.pi, 3001)
        tangent = event_lengths(ChordModel.TANGENT_ANGLE_UNIFORM, beta)
        assert np.all((tangent >= 0.0) & (tangent <= 2.0))

    def test_support_enforced(self):
        # midpoints come from rejection, so none falls outside the disc
        # however many rounds a batch takes
        for seed in range(20):
            assert np.all(_disc_radius_sq(stream_generator(seed, 0), 7) <= 1.0)
        r = event_batch(ChordModel.POLAR_UNIFORM, stream_generator(0, 0), 50_000)
        assert np.all(r <= 1.0)
