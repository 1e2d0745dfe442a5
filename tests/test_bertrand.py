import math

import numpy as np
import pytest
from scipy import stats

from bertrand_lab.bertrand import (
    _CHORDS,
    TRIANGLE_EDGE,
    ChordModel,
    chord_exceed_experiment,
    exact_exceed_probability,
    exceed_probability_under_measure,
    sample_chord_batch,
)
from bertrand_lab.montecarlo import run, stream_generator

N = 10**6


def sigma(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


class TestExactValues:
    def test_three_answers(self):
        assert exact_exceed_probability(ChordModel.MIDPOINT_UNIFORM) == 0.25
        assert exact_exceed_probability(ChordModel.TANGENT_ANGLE_UNIFORM) == 1.0 / 3.0
        assert exact_exceed_probability(ChordModel.POLAR_UNIFORM) == 0.5


def event_radius(t: float) -> float:
    """Radius of the disc of midpoints (or intersections) whose chord beats ``t``."""
    return math.sqrt(1.0 - t * t / 4.0)


class TestDensity:
    """Each native event mass is the model's uniform density times the event's area."""

    THRESHOLDS = (0.0, 0.5, 1.0, TRIANGLE_EDGE, 1.9, 2.0)

    def test_midpoint_density_values(self):
        # 1/pi on the unit disc; the event is the inner disc of radius rho
        model = ChordModel.MIDPOINT_UNIFORM
        for t in self.THRESHOLDS:
            area = math.pi * event_radius(t) ** 2
            value = exceed_probability_under_measure(model, model, t)
            assert value == pytest.approx(area / math.pi, abs=1e-15)

    def test_polar_density_values(self):
        # 1/(2 pi) on [0, 1] x (-pi, pi]; the event is the strip r < rho
        model = ChordModel.POLAR_UNIFORM
        for t in self.THRESHOLDS:
            area = event_radius(t) * 2.0 * math.pi
            value = exceed_probability_under_measure(model, model, t)
            assert value == pytest.approx(area / (2.0 * math.pi), abs=1e-15)

    def test_tangent_density_value(self):
        # 1/(2 pi^2) on [0, 2pi] x [0, pi]; the event is asin(t/2) < beta < pi - asin(t/2)
        model = ChordModel.TANGENT_ANGLE_UNIFORM
        for t in self.THRESHOLDS:
            area = 2.0 * math.pi * (math.pi - 2.0 * math.asin(t / 2.0))
            value = exceed_probability_under_measure(model, model, t)
            assert value == pytest.approx(area / (2.0 * math.pi**2), abs=1e-15)

    @pytest.mark.parametrize("model", list(ChordModel))
    def test_normalization(self, model):
        # every chord is longer than 0, so the event mass at 0 is the total mass
        assert exceed_probability_under_measure(model, model, 0.0) == pytest.approx(1.0, abs=1e-6)


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
    def test_midpoint_measure_in_polar_coordinates_gives_one_quarter(self):
        value = exceed_probability_under_measure(
            ChordModel.MIDPOINT_UNIFORM, ChordModel.POLAR_UNIFORM
        )
        assert value == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("model", list(ChordModel))
    def test_native_coordinates_reproduce_exact_values(self, model):
        value = exceed_probability_under_measure(model, model)
        assert value == pytest.approx(exact_exceed_probability(model), abs=1e-9)

    def test_zero_threshold_is_certain(self):
        value = exceed_probability_under_measure(
            ChordModel.MIDPOINT_UNIFORM, ChordModel.MIDPOINT_UNIFORM, threshold=0.0
        )
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_max_threshold_is_impossible(self):
        value = exceed_probability_under_measure(
            ChordModel.POLAR_UNIFORM, ChordModel.POLAR_UNIFORM, threshold=2.0
        )
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_threshold_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            exceed_probability_under_measure(
                ChordModel.POLAR_UNIFORM, ChordModel.POLAR_UNIFORM, threshold=2.5
            )

    def test_unsupported_pushforward_pairs(self):
        with pytest.raises(NotImplementedError):
            exceed_probability_under_measure(
                ChordModel.POLAR_UNIFORM, ChordModel.MIDPOINT_UNIFORM
            )
        with pytest.raises(NotImplementedError):
            exceed_probability_under_measure(
                ChordModel.TANGENT_ANGLE_UNIFORM, ChordModel.POLAR_UNIFORM
            )


class TestSampling:
    @pytest.mark.parametrize("model", list(ChordModel))
    def test_monte_carlo_matches_exact_probability(self, model):
        est = run(chord_exceed_experiment(model), N, seed=42)
        p = exact_exceed_probability(model)
        assert abs(est.p_hat - p) <= 3.0 * sigma(p, N)

    def test_midpoint_event_is_the_inner_disc(self):
        # P(x^2 + y^2 < 1/4) is the same event as length > sqrt(3)
        rng = stream_generator(42, 0)
        x, y, _ = sample_chord_batch(ChordModel.MIDPOINT_UNIFORM, rng, N)
        p_hat = np.count_nonzero(x * x + y * y < 0.25) / N
        assert abs(p_hat - 0.25) <= 3.0 * sigma(0.25, N)

    def test_measure_travels_with_the_samples_not_the_coordinates(self):
        # midpoint-uniform samples, re-read in polar coordinates, still give 1/4
        rng = stream_generator(42, 0)
        x, y, _ = sample_chord_batch(ChordModel.MIDPOINT_UNIFORM, rng, N)
        r = np.hypot(x, y)
        p_hat = np.count_nonzero(r < 0.5) / N
        assert abs(p_hat - 0.25) <= 3.0 * sigma(0.25, N)

    def test_midpoint_radius_follows_the_pushforward_marginal(self):
        # histogram of r in 100 bins against the 2r marginal density
        rng = stream_generator(42, 0)
        x, y, _ = sample_chord_batch(ChordModel.MIDPOINT_UNIFORM, rng, N)
        r = np.hypot(x, y)
        edges = np.linspace(0.0, 1.0, 101)
        observed, _ = np.histogram(r, bins=edges)
        expected = (edges[1:] ** 2 - edges[:-1] ** 2) * N
        _, p_value = stats.chisquare(observed, expected)
        assert p_value > 0.001

    @pytest.mark.parametrize("model", list(ChordModel))
    def test_batch_coordinates_stay_in_support(self, model):
        rng = stream_generator(11, 0)
        a, b, length = sample_chord_batch(model, rng, 50_000)
        assert np.all((length >= 0.0) & (length <= 2.0))
        if model is ChordModel.MIDPOINT_UNIFORM:
            assert np.all(a * a + b * b <= 1.0)
        elif model is ChordModel.TANGENT_ANGLE_UNIFORM:
            assert np.all((a >= 0.0) & (a <= 2.0 * math.pi))
            assert np.all((b >= 0.0) & (b <= math.pi))
        else:
            assert np.all((a >= 0.0) & (a <= 1.0))
            assert np.all((b > -math.pi) & (b <= math.pi))

    @pytest.mark.parametrize("model", list(ChordModel))
    def test_batch_lengths_match_scalar_geometry(self, model):
        rng = stream_generator(5, 0)
        a, b, length = sample_chord_batch(model, rng, 1000)
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
        first = sample_chord_batch(model, stream_generator(3, 0), 1)
        rng_a = stream_generator(3, 0)
        rng_b = stream_generator(3, 0)
        run_a = np.array([sample_chord_batch(model, rng_a, 1) for _ in range(200)])
        run_b = np.array([sample_chord_batch(model, rng_b, 1) for _ in range(200)])
        assert np.array_equal(run_a, run_b)
        assert np.array_equal(run_a[0], np.array(first))

    @pytest.mark.parametrize("model", list(ChordModel))
    def test_scalar_sample_is_well_formed(self, model):
        rng = stream_generator(8, 0)
        for _ in range(500):
            a, b, length = sample_chord_batch(model, rng, 1)
            for array in (a, b, length):
                assert array.shape == (1,) and array.dtype == np.float64
            assert 0.0 <= length[0] <= 2.0
            if model is ChordModel.MIDPOINT_UNIFORM:
                assert a[0] * a[0] + b[0] * b[0] <= 1.0
            elif model is ChordModel.TANGENT_ANGLE_UNIFORM:
                assert 0.0 <= a[0] <= 2.0 * math.pi and 0.0 <= b[0] <= math.pi
            else:
                assert 0.0 <= a[0] <= 1.0 and -math.pi < b[0] <= math.pi

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
        radial = _CHORDS[ChordModel.POLAR_UNIFORM].length(np.sqrt(s), np.zeros_like(s))
        assert np.all((radial >= 0.0) & (radial <= 2.0))
        beta = np.linspace(0.0, math.pi, 3001)
        tangent = _CHORDS[ChordModel.TANGENT_ANGLE_UNIFORM].length(np.zeros_like(beta), beta)
        assert np.all((tangent >= 0.0) & (tangent <= 2.0))

    def test_support_enforced(self):
        # midpoints come from rejection, so none falls outside the disc
        # however many rounds a batch takes
        for seed in range(20):
            x, y, _ = sample_chord_batch(ChordModel.MIDPOINT_UNIFORM, stream_generator(seed, 0), 7)
            assert np.all(x * x + y * y <= 1.0)
        r, _, _ = sample_chord_batch(ChordModel.POLAR_UNIFORM, stream_generator(0, 0), 50_000)
        assert np.all(r <= 1.0)
