import math

import numpy as np
import pytest

from bertrand_lab.buffon import (
    DegenerateEstimateError,
    NeedleModel,
    _center_angle_batch,
    _center_angle_event,
    _endpoints_y,
    _pi_from_crossings,
    estimate_pi,
    exact_cross_probability,
    needle_cross_experiment,
)
from bertrand_lab.montecarlo import Estimate, run, stream_generator
from test_reference_numerics import quad_cross_probability
from test_stream_identity import numpy_needles

N = 10**6


def sigma(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def crosses(model: NeedleModel, a: float, b: float) -> bool:
    """The experiment's event on one needle: (theta, z), or (x, y) of which it reads y."""
    event = needle_cross_experiment(model).event
    if model is NeedleModel.CENTER_ANGLE:
        return bool(event((np.array([a]), np.array([b])))[0])
    return bool(event(np.array([b]))[0])


def draw_one(model: NeedleModel, rng) -> tuple[float, ...]:
    """One needle from the experiment's sampler: (theta, z), or y alone (x is not kept)."""
    if model is NeedleModel.CENTER_ANGLE:
        theta, z = _center_angle_batch(rng, 1)
        return float(theta[0]), float(z[0])
    return (float(_endpoints_y(rng, 1)[0]),)


def crosses_reference(model: NeedleModel, a: float, b: float) -> bool:
    """The crossing rule written out with ``math.cos``; touching counts."""
    if model is NeedleModel.CENTER_ANGLE:
        half_span = 0.5 * math.cos(a)
        return b <= half_span or b >= 1.0 - half_span
    return b <= 0.0 or b >= 1.0


class TestCrossingPredicate:
    def test_vertical_needle_near_left_line_crosses(self):
        # z = 0.25 <= cos(0)/2 = 0.5
        assert crosses(NeedleModel.CENTER_ANGLE, 0.0, 0.25)

    def test_tilted_needle_in_the_middle_does_not_cross(self):
        # cos(pi/3)/2 = 0.25 < 0.3 < 0.75
        assert not crosses(NeedleModel.CENTER_ANGLE, math.pi / 3.0, 0.3)

    def test_touching_counts_as_crossing(self):
        assert crosses(NeedleModel.CENTER_ANGLE, 0.0, 0.5)
        assert crosses(NeedleModel.ENDPOINTS, 0.5, 0.0)
        assert crosses(NeedleModel.ENDPOINTS, 0.3, 1.0)

    def test_lower_end_past_the_left_line_crosses(self):
        assert crosses(NeedleModel.ENDPOINTS, 0.5, -0.2)

    def test_both_ends_inside_the_strip_does_not_cross(self):
        assert not crosses(NeedleModel.ENDPOINTS, 0.5, 0.5)

    def test_batch_predicate_agrees_with_scalar(self):
        for model in NeedleModel:
            a, b = numpy_needles(model, stream_generator(17, 0), 2000)
            experiment = needle_cross_experiment(model)
            mask = experiment.event(experiment.sample(stream_generator(17, 0), 2000))
            for i in range(0, 2000, 113):
                assert mask[i] == crosses_reference(model, float(a[i]), float(b[i]))


class TestExactProbabilities:
    def test_closed_forms(self):
        assert exact_cross_probability(NeedleModel.CENTER_ANGLE) == 2.0 / math.pi
        assert exact_cross_probability(NeedleModel.ENDPOINTS) == 0.5

    def test_implied_calibration_targets(self):
        # inverting the two crossing rates "measures" pi and 4 respectively
        assert 2.0 / exact_cross_probability(NeedleModel.CENTER_ANGLE) == pytest.approx(math.pi)
        assert 2.0 / exact_cross_probability(NeedleModel.ENDPOINTS) == 4.0

    @pytest.mark.parametrize("model", list(NeedleModel))
    def test_quadrature_route_agrees(self, model):
        assert quad_cross_probability(model) == pytest.approx(
            exact_cross_probability(model), abs=1e-9
        )


class TestSampling:
    @pytest.mark.parametrize("model", list(NeedleModel))
    def test_monte_carlo_matches_exact(self, model):
        est = run(needle_cross_experiment(model), N, seed=42)
        p = exact_cross_probability(model)
        assert abs(est.p_hat - p) <= 3.0 * sigma(p, N)

    def test_center_distance_is_uniform(self):
        rng = stream_generator(42, 0)
        _, z = _center_angle_batch(rng, N)
        assert abs(z.mean() - 0.5) <= 3.0 * (1.0 / math.sqrt(12.0)) / 1000.0

    def test_endpoint_samples_respect_the_band(self):
        # x is numpy's first draw from the stream the experiment's y comes from
        x = stream_generator(42, 0).uniform(0.0, 1.0, N)
        y = _endpoints_y(stream_generator(42, 0), N)
        assert np.all((x >= 0.0) & (x <= 1.0))
        assert np.all(np.abs(x - y) <= 1.0)

    def test_crossing_rate_conditional_on_tilt_follows_cosine(self):
        # exact conditional mean over a bin is (sin b - sin a)/(b - a);
        # comparing against cos(bin center) adds at most h^2/24 of
        # discretization on top of the binomial 4 sigma
        rng = stream_generator(42, 0)
        theta, z = _center_angle_batch(rng, N)
        hits = _center_angle_event((theta, z))
        edges = np.linspace(-math.pi / 2.0, math.pi / 2.0, 21)
        h = edges[1] - edges[0]
        which = np.digitize(theta, edges) - 1
        for i in range(20):
            sel = which == i
            n_i = int(np.count_nonzero(sel))
            p_hat = np.count_nonzero(hits & sel) / n_i
            p_bin = (math.sin(edges[i + 1]) - math.sin(edges[i])) / h
            center = math.cos(0.5 * (edges[i] + edges[i + 1]))
            bound = 4.0 * sigma(p_bin, n_i) + h * h / 24.0
            assert abs(p_hat - center) <= bound

    @pytest.mark.parametrize("model", list(NeedleModel))
    def test_scalar_sampler_is_seed_deterministic(self, model):
        rng_a = stream_generator(6, 0)
        rng_b = stream_generator(6, 0)
        a = [draw_one(model, rng_a) for _ in range(300)]
        b = [draw_one(model, rng_b) for _ in range(300)]
        assert a == b

    def test_sample_validation(self):
        # every throw drawn one at a time lies in its model's support
        # x, which the endpoints sampler does not keep, comes from a twin stream
        rng, twin = stream_generator(6, 0), stream_generator(6, 0)
        for _ in range(500):
            theta, z = draw_one(NeedleModel.CENTER_ANGLE, rng)
            assert -math.pi / 2.0 <= theta <= math.pi / 2.0 and 0.0 <= z <= 1.0
            (y,) = draw_one(NeedleModel.ENDPOINTS, rng)
            twin.random(2)
            x = twin.uniform(0.0, 1.0)
            twin.random()
            assert 0.0 <= x <= 1.0 and abs(x - y) <= 1.0


class TestPiEstimate:
    def test_structure_and_interval_transform(self):
        pe = estimate_pi(NeedleModel.CENTER_ANGLE, 100_000, seed=42)
        est = pe.crossings
        assert pe.value == 2.0 / est.p_hat
        assert pe.ci_low == 2.0 / est.ci_high
        assert pe.ci_high == 2.0 / est.ci_low
        assert pe.ci_low <= pe.value <= pe.ci_high

    def test_deterministic_per_seed(self):
        a = estimate_pi(NeedleModel.ENDPOINTS, 10_000, seed=5)
        b = estimate_pi(NeedleModel.ENDPOINTS, 10_000, seed=5)
        assert a == b

    def test_minimum_sample_size_enforced(self):
        with pytest.raises(ValueError):
            estimate_pi(NeedleModel.CENTER_ANGLE, 0, seed=1)
        with pytest.raises(ValueError):
            estimate_pi(NeedleModel.CENTER_ANGLE, 999, seed=1)

    def test_no_crossings_is_degenerate(self):
        silent = Estimate(n=1000, successes=0, seed=0)
        with pytest.raises(DegenerateEstimateError):
            _pi_from_crossings(silent)
