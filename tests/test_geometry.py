"""Chord geometry on the unit circle, as the chord kernels compute it.

Each model maps its coordinate pair to a chord length: the midpoint (x, y)
to ``2 sqrt(1 - x^2 - y^2)``, the tangent angle beta to ``2 sin(beta)`` and
the chord-diameter intersection (r, theta) to ``2 sqrt(1 - r^2)``.  The
kernels clamp instead of raising; keeping coordinates inside their support
is the experiments' job.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bertrand_lab.bertrand import (
    _CHORDS,
    ChordModel,
    _disc_radius_sq,
    _length_from_radius_sq,
    _tangent_event,
)
from bertrand_lab.montecarlo import stream_generator
from test_stream_identity import chord_lengths, numpy_chords

SQRT3 = math.sqrt(3.0)
GEOMETRY_TOL = 1e-12
MIDPOINT = ChordModel.MIDPOINT_UNIFORM
TANGENT = ChordModel.TANGENT_ANGLE_UNIFORM
POLAR = ChordModel.POLAR_UNIFORM


def length(model, a, b):
    """The model's length kernel at one coordinate pair."""
    return float(chord_lengths(model, np.array([a]), np.array([b]))[0])


class Draws:
    """A generator stand-in whose ``random(out=)`` fills a block with the given
    draws, padded with NaN, which no rejection test keeps."""

    def __init__(self, draws):
        self.draws = np.array(draws, dtype=float)

    def random(self, out):
        out[...] = np.nan
        out[: len(self.draws)] = self.draws
        return out


class TestChordLengths:
    def test_midpoint_at_center_gives_diameter(self):
        assert length(MIDPOINT, 0.0, 0.0) == 2.0

    def test_midpoint_at_half_radius_gives_triangle_edge(self):
        assert length(MIDPOINT, 0.5, 0.0) == pytest.approx(SQRT3, abs=1e-12)

    def test_midpoint_on_rim_gives_degenerate_chord(self):
        assert length(MIDPOINT, 1.0, 0.0) == 0.0

    def test_midpoint_outside_disc_rejected(self):
        # the walk keeps exactly the proposals inside the closed disc, in
        # stream order: replayed here one proposal at a time, against one
        # block and several
        for size in (10_000, 40_000):
            s = _disc_radius_sq(stream_generator(5, 0), size)
            rng, kept, rejected = stream_generator(5, 0), [], 0
            while len(kept) < size:
                u, v = 2.0 * rng.random() - 1.0, 2.0 * rng.random() - 1.0
                if u * u + v * v <= 1.0:
                    kept.append(u * u + v * v)
                else:
                    rejected += 1
            assert np.array_equal(s, kept)
            assert rejected > 0
        # a proposal at (0.9, 0.9) is rejected; the next one, (0, 0), is kept
        assert np.array_equal(_disc_radius_sq(Draws([0.95, 0.95, 0.5, 0.5]), 1), [0.0])

    def test_tangent_angle_perpendicular_gives_diameter(self):
        assert length(TANGENT, 0.0, math.pi / 2.0) == 2.0

    def test_tangent_angle_pi_third_gives_triangle_edge(self):
        assert length(TANGENT, 0.0, math.pi / 3.0) == pytest.approx(SQRT3, abs=1e-12)

    def test_tangent_angle_zero_gives_degenerate_chord(self):
        assert length(TANGENT, 0.0, 0.0) == 0.0

    @pytest.mark.parametrize("beta", [-0.1, math.pi + 0.001])
    def test_tangent_angle_out_of_range_rejected(self, beta):
        # an angle outside [0, pi] names no chord, and the event never counts it
        assert length(TANGENT, 0.0, beta) < 0.0
        for t in (0.0, 1.0, SQRT3, 1.99):
            assert not _tangent_event(t)(np.array([beta]))[0]

    def test_polar_at_center_gives_diameter(self):
        assert length(POLAR, 0.0, 1.3) == 2.0

    def test_polar_at_half_radius_gives_triangle_edge(self):
        assert length(POLAR, 0.5, 0.0) == pytest.approx(SQRT3, abs=1e-12)

    def test_polar_on_rim_gives_degenerate_chord(self):
        assert length(POLAR, 1.0, math.pi) == 0.0

    def test_polar_radius_beyond_circle_rejected(self):
        # clamped to the degenerate chord, which beats no threshold
        assert length(POLAR, 1.5, 0.0) == 0.0
        assert not _CHORDS[POLAR].event(0.0)(np.array([1.5]))[0]


class TestTransforms:
    """The polar angle convention (-pi, pi] and the midpoint-to-polar map.

    The chord with midpoint (x, y) meets its orthogonal diameter at
    r = hypot(x, y), theta = atan2(y, x): both kernels give it one length.
    """

    def test_unit_x_axis(self):
        r, theta = math.hypot(1.0, 0.0), math.atan2(0.0, 1.0)
        assert (r, theta) == (1.0, 0.0)
        assert length(POLAR, r, theta) == length(MIDPOINT, 1.0, 0.0) == 0.0

    def test_unit_y_axis(self):
        r, theta = math.hypot(0.0, 1.0), math.atan2(1.0, 0.0)
        assert (r, theta) == (1.0, math.pi / 2.0)
        assert length(POLAR, r, theta) == length(MIDPOINT, 0.0, 1.0) == 0.0

    def test_negative_x_axis_maps_to_plus_pi(self):
        r, theta = math.hypot(-1.0, 0.0), math.atan2(0.0, -1.0)
        assert (r, theta) == (1.0, math.pi)
        assert length(POLAR, r, theta) == length(MIDPOINT, -1.0, 0.0) == 0.0

    def test_round_trip_random_points(self):
        x, y = numpy_chords(MIDPOINT, stream_generator(2024, 0), 10_000)
        r = np.hypot(x, y)
        via_polar = chord_lengths(POLAR, r, np.arctan2(y, x))
        # squared lengths, 4 (1 - r^2): the length itself amplifies the
        # rounding of r^2 without bound at the rim
        assert np.max(np.abs(via_polar**2 - chord_lengths(MIDPOINT, x, y) ** 2)) <= 1e-12
        # the event-only kernel reads x*x + y*y of the same points, bit for bit
        assert np.array_equal(_disc_radius_sq(stream_generator(2024, 0), 10_000), x * x + y * y)

    @given(
        r=st.floats(min_value=1e-9, max_value=1.0, exclude_min=True),
        theta=st.floats(min_value=-math.pi, max_value=math.pi, exclude_min=True),
    )
    def test_round_trip_polar_first(self, r, theta):
        x, y = r * math.cos(theta), r * math.sin(theta)
        # squared lengths, as in test_round_trip_random_points
        squared = length(POLAR, r, theta) ** 2
        assert length(MIDPOINT, x, y) ** 2 == pytest.approx(squared, abs=1e-12)


class TestThresholdEquivalence:
    """Exceeding sqrt(3) is equivalent to a simple condition on each coordinate."""

    def test_polar_radius_criterion(self):
        for r in np.linspace(0.0, 1.0, 10_001):
            chord = length(POLAR, float(r), 0.0)
            if abs(chord - SQRT3) <= GEOMETRY_TOL:
                assert abs(r - 0.5) <= 1e-6
                continue
            assert (chord > SQRT3) == (r < 0.5)

    def test_tangent_angle_criterion(self):
        lo, hi = math.pi / 3.0, 2.0 * math.pi / 3.0
        for beta in np.linspace(0.0, math.pi, 10_001):
            chord = length(TANGENT, 0.0, float(beta))
            if abs(chord - SQRT3) <= GEOMETRY_TOL:
                assert min(abs(beta - lo), abs(beta - hi)) <= 1e-6
                continue
            assert (chord > SQRT3) == (lo < beta < hi)


class TestConsistency:
    def test_midpoint_is_the_chord_diameter_intersection(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            x, y = rng.uniform(-0.7, 0.7, 2)
            if x == 0.0 and y == 0.0:
                continue
            via_polar = length(POLAR, math.hypot(x, y), math.atan2(y, x))
            assert abs(length(MIDPOINT, x, y) - via_polar) <= 1e-12


class TestTypeInvariants:
    """The ranges hold for every array an experiment reads, drawn one trial at a time or in bulk."""

    @staticmethod
    def draws(model, size):
        rng, sample = stream_generator(9, 0), _CHORDS[model].event_sample
        # each array is a view of the thread's scratch, copied before the next draw
        single = [sample(rng, 1).copy() for _ in range(500)]
        return np.concatenate([*single, sample(rng, size)])

    def test_polar_rejects_negative_radius(self):
        r = self.draws(POLAR, 50_000)
        assert np.all((r >= 0.0) & (r <= 1.0))

    def test_tangent_angles_validated(self):
        beta = self.draws(TANGENT, 50_000)
        assert np.all((beta >= 0.0) & (beta <= math.pi))

    def test_point_must_be_finite(self):
        s = self.draws(MIDPOINT, 50_000)
        assert np.all(np.isfinite(s) & np.isfinite(_length_from_radius_sq(s)))
        assert np.all((s >= 0.0) & (s <= 1.0))
