"""Experiments that draw into per-thread scratch count what fresh arrays count.

The center-angle event decides in float32 and re-decides in float64 inside a
guard band; its crafted cases sit on, one ulp around and across the edges of
that band.  The scratch buffers are reused across calls of any size on one
thread, and must give the counts of a fresh process and of a sharded run.
"""

import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bertrand_lab.bertrand import (
    TRIANGLE_EDGE,
    ChordModel,
    _disc_batch,
    _disc_radius_sq,
    chord_exceed_experiment,
    sample_chord_batch,
)
from bertrand_lab.buffon import (
    _CENTER_ANGLE_BAND,
    NeedleModel,
    _center_angle_batch,
    _center_angle_crosses,
    _center_angle_event,
    _endpoints_y,
    needle_cross_experiment,
)
from bertrand_lab.montecarlo import BATCH_SIZE, run, stream_generator
from bertrand_lab.squares import X_MAX, square_exceed_experiment
from test_stream_identity import SEEDS, SIZES, needle_crossings, numpy_needles

TILTS = [
    -math.pi / 2.0,
    math.nextafter(-math.pi / 2.0, 0.0),
    -1.0,
    -1e-3,
    0.0,
    1e-3,
    math.pi / 3.0,
    1.0,
    math.nextafter(math.pi / 2.0, 0.0),
    math.pi / 2.0,
]


def edge_offsets(center):
    """``center``, the band edges around it and one ulp either side of each."""
    out = []
    for c in (center - _CENTER_ANGLE_BAND, center, center + _CENTER_ANGLE_BAND):
        out += [math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf)]
    return out


def crafted_cases():
    """(theta, z) on, around and across both crossing edges z = h, 1 - h of each tilt."""
    theta, z = [], []
    for t in TILTS:
        half_span = 0.5 * math.cos(t)
        for edge in (half_span, 1.0 - half_span):
            for value in edge_offsets(edge):
                if 0.0 <= value <= 1.0:
                    theta.append(t)
                    z.append(value)
    return np.array(theta), np.array(z)


def test_center_angle_event_at_its_guard_band():
    theta, z = crafted_cases()
    reference = _center_angle_crosses(theta, z)
    assert np.array_equal(_center_angle_event((theta, z)), reference)
    single = [_center_angle_event((theta[i : i + 1], z[i : i + 1]))[0] for i in range(len(z))]
    assert np.array_equal(single, reference)


@given(
    st.lists(
        st.tuples(
            st.floats(-math.pi / 2.0, math.pi / 2.0),
            st.booleans(),
            st.sampled_from([0.0, -1.0, -0.5, 0.5, 1.0, 2.0, -2.0]),
            st.integers(-3, 3),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_center_angle_event_matches_float64_rule(cases):
    """Around either edge, at band multiples plus a few ulps: float32 with fallback
    decides as the float64 rule."""
    theta, z = [], []
    for t, upper, bands, ulps in cases:
        half_span = 0.5 * math.cos(t)
        value = (1.0 - half_span if upper else half_span) + bands * _CENTER_ANGLE_BAND
        for _ in range(abs(ulps)):
            value = math.nextafter(value, math.copysign(math.inf, ulps))
        theta.append(t)
        z.append(min(1.0, max(0.0, value)))
    theta, z = np.array(theta), np.array(z)
    assert np.array_equal(_center_angle_event((theta, z)), _center_angle_crosses(theta, z))


def test_float32_cosine_stays_inside_half_the_band():
    """The float32 cosine of the float32-rounded tilt, against the float64 cosine,
    on a dense grid over [-pi/2, pi/2]; the event's stated bound takes 3 * 2**-24."""
    theta = np.linspace(-math.pi / 2.0, math.pi / 2.0, 2**22 + 1)
    error = np.abs(np.cos(theta.astype(np.float32)).astype(np.float64) - np.cos(theta))
    assert error.max() <= 3 * 2.0**-24
    assert error.max() < _CENTER_ANGLE_BAND / 2.0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("size", SIZES)
def test_center_angle_batch_is_numpy_uniform(size, seed):
    theta, z = _center_angle_batch(stream_generator(seed, 0), size)
    theta_ref, z_ref = numpy_needles(NeedleModel.CENTER_ANGLE, stream_generator(seed, 0), size)
    assert np.array_equal(theta, theta_ref)
    assert np.array_equal(z, z_ref)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("size", SIZES)
def test_endpoints_y_is_the_public_y(size, seed):
    """The y of numpy's x = uniform(0, 1), y = uniform(x - 1, x + 1), from scratch
    that a larger call on the same thread left dirty."""
    _endpoints_y(stream_generator(seed + 1, 0), 2 * size + 3)
    _, y_ref = numpy_needles(NeedleModel.ENDPOINTS, stream_generator(seed, 0), size)
    assert np.array_equal(_endpoints_y(stream_generator(seed, 0), size), y_ref)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("size", SIZES)
def test_square_draw_is_numpy_uniform(size, seed):
    xs = square_exceed_experiment().sample(stream_generator(seed, 0), size)
    assert np.array_equal(xs, stream_generator(seed, 0).uniform(0.0, X_MAX, size))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("size", SIZES)
def test_midpoint_radius_sq_is_the_public_points(size, seed):
    x, y = _disc_batch(stream_generator(seed, 0), size)
    assert np.array_equal(_disc_radius_sq(stream_generator(seed, 0), size), x * x + y * y)


@pytest.mark.parametrize("size", [1, 5, 1000, 20_000, 40_000])
def test_midpoint_radius_sq_leaves_the_stream_where_the_public_sampler_does(size):
    public, event = stream_generator(3, 0), stream_generator(3, 0)
    sample_chord_batch(ChordModel.MIDPOINT_UNIFORM, public, size)
    _disc_radius_sq(event, size)
    assert np.array_equal(event.random(3), public.random(3))


class ShortBlock:
    """A generator stand-in: its first block keeps one point, (0.5, 0), and
    proposes the corner (-1, -1) for the rest; later blocks propose the center.
    It ignores the walk's closing rewind."""

    def __init__(self):
        self.blocks = 0
        self.bit_generator = SimpleNamespace(advance=lambda delta: None)

    def random(self, out):
        out[...] = 0.5 if self.blocks else 0.0
        if not self.blocks:
            out[:2] = 0.75, 0.5
        self.blocks += 1
        return out


def test_midpoint_block_that_falls_short_draws_another():
    rng = ShortBlock()
    assert np.array_equal(_disc_radius_sq(rng, 5), [0.25, 0.0, 0.0, 0.0, 0.0])
    assert rng.blocks == 2


EXPERIMENTS = {
    "midpoint": lambda: chord_exceed_experiment(ChordModel.MIDPOINT_UNIFORM),
    "center_angle": lambda: needle_cross_experiment(NeedleModel.CENTER_ANGLE),
}
# the last size is larger than every earlier one, and larger than any kept buffer
REUSE_SIZES = [1, 17, BATCH_SIZE + 1, 17, 3 * BATCH_SIZE + 2]
REUSE_SEED = 7


def reference_count(name, size, seed):
    """The batch's count rebuilt from fresh arrays: sample_chord_batch's chords, or numpy's needles."""
    rng = stream_generator(seed, 0)
    if name == "midpoint":
        return int(np.count_nonzero(sample_chord_batch(ChordModel.MIDPOINT_UNIFORM, rng, size)[2] > TRIANGLE_EDGE))
    model = NeedleModel.CENTER_ANGLE
    return int(np.count_nonzero(needle_crossings(model, *numpy_needles(model, rng, size))))


def counts(name, size, seed):
    """One batch of ``size`` trials from stream 0, and a ``run`` of ``size`` trials."""
    experiment = EXPERIMENTS[name]()
    batch = experiment.event(experiment.sample(stream_generator(seed, 0), size))
    return [int(np.count_nonzero(batch)), run(experiment, size, seed).successes]


def fresh_counts(name, size, seed):
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); "
        "from test_batch_scratch import counts; "
        "print(json.dumps(counts(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).parent), name, str(size), str(seed)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
        timeout=120,
    )
    return json.loads(proc.stdout)


def test_scratch_reuse_on_one_thread_counts_as_fresh_processes():
    calls = [(name, size) for size in REUSE_SIZES for name in ("midpoint", "center_angle", "midpoint")]
    reused = {}
    for name, size in calls:
        got = counts(name, size, REUSE_SEED)
        assert reused.setdefault((name, size), got) == got, (name, size)
    for (name, size), got in reused.items():
        assert fresh_counts(name, size, REUSE_SEED) == got, (name, size)
        assert reference_count(name, size, REUSE_SEED) == got[0], (name, size)
        if size % 2 == 0:
            assert run(EXPERIMENTS[name](), size, REUSE_SEED, shards=2).successes == got[1]


def test_public_midpoint_call_leaves_a_held_batch_alone():
    """The public sampler runs the walk the experiment does, but in scratch of its own."""
    experiment = EXPERIMENTS["center_angle"]()
    held = experiment.sample(stream_generator(REUSE_SEED, 0), BATCH_SIZE)
    before = int(np.count_nonzero(experiment.event(held)))
    sample_chord_batch(ChordModel.MIDPOINT_UNIFORM, stream_generator(REUSE_SEED, 1), BATCH_SIZE)
    assert int(np.count_nonzero(experiment.event(held))) == before


def test_scratch_is_private_to_each_thread():
    """More threads than cores, switching often: each batch counts as it does alone."""
    jobs = [(name, b) for b in range(12) for name in EXPERIMENTS]

    def batch_count(job):
        name, b = job
        experiment = EXPERIMENTS[name]()
        hits = experiment.event(experiment.sample(stream_generator(REUSE_SEED, b), BATCH_SIZE))
        return int(np.count_nonzero(hits))

    alone = [batch_count(job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(batch_count, job) for job in jobs]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == alone
