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

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bertrand_lab.bertrand import (
    TRIANGLE_EDGE,
    ChordModel,
    _disc_radius_sq,
    _tangent_beta,
    chord_exceed_experiment,
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
from test_stream_identity import SEEDS, SIZES, chord_lengths, needle_crossings, numpy_chords, numpy_needles

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
    x, y = numpy_chords(ChordModel.MIDPOINT_UNIFORM, stream_generator(seed, 0), size)
    assert np.array_equal(_disc_radius_sq(stream_generator(seed, 0), size), x * x + y * y)


class Recorded:
    """A generator wrapper that notes the length of each block the walk draws."""

    def __init__(self, rng):
        self.rng, self.blocks = rng, []

    def random(self, out):
        self.blocks.append(len(out))
        return self.rng.random(out=out)


def walk_blocks(rng, size):
    """The lengths of the blocks the midpoint walk draws for ``size`` points from ``rng``."""
    recorded = Recorded(rng)
    _disc_radius_sq(recorded, size)
    return recorded.blocks


def kept_points(draws):
    """How many of the (u, v) pairs in ``draws`` the walk keeps."""
    half = np.square(draws - 0.5)
    return int(np.count_nonzero(half[0::2] + half[1::2] <= 0.25))


@pytest.mark.parametrize("size", [1, 5, 1000, 20_000, 40_000])
def test_midpoint_radius_sq_leaves_the_stream_after_its_last_block(size):
    """The walk draws whole blocks, stops at the first that completes the batch, and draws nothing else."""
    rng, twin = stream_generator(3, 0), stream_generator(3, 0)
    blocks = walk_blocks(stream_generator(3, 0), size)
    _disc_radius_sq(rng, size)
    kept = [kept_points(twin.random(block)) for block in blocks]
    assert sum(kept[:-1]) < size <= sum(kept)
    assert np.array_equal(rng.random(3), twin.random(3))


def test_midpoint_walk_keeps_the_buffered_half_word():
    """32-bit draws after the walk continue as after the same blocks drawn with random."""
    rng, recorded, twin = (np.random.Generator(np.random.PCG64(3)) for _ in range(3))
    assert rng.integers(0, 1000, dtype=np.int32) == twin.integers(0, 1000, dtype=np.int32) == 811
    recorded.integers(0, 1000, dtype=np.int32)
    _disc_radius_sq(rng, 10)
    for block in walk_blocks(recorded, 10):
        twin.random(block)
    draws = [int(g.integers(0, 1000, dtype=np.int32)) for g in (rng, twin) for _ in range(3)]
    assert draws[:3] == draws[3:]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("size", SIZES)
def test_tangent_beta_is_the_public_beta(size, seed):
    """The tangent experiment's beta is numpy's, and its stream ends where numpy's does."""
    rng, reference = stream_generator(seed, 0), stream_generator(seed, 0)
    _, beta = numpy_chords(ChordModel.TANGENT_ANGLE_UNIFORM, reference, size)
    assert np.array_equal(_tangent_beta(rng, size), beta)
    assert rng.random() == reference.random()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("size", SIZES)
def test_polar_radius_is_the_public_r(size, seed):
    """The polar experiment's r is numpy's; it never draws the theta numpy draws after r."""
    model = ChordModel.POLAR_UNIFORM
    r, _ = numpy_chords(model, stream_generator(seed, 0), size)
    assert np.array_equal(chord_exceed_experiment(model).sample(stream_generator(seed, 0), size), r)


class ShortBlock:
    """A generator stand-in: its first block keeps one point, (0.5, 0), and
    proposes the corner (-1, -1) for the rest; later blocks propose the center."""

    def __init__(self):
        self.blocks = 0

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
    """The batch's count rebuilt from fresh arrays: numpy's chords, or numpy's needles."""
    rng = stream_generator(seed, 0)
    if name == "midpoint":
        model = ChordModel.MIDPOINT_UNIFORM
        return int(np.count_nonzero(chord_lengths(model, *numpy_chords(model, rng, size)) > TRIANGLE_EDGE))
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
