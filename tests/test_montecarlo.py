import concurrent.futures
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bertrand_lab import bertrand, montecarlo
from bertrand_lab.montecarlo import (
    _GOLDEN,
    _MASK64,
    _MIX1,
    _MIX2,
    BATCH_SIZE,
    Estimate,
    Experiment,
    _stream_states,
    derive_stream_seed,
    run,
    stream_generator,
    wilson_interval,
)
from test_stream_identity import replica_count


def constant_experiment(value: bool) -> Experiment:
    return Experiment(
        name=f"always_{value}",
        sample=lambda rng, size: rng.random(size),
        event=lambda u: np.full(len(u), value),
    )


def fair_coin() -> Experiment:
    return Experiment(
        name="fair_coin",
        sample=lambda rng, size: rng.random(size),
        event=lambda u: u < 0.5,
    )


class TestRun:
    def test_always_true(self):
        est = run(constant_experiment(True), 1000, seed=1)
        assert est.p_hat == 1.0
        assert est.successes == 1000
        assert est.n == 1000

    def test_always_false(self):
        est = run(constant_experiment(False), 1000, seed=1)
        assert est.p_hat == 0.0
        assert est.successes == 0

    def test_polar_chord_model_hits_one_half(self):
        est = run(
            bertrand.chord_exceed_experiment(bertrand.ChordModel.POLAR_UNIFORM),
            10**6,
            seed=42,
        )
        assert abs(est.p_hat - 0.5) <= 3.0 * math.sqrt(0.25 / 10**6)

    def test_preconditions(self):
        exp = constant_experiment(True)
        with pytest.raises(ValueError):
            run(exp, 0, seed=1)
        with pytest.raises(ValueError):
            run(exp, 100, seed=1, shards=0)

    def test_estimate_contains_p_hat(self):
        est = run(fair_coin(), 10_000, seed=9)
        assert est.ci_low <= est.p_hat <= est.ci_high


class TestReproducibility:
    def test_identical_inputs_identical_estimate(self):
        a = run(fair_coin(), 100_000, seed=123)
        b = run(fair_coin(), 100_000, seed=123)
        assert a == b

    @pytest.mark.parametrize("shards", [2, 4])
    def test_estimate_independent_of_shard_count(self, shards):
        # the batch decomposition, not the shard count, defines the streams
        base = run(fair_coin(), 4 * BATCH_SIZE, seed=55, shards=1)
        sharded = run(fair_coin(), 4 * BATCH_SIZE, seed=55, shards=shards)
        assert base == sharded

    def test_different_seeds_differ(self):
        a = run(fair_coin(), 100_000, seed=1)
        b = run(fair_coin(), 100_000, seed=2)
        assert a.successes != b.successes

    def test_ragged_tail_batch_is_fine(self):
        est = run(fair_coin(), BATCH_SIZE + 17, seed=3)
        assert est.n == BATCH_SIZE + 17

    def test_seed_recorded(self):
        est = run(fair_coin(), 1000, seed=77)
        assert est.seed == 77


class TestWorkerCap:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Replace the thread pool with a serial stand-in that records its size."""
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        return sizes

    @pytest.fixture
    def host(self, monkeypatch):
        """Make ``os.sched_getaffinity`` give ``affinity`` (no such call when
        None) and ``os.cpu_count()`` give ``count``."""

        def set_host(affinity, count):
            if affinity is None:
                monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
            else:
                monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: affinity, raising=False)
            monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: count)

        return set_host

    @pytest.mark.parametrize(
        "shards, n_batches, cpus, workers",
        [
            (1000, 4, 64, 4),  # no more workers than batches
            (1000, 9, 8, 8),  # no more workers than CPUs
            (3, 9, 8, 3),
            (2, 5, 2, 2),
            (8, 9, None, 1),  # unknown CPU count runs serially
        ],
    )
    def test_workers_capped_by_batches_and_cpus(self, pools, host, shards, n_batches, cpus, workers):
        host(None if cpus is None else set(range(cpus)), cpus)
        n = shards * (n_batches * BATCH_SIZE // shards)
        assert (n + BATCH_SIZE - 1) // BATCH_SIZE == n_batches
        est = run(fair_coin(), n, seed=21, shards=shards)
        assert pools == ([workers] if workers > 1 else [])
        assert est == run(fair_coin(), n, seed=21)

    @pytest.mark.parametrize(
        "affinity, count, workers",
        [
            ({0}, 64, 1),  # as under ``taskset -c 0``: no pool
            ({0, 5}, 64, 2),
            (None, 3, 3),  # no affinity call: os.cpu_count()
        ],
    )
    def test_cpus_are_those_the_process_may_run_on(self, pools, host, affinity, count, workers):
        host(affinity, count)
        n = 9 * BATCH_SIZE
        est = run(fair_coin(), n, seed=21, shards=8)
        assert pools == ([workers] if workers > 1 else [])
        assert est == run(fair_coin(), n, seed=21)

    def test_one_task_per_worker(self, pools, host, monkeypatch):
        mapped = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def map(self, fn, items):
                items = list(items)
                mapped.append(len(items))
                return super().map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        host({0, 1, 2}, 3)
        n = 3 * (10 * BATCH_SIZE + 5)  # 31 batches, the last one ragged
        est = run(fair_coin(), n, seed=21, shards=3)
        assert pools == [3] and mapped == [3]
        assert est == run(fair_coin(), n, seed=21)


class TestStreamSeeding:
    def test_mixing_function_is_pinned(self):
        # frozen values; changing them silently would break reproducibility
        assert derive_stream_seed(42, 0) == 13679457532755275413
        assert derive_stream_seed(42, 1) == 2949826092126892291
        assert derive_stream_seed(2**64 - 1, 3) == 7862637804313477842

    def test_streams_are_distinct(self):
        seen = {derive_stream_seed(42, i) for i in range(1000)}
        assert len(seen) == 1000

    def test_stream_generator_deterministic(self):
        a = stream_generator(42, 5).random(8)
        b = stream_generator(42, 5).random(8)
        assert np.array_equal(a, b)


def unmix(z: int) -> int:
    """The input of SplitMix64's finalizer that gives ``z``: each xorshift
    and odd multiplier undone, last first, mod 2**64."""
    for shift, mult in ((31, _MIX2), (27, _MIX1), (30, 1)):
        x = z
        for _ in range(64 // shift):
            x = z ^ (x >> shift)
        z = x * pow(mult, -1, 1 << 64) & _MASK64
    return z


def numpy_states(seed, indices):
    return [np.random.PCG64(derive_stream_seed(seed, b)).state for b in indices]


class TestStreamStates:
    """``run``'s batch states are numpy's ``PCG64(derive_stream_seed(seed, b))``."""

    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        start=st.integers(min_value=0, max_value=2**64),
        count=st.integers(min_value=1, max_value=40),
    )
    @example(seed=0, start=0, count=1)
    @example(seed=2**64 - 1, start=2**64 - 40, count=40)
    def test_states_are_numpy_pcg64_states(self, seed, start, count):
        indices = range(start, start + count)
        assert list(_stream_states(seed, indices)) == numpy_states(seed, indices)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_states_at_the_extreme_seeds(self, seed):
        indices = range(300)
        assert list(_stream_states(seed, indices)) == numpy_states(seed, indices)

    @pytest.mark.parametrize("derived", [0, 1, 12345, 2**32 - 1, 2**32])
    def test_derived_seed_of_one_entropy_word(self, derived):
        # SeedSequence hashes a seed below 2**32 as one 32-bit word
        b = 5
        seed = (unmix(derived) - (b + 1) * _GOLDEN) & _MASK64
        assert derive_stream_seed(seed, b) == derived
        indices = range(b - 2, b + 3)
        assert list(_stream_states(seed, indices)) == numpy_states(seed, indices)


class TestStateBlocks:
    @pytest.mark.parametrize("model", list(bertrand.ChordModel))
    def test_runs_of_several_blocks_count_what_their_streams_draw(self, model):
        # 301 batches, the last ragged: 3 state blocks at shards 1, 2 per worker at shards 2
        n = 300 * BATCH_SIZE + 17
        assert (n + BATCH_SIZE - 1) // BATCH_SIZE > 2 * montecarlo._STATE_BLOCK
        experiment = bertrand.chord_exceed_experiment(model)
        expected = replica_count(experiment, n, 2**64 - 5)
        for shards in (1, 2):
            assert run(experiment, n, 2**64 - 5, shards).successes == expected, shards

    @pytest.mark.parametrize("shards", [1, 2])
    def test_peak_memory_does_not_grow_with_the_batch_count(self, shards):
        # 4 draws a batch, so the batch states are what could grow; all
        # 1,024 states at once would take about 350 KiB more than 64
        experiment = Experiment("four_draws", lambda rng, size: rng.random(4), lambda u: u < 0.5)

        def peak(batches):
            run(experiment, batches * BATCH_SIZE, 7, shards)
            tracemalloc.start()
            try:
                run(experiment, batches * BATCH_SIZE, 7, shards)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1024) - peak(64) < 160 * 1024


class TestWilsonInterval:
    def test_half_successes_oracle(self):
        # Wilson formula at z = 1.959963984540054 evaluated independently
        # with 40-digit arithmetic
        lo, hi = wilson_interval(50, 100)
        assert lo == pytest.approx(0.4038315303659956, abs=1e-12)
        assert hi == pytest.approx(0.5961684696340044, abs=1e-12)

    def test_zero_successes_pins_lower_bound(self):
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0
        assert 0.0 < hi < 1.0

    def test_all_successes_pins_upper_bound(self):
        lo, hi = wilson_interval(10, 10)
        assert hi == 1.0
        assert 0.0 < lo < 1.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)

    @given(
        n=st.integers(min_value=1, max_value=10_000),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_contains_point_estimate_and_stays_in_unit_interval(self, n, frac):
        successes = int(round(frac * n))
        lo, hi = wilson_interval(successes, n)
        assert 0.0 <= lo <= successes / n <= hi <= 1.0


class TestCoverage:
    def test_nominal_coverage_of_fair_coin(self):
        covered = 0
        for seed in range(200):
            est = run(fair_coin(), 10_000, seed=seed)
            if est.ci_low <= 0.5 <= est.ci_high:
                covered += 1
        # 95% nominal coverage, binomial slack down to 90%
        assert covered >= 180


class TestEstimateInvariants:
    def test_rejects_inconsistent_fields(self):
        with pytest.raises(ValueError):
            Estimate(n=10, successes=11, seed=0)
