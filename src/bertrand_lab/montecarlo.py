"""Seeded, reproducible Monte Carlo engine for Bernoulli experiments.

Reproducibility contract
------------------------
A run is a pure function of ``(experiment, n, seed)``.  The n
trials are split into fixed-size logical batches of ``BATCH_SIZE`` samples;
batch ``b`` draws from its own PCG64 generator seeded with
``derive_stream_seed(seed, b)``.  The ``shards`` argument only distributes
whole batches across worker threads, so the estimate is bit-identical for
any shard count and for any physical parallelism.  Batch results are
combined as exact integer success counts, never as float averages.
``run`` derives its batch states in blocks, each equal to
``PCG64(derive_stream_seed(seed, b))`` bit for bit, and a test pins that.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

# Number of samples drawn from each logical generator stream.  Part of the
# reproducibility contract: changing it changes every estimate.
BATCH_SIZE = 1 << 15

# Largest request, in elements, that ``_scratch`` serves from a kept buffer:
# two doubles per trial of a full batch.
_SCRATCH_CAP = 2 * BATCH_SIZE
_SCRATCH = threading.local()

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx), the
# PCG64 128-bit multiplier (pcg64.h), and the most batch states that
# ``_stream_states`` computes at once, so that memory does not grow with n.
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_STATE_BLOCK = 128

# The standard normal quantile at 0.975, ``NormalDist().inv_cdf(0.975)`` to
# the last bit: every interval here is a 95% Wilson score interval.
WILSON_Z = 1.9599639845400536


def derive_stream_seed(seed: int, index: int) -> int:
    """Derive the 64-bit seed of logical stream ``index`` from the run seed.

    SplitMix64 finalizer applied to ``seed + (index + 1) * golden`` where
    ``golden = 0x9E3779B97F4A7C15``; all arithmetic mod 2**64.  Bit-exact by
    construction, so shard streams can be re-derived by any implementation.
    """
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def stream_generator(seed: int, index: int) -> np.random.Generator:
    """PCG64 generator for logical stream ``index`` of a run seeded ``seed``."""
    return np.random.Generator(np.random.PCG64(derive_stream_seed(seed, index)))


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's hash constant before each of ``count`` hashes and after the last,
    as a column: ``init * mult**k mod 2**32`` for k = 0 ... count."""
    return np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(count + 1)], np.uint32)[:, None]


# the constants of SeedSequence's 16 pool hashes (4 to fill the pool of four
# words, 12 to mix it) and of the 8 that generate_state(4, uint64) draws
_HASH_A = _hash_constants(_HASH_INIT_A, _HASH_MULT_A, 16)
_HASH_B = _hash_constants(_HASH_INIT_B, _HASH_MULT_B, 8)


def _hashmix(value: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix``: ``value ^ before``, times ``after``, xor its upper half."""
    value = (value ^ before) * after
    return value ^ (value >> np.uint32(16))


def _stream_states(seed: int, indices: range) -> Iterator[dict[str, Any]]:
    """``np.random.PCG64(derive_stream_seed(seed, b)).state`` for each ``b``
    in ``indices``, bit for bit, without building a ``SeedSequence``.

    The states are computed ``_STATE_BLOCK`` indices at a time.
    SeedSequence's pool hash runs across a block in ``uint32`` arrays,
    which wrap mod 2**32 as its C code does: ``mix_entropy`` over the seed's
    32-bit words, low word first, into a pool of four, then
    ``generate_state(4, uint64)``.  A seed below 2**32
    has one word, but the pool hashes a missing word as 0, which is its
    high word, so every seed is hashed as two words.  PCG64's set-seq
    seeding then runs in Python ints.
    """
    for start in range(0, len(indices), _STATE_BLOCK):
        block = indices[start : start + _STATE_BLOCK]
        seeds = np.array([derive_stream_seed(seed, b) for b in block], dtype=np.uint64)
        pool = np.zeros((4, len(seeds)), np.uint32)
        pool[0] = seeds & np.uint64(_MASK32)
        pool[1] = seeds >> np.uint64(32)
        pool = _hashmix(pool, _HASH_A[:4], _HASH_A[1:5])
        # each word in turn mixes its hash into the other three (SeedSequence's
        # ``mix``), which leaves it unchanged: hashes 4 + 3 * src ... 6 + 3 * src
        for src in range(4):
            dst, k = [d for d in range(4) if d != src], 4 + 3 * src
            mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * _hashmix(
                pool[src], _HASH_A[k : k + 3], _HASH_A[k + 1 : k + 4]
            )
            pool[dst] = mixed ^ (mixed >> np.uint32(16))
        words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B[:8], _HASH_B[1:]).astype(np.uint64)
        # uint64 words from little-endian pairs: initstate high, low, then initseq high, low
        for state_hi, state_lo, seq_hi, seq_lo in (words[0::2] | words[1::2] << np.uint64(32)).T.tolist():
            inc = ((seq_hi << 65) | (seq_lo << 1) | 1) & _MASK128
            value = ((inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc) & _MASK128
            yield {"bit_generator": "PCG64", "state": {"state": value, "inc": inc}, "has_uint32": 0, "uinteger": 0}


def _scratch(name: str, size: int, dtype: type = np.float64) -> np.ndarray:
    """``size`` elements of the calling thread's reusable buffer ``name``.

    The buffer is kept per thread and per (name, dtype), grows to the
    largest request up to ``_SCRATCH_CAP`` elements and is freed when the
    thread exits; larger requests get a fresh array.  The view is
    overwritten by the thread's next request for the same buffer.  Names
    are roles shared by every experiment, so a thread keeps one set: the
    samplers draw into ``"draws"``, the events work in ``"event"``.  The
    midpoint rejection walk holds each block of proposals in ``"disc.*"``
    while it gathers the points it keeps into ``"batch"``.
    """
    if size > _SCRATCH_CAP:
        return np.empty(size, dtype)
    buffers = _SCRATCH.__dict__
    buf = buffers.get((name, dtype))
    if buf is None or len(buf) < size:
        buf = buffers[(name, dtype)] = np.empty(size, dtype)
    return buf[:size]


@dataclass(frozen=True)
class Experiment:
    """A Bernoulli trial: a batch sampler plus a deterministic event predicate.

    ``sample(rng, size)`` draws ``size`` trials from the given generator and
    returns them in any batch form; ``event(batch)`` maps that batch to a
    boolean array with one entry per trial.  The batch may be a view into
    the calling thread's scratch buffers (``_scratch``), valid until that
    thread's next ``sample``: pass it to ``event`` before drawing again.
    """

    name: str
    sample: Callable[[np.random.Generator, int], Any]
    event: Callable[[Any], np.ndarray]


@dataclass(frozen=True)
class Estimate:
    """``successes`` of ``n`` trials from run seed ``seed``, with its point
    estimate and 95% Wilson score interval for the event probability."""

    n: int
    successes: int
    seed: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= self.successes <= self.n:
            raise ValueError("successes must lie in [0, n]")

    @property
    def p_hat(self) -> float:
        return self.successes / self.n

    @property
    def ci_low(self) -> float:
        return wilson_interval(self.successes, self.n)[0]

    @property
    def ci_high(self) -> float:
        return wilson_interval(self.successes, self.n)[1]


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Well-behaved at 0 and n successes and never leaves [0, 1].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= successes <= n:
        raise ValueError("successes must lie in [0, n]")
    z = WILSON_Z
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    margin = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    # the boundary endpoints are exactly 0 and 1 algebraically; don't let
    # floating-point roundoff pull them inside
    low = 0.0 if successes == 0 else max(0.0, center - margin)
    high = 1.0 if successes == n else min(1.0, center + margin)
    return low, high


def run(experiment: Experiment, n: int, seed: int, shards: int = 1) -> Estimate:
    """Run ``n`` Bernoulli trials of ``experiment`` and estimate P(event).

    Up to ``shards`` worker threads, but never more than there are batches
    or CPUs this process may run on, may process batches concurrently,
    worker ``w`` taking batches ``w, w + workers, ...``; the result does not
    depend on it (see module docstring).  Raises ValueError when n < 1 or
    shards < 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    seed &= _MASK64

    n_batches = (n + BATCH_SIZE - 1) // BATCH_SIZE
    # the CPUs this process may run on: under ``taskset -c 0`` that is 1,
    # whatever os.cpu_count() says
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(shards, n_batches, cpus)

    def count(worker: int) -> int:
        # one task per worker, and its batch states a block at a time, so
        # memory does not grow with the batch count; the worker's one
        # generator is set to each batch's stream before the batch draws
        rng = np.random.Generator(np.random.PCG64(0))
        mine = range(worker, n_batches, workers)
        hits = 0
        for b, state in zip(mine, _stream_states(seed, mine)):
            rng.bit_generator.state = state
            batch = experiment.sample(rng, min(BATCH_SIZE, n - b * BATCH_SIZE))
            hits += int(np.count_nonzero(experiment.event(batch)))
        return hits

    if workers == 1:
        successes = count(0)
    else:
        # imported here, so a serial run does not load concurrent.futures and logging
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            successes = sum(pool.map(count, range(workers)))

    return Estimate(n=n, successes=successes, seed=seed)
