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
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Any, Callable

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


def _scratch(name: str, size: int, dtype: type = np.float64) -> np.ndarray:
    """``size`` elements of the calling thread's reusable buffer ``name``.

    The buffer is kept per thread and per (name, dtype), grows to the
    largest request up to ``_SCRATCH_CAP`` elements and is freed when the
    thread exits; larger requests get a fresh array.  The view is
    overwritten by the thread's next request for the same buffer.  Names
    are roles shared by every experiment, so a thread keeps one set: the
    samplers draw into ``"draws"``, the events work in ``"event"``.  The
    midpoint rejection walk works in ``"disc.*"`` of its own, because the
    public chord sampler runs it too and must not overwrite a batch that
    an experiment holds.
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
    or CPUs, may process batches concurrently, worker ``w`` taking batches
    ``w, w + workers, ...``; the result does not depend on it (see module
    docstring).  Raises ValueError when n < 1 or shards < 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    seed &= _MASK64

    n_batches = (n + BATCH_SIZE - 1) // BATCH_SIZE
    workers = min(shards, n_batches, os.cpu_count() or 1)

    def count(worker: int) -> int:
        # one task per worker, so memory does not grow with the batch count
        hits = 0
        for b in range(worker, n_batches, workers):
            rng = stream_generator(seed, b)
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
