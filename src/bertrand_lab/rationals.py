"""Random rationals in [0, 1] via a random denominator and a uniform numerator.

A rational Q = N/M is drawn by picking the denominator M from a law on
{1, 2, ...} and then the numerator N uniformly on {0, ..., M}.  Because every
rational has infinitely many representations (1/2 = 2/4 = 3/6 = ...), the
probability of a canonical value n/m is a series over all its multiples:

    P{Q = n/m} = sum over l >= 1 of  P{M = l*m} / (l*m + 1)

Interval probabilities and the CDF have the same series structure, with the
per-denominator factor counting how many numerators land in the window.
Flattening the denominator law (success rate 1/k geometric, or mean-k
Poisson) drives every atom's probability to zero while interval
probabilities converge to interval length: the law becomes asymptotically
equiprobable even though no uniform distribution on the rationals exists.
A geometric law with 1 - w >= 1/2 and a Poisson law with mean >= 1 also
state G(z) = E[z^M / (M + 1)] in closed form, and an atom n/d of theirs is the
roots-of-unity filter of G: d values of G instead of L/d terms
(``atom_probability`` says when it is taken).  E[1/M] and H_k are closed forms.
Every other quantity is a series, truncated where the denominator law's exact
tail mass drops below ``tol``, which bounds the truncation error by ``tol``
because every summand is dominated by its pmf factor.  The series stream over
the denominators in chunks of ``_CHUNK_CELLS`` denominators, so memory does
not grow with the truncation index L; a series of more than ``_BUDGET_CELLS``
cells (denominators times evaluation points, or for ``cdf_grid``'s fold on a
grid i/n the cells it computes), or one past ``_MAX_DENOMINATOR``, raises
``ValueError`` before any work, naming its range, and so does an atom whose
series would.  Each chunk is computed in place, in buffers allocated once per
call (``PoissonLaw.pmf_array``'s and ``cdf_grid``'s fold's once per chunk), a
chunk whose pmf is 0 everywhere is skipped (it would add +0.0), and a window
series exactly rounds each point's chunk sums with ``math.fsum``.  No series
calls BLAS.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

DEFAULT_TOL = 1e-10

# Below this argument log-gamma comes from math.lgamma, above from Stirling's
# series, whose first omitted term is about 1.4e-18 there.
_STIRLING_FROM = 16.0
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_EULER_GAMMA = 0.5772156649015329

# A series is summed 2**16 denominators at a time, and refused beyond 2**32
# cells (denominators times evaluation points).
_CHUNK_CELLS = 1 << 16
_BUDGET_CELLS = 1 << 32

# Denominators are int64; below 2**62 a walk m, m + step, ... with step <= m
# ends within int64 one step past its last denominator.
_MAX_DENOMINATOR = (1 << 62) - 1

# float64 holds every integer below 2**53 exactly
_EXACT_FLOAT = 1 << 53

# cdf_grid folds the law modulo n for points fl(i/n) up to this n; Dekker's
# 2**27 + 1 splits a float into halves whose products with such n are exact
_FOLD_MAX_N = 1 << 12
_SPLIT = float((1 << 27) + 1)
# A denominator of the fold (its residue bin, m/n, floor and product) costs as
# much as 2.3 to 4 of the walk's cells (one point at one denominator), as timed
# at geometric k = 1e4, 1e5 and Poisson 1e5; the top of that range leaves near
# ties to the walk.
_FOLD_CELLS = 4

# A law's G is within this of G(1) of its value at the float point it is given:
# 256 ulps.  Both closed forms cancel by at most a factor 6 against G(1) (for
# q >= 1/2, 1/(ln 2 - 1/2); for means >= 1, (mean + 1)/(mean - 1 + e^-mean)).
_G_ERROR = 2.0**-44


@dataclass(frozen=True)
class Rational:
    """A canonical (co-prime) rational n/m with 0 <= n <= m and m >= 1."""

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        n, m = self.numerator, self.denominator
        if m < 1 or not 0 <= n <= m:
            raise ValueError(f"need 0 <= n <= m with m >= 1, got {n}/{m}")
        if math.gcd(n, m) != 1:
            raise ValueError(f"{n}/{m} is not in canonical form")

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


def canonicalize(n: int, m: int) -> Rational:
    """Reduce n/m to its unique co-prime representation (0 becomes 0/1)."""
    if m < 1 or not 0 <= n <= m:
        raise ValueError(f"need 0 <= n <= m with m >= 1, got {n}/{m}")
    g = math.gcd(n, m)
    return Rational(n // g, m // g)


def _check_tol(tol: float) -> None:
    # a tol of 1 or more certifies nothing: every law's tail is below it from m = 1
    if not 0.0 < tol < 1.0:  # NaN fails too
        raise ValueError(f"tol must lie in (0, 1), got {tol}")


def _check_walk(ms: range, points: int = 1) -> None:
    """Raise ValueError when the walk over the denominators ``ms`` exceeds
    ``_BUDGET_CELLS`` cells (denominators times ``points`` evaluation points)
    or reaches past ``_MAX_DENOMINATOR``; an empty walk passes."""
    if not ms:
        return
    # from the ends, which stay exact where len() overflows sys.maxsize
    lo, hi = sorted((ms[0], ms[-1]))
    cells = ((hi - lo) // abs(ms.step) + 1) * points
    if cells > _BUDGET_CELLS:
        raise ValueError(
            f"series over m = {lo}..{hi} at {points} point(s) is {cells} cells, "
            f"over the budget of {_BUDGET_CELLS}"
        )
    if hi > _MAX_DENOMINATOR:
        raise ValueError(
            f"series over m = {lo}..{hi} passes the largest denominator {_MAX_DENOMINATOR}"
        )


def _blocks(ms: range) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The denominators ``ms`` in order, as arrays ``m`` of ``_CHUNK_CELLS``, each
    with ``after``, the denominators that follow them: m + ``ms.step``.

    They are float64 while the walk stays below ``_EXACT_FLOAT``, and int64
    from there on, so every denominator is exact.  Both are views of one buffer
    allocated once per walk, one entry apart: the caller may overwrite them, and
    the next block does.  ``_check_walk(ms)`` runs before the first block.
    """
    if not ms:
        return
    _check_walk(ms)
    dtype = np.float64 if max(ms[0], ms[-1]) < _EXACT_FLOAT else np.int64
    steps = np.arange(min(_CHUNK_CELLS, len(ms)) + 1, dtype=dtype) * ms.step
    buf = np.empty_like(steps)
    for s in range(0, len(ms), _CHUNK_CELLS):
        n = min(_CHUNK_CELLS, len(ms) - s)
        np.add(steps[: n + 1], ms[s], out=buf[: n + 1])
        yield buf[:n], buf[1 : n + 1]


def _chunks(law: DenominatorLaw, ms: range) -> Iterator[tuple[np.ndarray, ...]]:
    """Yield ``(m, p, w, v, after)`` over ``_blocks(ms)``: ``p`` is
    ``law.pmf_array(m)``, and ``w`` and ``v`` free float64 arrays of its length,
    all reused like ``m``.  A block whose pmf is 0 everywhere (it underflowed)
    is skipped, because it would add +0.0 to every series.
    """
    buf = None
    for m, after in _blocks(ms):
        # the first block is the longest, so its buffer serves every later one
        if buf is None:
            buf = np.empty((3, len(m)))
        p, w, v = buf[:, : len(m)]
        law.pmf_array(m, out=p)
        # testing the ends first spares most blocks the full scan
        if p[0] or p[-1] or p.any():
            yield m, p, w, v, after


def _series(law: DenominatorLaw, top: int, xs: np.ndarray, a=None, step: int = 1) -> np.ndarray:
    """For each point x of the float64 array ``xs``, the window series over
    m = step, 2 step, ... up to ``top``, the law's truncation index: the sum of
    p (floor(m x) - floor(m a)) / (m + 1), with floor(m a) = -1 without ``a``.
    ``_floor_sums`` computes each chunk's cells in that order and sums each
    point's row pairwise, and ``math.fsum`` exactly rounds each point's chunk sums."""
    # a walk from 1 has at most _BUDGET_CELLS denominators: m is float64, and m + 1
    # its blocks' ``after``; v holds floor(m a) there, or m + 1 on an atom's walk
    ms = range(step, top + 1, step)
    _check_walk(ms, xs.size)
    assert a is None or step == 1
    # one point tiles into the chunk's free row w, more points into one buffer
    sums, cells = [], None if xs.size == 1 else np.empty(min(xs.size * len(ms), _CHUNK_CELLS))

    def cell(grid, out):
        # p (floor(x m) - floor(a m)) / (m + 1), in place and in that order
        np.multiply(np.subtract(np.floor(grid, out=grid), low, out=grid), p, out=grid)
        grid /= m1

    for m, p, w, v, after in _chunks(law, ms):
        low = -1.0 if a is None else np.floor(np.multiply(m, a, out=v), out=v)
        m1 = after if step == 1 else np.add(m, 1.0, out=v)
        sums.append(_floor_sums(xs, m, None, cell, w if cells is None else cells))
    sums = np.reshape(sums, (-1, xs.size))
    # one chunk's sums are exactly rounded as they stand, and most grids take one chunk
    return sums[0] if len(sums) == 1 else np.array([math.fsum(s) for s in sums.T.tolist()])


class DenominatorLaw(ABC):
    """A probability mass function over denominators m = 1, 2, ...

    A law states G(z) = E[z^M / (M + 1)] as a method ``G`` of complex arrays
    z on the unit circle, each value within ``_G_ERROR`` * G(1), only where
    its closed form holds to that; elsewhere ``G`` is None, as for the table
    laws, and its atoms take the series.
    """

    G: Callable[[np.ndarray], np.ndarray] | None = None
    mean_reciprocal: float  # E[1/M], which each law sets from its closed form

    @abstractmethod
    def pmf_array(self, ms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """P{M = m} at each m of an array of integers (integer or exact float
        dtype), written into the float64 array ``out`` of its shape if given."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` denominators as a fresh int64 array, which the caller may write."""

    @abstractmethod
    def truncation_index(self, tol: float) -> int:
        """Smallest m with tail mass P{M > m} <= tol: the series length that
        certifies ``tol``, which must lie in (0, 1)."""


class GeometricLaw(DenominatorLaw):
    """P{M = m} = w (1-w)^(m-1): memoryless, mode at m = 1, sup = w."""

    def __init__(self, w: float):
        if not 0.0 < w < 1.0:
            raise ValueError(f"w must lie in (0, 1), got {w}")
        self.w = float(w)
        self._log_1mw = math.log1p(-self.w)
        self._q = 1.0 - self.w
        self.mean_reciprocal = -self.w * math.log(self.w) / self._q
        # below q = 1/2 the closed form cancels, and L < _CHUNK_CELLS even at tol 5e-324
        if self._q < 0.5:
            self.G = None

    def pmf_array(self, ms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        ms = np.asarray(ms)
        out = np.subtract(ms, 1.0, out=np.empty(ms.shape) if out is None else out)
        out *= self._log_1mw
        np.exp(out, out=out)
        out *= self.w
        return out

    def sup_pmf(self) -> float:
        return self.w

    def G(self, z: np.ndarray) -> np.ndarray:
        """With c = q z and q = 1 - w >= 1/2: (w/q) (-log(1 - c) - c) / c, where
        1 - c is formed as (1 - z) + w z so that z = 1 loses nothing."""
        c = self._q * z
        return self.w / self._q * (-np.log((1.0 - z) + self.w * z) - c) / c

    def truncation_index(self, tol: float) -> int:
        _check_tol(tol)
        index = math.log(tol) / self._log_1mw
        if math.isinf(index):
            raise ValueError(f"w = {self.w!r} is too small to truncate its series at tol = {tol}")
        return max(1, math.ceil(index))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # numpy's draws saturate at the int64 maximum for tiny w
        ms = rng.geometric(self.w, size).astype(np.int64, copy=False)
        if ms.max(initial=1) > _MAX_DENOMINATOR:
            raise ValueError(f"{self!r} drew a denominator above {_MAX_DENOMINATOR}")
        return ms

    def __repr__(self) -> str:
        return f"GeometricLaw(w={self.w!r})"


def _log_gamma(x: np.ndarray, out: np.ndarray, r: np.ndarray, series: np.ndarray) -> np.ndarray:
    """ln Gamma(x) elementwise into ``out`` for x >= 1 (+inf below 1); ``r``
    and ``series`` are float64 work arrays of ``x``'s shape."""
    # Stirling's series everywhere, in place; arguments below _STIRLING_FROM
    # are overwritten after it, so their warnings are moot, and above 1.3e154
    # x * x overflows to inf, whose reciprocal 0 is the series' own limit
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(1.0, np.multiply(x, x, out=r), out=r)
        series.fill(0.0)
        for c in reversed(_STIRLING):
            series *= r
            series += c
        series /= x
        np.subtract(x, 0.5, out=out)
        out *= np.log(x, out=r)
        out -= x
        out += _HALF_LOG_2PI
        out += series
    if x.min(initial=_STIRLING_FROM) < _STIRLING_FROM:
        small = x < _STIRLING_FROM
        out[small] = [math.lgamma(v) if v >= 1.0 else math.inf for v in x[small].tolist()]
    return out


class PoissonLaw(DenominatorLaw):
    """M = 1 + Poisson(mean): P{M = m} = exp(-mean) mean^(m-1) / (m-1)!."""

    def __init__(self, mean: float):
        if not 0.0 < mean < math.inf:
            raise ValueError(f"mean must be finite and > 0, got {mean}")
        self.mean = float(mean)
        self._log_mean = math.log(self.mean)
        self.mean_reciprocal = -math.expm1(-self.mean) / self.mean
        # below mean 1 the closed form cancels, and L < _CHUNK_CELLS even at tol 5e-324
        if self.mean < 1.0:
            self.G = None

    def pmf_array(self, ms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # log-space evaluation stays finite far into the tail and for large means
        x = np.asarray(ms, dtype=np.float64)
        buf = np.empty((2, *x.shape))
        r, tilt = buf[0, ...], buf[1, ...]
        out = _log_gamma(x, np.empty(x.shape) if out is None else out, r, tilt)
        np.subtract(x, 1.0, out=tilt)
        tilt *= self._log_mean
        tilt += -self.mean
        np.subtract(tilt, out, out=out)
        return np.exp(out, out=out)

    def _bulk(self, log_slack: float) -> tuple[int, int]:
        """Denominators [lo, hi] with under exp(-log_slack) of the mass on either side.

        Bernstein's bound P{|Poisson - mean| >= t} <= exp(-t^2 / (2 (mean + t/3)))
        on each side, solved for t.
        """
        c = log_slack
        t = c / 3.0 + math.sqrt(c * c / 9.0 + 2.0 * c * self.mean)
        if math.isinf(t):
            raise ValueError(f"mean = {self.mean!r} is too large to bound its series")
        return max(1, math.floor(1.0 + self.mean - t)), math.ceil(1.0 + self.mean + t)

    def truncation_index(self, tol: float) -> int:
        """Smallest m with P{M > m} <= tol, from one running sum down the bulk,
        where the mass beyond is below tol * 1e-17."""
        _check_tol(tol)
        lo, hi = self._bulk(40.0 - math.log(tol))
        # above = P{m <= M <= hi} = P{M > m - 1} up to the cut, for m = hi, hi-1, ...;
        # a cumsum per chunk from the carry adds in the same order as one cumsum.
        # It never falls, so the first m where it passes tol is the answer.
        above = 0.0
        for m, p, *_ in _chunks(self, range(hi, lo - 1, -1)):
            p[0] += above
            run = np.cumsum(p, out=p)
            if run[-1] > tol:
                return max(1, int(m[np.searchsorted(run, tol, side="right")]))
            above = float(run[-1])
        return max(1, lo - 1)

    def G(self, z: np.ndarray) -> np.ndarray:
        """With c = mean z and mean >= 1: z ((c - 1) e^(c - mean) + e^-mean) / c^2."""
        c = self.mean * z
        return z * ((c - 1.0) * np.exp(c - self.mean) + math.exp(-self.mean)) / (c * c)

    def sup_pmf(self) -> float:
        # Poisson mode at floor(mean) (two tied modes for integer mean)
        mode = math.floor(self.mean)
        return float(self.pmf_array(np.array([max(1, mode), mode + 1])).max())

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        ms = rng.poisson(self.mean, size).astype(np.int64, copy=False)
        ms += 1
        return ms

    def __repr__(self) -> str:
        return f"PoissonLaw(mean={self.mean!r})"


class CustomLaw(DenominatorLaw):
    """A finite pmf table {m: probability}; must sum to 1 within 1e-12."""

    def __init__(self, table: Mapping[int, float]):
        if not table:
            raise ValueError("table must be non-empty")
        if not 1 <= min(table) <= max(table) <= _MAX_DENOMINATOR:
            raise ValueError(f"denominators must lie in 1..{_MAX_DENOMINATOR}")
        ms = np.array(sorted(table), dtype=np.int64)
        ps = np.array([table[int(m)] for m in ms], dtype=np.float64)
        if not np.all(np.isfinite(ps) & (ps >= 0.0)):
            raise ValueError("probabilities must be finite and >= 0")
        total = float(ps.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"table sums to {total}, not 1")
        self._ms = ms
        self._ps = ps
        self.mean_reciprocal = math.fsum(p / m for m, p in zip(ms.tolist(), ps.tolist()))
        # _above[i] = P{M >= ms[i]}, with a trailing 0 for P{M > ms[-1]}
        self._above = np.append(np.cumsum(ps[::-1])[::-1], 0.0)

    def pmf_array(self, ms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        ms = np.asarray(ms)
        i = np.minimum(np.searchsorted(self._ms, ms), len(self._ms) - 1)
        out = np.empty(ms.shape) if out is None else out
        out.fill(0.0)
        np.copyto(out, self._ps[i], where=self._ms[i] == ms)
        return out

    def truncation_index(self, tol: float) -> int:
        _check_tol(tol)
        # the first table entry whose tail P{M > m} = _above[i + 1] is <= tol
        return int(self._ms[np.count_nonzero(self._above[1:] > tol)])

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.choice(self._ms, p=self._ps, size=size).astype(np.int64, copy=False)

    def __repr__(self) -> str:
        return f"CustomLaw({dict(zip(map(int, self._ms), map(float, self._ps)))!r})"


class DegenerateLaw(CustomLaw):
    """All mass on a single denominator: the one-entry table {value: 1}."""

    def __init__(self, value: int):
        super().__init__({value: 1.0})
        self.value = int(value)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # one outcome needs no draw; a table's choice would spend one per sample
        return np.full(size, self.value, dtype=np.int64)

    def __repr__(self) -> str:
        return f"DegenerateLaw({self.value!r})"


def atom_probability(q: Rational, law: DenominatorLaw, tol: float = DEFAULT_TOL) -> float:
    """P{Q = q} for q = n/d: the sum of P{M = l d} / (l d + 1) over l >= 1, the
    representations l n / l d of q.

    By one of two routes, after the law's truncation index L and the series'
    refusals (``_check_walk``), so that both refuse the same inputs:

    - the roots-of-unity filter ``_filter_atom``, (1/d) Re sum over k < d of
      G(e^(2 pi i k/d)), for a law that states G, when d^2 <= L (d values of G
      against the series' L/d terms) and the filter's error bound is at most
      ``tol``.  Each value is within ``_G_ERROR`` * G(1) of G at its float
      point, which with the rounding of c in G lies within 16 ulps of the root
      of unity, and |G'| <= 1 on the disc; the sum, of terms at most G(1) in
      modulus, adds d ulps of G(1).  So the filter is within
      (``_G_ERROR`` + d 2**-52) G(1) + 16 * 2**-52.
      Past d^2 > L the atom may lie below that bound, and the series is short.
    - otherwise the series ``_series_atom``, truncated once the law's tail mass
      P{M > L} drops below ``tol``: each dropped term is at most its pmf factor,
      so the truncation error is at most ``tol``.
    """
    d = q.denominator
    top = law.truncation_index(tol)
    _check_walk(range(d, top + 1, d))
    if law.G is not None and d * d <= top:
        value, bound = _filter_atom(law, d)
        if bound <= tol:
            return value
    return _series_atom(law, top, d)


def _series_atom(law: DenominatorLaw, top: int, d: int) -> float:
    """The atom series over m = d, 2 d, ... up to the truncation index ``top``: the
    window series at x = 0, whose one numerator per denominator makes each term
    p / (m + 1)."""
    return _series(law, top, np.zeros(1), step=d).item()


def _filter_atom(law: DenominatorLaw, d: int) -> tuple[float, float]:
    """(1/d) Re sum over k < d of ``law.G``(e^(2 pi i k/d)), and the bound on its
    error that ``atom_probability`` states.

    The points k and d - k are conjugate, and so are their values of G, so the
    sum is G(1) + 2 Re sum over 0 < k < d/2 of G(e^(2 pi i k/d)), plus G(-1)
    for even d.  The pairs are summed in blocks of ``_CHUNK_CELLS``, and the
    block sums exactly rounded with ``math.fsum``.
    """
    g1, g_half = law.G(np.array([1.0, -1.0], dtype=complex)).real.tolist()
    pairs = math.fsum(
        float(law.G(np.exp(k * (2j * math.pi / d))).real.sum())
        for k, _ in _blocks(range(1, (d + 1) // 2))
    )
    value = (g1 + 2.0 * pairs + (g_half if d % 2 == 0 else 0.0)) / d
    return value, (_G_ERROR + d * 2.0**-52) * g1 + 16 * 2.0**-52


def cdf(x: float, law: DenominatorLaw, tol: float = DEFAULT_TOL) -> float:
    """F_Q(x) = P{Q <= x}: 0 below 0, 1 from 1 up, a rational staircase between.

    For 0 <= x < 1 the per-denominator factor is (floor(m x) + 1)/(m + 1),
    counting the numerators 0..m that keep n/m <= x.
    """
    _check_tol(tol)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    if not 0.0 <= x < 1.0:
        return 0.0 if x < 0.0 else 1.0
    return _series(law, law.truncation_index(tol), np.array([x], float)).item()


def cdf_grid(xs: np.ndarray, law: DenominatorLaw, tol: float = DEFAULT_TOL) -> np.ndarray:
    """``cdf`` at each point of ``xs``, by the route that computes fewer cells.

    The walk is ``cdf``'s series at every point, so it equals ``cdf`` bit for
    bit, in points * L cells.  When every point is the float of
    some i/n with n <= 2**12, the fold (``_fold``) gives the same float floors
    from ``_FOLD_CELLS`` * L + points * n cells, plus L / b for each point that
    lies below its i/n, b being the reduced denominator of i/n.  Those points
    are sought (``_below``) only when the first two terms are already fewer
    than the walk's cells, and the fold is taken when the whole is fewer (and
    within ``_BUDGET_CELLS``).  On the grid i/1000 the fold, taken from
    geometric k = 1e2 and Poisson k = 1e3 on, stays within 4 ulps of ``cdf``.
    """
    _check_tol(tol)
    xs = np.asarray(xs, dtype=np.float64)
    if np.isnan(xs).any():
        raise ValueError("x must not be NaN")
    out = np.zeros_like(xs)
    inside = (xs >= 0.0) & (xs < 1.0)
    out[xs >= 1.0] = 1.0
    xin = xs[inside]
    if xin.size == 0:
        return out
    points, top = xin.size, law.truncation_index(tol)
    n = _grid_denominator(xin)
    fold = _FOLD_CELLS * top + points * n
    if n and fold < points * top:
        i = np.rint(xin * n)
        below = _below(xin, i, n)
        fold += sum(top // b * rows.size for b, rows in below)
        # over the budget both routes are, and the walk refuses
        if fold < points * top and fold <= _BUDGET_CELLS:
            out[inside] = _fold(xin, i, n, below, law, top)
            return out
    out[inside] = _series(law, top, xin)
    return out


def _floor_sums(xs: np.ndarray, ms: np.ndarray, weights, op: Callable, cells=None) -> np.ndarray:
    """For each point x of ``xs`` the pairwise sum over k of op(x ms[k]) weights[k]
    (of op(x ms[k]) if ``weights`` is None), where ``op(cells, out=cells)`` maps
    the products in place, over tiles of at most ``_CHUNK_CELLS`` cells, in the
    buffer ``cells`` if given: min(points * len(ms), ``_CHUNK_CELLS``) floats."""
    sums = np.empty_like(xs)
    tile = _CHUNK_CELLS // max(len(ms), 1)
    cells = np.empty(min(xs.size, tile) * len(ms)) if cells is None else cells
    for s in range(0, xs.size, tile):
        x = xs[s : s + tile, None]
        grid = cells[: x.size * len(ms)].reshape(x.size, len(ms))
        # a tile of one point is a vector, which numpy maps faster than a grid of one row
        x, grid = (x[0, 0], grid[0]) if x.size == 1 else (x, grid)
        op(np.multiply(x, ms, out=grid), out=grid)
        if weights is not None:
            grid *= weights
        sums[s : s + tile] = grid.sum(axis=-1)
    return sums


def _grid_denominator(xs: np.ndarray) -> int:
    """The least n <= ``_FOLD_MAX_N`` for which each point of ``xs`` in [0, 1)
    is the float of some i/n, or 0 when there is none."""
    n, bs = 1, np.arange(1.0, _FOLD_MAX_N + 1)
    while n <= _FOLD_MAX_N:
        off = np.flatnonzero(np.rint(xs * n) / n != xs)
        if off.size == 0:
            return n
        # rationals with denominators <= 2**12 lie over 2**-24 apart, so a float
        # rounds at most one of them, and the least b with some i/b rounding to
        # it is that one's reduced denominator, which n must then divide
        x = xs[off[0]]
        b = np.flatnonzero(np.rint(x * bs) / bs == x)
        if b.size == 0:
            return 0
        n = math.lcm(n, int(b[0]) + 1)
    return 0


def _below(xs: np.ndarray, i: np.ndarray, n: int) -> list[tuple[int, np.ndarray]]:
    """The points x = fl(i/n) of ``xs`` that lie below i/n, as pairs of the
    reduced denominator b of i/n and the indices of its points, b ascending."""
    # x = hi + lo exactly, with hi * n and lo * n exact (Dekker's split) and
    # i - hi * n exact (Sterbenz), so x * n < i is decided exactly
    hi = xs * _SPLIT
    hi -= hi - xs
    at = np.flatnonzero((xs - hi) * n < i - hi * n)
    bs = n // np.gcd(i[at].astype(np.int64), n)
    return [(b, at[bs == b]) for b in np.unique(bs).tolist()]


def _fold(
    xs: np.ndarray, i: np.ndarray, n: int, below: list, law: DenominatorLaw, top: int
) -> np.ndarray:
    """``cdf_grid`` at points ``xs``, the floats of ``i``/n with n <= ``_FOLD_MAX_N``,
    and ``below`` from ``_below``.

    With m = l n + j, floor(m i / n) = l i + floor(i j / n), so
    F(i/n) = sum over j < n of (floor(i j / n) + 1) H(j) + i K, where
    H(j) = sum over m = j mod n of p / (m + 1) and K = sum of floor(m / n) p / (m + 1).
    One walk over m = 1..L folds H, each chunk's share of a bin summed pairwise
    (``np.bincount`` adds in sequence, up to 39 ulps off a bin at n = 2), and K
    as ``math.fsum`` of its chunk sums.  The floors i j / n of each point come
    from ``_floor_sums``.

    That is the walk's value wherever its float floor(m x) is exact.  For
    m <= ``_BUDGET_CELLS`` it is except at one kind of term.  Let a/b be i/n
    reduced: |m x - m a/b| and the rounding of m x are each at most 2**-22, while
    m a/b lies at least 1/b >= 2**-12 from every integer when b does not divide m.
    So floor(fl(m x)) = floor(m a/b) but where x < a/b and b divides m: there
    fl(m x) lies in (m a/b - 1, m a/b], and floor(m x) is m a/b less one exactly
    when fl(m x) is not an integer.  Those terms are gathered in the same walk,
    at the multiples of b alone, and subtracted.
    """
    # 1 where a float is not an integer; np.fmod would tell it several times slower
    def not_integer(t, out):
        return np.not_equal(t, np.floor(t), out=out)

    weights, k_sums, lost = np.zeros(n), [], np.zeros_like(xs)
    for m, p, w, *_ in _chunks(law, range(1, top + 1)):
        p /= np.add(m, 1.0, out=w)
        # the k-th denominator of a chunk is m[0] + k, in the bin k mod n rolled
        # by m[0]; a bin, a row of the chunk's transposed copy, is summed pairwise
        depth = len(m) // n
        sums = np.ascontiguousarray(p[: depth * n].reshape(depth, n).T).sum(axis=1)
        sums[: len(m) - depth * n] += p[depth * n :]
        weights += np.roll(sums, int(m[0]) % n)
        # fl(m / n) is within 2**-22 of m / n, which is 1/n or more below the next integer
        np.floor(np.divide(m, n, out=w), out=w)
        k_sums.append(float(np.multiply(w, p, out=w).sum()))
        # what a point x below a/b loses: the multiples m of b where fl(m x) is no integer
        for b, rows in below:
            first = -int(m[0]) % b
            lost[rows] += _floor_sums(xs[rows], m[first::b], p[first::b], not_integer)
    # i (j/n + 1/(2 n**2)) is i j/n raised by less than 1/(2 n), which is 1/n or
    # more below the next integer, and for i >= 1 by 2**-25 or more, far above
    # the rounding (under 2**-39): the float's floor is floor(i j / n)
    acc = _floor_sums(i, np.arange(n) / n + 0.5 / n**2, weights, np.floor)
    acc += weights.sum()
    acc += i * math.fsum(k_sums)
    acc -= lost
    return acc


def interval_probability(a: float, b: float, law: DenominatorLaw, tol: float = DEFAULT_TOL) -> float:
    """P{a < Q <= b} for 0 <= a < b <= 1.

    Per denominator m the window contains floor(m b) - floor(m a) of the
    m + 1 equiprobable numerators, which is exactly F_Q(b) - F_Q(a) term by
    term.
    """
    if not (0.0 <= a < b <= 1.0):
        raise ValueError(f"need 0 <= a < b <= 1, got a={a}, b={b}")
    return _series(law, law.truncation_index(tol), np.array([b], float), a).item()


def mean_reciprocal(law: DenominatorLaw) -> float:
    """E[1/M], the law's distance from equiprobable: every atom is below it, and an
    interval's probability is within (1 + length) times it of the interval's length.

    Each law's closed form (-w ln w / (1 - w), -expm1(-mean) / mean, a table's fsum of
    p / m) is within 3 ulps, or 1 subnormal step below 2.2e-308 (w < 3e-311, mean > 4.4e307).
    """
    return law.mean_reciprocal


def harmonic_number(k: int) -> float:
    """H_k = 1 + 1/2 + ... + 1/k within 2 ulps: ``math.fsum`` of its terms below k = 64,
    then ln k + gamma + 1/(2k) - 1/(12k^2) + 1/(120k^4) - 1/(252k^6) (Abramowitz &
    Stegun 6.3.18, next term under 2e-17), 1/(2k) and 1/k^2 int by int: no k overflows."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k < 64:
        return math.fsum(1 / m for m in range(1, k + 1))
    r = 1 / (k * k)
    return math.log(k) + (_EULER_GAMMA + (1 / (2 * k) - r * (1 / 12 - r * (1 / 120 - r / 252))))


def _draw(
    law: DenominatorLaw, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, Iterator[tuple[int, np.ndarray]]]:
    """``size`` denominators drawn by ``law.sample``, and the walk that draws their numerators.

    The walk draws the numerators ``_CHUNK_CELLS`` at a time, after every
    denominator, with ``integers(0, m, endpoint=True)``: the same stream as
    one ``integers(0, ms + 1)``.  It divides each chunk by its gcd, the
    denominators in place, and yields the chunk's start and its numerators.
    So the denominators are the one size-long array.
    """
    ms = law.sample(rng, size)

    def walk() -> Iterator[tuple[int, np.ndarray]]:
        g = np.empty(min(size, _CHUNK_CELLS), np.int64)
        for lo in range(0, size, _CHUNK_CELLS):
            m = ms[lo : lo + _CHUNK_CELLS]
            n = rng.integers(0, m, endpoint=True)
            gcd = np.gcd(n, m, out=g[: len(m)])
            n //= gcd
            m //= gcd
            yield lo, n

    return ms, walk()


def sample_rational_batch(
    law: DenominatorLaw, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sampler returning canonical (numerator, denominator) arrays."""
    ms, walk = _draw(law, rng, size)
    ns = np.empty_like(ms)
    for lo, n in walk:
        ns[lo : lo + len(n)] = n
    return ns, ms


class GeometricFamily:
    """Geometric denominator laws with success rate w_k = 1/k.

    This schedule flattens the pmf fast enough that sup_pmf * ln k -> 0, the
    regime in which the induced rational laws become asymptotically
    equiprobable.
    """

    kind = "geometric"

    def law(self, k: int) -> GeometricLaw:
        if k < 2:
            raise ValueError(f"k must be >= 2 for the rate 1/k to lie in (0, 1), got {k}")
        try:
            return GeometricLaw(1.0 / k)
        except OverflowError:  # k is past the largest float
            raise ValueError(f"k = {k} is too large for the rate 1/k") from None


class PoissonFamily:
    """Shifted Poisson denominator laws with mean k."""

    kind = "poisson"

    def law(self, k: int) -> PoissonLaw:
        if k < 1:
            raise ValueError("k must be >= 1")
        try:
            return PoissonLaw(float(k))
        except OverflowError:
            raise ValueError(f"k = {k} is too large for a float mean") from None


@dataclass(frozen=True)
class ConvergenceDiagnostics:
    """One row of the flattening diagnostics along a law family."""

    k: int
    pmf_sup: float
    pmf_sup_log_k: float
    harmonic_number: float
    mean_reciprocal: float
    interval_error: float


def convergence_table(
    family: GeometricFamily | PoissonFamily,
    ks: list[int],
    probe: tuple[float, float] = (0.0, 0.5),
    tol: float = DEFAULT_TOL,
) -> list[ConvergenceDiagnostics]:
    """Diagnostics along a family: flatness, E[1/M], and a probe-interval error.

    ``interval_error`` is |P{a < Q <= b} - (b - a)| for the probe interval, at most
    (1 + (b - a)) E[1/M]: -w ln w / (1 - w) or -expm1(-k) / k, within 3 ulps, as H_k is
    (a fsum below k = 64, A&S 6.3.18 from there); ``tol`` bounds the probe's series.
    """
    if not ks:
        raise ValueError("ks must be non-empty")
    if any(k2 <= k1 for k1, k2 in zip(ks, ks[1:])):
        raise ValueError("ks must be strictly increasing")
    a, b = probe
    if not (0.0 <= a < b <= 1.0):
        raise ValueError(f"probe must satisfy 0 <= a < b <= 1, got {probe}")
    rows = []
    for k in ks:
        law = family.law(k)
        s = law.sup_pmf()
        mu = mean_reciprocal(law)
        err = abs(interval_probability(a, b, law, tol) - (b - a))
        rows.append(ConvergenceDiagnostics(k, s, s * math.log(k), harmonic_number(k), mu, err))
    return rows
