"""The streamed series equal, bit for bit, a plain one-expression form of each.

The references below build every chunk as a fresh array: the same chunk
boundaries (``_CHUNK_CELLS`` denominators), the same pmf formulas and the same
operation and accumulation order as the library, written without its
buffers.  Results must agree with ``==``, not within a tolerance.

Where an atom takes the roots-of-unity filter instead, the series route is
pinned by calling it directly, and the atom is held to ``atom_oracle``.
E[1/M] is each law's closed form, held to the reference series within ``TOL``.

Where ``cdf_grid`` walks, it is ``cdf`` at each point, bit for bit.  The
series (and the filter) also call no BLAS, so their bits do not depend on the
host's BLAS thread count, and ``cdf`` lies within 2 ulps of the exactly
rounded sum of its terms.
"""

import math
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atom_oracle import oracle_atom
from test_cli import src_env

from bertrand_lab import rationals
from bertrand_lab.rationals import (
    CustomLaw,
    DegenerateLaw,
    GeometricFamily,
    GeometricLaw,
    PoissonFamily,
    PoissonLaw,
    Rational,
    atom_probability,
    cdf,
    cdf_grid,
    interval_probability,
    mean_reciprocal,
)

TOL = 1e-10
CHUNK = 1 << 16


# --- reference pmfs ------------------------------------------------------------


def geometric_pmf(w: float):
    log_1mw = math.log1p(-w)
    return lambda ms: w * np.exp((np.asarray(ms, dtype=np.float64) - 1.0) * log_1mw)


def log_gamma(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    small = x < 16.0
    out[small] = [math.lgamma(v) if v >= 1.0 else math.inf for v in x[small].tolist()]
    z = x[~small]
    r = 1.0 / (z * z)
    series = np.zeros_like(z)
    for c in reversed((1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)):
        series = series * r + c
    out[~small] = (z - 0.5) * np.log(z) - z + 0.5 * math.log(2.0 * math.pi) + series / z
    return out


def poisson_pmf(mean: float):
    log_mean = math.log(mean)

    def pmf(ms):
        ms = np.asarray(ms, dtype=np.float64)
        return np.exp(-mean + (ms - 1.0) * log_mean - log_gamma(ms))

    return pmf


def degenerate_pmf(value: int):
    return lambda ms: (np.asarray(ms) == value).astype(np.float64)


def custom_pmf(table: dict[int, float]):
    keys = np.array(sorted(table), dtype=np.int64)
    probs = np.array([table[int(m)] for m in keys], dtype=np.float64)

    def pmf(ms):
        ms = np.asarray(ms)
        i = np.minimum(np.searchsorted(keys, ms), len(keys) - 1)
        return np.where(keys[i] == ms, probs[i], 0.0)

    return pmf


# mass strictly inside chunks of 65,536 denominators, and whole chunks without mass
GAPPED = {3: 0.5, 100_000: 0.25, 200_000: 0.25}
# law id -> (law, reference pmf); geometric 1e-4 has L = 230,249 denominators
LAWS = {
    "geometric:1e-4": (GeometricLaw(1e-4), geometric_pmf(1e-4)),
    "geometric:0.05": (GeometricLaw(0.05), geometric_pmf(0.05)),
    "poisson:1e4": (PoissonLaw(1e4), poisson_pmf(1e4)),
    "poisson:1e5": (PoissonLaw(1e5), poisson_pmf(1e5)),
    "poisson:3.5": (PoissonLaw(3.5), poisson_pmf(3.5)),
    "degenerate:7": (DegenerateLaw(7), degenerate_pmf(7)),
    "degenerate:100000": (DegenerateLaw(100_000), degenerate_pmf(100_000)),
    "custom:small": (CustomLaw({2: 0.5, 3: 0.25, 7: 0.25}), custom_pmf({2: 0.5, 3: 0.25, 7: 0.25})),
    "custom:gapped": (CustomLaw(GAPPED), custom_pmf(GAPPED)),
    # few terms, none a power of two, so a reordered term shows in the sum
    "custom:uneven": (CustomLaw({5: 0.3, 9: 0.7}), custom_pmf({5: 0.3, 9: 0.7})),
}
ONE_POINT_LAWS = list(LAWS)
# 65,537 points times a long series would pass the cell budget, so only short series
SHORT_LAWS = ["geometric:0.05", "poisson:3.5", "degenerate:7", "custom:uneven"]


# --- reference series ------------------------------------------------------------


def blocks(ms: range):
    for i in range(0, len(ms), CHUNK):
        part = ms[i : i + CHUNK]
        yield np.arange(part.start, part.stop, part.step, dtype=np.int64)


def ref_fold(xs: np.ndarray, n: int, law, pmf) -> np.ndarray:
    """cdf_grid's fold at points xs = fl(i/n) inside [0, 1)."""
    i = np.rint(xs * n)
    # the points below their i/n, by the reduced denominator of i/n
    below = {}
    for k, x in enumerate(xs.tolist()):
        if Fraction(x) < Fraction(int(i[k]), n):
            below.setdefault(n // math.gcd(int(i[k]), n), []).append(k)
    weights, k_sums, lost = np.zeros(n), [], np.zeros_like(xs)
    for m in blocks(range(1, law.truncation_index(TOL) + 1)):
        pm = pmf(m) / (m + 1.0)
        # each residue bin of the chunk summed pairwise, rolled to its place
        depth = len(m) // n
        sums = np.ascontiguousarray(pm[: depth * n].reshape(depth, n).T).sum(axis=1)
        sums[: len(m) - depth * n] += pm[depth * n :]
        weights += np.roll(sums, int(m[0]) % n)
        k_sums.append(float((np.floor(m / n) * pm).sum()))
        for step, rows in sorted(below.items()):
            first = -int(m[0]) % step
            y = xs[rows, None] * m[first::step]
            lost[rows] += ((y != np.floor(y)) * pm[first::step]).sum(axis=1)
    slopes = np.arange(n) / n + 0.5 / n**2
    acc = (np.floor(i[:, None] * slopes) * weights).sum(axis=1) + weights.sum()
    return acc + i * math.fsum(k_sums) - lost


def ref_cdf_point(x: float, law, pmf) -> float:
    return math.fsum(
        float((pmf(m) * (np.floor(m * x) + 1.0) / (m + 1.0)).sum())
        for m in blocks(range(1, law.truncation_index(TOL) + 1))
    )


def ref_cdf_rows(xs: np.ndarray, law, pmf) -> np.ndarray:
    """``ref_cdf_point`` at each point of ``xs``, 1,024 points at a time."""
    out = (xs >= 1.0).astype(np.float64)
    inside = np.flatnonzero((xs >= 0.0) & (xs < 1.0))
    for s in range(0, inside.size, 1024):
        x = xs[inside[s : s + 1024], None]
        sums = [
            (pmf(m) * (np.floor(m * x) + 1.0) / (m + 1.0)).sum(axis=1)
            for m in blocks(range(1, law.truncation_index(TOL) + 1))
        ]
        out[inside[s : s + 1024]] = [math.fsum(row) for row in zip(*sums)]
    return out


def ref_interval(a: float, b: float, law, pmf) -> float:
    return math.fsum(
        float((pmf(m) * (np.floor(m * b) - np.floor(m * a)) / (m + 1.0)).sum())
        for m in blocks(range(1, law.truncation_index(TOL) + 1))
    )


def ref_atom(q: Rational, law, pmf) -> float:
    ms = range(q.denominator, law.truncation_index(TOL) + 1, q.denominator)
    return math.fsum(float((pmf(m) / (m + 1.0)).sum()) for m in blocks(ms))


def ref_mean_reciprocal(law, pmf) -> float:
    return math.fsum(
        float((pmf(m) / m).sum()) for m in blocks(range(1, law.truncation_index(TOL) + 1))
    )


def ref_poisson_truncation_index(law: PoissonLaw, tol: float) -> int:
    lo, hi = law._bulk(40.0 - math.log(tol))
    pmf = poisson_pmf(law.mean)
    above, count = 0.0, 0
    for m in blocks(range(hi, lo - 1, -1)):
        run = np.cumsum(np.concatenate(([above], pmf(m))))
        count += int(np.count_nonzero(run[1:] > tol))
        above = float(run[-1])
    return max(1, lo - 1 + count)


# --- grids -------------------------------------------------------------------------


def grid(points: int) -> np.ndarray:
    """``points`` evaluation points; from 7 on they include -0.25, 0, 1 and 1.5."""
    if points == 1:
        return np.array([0.37])
    rng = np.random.default_rng(points)
    xs = rng.uniform(-0.1, 1.1, points)
    xs[:4] = (-0.25, 0.0, 1.0, 1.5)
    xs[4:7] = (0.2, 0.5, 0.7)  # rationals where m x lands on an integer
    return xs


GRID_CASES = [
    pytest.param(points, law_id, id=f"{points}-{law_id}")
    for points in (1, 7, 1000)
    for law_id in ("geometric:1e-4", "poisson:1e4", "degenerate:7", "custom:small")
] + [
    pytest.param(7, "poisson:1e5", id="7-poisson:1e5"),
    pytest.param(7, "custom:gapped", id="7-custom:gapped"),
] + [pytest.param(65_537, law_id, id=f"65537-{law_id}") for law_id in SHORT_LAWS]


@pytest.mark.parametrize("law_id", ONE_POINT_LAWS)
def test_pmf_array_is_bit_identical(law_id):
    law, pmf = LAWS[law_id]
    ms = np.arange(1, min(law.truncation_index(TOL), 300_000) + 1, dtype=np.int64)
    want = pmf(ms).tobytes()
    assert law.pmf_array(ms).tobytes() == want
    assert law.pmf_array(ms.astype(np.float64)).tobytes() == want


def cdf_at_each(xs: np.ndarray, law) -> np.ndarray:
    return np.array([cdf(x, law, TOL) for x in xs.tolist()])


@pytest.mark.parametrize("points, law_id", GRID_CASES)
def test_cdf_grid_is_bit_identical(points, law_id):
    law, pmf = LAWS[law_id]
    xs = grid(points)
    got = cdf_grid(xs, law, TOL)
    assert got.dtype == np.float64 and got.shape == xs.shape
    # 65,537 calls of cdf take 2-7 s a law, so there every point is held to cdf's own
    # series, ref_cdf_point (TestOnePointSeries holds cdf to it bit for bit), row by row
    want = cdf_at_each(xs, law) if points <= 1000 else ref_cdf_rows(xs, law, pmf)
    assert got.tobytes() == want.tobytes()


# points that cdf_grid walks: a grid past n = 2**12, where a fold would be
# cheaper (4 L + 4097**2 cells against 4097 L), points on no grid, and grid(7),
# whose 4 points inside [0, 1) lie on i/10 but would cost the fold
# 4 L + L/10 + 40 cells against the walk's 4 L
WALKED = [
    pytest.param(np.arange(4097) / 4097, "geometric:1e-3", id="4097-grid-geometric:1e-3"),
    pytest.param(np.random.default_rng(22).random(64), "geometric:1e-4", id="64-random"),
] + [pytest.param(grid(7), law, id=f"7-{law}") for law in ["geometric:1e-4", "poisson:1e4"]]


@pytest.mark.parametrize("xs, law_id", WALKED)
def test_cdf_grid_walks_off_small_grids(xs, law_id, monkeypatch):
    def refuse(*args):
        raise AssertionError("cdf_grid took the fold")

    monkeypatch.setattr(rationals, "_fold", refuse)
    law = LAWS[law_id][0] if law_id in LAWS else GeometricLaw(1e-3)
    assert cdf_grid(xs, law, TOL).tobytes() == cdf_at_each(xs, law).tobytes()


# grids cdf_grid folds: the script's i/1000 and 40 points of i/143
SUBSET = np.sort(np.random.default_rng(143).choice(143, 40, replace=False))
FOLDED = [
    pytest.param(np.arange(1000) / 1000, 1000, id="1000-grid"),
    pytest.param(SUBSET / 143, 143, id="40-of-143"),
]


@pytest.mark.parametrize("law_id", ["geometric:1e-4", "poisson:1e4", "custom:gapped"])
@pytest.mark.parametrize("xs, n", FOLDED)
def test_cdf_grid_fold_is_bit_identical(xs, n, law_id):
    law, pmf = LAWS[law_id]
    assert rationals._grid_denominator(xs) == n
    assert cdf_grid(xs, law, TOL).tobytes() == ref_fold(xs, n, law, pmf).tobytes()


def test_grid_denominator_is_the_least_n_up_to_2_12():
    assert rationals._grid_denominator(np.arange(4096) / 4096) == 4096
    assert rationals._grid_denominator(np.arange(4097) / 4097) == 0
    assert rationals._grid_denominator(np.array([0.3, 0.7, 0.0])) == 10
    assert rationals._grid_denominator(np.array([1 / 3, 0.25])) == 12
    xs = grid(7)
    assert rationals._grid_denominator(xs[(xs >= 0.0) & (xs < 1.0)]) == 10
    assert rationals._grid_denominator(np.random.default_rng(22).random(64)) == 0
    # the float next to a grid point is on no grid
    assert rationals._grid_denominator(np.array([0.5, np.nextafter(0.7, 1.0)])) == 0


def test_script_grid_takes_the_fold(monkeypatch):
    # each call's route and its search for points below their i/n, which the
    # walk needs not and the fold needs once
    calls = []
    for name in ("_fold", "_below"):

        def spy(*args, name=name, fn=getattr(rationals, name)):
            calls[-1].append(name)
            return fn(*args)

        monkeypatch.setattr(rationals, name, spy)
    xs = np.arange(1000) / 1000
    for family in (GeometricFamily(), PoissonFamily()):
        for k in (10, 100, 1000, 10_000):
            calls.append([])
            cdf_grid(xs, family.law(k), TOL)
    walk, fold = [], ["_below", "_fold"]
    assert calls == [walk, fold, fold, fold] + [walk, walk, fold, fold]


@pytest.mark.parametrize("law_id", ONE_POINT_LAWS)
class TestOnePointSeries:
    def test_cdf(self, law_id):
        law, pmf = LAWS[law_id]
        for x in (0.0, 0.37, 0.7, 0.999):
            assert cdf(x, law, TOL) == ref_cdf_point(x, law, pmf)

    def test_interval_probability(self, law_id):
        law, pmf = LAWS[law_id]
        for a, b in ((0.2, 0.7), (0.0, 1.0), (0.37, 0.3700001), (0.1, 0.35), (0.37, 1.0)):
            assert interval_probability(a, b, law, TOL) == ref_interval(a, b, law, pmf)

    def test_atom_probability(self, law_id):
        law, pmf = LAWS[law_id]
        top = law.truncation_index(TOL)
        for q in (Rational(0, 1), Rational(1, 2), Rational(3, 7)):
            d = q.denominator
            if law.G is None or d * d > top:
                assert atom_probability(q, law, TOL) == ref_atom(q, law, pmf)
                continue
            # the filter answers: the series route is pinned, the answer held to the oracle
            assert rationals._series_atom(law, top, d) == ref_atom(q, law, pmf)
            value, bound = rationals._filter_atom(law, d)
            assert atom_probability(q, law, TOL) == value
            assert abs(value - oracle_atom(law, d)) <= bound

    def test_mean_reciprocal(self, law_id):
        # the series truncated at L falls short of the whole by at most P{M > L} <= TOL
        law, pmf = LAWS[law_id]
        assert abs(mean_reciprocal(law) - ref_mean_reciprocal(law, pmf)) <= TOL


def table_and_pmf(weights: dict[int, int]):
    table = {m: w / sum(weights.values()) for m, w in weights.items()}
    return CustomLaw(table), custom_pmf(table)


@settings(max_examples=60)
@given(
    law_and_pmf=st.one_of(
        st.floats(1e-4, 0.99).map(lambda w: (GeometricLaw(w), geometric_pmf(w))),
        st.floats(0.01, 1e4).map(lambda mean: (PoissonLaw(mean), poisson_pmf(mean))),
        st.dictionaries(st.integers(1, 10**6), st.integers(1, 100), min_size=1, max_size=6)
        .map(table_and_pmf),
    )
)
def test_mean_reciprocal_is_its_series(law_and_pmf):
    law, pmf = law_and_pmf
    assert abs(mean_reciprocal(law) - ref_mean_reciprocal(law, pmf)) <= TOL


def test_atom_compares_int64_denominators_exactly():
    # 2 * (2**61 - 1) and 2**62 - 1 round to the same float64
    law = DegenerateLaw(2**62 - 1)
    q = Rational(1, 2**61 - 1)
    assert atom_probability(q, law, TOL) == ref_atom(q, law, degenerate_pmf(2**62 - 1)) == 0.0
    q = Rational(1, 2**62 - 1)
    assert atom_probability(q, law, TOL) == ref_atom(q, law, degenerate_pmf(2**62 - 1)) == 1.0 / 2**62


def test_custom_law_beyond_exact_floats():
    table = {1: 0.5, 2**60: 0.25, 2**60 + 2**59: 0.25}
    law, pmf = CustomLaw(table), custom_pmf(table)
    for q in (Rational(1, 2**59), Rational(1, 2**59 + 1), Rational(1, 2**60 + 2**59)):
        assert atom_probability(q, law, TOL) == ref_atom(q, law, pmf)
    assert atom_probability(Rational(1, 2**59), law, TOL) > 0.0


@pytest.mark.parametrize("mean", [3.5, 1e4, 1e5])
def test_poisson_truncation_and_tail_are_bit_identical(mean):
    law = PoissonLaw(mean)
    for tol in (1e-3, 1e-10, 1e-300):
        assert law.truncation_index(tol) == ref_poisson_truncation_index(law, tol)


def test_cdf_is_within_two_ulps_of_its_exact_sum():
    for law_id, (law, pmf) in LAWS.items():
        m = np.arange(1, law.truncation_index(TOL) + 1, dtype=np.int64)
        p = pmf(m)
        for x in (0.0, 0.37, 0.7, 0.999):
            exact = math.fsum((p * (np.floor(m * x) + 1.0) / (m + 1.0)).tolist())
            assert abs(cdf(x, law, TOL) - exact) <= 2 * math.ulp(exact), (law_id, x)
    # 0.3 * 5/6 + 0.7 * 9/10; a matrix-vector product gave 0.8799999999999999
    assert cdf(0.999, CustomLaw({5: 0.3, 9: 0.7}), TOL) == 0.88


def test_one_point_series_call_no_blas(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a series called BLAS")

    for name in ("matmul", "dot", "vdot", "inner", "einsum", "tensordot"):
        monkeypatch.setattr(np, name, refuse)
    for law_id in ("geometric:1e-4", "poisson:1e4", "custom:gapped"):
        law = LAWS[law_id][0]
        assert 0.0 < cdf(0.37, law, TOL) < 1.0
        assert 0.0 < interval_probability(0.2, 0.7, law, TOL) < 1.0
        assert 0.0 < atom_probability(Rational(1, 3), law, TOL) < 1.0
        assert 0.0 < mean_reciprocal(law) < 1.0
        if law.G is not None:
            assert 0.0 < rationals._filter_atom(law, 3)[0] < 1.0
        # nor does the grid, at one point and at the script's 1,000
        assert 0.0 < cdf_grid(np.array([0.37]), law, TOL)[0] < 1.0
        grid = cdf_grid(np.arange(1000) / 1000, law, TOL)
        assert np.all((0.0 < grid) & (grid < 1.0))
    # nor does the filter, through each closed form, at its edge, and over two blocks of pairs
    for law, d in (
        (GeometricLaw(1e-4), 7),
        (GeometricLaw(0.5), 2),
        (PoissonLaw(1e4), 7),
        (PoissonLaw(1.0), 2),
        (GeometricLaw(1e-9), 150_000),
    ):
        assert 0.0 < rationals._filter_atom(law, d)[0] < 1.0


# the one-point series at 23 interior points of linspace(0, 1, 25), as raw bytes
BLAS_THREADS_SCRIPT = """
    import numpy as np
    from bertrand_lab.rationals import (
        GeometricLaw, PoissonLaw, atom_probability, canonicalize, cdf,
        interval_probability, mean_reciprocal,
    )
    xs = np.linspace(0.0, 1.0, 25)[1:-1]
    values = []
    for law in (GeometricLaw(1e-4), GeometricLaw(1e-5), PoissonLaw(1e4), PoissonLaw(1e5)):
        values += [cdf(x, law) for x in xs]
        values += [interval_probability(0.0, x, law) for x in xs]
        values += [atom_probability(canonicalize(i, 24), law) for i in range(1, 24)]
        values.append(mean_reciprocal(law))
    print(np.array(values).tobytes().hex())
"""


# cdf_grid at one point and at those 23, as raw bytes
GRID_BLAS_THREADS_SCRIPT = """
    import numpy as np
    from bertrand_lab.rationals import GeometricLaw, PoissonLaw, cdf_grid
    xs = np.linspace(0.0, 1.0, 25)[1:-1]
    values = []
    for law in (GeometricLaw(1e-4), GeometricLaw(1e-5), PoissonLaw(1e4), PoissonLaw(1e5)):
        values += [cdf_grid(xs[8:9], law), cdf_grid(xs, law)]
    print(np.concatenate(values).tobytes().hex())
"""


def outputs_under_blas_threads(script: str) -> list[str]:
    """The script's stdout with OPENBLAS_NUM_THREADS at 1 and at 2."""
    # each count in a fresh process, since OpenBLAS reads it when numpy loads
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", textwrap.dedent(script)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(src_env(), OPENBLAS_NUM_THREADS=threads),
        )
        for threads in ("1", "2")
    ]
    outs = []
    for proc in runs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        outs.append(out)
    return outs


def test_one_point_series_do_not_depend_on_blas_threads():
    outs = outputs_under_blas_threads(BLAS_THREADS_SCRIPT)
    # 70 float64 values per law, in hex, and a newline
    assert len(outs[0]) == 2 * 8 * 4 * (3 * 23 + 1) + 1
    assert outs[0] == outs[1]


def test_cdf_grid_does_not_depend_on_blas_threads():
    outs = outputs_under_blas_threads(GRID_BLAS_THREADS_SCRIPT)
    # 24 float64 values per law, in hex, and a newline
    assert len(outs[0]) == 2 * 8 * 4 * (1 + 23) + 1
    assert outs[0] == outs[1]
