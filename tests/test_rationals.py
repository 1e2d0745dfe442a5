import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from bertrand_lab import rationals
from bertrand_lab.montecarlo import stream_generator
from bertrand_lab.rationals import (
    ConvergenceDiagnostics,
    CustomLaw,
    DegenerateLaw,
    GeometricFamily,
    GeometricLaw,
    PoissonFamily,
    PoissonLaw,
    Rational,
    atom_probability,
    canonicalize,
    cdf,
    cdf_grid,
    convergence_table,
    harmonic_number,
    interval_probability,
    mean_reciprocal,
    sample_rational_batch,
)

TOL = 1e-10


# independent brute-force oracles: plain loops over the defining series,
# written without reusing any library code


def brute_atom(n: int, m: int, pmf, terms: int) -> float:
    total = 0.0
    for ell in range(1, terms + 1):
        total += pmf(ell * m) / (ell * m + 1)
    return total


def geometric_pmf(w):
    return lambda k: w * (1.0 - w) ** (k - 1)


def coprime_rationals(max_denominator: int) -> list[Rational]:
    """Every canonical n/m in [0, 1] with m <= max_denominator."""
    return [
        Rational(n, m)
        for m in range(1, max_denominator + 1)
        for n in range(m + 1)
        if math.gcd(n, m) == 1
    ]


LAWS_OF_EVERY_KIND = [
    GeometricLaw(0.5),
    PoissonLaw(4.0),
    DegenerateLaw(3),
    CustomLaw({2: 0.5, 3: 0.25, 7: 0.25}),
]


class TestCanonicalize:
    def test_reduces_to_coprime_form(self):
        assert canonicalize(3, 6) == Rational(1, 2)

    def test_zero_becomes_zero_over_one(self):
        assert canonicalize(0, 7) == Rational(0, 1)

    def test_one_becomes_one_over_one(self):
        assert canonicalize(7, 7) == Rational(1, 1)

    def test_coprime_pair_unchanged(self):
        assert canonicalize(5, 7) == Rational(5, 7)

    def test_idempotent(self):
        q = canonicalize(4, 12)
        assert canonicalize(q.numerator, q.denominator) == q

    def test_preconditions(self):
        with pytest.raises(ValueError):
            canonicalize(3, 2)
        with pytest.raises(ValueError):
            canonicalize(0, 0)
        with pytest.raises(ValueError):
            canonicalize(-1, 2)

    def test_rational_type_rejects_reducible_pairs(self):
        with pytest.raises(ValueError):
            Rational(2, 4)

    def test_str_and_value(self):
        q = Rational(1, 2)
        assert str(q) == "1/2"
        assert q.numerator / q.denominator == 0.5

    @given(n=st.integers(min_value=0, max_value=10_000), m=st.integers(min_value=1, max_value=10_000))
    def test_always_canonical_and_value_preserving(self, n, m):
        if n > m:
            n, m = m, n
        q = canonicalize(n, m)
        assert math.gcd(q.numerator, q.denominator) == 1
        assert q.numerator * m == n * q.denominator  # same value exactly


class TestAtomProbability:
    def test_degenerate_half(self):
        assert atom_probability(Rational(1, 2), DegenerateLaw(2), TOL) == pytest.approx(
            1.0 / 3.0, abs=1e-12
        )

    def test_degenerate_zero_atom(self):
        # 0 = 0/1, so the series runs over every multiple of 1
        assert atom_probability(Rational(0, 1), DegenerateLaw(2), TOL) == pytest.approx(
            1.0 / 3.0, abs=1e-12
        )

    def test_atom_missing_from_support(self):
        assert atom_probability(Rational(1, 3), DegenerateLaw(2), TOL) == 0.0

    def test_geometric_half_against_brute_force(self):
        oracle = brute_atom(1, 2, geometric_pmf(0.5), terms=60)
        value = atom_probability(Rational(1, 2), GeometricLaw(0.5), TOL)
        assert value == pytest.approx(oracle, abs=1e-9)

    def test_geometric_half_against_closed_form(self):
        # sum over l of (1/4)^l / (2l + 1) telescopes to 2*(artanh(1/2) - 1/2)
        closed = 2.0 * (math.atanh(0.5) - 0.5)
        value = atom_probability(Rational(1, 2), GeometricLaw(0.5), TOL)
        assert value == pytest.approx(closed, abs=1e-9)

    def test_poisson_atom_against_brute_force(self):
        lam = 3.0
        # shifted-Poisson pmf built by the forward recursion p1 = e^-lam,
        # p_{k+1} = p_k * lam / k (independent of the log-gamma evaluation)
        table = [math.exp(-lam)]
        for k in range(1, 300):
            table.append(table[-1] * lam / k)
        oracle = brute_atom(2, 5, lambda k: table[k - 1], terms=40)
        value = atom_probability(Rational(2, 5), PoissonLaw(lam), TOL)
        assert value == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("q", [Rational(1, 3), Rational(3, 7)])
    def test_many_chunk_geometric_atom_against_full_sum(self, q):
        # the whole series in one array: L from the closed-form geometric tail
        w = 1e-5
        limit = math.ceil(math.log(TOL) / math.log1p(-w))
        ms = np.arange(q.denominator, limit + 1, q.denominator, dtype=np.float64)
        full = float(np.sum(w * np.exp((ms - 1.0) * math.log1p(-w)) / (ms + 1.0)))
        assert atom_probability(q, GeometricLaw(w), TOL) == pytest.approx(full, rel=1e-13)

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            atom_probability(Rational(1, 2), DegenerateLaw(2), 0.0)

    def test_symmetry_of_numerators(self):
        # gcd(n, m) = 1 iff gcd(m - n, m) = 1, and the numerator law is uniform
        laws = [GeometricLaw(0.3), DegenerateLaw(6), PoissonLaw(3.0)]
        for law in laws:
            for q in coprime_rationals(50):
                mirrored = Rational(q.denominator - q.numerator, q.denominator)
                assert atom_probability(q, law, TOL) == pytest.approx(
                    atom_probability(mirrored, law, TOL), abs=1e-13
                )

    def test_total_mass_degenerate(self):
        total = sum(atom_probability(q, DegenerateLaw(7), TOL) for q in coprime_rationals(7))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_total_mass_custom(self):
        law = CustomLaw({1: 0.2, 2: 0.3, 5: 0.5})
        total = sum(atom_probability(q, law, TOL) for q in coprime_rationals(5))
        assert total == pytest.approx(1.0, abs=1e-10)


class TestCdf:
    def test_degenerate_staircase(self):
        law = DegenerateLaw(2)
        assert cdf(0.6, law, TOL) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_outside_unit_interval(self):
        assert cdf(-0.5, GeometricLaw(0.2), TOL) == 0.0
        assert cdf(1.0, GeometricLaw(0.2), TOL) == 1.0
        assert cdf(7.0, DegenerateLaw(3), TOL) == 1.0

    def test_nan_point_is_rejected(self):
        with pytest.raises(ValueError):
            cdf(float("nan"), GeometricLaw(0.2), TOL)
        with pytest.raises(ValueError):
            cdf_grid(np.array([0.25, float("nan")]), GeometricLaw(0.2), TOL)
        assert cdf(float("-inf"), GeometricLaw(0.2), TOL) == 0.0
        # cdf sums apart from cdf_grid, with the same edges and the same errors
        law, nan = GeometricLaw(0.2), float("nan")
        edges = [-math.inf, -0.0, 0.0, 1.0, math.inf]
        grid = cdf_grid(np.array(edges), law, TOL)
        assert [grid[0], *grid[3:]] == [0.0, 1.0, 1.0]
        for x, on_grid in zip(edges, grid):
            assert cdf(x, law, TOL) == pytest.approx(on_grid, rel=4 * 2**-52, abs=0.0)
        assert cdf(-0.0, law, TOL) == cdf(0.0, law, TOL)
        for call in (cdf, lambda x, law, tol: cdf_grid(np.array([x]), law, tol)):
            with pytest.raises(ValueError, match="x must not be NaN"):
                call(nan, law, TOL)
            # tol is checked first, even where x needs no series
            for x, tol in ((nan, nan), (-1.0, 0.0), (0.5, 1.0), (2.0, -1e-10)):
                with pytest.raises(ValueError, match="tol must lie in"):
                    call(x, law, tol)

    def test_right_continuous_at_atoms(self):
        law = DegenerateLaw(2)
        at = cdf(0.5, law, TOL)
        below = cdf(0.5 - 1e-9, law, TOL)
        assert at == pytest.approx(2.0 / 3.0, abs=1e-12)  # atom at 1/2 included
        assert below == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_monotone_nondecreasing(self):
        law = GeometricLaw(0.3)
        xs = np.linspace(-0.1, 1.1, 400)
        values = [cdf(float(x), law, TOL) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_grid_matches_scalar(self):
        xs = np.array([-0.2, 0.0, 0.123, 0.5, 0.77, 0.999, 1.0, 1.5])
        for law in [PoissonLaw(5.0), GeometricLaw(1e-4), PoissonLaw(1e4)]:
            grid = cdf_grid(xs, law, TOL)
            scalar = np.array([cdf(float(x), law, TOL) for x in xs])
            np.testing.assert_allclose(grid, scalar, atol=1e-12)

    @pytest.mark.parametrize(
        "law",
        [
            GeometricFamily().law(10**3),
            GeometricFamily().law(10**4),
            PoissonFamily().law(10**4),
            GeometricFamily().law(10**5),
            PoissonFamily().law(10**5),
        ],
        ids=["geometric-1e3", "geometric-1e4", "poisson-1e4", "geometric-1e5", "poisson-1e5"],
    )
    def test_grid_stays_within_64_ulps_of_scalar(self, law):
        # random points lie on no grid, so they take the walk, which adds its chunk
        # sums in order where cdf rounds their sum exactly: the gap may grow with the
        # chunk count, 36 at geometric 1e5 (L = 2,302,574), past the 8-ulp tests'
        # k = 1e4; here it is at most 3, 3, 2, 4 and 2 ulps
        xs = np.random.default_rng(0).random(40)
        grid = cdf_grid(xs, law, TOL)
        scalar = np.array([cdf(float(x), law, TOL) for x in xs])
        # both lie in (0, 1], where the distance of the bit patterns counts ulps
        assert np.abs(grid.view(np.int64) - scalar.view(np.int64)).max() <= 64

    @pytest.mark.parametrize(
        "law",
        [GeometricFamily().law(10**3), GeometricFamily().law(10**4), PoissonFamily().law(10**4)],
        ids=["geometric-1e3", "geometric-1e4", "poisson-1e4"],
    )
    def test_grid_stays_within_8_ulps_of_scalar(self, law):
        # this grid takes the fold, which sums each bin of a chunk and each point's
        # floors pairwise, so only in-order additions part it from cdf: on this grid
        # at most 2, 3 and 2 ulps
        xs = np.arange(143) / 143
        grid = cdf_grid(xs, law, TOL)
        scalar = np.array([cdf(float(x), law, TOL) for x in xs])
        assert np.abs(grid.view(np.int64) - scalar.view(np.int64)).max() <= 8

    @pytest.mark.parametrize(
        "law",
        [GeometricFamily().law(10**3), GeometricFamily().law(10**4), PoissonFamily().law(10**4)],
        ids=["geometric-1e3", "geometric-1e4", "poisson-1e4"],
    )
    def test_walk_stays_within_8_ulps_of_scalar(self, law):
        # the grid i/143 takes the fold; one float up, on no grid, its points take
        # the walk, whose in-order chunk additions alone part it from cdf
        xs = np.nextafter(np.arange(143) / 143, 1.0)
        grid = cdf_grid(xs, law, TOL)
        scalar = np.array([cdf(float(x), law, TOL) for x in xs])
        assert np.abs(grid.view(np.int64) - scalar.view(np.int64)).max() <= 8

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fold_stays_within_8_ulps_of_scalar_on_grids(self, data):
        # the fold route itself, on a grid i/n or a subset of it, for a law of each kind
        n = data.draw(st.one_of(st.integers(2, 300), st.sampled_from([143, 1000, 4096])))
        if data.draw(st.booleans(), label="full grid"):
            i = np.arange(n)
        else:
            subset = st.lists(st.integers(0, n - 1), min_size=2, max_size=40, unique=True)
            i = np.array(data.draw(subset))
        kind = data.draw(st.sampled_from(["geometric", "poisson", "degenerate", "custom"]))
        if kind == "geometric":
            law = GeometricLaw(data.draw(st.floats(1e-3, 0.9), label="w"))
        elif kind == "poisson":
            law = PoissonLaw(data.draw(st.floats(0.5, 3000.0), label="mean"))
        elif kind == "degenerate":
            law = DegenerateLaw(data.draw(st.integers(1, 5000), label="value"))
        else:
            ms = data.draw(st.lists(st.integers(1, 5000), min_size=1, max_size=6, unique=True))
            law = CustomLaw({m: 1.0 / len(ms) for m in ms})
        xs = i / n
        assert rationals._grid_denominator(xs) in [d for d in range(1, n + 1) if n % d == 0]
        i = np.rint(xs * n)
        below = rationals._below(xs, i, n)
        folded = rationals._fold(xs, i, n, below, law, law.truncation_index(TOL))
        scalar = np.array([cdf(float(x), law, TOL) for x in xs])
        assert np.abs(folded.view(np.int64) - scalar.view(np.int64)).max() <= 8

    def test_fold_answers_where_the_walk_is_over_the_budget(self):
        # the walk would be 1,000 points times L = 23,025,840 cells; the fold is
        # about 4 L + sum(L / b) + 1,000 * 1,000 of them
        law, xs = GeometricFamily().law(10**6), np.arange(1000) / 1000
        grid = cdf_grid(xs, law, TOL)
        for i in (1, 333, 500, 700, 999):
            scalar = cdf(float(xs[i]), law, TOL)
            assert abs(grid[i] - scalar) <= 8 * math.ulp(scalar)
        # off the grid the walk is taken, and refuses in its own words
        refusal = r"at 1000 point\(s\) is 23025840000 cells, over the budget"
        with pytest.raises(ValueError, match=refusal):
            cdf_grid(xs + 1e-7, law, TOL)

    def test_cdf_interval_agreement_on_random_pairs(self):
        law = GeometricLaw(0.25)
        rng = np.random.default_rng(99)
        for _ in range(100):
            a, b = np.sort(rng.uniform(0.0, 1.0, 2))
            if a == b:
                continue
            direct = interval_probability(float(a), float(b), law, TOL)
            via_cdf = cdf(float(b), law, TOL) - cdf(float(a), law, TOL)
            assert abs(direct - via_cdf) <= 2.0 * TOL


class TestIntervalProbability:
    def test_degenerate_window(self):
        assert interval_probability(0.0, 0.5, DegenerateLaw(2), TOL) == pytest.approx(
            1.0 / 3.0, abs=1e-12
        )

    def test_full_interval_complements_the_zero_atom(self):
        for law in [DegenerateLaw(2), GeometricLaw(0.3), PoissonLaw(4.0)]:
            full = interval_probability(0.0, 1.0, law, TOL)
            assert full == pytest.approx(1.0 - atom_probability(Rational(0, 1), law, TOL), abs=1e-9)

    def test_flat_law_approaches_interval_length(self):
        law = GeometricLaw(0.01)
        mu = mean_reciprocal(law, 1e-8)
        value = interval_probability(0.2, 0.3, law, 1e-8)
        assert abs(value - 0.1) <= 2.0 * mu

    def test_preconditions(self):
        law = DegenerateLaw(2)
        with pytest.raises(ValueError):
            interval_probability(0.5, 0.25, law, TOL)
        with pytest.raises(ValueError):
            interval_probability(0.5, 0.5, law, TOL)
        with pytest.raises(ValueError):
            interval_probability(-0.1, 0.5, law, TOL)
        with pytest.raises(ValueError):
            interval_probability(0.1, 1.5, law, TOL)

    @given(
        a=st.floats(min_value=0.0, max_value=0.98),
        width=st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_result_is_a_probability(self, a, width):
        b = min(1.0, a + width)
        if a >= b:
            return
        value = interval_probability(a, b, GeometricLaw(0.4), TOL)
        assert -1e-12 <= value <= 1.0 + 1e-12

    def test_proposition_sandwich(self):
        # b - a + (a - b - 1) mu <= P(a < Q <= b) <= b - a + (a - b + 1) mu
        probes = [(0.0, 0.5), (0.2, 0.3), (0.1, 0.9)]
        laws = [GeometricLaw(0.1), GeometricLaw(0.01), PoissonLaw(10.0), PoissonLaw(100.0)]
        for law in laws:
            mu = mean_reciprocal(law, TOL)
            for a, b in probes:
                p = interval_probability(a, b, law, TOL)
                assert (b - a) + (a - b - 1.0) * mu - 1e-9 <= p
                assert p <= (b - a) + (a - b + 1.0) * mu + 1e-9


def dyadic(data, label: str, top: int = 0) -> float:
    """k / 2**j with j <= 20 in [0, 1), or [0, 1] with top=1: m x is then exact in
    float for every m < 2**32, so the float floors are the exact ones."""
    j = data.draw(st.integers(0, 20), label=f"{label} j")
    return data.draw(st.integers(0, 2**j - 1 + top), label=f"{label} k") / 2**j


def within_ulps(value: float, exact: Fraction, ulps: int = 4) -> bool:
    expected = float(exact)  # the oracle rounded once
    return abs(value - expected) <= ulps * math.ulp(expected)


@settings(max_examples=200)
@given(data=st.data())
def test_table_law_matches_the_fraction_oracle(data):
    # each table probability p read exactly, as Fraction(p), and every floor exact
    ms = data.draw(st.lists(st.integers(1, 999), min_size=1, max_size=6, unique=True), label="ms")
    if len(ms) == 1 and data.draw(st.booleans(), label="degenerate"):
        table, law = {ms[0]: 1.0}, DegenerateLaw(ms[0])
    else:
        weights = data.draw(st.lists(st.integers(1, 100), min_size=len(ms), max_size=len(ms)))
        table = {m: w / sum(weights) for m, w in zip(ms, weights)}
        law = CustomLaw(table)
    exact = {m: Fraction(p) for m, p in table.items()}

    x = dyadic(data, "x")
    cdf_oracle = sum(p * (math.floor(m * Fraction(x)) + 1) / (m + 1) for m, p in exact.items())
    assert within_ulps(cdf(x, law, TOL), cdf_oracle)

    a, b = sorted((dyadic(data, "a", top=1), dyadic(data, "b", top=1)))
    if a < b:
        window = sum(
            p * (math.floor(m * Fraction(b)) - math.floor(m * Fraction(a))) / (m + 1)
            for m, p in exact.items()
        )
        assert within_ulps(interval_probability(a, b, law, TOL), window)

    # a denominator that divides some entry, or any one
    d = data.draw(st.one_of(st.integers(1, 999), st.sampled_from(ms).flatmap(
        lambda m: st.sampled_from([k for k in range(1, m + 1) if m % k == 0]))), label="d")
    q = canonicalize(data.draw(st.integers(0, d), label="n"), d)
    atom = sum(p / (m + 1) for m, p in exact.items() if m % q.denominator == 0)
    assert within_ulps(atom_probability(q, law, TOL), atom)


class TestMeanReciprocal:
    def test_degenerate_one(self):
        assert mean_reciprocal(DegenerateLaw(1), TOL) == 1.0

    def test_geometric_half_is_ln_two(self):
        brute = sum(0.5 * 0.5 ** (m - 1) / m for m in range(1, 200))
        value = mean_reciprocal(GeometricLaw(0.5), TOL)
        assert value == pytest.approx(math.log(2.0), abs=1e-9)
        assert value == pytest.approx(brute, abs=1e-9)

    def test_geometric_small_rate_closed_form(self):
        w = 0.01
        assert mean_reciprocal(GeometricLaw(w), TOL) == pytest.approx(
            -w * math.log(w) / (1.0 - w), abs=1e-9
        )

    def test_many_chunk_geometric_closed_form(self):
        w = 1e-5
        assert mean_reciprocal(GeometricLaw(w), TOL) == pytest.approx(
            -w * math.log(w) / (1.0 - w), rel=1e-12
        )

    def test_poisson_closed_form(self):
        # E[1/(1 + N)] = (1 - exp(-lam))/lam for N Poisson(lam)
        for lam in (1.0, 4.0, 10.0):
            assert mean_reciprocal(PoissonLaw(lam), TOL) == pytest.approx(
                (1.0 - math.exp(-lam)) / lam, abs=1e-9
            )

    def test_lies_in_unit_interval(self):
        for law in [GeometricLaw(0.9), PoissonLaw(0.1), CustomLaw({3: 1.0})]:
            assert 0.0 < mean_reciprocal(law, TOL) <= 1.0


class TestSeriesMemory:
    @pytest.mark.parametrize(
        "call",
        [
            lambda law: atom_probability(Rational(1, 3), law, TOL),
            lambda law: cdf(0.37, law, TOL),
            lambda law: cdf_grid(np.linspace(0.0, 1.0, 17), law, TOL),
            # one denominator per chunk; the long law would pass the cell budget
            lambda law: cdf_grid(np.linspace(0.0, 1.0, 70_000), GeometricLaw(0.02), TOL),
            lambda law: interval_probability(0.2, 0.7, law, TOL),
            lambda law: mean_reciprocal(law, TOL),
        ],
        ids=["atom", "cdf", "cdf_grid", "cdf_grid_wide", "interval", "mean_reciprocal"],
    )
    def test_peak_is_bounded_for_a_long_series(self, call):
        law = GeometricLaw(1e-5)  # L = 2,302,574 denominators
        tracemalloc.start()
        try:
            call(law)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestSupPmf:
    def test_geometric_mode_at_one(self):
        assert GeometricLaw(0.1).sup_pmf() == 0.1

    def test_poisson_at_integer_mean(self):
        # mode of the shifted pmf sits at m = 5 for mean 4
        brute = max(
            math.exp(-4.0) * 4.0 ** (m - 1) / math.factorial(m - 1) for m in range(1, 100)
        )
        assert PoissonLaw(4.0).sup_pmf() == pytest.approx(brute, abs=1e-15)
        assert PoissonLaw(4.0).sup_pmf() == pytest.approx(0.19536681481316456, abs=1e-12)

    def test_poisson_small_mean(self):
        assert PoissonLaw(0.5).sup_pmf() == pytest.approx(math.exp(-0.5), abs=1e-15)


class TestLawMechanics:
    def test_truncation_index_is_tight(self):
        # each law's tail P{M > m} written out independently of the library
        table = {2: 0.5, 9: 0.375, 11: 0.125}
        tails = [
            (GeometricLaw(0.37), lambda m: (1.0 - 0.37) ** m),
            (PoissonLaw(7.0), lambda m: float(gammainc(m, 7.0))),
            (DegenerateLaw(5), lambda m: float(m < 5)),
            (CustomLaw(table), lambda m: float(sum(Fraction(p) for k, p in table.items() if k > m))),
        ]
        for law, tail in tails:
            for tol in (0.3, 1e-6, 1e-10):
                idx = law.truncation_index(tol)
                assert tail(idx) <= tol
                if idx > 1:
                    assert tail(idx - 1) > tol

    @pytest.mark.parametrize("tol", [0.0, -1e-10, 1.0, 5.0, math.inf, math.nan])
    @pytest.mark.parametrize("law", LAWS_OF_EVERY_KIND, ids=repr)
    def test_tol_outside_the_unit_interval_is_refused(self, law, tol):
        # a tol of 1 or more would certify nothing: the series would stop at L = 1
        for series in (
            lambda: law.truncation_index(tol),
            lambda: atom_probability(Rational(1, 2), law, tol),
            lambda: cdf(0.5, law, tol),
            lambda: cdf_grid(np.array([0.2, 0.7]), law, tol),
            lambda: interval_probability(0.2, 0.7, law, tol),
            lambda: mean_reciprocal(law, tol),
        ):
            with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
                series()

    @pytest.mark.parametrize("law", LAWS_OF_EVERY_KIND, ids=repr)
    def test_tol_just_below_one_is_accepted(self, law):
        tol = math.nextafter(1.0, 0.0)
        assert law.truncation_index(tol) >= 1
        assert 0.0 <= cdf(0.5, law, tol) <= 1.0

    def test_pmf_array_writes_into_out(self):
        ms = np.arange(1, 60, dtype=np.int64)
        for law in [GeometricLaw(0.2), PoissonLaw(6.0), DegenerateLaw(3),
                    CustomLaw({1: 0.5, 4: 0.5})]:
            out = np.full(len(ms), np.nan)
            assert law.pmf_array(ms, out=out) is out
            assert out.tobytes() == law.pmf_array(ms).tobytes()

    def test_pmf_array_matches_scalar(self):
        # each law's pmf in closed form, one denominator at a time
        ms = np.arange(1, 60, dtype=np.int64)
        for law, pmf in [
            (GeometricLaw(0.2), lambda m: 0.2 * 0.8 ** (m - 1)),
            (PoissonLaw(6.0), lambda m: math.exp(-6.0) * 6.0 ** (m - 1) / math.factorial(m - 1)),
            (DegenerateLaw(3), lambda m: float(m == 3)),
            (CustomLaw({1: 0.5, 4: 0.5}), lambda m: {1: 0.5, 4: 0.5}.get(m, 0.0)),
        ]:
            np.testing.assert_allclose(
                law.pmf_array(ms), [pmf(int(m)) for m in ms], rtol=1e-13, atol=1e-15
            )

    def test_pmf_sums_to_one(self):
        for law in [GeometricLaw(0.2), PoissonLaw(6.0)]:
            ms = np.arange(1, law.truncation_index(1e-13) + 1, dtype=np.int64)
            assert float(law.pmf_array(ms).sum()) == pytest.approx(1.0, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GeometricLaw(0.0)
        with pytest.raises(ValueError):
            GeometricLaw(1.0)
        with pytest.raises(ValueError):
            PoissonLaw(0.0)
        with pytest.raises(ValueError):
            DegenerateLaw(0)

    def test_custom_table_validation(self):
        with pytest.raises(ValueError):
            CustomLaw({})
        with pytest.raises(ValueError):
            CustomLaw({0: 1.0})
        with pytest.raises(ValueError):
            CustomLaw({1: 0.5, 2: 0.6})
        with pytest.raises(ValueError):
            CustomLaw({1: -0.1, 2: 1.1})
        with pytest.raises(ValueError):
            CustomLaw({1: 0.5, 2: float("nan")})

    def test_laws_beyond_int64_or_without_a_finite_mean_are_rejected(self):
        top = 2**62 - 1  # the largest denominator
        with pytest.raises(ValueError, match="denominator"):
            DegenerateLaw(top + 1)
        with pytest.raises(ValueError, match="denominators"):
            CustomLaw({2: 0.5, top + 1: 0.5})
        with pytest.raises(ValueError, match="finite"):
            PoissonLaw(math.inf)
        with pytest.raises(ValueError, match="k must be >= 2"):
            GeometricFamily().law(1)

    def test_series_beyond_int64_raise_value_error(self):
        with pytest.raises(ValueError, match="too small"):
            GeometricLaw(5e-324).truncation_index(TOL)
        with pytest.raises(ValueError, match="budget"):
            interval_probability(0.0, 0.5, GeometricLaw(1e-300), TOL)
        # the Poisson bulk rounds to one denominator, 1e300
        with pytest.raises(ValueError, match="largest denominator"):
            atom_probability(Rational(1, 2), PoissonLaw(1e300), TOL)

    def test_largest_denominator_is_summed(self):
        top = 2**62 - 1
        for law in (DegenerateLaw(top), CustomLaw({top: 1.0})):
            assert atom_probability(Rational(1, top), law, TOL) == 1.0 / (top + 1.0)
            # the series over m = top/3, 2 top/3 and top, where 3/top is 1/(top/3)
            assert atom_probability(Rational(1, top // 3), law, TOL) == 1.0 / (top + 1.0)

    @pytest.mark.parametrize("v", [1, 7, 100_000])
    def test_degenerate_law_is_the_one_entry_custom_table(self, v):
        degenerate, table = DegenerateLaw(v), CustomLaw({v: 1.0})
        for dtype in (np.int64, np.float64):
            ms = np.arange(1, 2 * v + 2, dtype=dtype)
            assert degenerate.pmf_array(ms).tobytes() == table.pmf_array(ms).tobytes()
        assert degenerate.truncation_index(TOL) == table.truncation_index(TOL) == v
        for q in (Rational(0, 1), Rational(1, v), Rational(1, 2)):
            assert atom_probability(q, degenerate, TOL) == atom_probability(q, table, TOL)
        assert cdf(0.37, degenerate, TOL) == cdf(0.37, table, TOL)
        assert interval_probability(0.2, 0.7, degenerate, TOL) == interval_probability(
            0.2, 0.7, table, TOL
        )
        assert mean_reciprocal(degenerate, TOL) == mean_reciprocal(table, TOL)
        # the one reason DegenerateLaw overrides sample: it spends no draw, a table's choice does
        rng = stream_generator(v, 0)
        state = rng.bit_generator.state
        assert np.array_equal(degenerate.sample(rng, 1000), np.full(1000, v))
        assert rng.bit_generator.state == state
        assert np.array_equal(table.sample(rng, 1000), np.full(1000, v))
        assert rng.bit_generator.state != state


CHUNK = rationals._CHUNK_CELLS
# geometric on both sides of w = 1/3, where numpy's draw changes from inversion to search,
# and a table entry above 2**32, whose numerators numpy draws 64 bits at a time
WALK_LAWS = [
    GeometricLaw(0.2), GeometricLaw(0.5), PoissonLaw(3.0),
    CustomLaw({3: 0.5, 7: 0.25, 2**40: 0.25}), DegenerateLaw(6),
]


def numpy_rationals(law, rng, size):
    """A batch of rationals as numpy draws them: the denominators, then one
    ``integers(0, ms + 1)``, both divided by their ``np.gcd``."""
    ms = law.sample(rng, size)
    ns = rng.integers(0, ms + 1)
    g = np.gcd(ns, ms)
    return ns // g, ms // g


@pytest.mark.parametrize("size", [1, 7, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
@pytest.mark.parametrize("law", WALK_LAWS, ids=repr)
def test_chunk_walk_is_one_numpy_draw(law, size):
    ref = stream_generator(7, 0)
    ns_ref, ms_ref = numpy_rationals(law, ref, size)
    rng = stream_generator(7, 0)
    ms, walk = rationals._draw(law, rng, size)
    chunks = list(walk)
    assert [lo for lo, _ in chunks] == list(range(0, size, CHUNK))
    assert [len(n) for _, n in chunks] == [min(CHUNK, size - lo) for lo, _ in chunks]
    assert np.array_equal(np.concatenate([n for _, n in chunks]), ns_ref)
    assert np.array_equal(ms, ms_ref)
    # the generator goes on where numpy's one draw left it, in 32-bit and in double draws
    assert np.array_equal(rng.integers(0, 1000, 3, dtype=np.int32), ref.integers(0, 1000, 3, dtype=np.int32))
    assert np.array_equal(rng.random(3), ref.random(3))
    nums, dens = sample_rational_batch(law, stream_generator(7, 0), size)
    assert np.array_equal(nums, ns_ref) and np.array_equal(dens, ms_ref)


class TestSampling:
    def test_samples_are_always_canonical(self):
        rng = stream_generator(13, 0)
        nums, dens = sample_rational_batch(GeometricLaw(0.2), rng, 100_000)
        assert np.all(np.gcd(nums, dens) == 1)
        assert np.all((nums >= 0) & (nums <= dens) & (dens >= 1))

    def test_scalar_sampler_matches_type_contract(self):
        rng = stream_generator(13, 0)
        for _ in range(500):
            nums, dens = sample_rational_batch(CustomLaw({2: 0.5, 3: 0.5}), rng, 1)
            assert nums.dtype == dens.dtype == np.int64
            q = Rational(int(nums[0]), int(dens[0]))  # raises unless canonical
            assert q.denominator in (1, 2, 3)

    def test_degenerate_two_has_three_equally_likely_atoms(self):
        n = 200_000
        rng = stream_generator(42, 0)
        nums, dens = sample_rational_batch(DegenerateLaw(2), rng, n)
        sig = math.sqrt((1.0 / 3.0) * (2.0 / 3.0) / n)
        for nn, dd in [(0, 1), (1, 2), (1, 1)]:
            freq = np.count_nonzero((nums == nn) & (dens == dd)) / n
            assert abs(freq - 1.0 / 3.0) <= 3.0 * sig

    def test_geometric_frequency_matches_atom_probability(self):
        n = 200_000
        law = GeometricLaw(0.5)
        p = atom_probability(Rational(1, 2), law, TOL)
        rng = stream_generator(42, 0)
        nums, dens = sample_rational_batch(law, rng, n)
        freq = np.count_nonzero((nums == 1) & (dens == 2)) / n
        assert abs(freq - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)

    def test_saturated_geometric_draws_are_refused_with_the_law_and_cap(self):
        # numpy's geometric returns the int64 maximum when w is this small
        with pytest.raises(ValueError, match=r"GeometricLaw\(w=1e-300\).*4611686018427387903"):
            sample_rational_batch(GeometricLaw(1e-300), stream_generator(4, 0), 2)

    def test_deterministic_per_seed(self):
        a = sample_rational_batch(PoissonLaw(3.0), stream_generator(4, 0), 1000)
        b = sample_rational_batch(PoissonLaw(3.0), stream_generator(4, 0), 1000)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestPushforwardInvariance:
    def test_squaring_preserves_atom_probabilities(self):
        # squaring is injective on canonical rationals: q > 1/2 iff q^2 > 1/4,
        # and P(Q^2 = q^2) is P(Q = q) carried along, so the two sums agree
        for law in [DegenerateLaw(7), GeometricLaw(0.3)]:
            above_half = 0.0
            squared_above_quarter = 0.0
            for q in coprime_rationals(50):
                p = atom_probability(q, law, TOL)
                if 2 * q.numerator > q.denominator:  # q > 1/2 exactly
                    above_half += p
                n2, m2 = q.numerator**2, q.denominator**2
                if 4 * n2 > m2:  # q^2 > 1/4 exactly
                    squared_above_quarter += p
            assert squared_above_quarter == pytest.approx(above_half, abs=1e-12)


class TestConvergence:
    def test_geometric_family_diagnostics_decrease(self):
        rows = convergence_table(GeometricFamily(), [10, 100, 1000], (0.0, 0.5), TOL)
        assert [r.k for r in rows] == [10, 100, 1000]
        sups = [r.pmf_sup_log_k for r in rows]
        mus = [r.mean_reciprocal for r in rows]
        assert sups == sorted(sups, reverse=True)
        assert mus == sorted(mus, reverse=True)

    def test_interval_error_bounded_by_proposition(self):
        rows = convergence_table(GeometricFamily(), [10, 100, 1000], (0.0, 0.5), TOL)
        for row in rows:
            assert row.interval_error <= 1.5 * row.mean_reciprocal + 1e-9

    def test_poisson_family_diagnostics(self):
        rows = convergence_table(PoissonFamily(), [10, 100], (0.25, 0.75), TOL)
        assert rows[0].mean_reciprocal > rows[1].mean_reciprocal
        for row in rows:
            assert row.interval_error <= 1.5 * row.mean_reciprocal + 1e-9

    def test_harmonic_numbers(self):
        assert harmonic_number(1) == 1.0
        assert harmonic_number(4) == pytest.approx(25.0 / 12.0, abs=1e-12)
        with pytest.raises(ValueError):
            harmonic_number(0)

    def test_harmonic_number_is_summed_in_blocks(self):
        k = 10**7
        tracemalloc.start()
        try:
            value = harmonic_number(k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        euler_gamma = 0.5772156649015329
        asymptotic = math.log(k) + euler_gamma + 1.0 / (2 * k) - 1.0 / (12 * k * k)
        assert value == pytest.approx(asymptotic, rel=1e-14, abs=0.0)
        with pytest.raises(ValueError, match="over the budget"):
            harmonic_number(2**32 + 1)

    def test_diagnostics_fields_recomputable(self):
        rows = convergence_table(GeometricFamily(), [50], (0.0, 0.5), TOL)
        row = rows[0]
        law = GeometricFamily().law(50)
        assert isinstance(row, ConvergenceDiagnostics)
        assert row.pmf_sup == law.sup_pmf()
        assert row.pmf_sup_log_k == pytest.approx(law.sup_pmf() * math.log(50), abs=1e-15)
        assert row.mean_reciprocal == pytest.approx(mean_reciprocal(law, TOL), abs=1e-15)
        assert row.interval_error == pytest.approx(
            abs(interval_probability(0.0, 0.5, law, TOL) - 0.5), abs=1e-15
        )

    def test_ks_validation(self):
        with pytest.raises(ValueError):
            convergence_table(GeometricFamily(), [], (0.0, 0.5), TOL)
        with pytest.raises(ValueError):
            convergence_table(GeometricFamily(), [10, 10], (0.0, 0.5), TOL)
        with pytest.raises(ValueError):
            convergence_table(GeometricFamily(), [10, 100], (0.5, 0.5), TOL)

    def test_cdf_bounds_hold_even_for_a_point_mass(self):
        # sup of the pmf is 1 here, yet x - x mu < F(x) < x + (1 - x) mu holds
        law = CustomLaw({3: 1.0})
        mu = mean_reciprocal(law, TOL)
        for x in np.linspace(0.0, 0.999, 200):
            f = cdf(float(x), law, TOL)
            assert x - x * mu - 1e-12 < f < x + (1.0 - x) * mu + 1e-12

    def test_cdf_converges_uniformly_to_the_identity(self):
        xs = np.arange(1000) / 1000.0
        sups = []
        for k in (10, 100, 1000, 10_000):
            law = GeometricFamily().law(k)
            mu = mean_reciprocal(law, TOL)
            sup = float(np.max(np.abs(cdf_grid(xs, law, TOL) - xs)))
            assert sup <= mu + 1e-9
            sups.append(sup)
        assert sups == sorted(sups, reverse=True)
