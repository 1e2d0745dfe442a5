import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from bertrand_lab.montecarlo import run
from bertrand_lab.squares import (
    IntervalModel,
    exceed_probability,
    finite_counting_probability,
    square_exceed_experiment,
)


class TestContinuousModels:
    def test_the_three_answers(self):
        assert exceed_probability(IntervalModel.UNIFORM_X, 50.0) == 0.5
        assert exceed_probability(IntervalModel.NAIVE_UNIFORM_SQUARE, 2500.0) == 0.75
        assert exceed_probability(IntervalModel.PUSHFORWARD_SQUARE, 2500.0) == 0.5

    def test_pushforward_always_agrees_with_the_plain_question(self):
        for t in (0.0, 10.0, 50.0, 77.5, 100.0):
            assert exceed_probability(IntervalModel.PUSHFORWARD_SQUARE, t * t) == pytest.approx(
                exceed_probability(IntervalModel.UNIFORM_X, t), abs=1e-12
            )

    def test_threshold_ranges(self):
        with pytest.raises(ValueError):
            exceed_probability(IntervalModel.UNIFORM_X, 200.0)
        with pytest.raises(ValueError):
            exceed_probability(IntervalModel.NAIVE_UNIFORM_SQUARE, 20_000.0)
        with pytest.raises(ValueError):
            exceed_probability(IntervalModel.UNIFORM_X, -1.0)


def square_density(y: float) -> float:
    """Density of Y = X^2 for X uniform on [0, 100], on (0, 10000]."""
    return 1.0 / (200.0 * math.sqrt(y))


def density_mass(a: float, b: float) -> float:
    mass, _ = quad(square_density, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)
    return mass


class TestPushforwardDensity:
    def test_values(self):
        # the density is minus the slope of P(X^2 > y): 1/(200 sqrt y)
        def slope(y, h):
            upper = min(y + h, 10_000.0)
            return (
                exceed_probability(IntervalModel.PUSHFORWARD_SQUARE, y - h)
                - exceed_probability(IntervalModel.PUSHFORWARD_SQUARE, upper)
            ) / (upper - (y - h))

        assert slope(2500.0, 1e-3) == pytest.approx(1.0e-4, rel=1e-6)
        assert slope(10_000.0, 1e-3) == pytest.approx(5.0e-5, rel=1e-6)

    def test_nonpositive_rejected(self):
        # X^2 lives on [0, 10000]: no mass lies below 0, and thresholds there are refused
        assert exceed_probability(IntervalModel.PUSHFORWARD_SQUARE, 0.0) == 1.0
        with pytest.raises(ValueError):
            exceed_probability(IntervalModel.PUSHFORWARD_SQUARE, -3.0)
        with pytest.raises(ValueError):
            exceed_probability(IntervalModel.PUSHFORWARD_SQUARE, 20_000.0)

    @pytest.mark.parametrize("t", [1.0, 10.0, 100.0, 2500.0, 5000.0, 10_000.0])
    def test_mass_below_t_matches_sqrt_law(self, t):
        # P(X^2 <= t) = sqrt(t)/100, and an independent quadrature of the density
        exceed = exceed_probability(IntervalModel.PUSHFORWARD_SQUARE, t)
        assert 1.0 - exceed == pytest.approx(math.sqrt(t) / 100.0, abs=1e-12)
        assert density_mass(t, 10_000.0) == pytest.approx(exceed, abs=1e-9)

    def test_total_mass(self):
        assert exceed_probability(IntervalModel.PUSHFORWARD_SQUARE, 0.0) == 1.0
        assert density_mass(0.0, 10_000.0) == pytest.approx(1.0, abs=1e-9)


class TestFiniteCounting:
    def test_plain_and_squared_give_the_same_half(self):
        assert finite_counting_probability(100, 50, False) == Fraction(1, 2)
        assert finite_counting_probability(100, 2500, True) == Fraction(1, 2)

    def test_small_set_with_unreachable_threshold(self):
        assert finite_counting_probability(10, 100, True) == 0

    def test_returns_exact_fractions(self):
        value = finite_counting_probability(3, 1, False)
        assert isinstance(value, Fraction)
        assert value == Fraction(2, 3)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            finite_counting_probability(0, 1, False)

    def test_negative_threshold_counts_everything(self):
        assert finite_counting_probability(7, -1, False) == 1
        assert finite_counting_probability(7, -1, True) == 1

    @pytest.mark.parametrize("squared", [False, True])
    def test_infinite_threshold_counts_nothing(self, squared):
        assert finite_counting_probability(7, math.inf, squared) == 0
        assert finite_counting_probability(7, -math.inf, squared) == 1

    @pytest.mark.parametrize("squared", [False, True])
    def test_nan_threshold_is_rejected_by_name(self, squared):
        with pytest.raises(ValueError, match="threshold must be a number, got nan"):
            finite_counting_probability(7, math.nan, squared)

    @given(
        n_max=st.integers(min_value=1, max_value=1000),
        threshold=st.integers(min_value=0, max_value=1100),
    )
    def test_squaring_never_moves_probability(self, n_max, threshold):
        plain = finite_counting_probability(n_max, threshold, False)
        squared = finite_counting_probability(n_max, threshold * threshold, True)
        assert plain == squared

    @given(
        n_max=st.integers(min_value=1, max_value=1000),
        threshold=st.floats(min_value=0.0, max_value=1100.0),
    )
    def test_squaring_never_moves_probability_real_thresholds(self, n_max, threshold):
        plain = finite_counting_probability(n_max, threshold, False)
        squared = finite_counting_probability(n_max, threshold * threshold, True)
        assert plain == squared


class TestMonteCarlo:
    def test_sampled_squares_agree_with_the_pushforward(self):
        est = run(square_exceed_experiment(50.0), 10**6, seed=42)
        assert abs(est.p_hat - 0.5) <= 3.0 * math.sqrt(0.25 / 10**6)

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            square_exceed_experiment(101.0)
