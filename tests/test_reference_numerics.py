"""The numpy/stdlib numerics against their references.

scipy stays the reference for the special functions it used to supply at
run time; the quadrature routes are checked against the closed forms.
"""

import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import gammainc, gammaln, ndtri

from bertrand_lab.bertrand import ChordModel, exceed_probability_under_measure
from bertrand_lab.buffon import NeedleModel, cross_probability_by_quadrature, exact_cross_probability
from bertrand_lab.montecarlo import WILSON_Z
from bertrand_lab.rationals import PoissonLaw


def test_wilson_z_is_the_normal_quantile_at_0975():
    assert WILSON_Z == NormalDist().inv_cdf(0.975)
    assert abs(WILSON_Z - float(ndtri(0.975))) <= 1e-15


def _poisson_support(mean):
    """Denominators 0..L whose scipy pmf is a normal (not subnormal) double."""
    ms = np.arange(0, PoissonLaw(mean).truncation_index(1e-250) + 1)
    reference = np.exp(-mean + (ms - 1.0) * math.log(mean) - gammaln(ms))
    keep = reference > 1e-300
    return ms[keep], reference[keep]


@pytest.mark.parametrize("mean", [0.1, 4.0, 100.0, 1e4])
def test_poisson_pmf_matches_gammaln(mean):
    ms, reference = _poisson_support(mean)
    np.testing.assert_allclose(PoissonLaw(mean).pmf_array(ms), reference, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("mean", [0.1, 4.0, 100.0, 1e4])
def test_poisson_tail_matches_gammainc(mean):
    """The truncation index L is the first m whose tail P{M > m} = gammainc(m, mean)
    is at most tol, up to a relative 1e-9 on either side of tol."""
    law = PoissonLaw(mean)
    for tol in np.logspace(-1, -250, 60).tolist():
        index = law.truncation_index(tol)
        assert gammainc(index, mean) <= tol * (1.0 + 1e-9), (tol, index)
        if index > 1:
            assert gammainc(index - 1, mean) > tol * (1.0 - 1e-9), (tol, index)


@pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0, math.sqrt(3.0), 1.9, 2.0])
def test_pushforward_quadrature_matches_closed_form(threshold):
    # midpoint measure in polar coordinates: the disc of radius rho has mass rho^2
    value = exceed_probability_under_measure(
        ChordModel.MIDPOINT_UNIFORM, ChordModel.POLAR_UNIFORM, threshold
    )
    assert value == pytest.approx(1.0 - threshold * threshold / 4.0, abs=1e-14)


@pytest.mark.parametrize("model", list(NeedleModel))
def test_buffon_quadrature_matches_closed_form(model):
    assert cross_probability_by_quadrature(model) == pytest.approx(
        exact_cross_probability(model), abs=1e-14
    )
