"""The numpy/stdlib numerics and closed forms against their scipy references.

scipy stays the reference for the special functions it used to supply at
run time, and ``scipy.integrate.quad`` of each crossing or chord density is
checked against the closed form the package states.
"""

import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, gammaln, ndtri

from bertrand_lab.bertrand import ChordModel, exceed_probability_under_measure
from bertrand_lab.buffon import NeedleModel, exact_cross_probability
from bertrand_lab.montecarlo import WILSON_Z
from bertrand_lab.rationals import PoissonLaw


# For each needle model, the density of the first coordinate times the length
# of the crossing set of the second, over the range of the first: for a tilt
# theta the crossing centres fill two bands of total length cos(theta), and for
# an abscissa x the crossing y fill [x - 1, 0] and [1, x + 1] at density 1/2.
_CROSSING_DENSITIES = {
    NeedleModel.CENTER_ANGLE: (lambda theta: math.cos(theta) / math.pi, -math.pi / 2.0, math.pi / 2.0),
    NeedleModel.ENDPOINTS: (lambda x: 0.5 * (max(0.0, 1.0 - x) + max(0.0, x)), 0.0, 1.0),
}


def quad_cross_probability(model: NeedleModel) -> float:
    """Crossing probability by ``scipy.integrate.quad`` of the model's crossing density."""
    density, a, b = _CROSSING_DENSITIES[model]
    return quad(density, a, b)[0]


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
    # midpoint measure in polar coordinates: a chord is longer than t when its
    # midpoint lies within radius sqrt(1 - t^2/4), and the midpoint radius has
    # density r/pi times 2*pi, so the disc of radius rho has mass rho^2
    value = exceed_probability_under_measure(
        ChordModel.MIDPOINT_UNIFORM, ChordModel.POLAR_UNIFORM, threshold
    )
    closed_form = 1.0 - threshold * threshold / 4.0
    assert value == pytest.approx(closed_form, abs=1e-14)
    integral = quad(lambda r: 2.0 * r, 0.0, math.sqrt(closed_form))[0]
    assert integral == pytest.approx(closed_form, abs=1e-14)


@pytest.mark.parametrize("model", list(NeedleModel))
def test_buffon_quadrature_matches_closed_form(model):
    assert quad_cross_probability(model) == pytest.approx(
        exact_cross_probability(model), abs=1e-14
    )
