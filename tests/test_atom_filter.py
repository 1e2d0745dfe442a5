"""Atoms of the geometric and Poisson laws by the roots-of-unity filter of G.

Both routes of ``atom_probability`` are held against ``atom_oracle``, a
term-by-term sum in ``decimal`` at 40 digits: the filter within the bound it
states, the series within ``tol``.  A law states G only where its closed form
holds (1 - w >= 1/2, mean >= 1); elsewhere its atoms take the series.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from atom_oracle import oracle_atom

from bertrand_lab import rationals
from bertrand_lab.rationals import (
    CustomLaw,
    DegenerateLaw,
    GeometricLaw,
    PoissonLaw,
    Rational,
    atom_probability,
)

TOL = 1e-10


@given(data=st.data(), kind=st.sampled_from(["geometric", "poisson"]))
def test_both_routes_match_the_oracle(data, kind):
    # log-uniform parameters: w in [1e-3, 0.999], the mean in [1e-3, 1e3]
    if kind == "geometric":
        law = GeometricLaw(min(10.0 ** data.draw(st.floats(-3.0, 0.0), label="log10 w"), 0.999))
    else:
        law = PoissonLaw(10.0 ** data.draw(st.floats(-3.0, 3.0), label="log10 mean"))
    top = law.truncation_index(TOL)
    d = data.draw(st.integers(1, math.isqrt(top)), label="d")
    want = oracle_atom(law, d)
    series = rationals._series_atom(law, top, d)
    assert abs(series - want) <= TOL
    if law.G is None:
        assert atom_probability(Rational(1, d), law, TOL) == series
    else:
        value, bound = rationals._filter_atom(law, d)
        assert abs(value - want) <= bound


@example(w=0.5, mean=1.0)
@example(w=math.nextafter(0.5, 1.0), mean=math.nextafter(1.0, 0.0))
@given(
    w=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    mean=st.floats(0.0, exclude_min=True, allow_infinity=False),
)
def test_a_law_states_g_only_where_its_closed_form_holds(w, mean):
    for law, cancels in ((GeometricLaw(w), w > 0.5), (PoissonLaw(mean), mean < 1.0)):
        assert (law.G is None) == cancels


@example(w=math.nextafter(0.5, 1.0), mean=math.nextafter(1.0, 0.0))
@example(w=math.nextafter(1.0, 0.0), mean=5e-324)
@given(
    w=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
    mean=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_a_law_without_g_sums_one_chunk_at_the_smallest_tol(w, mean):
    # where a law states no G the filter would save nothing: the series is one chunk long
    for law in (GeometricLaw(w), PoissonLaw(mean)):
        assert law.G is None
        assert law.truncation_index(5e-324) < rationals._CHUNK_CELLS


FIXED = [
    pytest.param(law, d, id=f"{name}-{d}")
    for name, law in (
        ("geometric:1e-5", GeometricLaw(1e-5)),
        ("poisson:1e4", PoissonLaw(1e4)),
        ("poisson:1e5", PoissonLaw(1e5)),
    )
    for d in (1, 2, 7)
] + [
    # no G: the closed forms would cancel at w = 0.999 and at mean 1e-3
    pytest.param(GeometricLaw(0.999), 2, id="geometric:0.999-2"),
    pytest.param(PoissonLaw(1e-3), 2, id="poisson:1e-3-2"),
]


@pytest.mark.parametrize("law, d", FIXED)
def test_filtered_atom_matches_the_oracle(law, d):
    value = atom_probability(Rational(1, d), law, TOL)
    if law.G is None:
        assert value == rationals._series_atom(law, law.truncation_index(TOL), d)
        assert abs(value - oracle_atom(law, d)) <= TOL
        return
    filtered, bound = rationals._filter_atom(law, d)
    assert value == filtered
    assert abs(value - oracle_atom(law, d)) <= bound


def test_geometric_half_matches_the_atanh_form():
    # the atom 1/2 is (w/q) sum over odd m of q^m / (m + 1) = w (atanh q - q) / q^2, q = 1 - w
    w = 1e-7
    q = 1.0 - w
    atanh = 0.5 * (math.log(2.0 - w) - math.log(w))
    value = atom_probability(Rational(1, 2), GeometricLaw(w), TOL)
    assert value == pytest.approx(w * (atanh - q) / q**2, rel=1e-13)
    assert f"{value:.9g}" == "7.40562297e-07"


def test_filter_sums_its_pairs_in_blocks():
    # 74,999 conjugate pairs: two blocks of _CHUNK_CELLS points; L = 23,025,850,919
    law, d = GeometricLaw(1e-9), 150_000
    top = law.truncation_index(TOL)
    assert d * d <= top
    value, bound = rationals._filter_atom(law, d)
    assert atom_probability(Rational(1, d), law, TOL) == value
    assert abs(value - rationals._series_atom(law, top, d)) <= bound + TOL


def test_atom_route(monkeypatch):
    calls = []
    for name in ("_filter_atom", "_series_atom"):

        def spy(*args, name=name, fn=getattr(rationals, name)):
            calls[-1].append(name)
            return fn(*args)

        monkeypatch.setattr(rationals, name, spy)
    cases = [
        # L = 2,302,574 at geometric 1e-5, and 1517**2 <= L < 1518**2
        (GeometricLaw(1e-5), Rational(1, 1517), TOL),
        (GeometricLaw(1e-5), Rational(1, 1518), TOL),
        # L = 34: the filter at 1/2, the series at 3/7
        (GeometricLaw(0.5), Rational(1, 2), TOL),
        (GeometricLaw(0.5), Rational(3, 7), TOL),
        # no G below mean 1
        (PoissonLaw(1e-3), Rational(1, 2), TOL),
        (PoissonLaw(1e-3), Rational(1, 7), TOL),
        # a tol below the filter's bound
        (GeometricLaw(0.5), Rational(1, 2), 1e-300),
        # table laws state no G
        (DegenerateLaw(7), Rational(1, 7), TOL),
        (CustomLaw({2: 0.5, 3: 0.5}), Rational(0, 1), TOL),
    ]
    for law, q, tol in cases:
        calls.append([])
        atom_probability(q, law, tol)
    filtered, walked = ["_filter_atom"], ["_series_atom"]
    assert calls == [filtered, walked] * 2 + [walked, walked, filtered + walked, walked, walked]


@pytest.mark.parametrize(
    "law, q, message",
    [
        # the filter would need d = 2 values of G, but the series' L/d is over the budget
        (GeometricLaw(1e-9), Rational(1, 2), "budget"),
        (GeometricLaw(1e-300), Rational(0, 1), "budget"),
        (GeometricLaw(5e-324), Rational(1, 2), "too small"),
        (PoissonLaw(1e300), Rational(1, 2), "largest denominator"),
    ],
)
def test_filter_refuses_what_the_series_refuses(law, q, message, monkeypatch):
    def refuse(*args):
        raise AssertionError("the filter ran")

    monkeypatch.setattr(rationals, "_filter_atom", refuse)
    with pytest.raises(ValueError, match=message):
        atom_probability(q, law, TOL)


@pytest.mark.parametrize(
    "law", [GeometricLaw(1e-5), GeometricLaw(0.5), PoissonLaw(1e4), PoissonLaw(1.0)], ids=repr
)
def test_g_is_real_and_largest_at_one(law):
    z = np.exp(2j * math.pi * np.arange(13) / 13)
    g = law.G(z)
    assert g[0].imag == 0.0
    # the points k and 13 - k are conjugate, and so are their values
    eta = rationals._G_ERROR * g[0].real
    assert np.allclose(g[1:], np.conj(g[:0:-1]), rtol=0.0, atol=2 * eta + 16 * 2.0**-52)
    # |G(z)| <= G(1) on the circle, which bounds the filter's sum
    assert np.all(np.abs(g) <= g[0].real + 2 * eta)
