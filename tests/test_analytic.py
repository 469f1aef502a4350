import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uavlos.analytic import (
    CdfHeights,
    RayleighHeights,
    erf_diff,
    p_los_static,
    void_rate,
)
from uavlos.env import Uav

RAY = RayleighHeights(8.0)
URBAN_LAM = 1.0 / 58.0


def test_rayleigh_cdf_shape():
    assert RAY.cdf(0.0) == 0.0
    assert RAY.cdf(-3.0) == 0.0
    assert RAY.cdf(math.inf) == 1.0
    # closed form at one point, written out: 1 - exp(-h^2 / (2 sigma^2))
    assert math.isclose(RAY.cdf(15.0), 1.0 - math.exp(-225.0 / 128.0), rel_tol=1e-15)
    hs = [1.0, 5.0, 10.0, 20.0, 40.0]
    assert all(RAY.cdf(a) < RAY.cdf(b) for a, b in zip(hs, hs[1:]))
    assert math.isclose(RAY.mean, 8.0 * math.sqrt(math.pi / 2.0))
    with pytest.raises(ValueError):
        RayleighHeights(0.0)


def test_cdf_heights_clamps():
    m = CdfHeights(lambda h: 2.0 * h)  # deliberately out of range
    assert m.cdf(-1.0) == 0.0
    assert m.cdf(3.0) == 1.0
    assert m.cdf(math.inf) == 1.0
    # the infinities agree with the Rayleigh law's, and never reach cdf_fn
    for h in (-math.inf, math.inf):
        assert m.cdf(h) == RAY.cdf(h)
    assert m.cdf(-math.inf) == 0.0
    assert np.array_equal(m.cdf(np.array([-math.inf, -1.0, 0.25, 3.0, math.inf])),
                          [0.0, 0.0, 0.5, 1.0, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_cdf_is_a_typed_error(bad):
    # a CDF that is not finite somewhere is refused, naming the height, and
    # the void rate stops there: no nan result and no endless bisection
    law = CdfHeights(lambda h: bad if h > 12.5 else 0.5)
    with pytest.raises(ValueError, match="at height"):
        law.cdf(np.array([3.0, 20.0]))
    calls = []
    stuck = CdfHeights(lambda h: calls.append(h) or math.nan)
    with pytest.raises(ValueError, match="at height"):
        void_rate(0.3, URBAN_LAM, stuck, 77.0)
    assert len(calls) < 1000


def test_too_rough_cdf_is_a_typed_error():
    # a saw-tooth with a period of a micrometre fails every panel's error
    # test; the bisection gives up with a typed error instead of growing
    # toward 2**44 panels
    saw = CdfHeights(lambda h: (h * 1e6) % 1.0)
    with pytest.raises(ValueError, match="too rough"):
        void_rate(0.5, URBAN_LAM, saw, 100.0)


def _uniform_tail(s, height, top):
    # heights uniform on [0, top]: 1 - F(height q) falls linearly to 0 at
    # q = top / height, a kink
    k = top / height
    if k >= 1.0:
        return (1.0 - s) - (1.0 - s * s) / (2.0 * k)
    return (k - s) ** 2 / (2.0 * k) if s < k else 0.0


def _step_tail(s, height, top):
    # every building exactly top tall: 1 - F(height q) jumps from 1 to 0 at
    # q = top / height
    return max(0.0, min(1.0, top / height) - s)


_UNIFORM = CdfHeights(lambda h: h / 40.0)
_STEP = CdfHeights(lambda h: 1.0 if h >= 30.0 else 0.0)


@pytest.mark.parametrize(
    "model, exact, top, height",
    [
        pytest.param(_UNIFORM, _uniform_tail, 40.0, 100.0, id="uniform-h100"),
        pytest.param(_UNIFORM, _uniform_tail, 40.0, 77.0, id="uniform-h77"),
        pytest.param(_UNIFORM, _uniform_tail, 40.0, 25.0, id="uniform-h25"),
        pytest.param(_STEP, _step_tail, 30.0, 77.0, id="step-h77"),
        pytest.param(_STEP, _step_tail, 30.0, 100.0, id="step-h100"),
    ],
)
def test_void_rate_generic_path_matches_exact_integrals(model, exact, top, height):
    # laws whose void integral is known in closed form, at fractions on both
    # sides of the kink or jump, at the ends of the link and on the panel
    # edges 1/2 and 3/8; 1e-10 is the documented error, 1e-12 the tested one
    k = min(1.0, top / height)
    s = [0.0, 1.0, 0.5, 0.375, k, math.nextafter(k, 0.0), k - 1e-9, k + 1e-9, k - 1e-3,
         k + 1e-3, 0.1, 0.9]
    s = np.array([x for x in s if 0.0 <= x <= 1.0])
    rates = void_rate(s, 1.0, model, height)
    for x, r in zip(s.tolist(), rates.tolist()):
        assert abs(-r - exact(x, height, top)) <= 1e-12, (x, -r, exact(x, height, top))
        assert r == void_rate(x, 1.0, model, height)


def test_erf_reference_values():
    # published values of the error function
    assert math.isclose(math.erf(1.0), 0.8427007929497149, abs_tol=1e-15)
    assert math.isclose(math.erf(0.5), 0.5204998778130465, abs_tol=1e-15)
    assert math.isclose(math.erf(2.0), 0.9953222650189527, abs_tol=1e-15)


def test_erf_diff_reference_values():
    # published values of the error function, through erf_diff's direct branch
    assert math.isclose(erf_diff(1.0, 0.0), 0.8427007929497149, abs_tol=1e-15)
    assert math.isclose(erf_diff(0.5, 0.0), 0.5204998778130465, abs_tol=1e-15)
    assert math.isclose(erf_diff(2.0, 0.0), 0.9953222650189527, abs_tol=1e-15)


def test_array_forms_match_scalar_calls():
    a = np.array([0.3, 1.2, 2.5, 1.0 + 1e-7, -0.4])
    b = np.array([0.1, 1.2 - 3e-6, 0.0, 1.0, -2.0])
    got = erf_diff(a, b)
    assert all(got[i] == erf_diff(float(a[i]), float(b[i])) for i in range(len(a)))
    s = np.array([0.05, 0.2, 0.5, 0.9])
    generic = CdfHeights(lambda h: 1.0 - math.exp(-h * h / 128.0))
    for model in (RAY, generic):
        rates = void_rate(s, URBAN_LAM, model, 100.0)
        assert all(rates[i] == void_rate(float(s[i]), URBAN_LAM, model, 100.0) for i in range(4))
    assert np.array_equal(RAY.cdf(np.array([-1.0, 0.0, 15.0, math.inf])),
                          [RAY.cdf(-1.0), RAY.cdf(0.0), RAY.cdf(15.0), RAY.cdf(math.inf)])


@given(a=st.floats(-6.0, 6.0), b=st.floats(-6.0, 6.0))
def test_erf_diff_matches_direct_difference(a, b):
    assert math.isclose(erf_diff(a, b), math.erf(a) - math.erf(b), abs_tol=1e-12)


@pytest.mark.parametrize("m", [0.0, 0.3, 1.0, 2.5, -1.7])
@pytest.mark.parametrize("h", [1e-6, 1e-8, 1e-10, -1e-7])
def test_erf_diff_near_cancellation(m, h):
    # arbitrary-precision reference where float64 subtraction loses digits
    import mpmath

    with mpmath.workdps(40):
        a, b = m + 0.5 * h, m - 0.5 * h
        ref = float(mpmath.erf(a) - mpmath.erf(b))
    assert math.isclose(erf_diff(a, b), ref, rel_tol=1e-11)


def test_p0_frozen_value():
    assert math.isclose(RAY.cdf(15.0), 0.8275783761062472, rel_tol=1e-15)


def test_void_rate_frozen_value():
    r = void_rate(0.1, 1.0 / 47.0, RAY, 100.0)
    assert math.isclose(r, -0.0004507654636284343, rel_tol=1e-12)


@given(
    s=st.floats(0.01, 0.99),
    lam=st.floats(1e-4, 0.1),
    height=st.floats(5.0, 300.0),
)
def test_void_rate_nonpositive_and_monotone(s, lam, height):
    r = void_rate(s, lam, RAY, height)
    assert r <= 0.0
    # a contact further along the link leaves less room for blockers
    r2 = void_rate(min(s + 0.2, 1.0), lam, RAY, height)
    assert r2 >= r - 1e-15


@pytest.mark.parametrize("s", [0.05, 0.2, 0.5, 0.9])
@pytest.mark.parametrize("height", [20.0, 60.0, 150.0])
def test_void_rate_generic_path_matches_closed_form(s, height):
    sigma = 8.0
    generic = CdfHeights(lambda h: 1.0 - math.exp(-h * h / (2.0 * sigma * sigma)))
    a = void_rate(s, URBAN_LAM, RAY, height)
    b = void_rate(s, URBAN_LAM, generic, height)
    assert math.isclose(a, b, rel_tol=1e-10, abs_tol=1e-16)


@pytest.mark.parametrize("s", [-0.1, 1.5, math.nan])
def test_generic_void_rate_refuses_a_fraction_outside_the_unit_interval(s):
    generic = CdfHeights(lambda h: 1.0 - math.exp(-h * h / 128.0))
    with pytest.raises(ValueError, match=r"contact fractions must lie in \[0, 1\]"):
        void_rate(np.array([0.5, s]), URBAN_LAM, generic, 60.0)


def test_p_static_frozen_values():
    p = p_los_static((0.0, 0.0), Uav(120.0, 90.0, 100.0), 13.0, URBAN_LAM, RAY)
    assert math.isclose(p, 0.7836167010195041, rel_tol=1e-13)
    p = p_los_static((0.0, 0.0), Uav(70.0, 45.0, 70.0), 13.0, URBAN_LAM, RAY)
    assert math.isclose(p, 0.9559052071408239, rel_tol=1e-13)


def test_p_static_matches_hand_formula():
    # same quantity written out longhand from the factorization:
    # contact fraction s = w/dy, first-building term F(h s), then the
    # erf-difference decay over the full horizontal span
    w, lam, sigma = 13.0, URBAN_LAM, 8.0
    u = Uav(120.0, 90.0, 100.0)
    s = w / u.y
    p0 = 1.0 - math.exp(-((u.height * s) ** 2) / (2.0 * sigma * sigma))
    c = u.height / (math.sqrt(2.0) * sigma)
    rate = (
        -lam
        * math.sqrt(math.pi / 2.0)
        * (sigma / u.height)
        * (math.erf(c) - math.erf(c * s))
    )
    expect = p0 * math.exp(rate * (u.x + u.y))
    got = p_los_static((0.0, 0.0), u, w, lam, RAY)
    assert math.isclose(got, expect, rel_tol=1e-12)


def test_p_static_no_contact_is_certain():
    # platform above the user's own street: nothing can ever intervene
    assert p_los_static((0.0, 0.0), Uav(30.0, 8.0, 60.0), 13.0, URBAN_LAM, RAY) == 1.0


@pytest.mark.parametrize("w", [0.0, -13.0, math.nan])
def test_p_static_rejects_a_street_width_that_is_not_positive(w):
    # a zero width would put the contact at the user's feet (probability 0)
    # and a NaN one would return NaN; both are refused at the boundary
    with pytest.raises(ValueError):
        p_los_static((0.0, 0.0), Uav(120.0, 90.0, 100.0), w, URBAN_LAM, RAY)


@given(
    ux=st.floats(-300.0, 300.0),
    uy=st.floats(1.0, 300.0),
    h=st.floats(1.0, 300.0),
    w=st.floats(0.5, 50.0),
    lam=st.floats(1e-4, 0.1),
)
def test_p_static_is_a_probability(ux, uy, h, w, lam):
    p = p_los_static((0.0, 0.0), Uav(ux, uy, h), w, lam, RAY)
    assert 0.0 <= p <= 1.0


@pytest.mark.parametrize("dist", [(60.0, 45.0), (120.0, 45.0), (240.0, 45.0)])
def test_p_static_decays_with_span(dist):
    # doubling the x span at fixed street geometry cannot raise the
    # probability: contact fraction stays w/dy, span only grows
    w = 13.0
    ps = [
        p_los_static((0.0, 0.0), Uav(x, 45.0, 100.0), w, URBAN_LAM, RAY)
        for x in (dist[0], dist[0] * 2.0)
    ]
    assert ps[1] <= ps[0]


def test_import_leaves_quadrature_unloaded():
    # scipy.integrate is most of the package's import time and start-up
    # memory; only the acceptance checks use it, as their own reference, so
    # neither the import nor pricing an epoch on a generic height law loads it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import math, sys, uavlos\n"
        "law = uavlos.CdfHeights(lambda h: -math.expm1(-h * h / 128.0) if h > 0.0 else 0.0)\n"
        "r = uavlos.expected_los_total(uavlos.GridParams(45.0, 13.0, 8.0),\n"
        "                              uavlos.UserMotion(0.0, 0.0, 15.0, 10.0),\n"
        "                              uavlos.Uav(120.0, 90.0, 100.0), model=law)\n"
        "assert 0.0 < r.expected_time < 10.0\n"
        "print('scipy.integrate' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"
