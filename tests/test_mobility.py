import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import poisson

from uavlos.analytic import CdfHeights, RayleighHeights, p_los_static, void_rate
from uavlos.cli import PRESETS
from uavlos.env import _FACE, _OPEN, KINDS, GridParams, SegmentTable, Uav, UserMotion
from uavlos.mobility import (
    MAX_MEAN_CROSSINGS,
    EpochGeometry,
    WallSweep,
    canonical_plan,
    expected_los_piecewise,
    expected_los_total,
    expected_los_x_segment,
    expected_los_y_segment,
    expected_los_y_segment_reference,
    p_los_x_segment,
    poisson_truncation_count,
    simpson_residual,
)

RAY = RayleighHeights(8.0)


# -- straight-line segment expectation ----------------------------------------


def test_x_segment_closed_form_vs_quadrature():
    rng = np.random.default_rng(7)
    for _ in range(100):
        base = float(rng.uniform(0.05, 1.0))
        rate = float(rng.uniform(-0.05, 0.05)) or 1e-4
        v = float(rng.uniform(0.1, 40.0))
        t_len = float(rng.uniform(0.01, 10.0))
        closed = expected_los_x_segment(base, rate, v, t_len)
        ref, _ = quad(p_los_x_segment, 0.0, t_len, args=(base, rate, v), epsabs=1e-13)
        assert math.isclose(closed, ref, rel_tol=1e-9)


def test_x_segment_series_branch_continuity():
    # straddle the series switchover: both branches must agree there
    base, v, t_len = 0.7, 10.0, 5.0
    tiny = 1e-8 / (v * t_len)
    below = expected_los_x_segment(base, tiny * 0.99, v, t_len)
    above = expected_los_x_segment(base, tiny * 1.01, v, t_len)
    assert math.isclose(below, above, rel_tol=1e-9)
    assert expected_los_x_segment(base, 0.0, v, t_len) == base * t_len


def test_x_segment_zero_speed():
    assert expected_los_x_segment(0.4, -0.01, 0.0, 7.0) == pytest.approx(2.8)


@given(
    base=st.floats(0.01, 1.0),
    rate=st.floats(-0.05, 0.05),
    v=st.floats(0.0, 40.0),
    t_len=st.floats(0.0, 10.0),
)
def test_x_segment_bounded_by_endpoint_probabilities(base, rate, v, t_len):
    e = expected_los_x_segment(base, rate, v, t_len)
    p_end = p_los_x_segment(t_len, base, rate, v)
    lo, hi = min(base, p_end), max(base, p_end)
    assert lo * t_len - 1e-9 <= e <= hi * t_len + 1e-9


# -- street-gap sweeps --------------------------------------------------------


def _gap_sweep() -> tuple[WallSweep, float]:
    u = Uav(120.0, 90.0, 100.0)
    m = UserMotion(-20.0, 0.0, 15.0, 10.0)
    sweep = WallSweep(m.x0, m.y0, m.speed, u, 1.0 / 58.0, RAY, wall_ahead=40.0)
    return sweep, 2.0


def test_wall_sweep_matches_static_probability():
    # the link from (x, 0) to (120, 90) meets the wall x = 40 at fraction
    # s = (40 - x)/(120 - x) of a horizontal span (120 - x) + 90; the last
    # instant puts the user at x = 34, where the link runs more along y
    sweep, _ = _gap_sweep()
    h, lam = 100.0, 1.0 / 58.0
    for tau in (0.0, 0.7, 1.9, 3.6):
        x = -20.0 + 15.0 * tau
        s = (40.0 - x) / (120.0 - x)
        expect = RAY.cdf(h * s) * math.exp(void_rate(s, lam, RAY, h) * ((120.0 - x) + 90.0))
        assert math.isclose(sweep.p(tau), expect, rel_tol=1e-12)


@pytest.mark.parametrize("u", [Uav(120.0, 90.0, 100.0), Uav(30.0, 90.0, 100.0)])
@pytest.mark.parametrize(
    "at, ahead, back",  # the user's and the walls' x, relative to the platform's x
    [
        (0.0, 5.0, -10.0),  # the user right under the platform
        (-120.0, -125.0, -math.inf),  # the wall ahead is behind the user
        (-120.0, 30.0, -math.inf),  # the wall ahead is past the platform
        (-120.0, math.inf, -math.inf),  # no wall ahead
        (60.0, math.inf, -math.inf),  # past the platform, no wall behind
        (60.0, math.inf, 80.0),  # the wall behind is behind the user
        (60.0, math.inf, -80.0),  # the wall behind is past the platform
    ],
)
def test_wall_sweep_without_contact_is_certain(u, at, ahead, back):
    sweep = WallSweep(u.x + at, 0.0, 15.0, u, 1.0 / 58.0, RAY, wall_ahead=u.x + ahead,
                      wall_back=u.x + back)
    assert sweep.p(0.0) == 1.0


def test_y_segment_simpson_uses_the_reference_probability():
    # the array evaluator's three nodes reproduce WallSweep.p, including a
    # sweep that passes under the platform onto the wall behind, and one
    # whose wall behind is missing
    u = Uav(120.0, 90.0, 100.0)
    for back in (100.0, -math.inf):
        sweep = WallSweep(110.0, 0.0, 15.0, u, 1.0 / 58.0, RAY, wall_ahead=125.0, wall_back=back)
        t_len = 1.5
        ps = [sweep.p(t) for t in (0.0, 0.5 * t_len, t_len)]
        simpson = t_len / 6.0 * (ps[0] + 4.0 * ps[1] + ps[2])
        assert math.isclose(expected_los_y_segment(sweep, t_len), simpson, rel_tol=1e-13)


def test_y_segment_simpson_against_dense_reference():
    sweep, t_len = _gap_sweep()
    coarse = expected_los_y_segment(sweep, t_len)
    fine = expected_los_y_segment_reference(sweep, t_len, nodes=513)
    resid = simpson_residual(sweep, t_len)
    assert abs(coarse - fine) <= max(10.0 * abs(resid), 1e-6 * t_len)
    assert abs(coarse - fine) / t_len < 1e-3


# -- truncation of the crossing-count series ----------------------------------


# past mu ~ 745, exp(-mu) underflows to zero
@pytest.mark.parametrize("mu", [0.05, 0.5, 1.0, 150.0 / 58.0, 8.0, 20.0, 745.0, 1000.0, 5000.0])
@pytest.mark.parametrize("eps", [0.1, 1e-2, 1e-3, 1e-6])
def test_truncation_count_minimal_tail(mu, eps):
    n = poisson_truncation_count(1.0, mu, 1.0, eps)  # lam*v*T factorization
    assert poisson.sf(n, mu) <= eps
    if n > 0:
        assert poisson.sf(n - 1, mu) > eps


def _recurrence_count(mu: float, eps: float) -> int:
    # the forward pmf recurrence from exp(-mu), exact wherever exp(-mu) is a
    # normal float and epsilon is well above float64 resolution
    term = math.exp(-mu)
    cdf, n = term, 0
    while cdf < 1.0 - eps:
        n += 1
        term *= mu / n
        cdf += term
    return n


@pytest.mark.parametrize("eps", [0.1, 1e-3, 1e-6])
def test_truncation_count_matches_forward_recurrence(eps):
    for mu in np.concatenate([np.linspace(0.01, 2.0, 40), np.linspace(2.0, 700.0, 60)]):
        assert poisson_truncation_count(1.0, float(mu), 1.0, eps) == _recurrence_count(mu, eps)


def test_truncation_count_zero_rate():
    assert poisson_truncation_count(1.0 / 58.0, 0.0, 10.0, 1e-3) == 0
    assert poisson_truncation_count(1.0 / 58.0, 15.0, 0.0, 1e-3) == 0


# -- representative layouts ---------------------------------------------------


def test_canonical_plan_zero_crossings_single_face():
    m = UserMotion(0.0, 0.0, 15.0, 10.0)
    plan = canonical_plan(45.0, 13.0, m, Uav(120.0, 90.0, 100.0), 13.0, 0)
    assert plan.kind.tolist() == [_FACE]
    assert plan.t_end[0] == 10.0


def test_canonical_plan_structure_and_spacing():
    # the layout repeats with the mean period, slid so one face-enter lands
    # at T/(n+1); all period copies whose corners fall inside [0, T] appear
    m = UserMotion(0.0, 0.0, 15.0, 10.0)
    u = Uav(120.0, 90.0, 100.0)
    w, mu_b, mu_s = 13.0, 45.0, 13.0
    dy = u.y - m.y0
    gap = (mu_b + mu_s) * dy / (dy - w) / m.speed
    for n in (1, 2, 3, 5):
        plan = canonical_plan(mu_b, mu_s, m, u, w, n)
        enters = plan.t_start[(plan.kind == _FACE) & (plan.t_start > 0.0)].tolist()
        anchor = m.duration / (n + 1)
        k_lo = math.floor(-anchor / gap) if anchor > 0 else 0
        expect = sorted(
            anchor + k * gap
            for k in range(k_lo - 1, int((m.duration - anchor) / gap) + 2)
            if 0.0 < anchor + k * gap < m.duration
        )
        assert len(enters) == len(expect)
        for a, b in zip(enters, expect):
            assert math.isclose(a, b, rel_tol=1e-9)
        assert any(math.isclose(t, anchor, rel_tol=1e-9) for t in enters)
        for end, start in zip(plan.t_end[:-1].tolist(), plan.t_start[1:].tolist()):
            assert math.isclose(end, start)
        assert plan.t_start[0] == 0.0
        assert math.isclose(plan.t_end[-1], m.duration)


# -- piecewise expectation against direct numerical integration ---------------


def test_face_expectation_matches_dense_integral():
    # a single face segment spanning the pass-under kink; the static
    # probability along the walk is integrable directly
    u = Uav(50.0, 90.0, 100.0)
    m = UserMotion(-30.0, 0.0, 15.0, 10.0)
    w, lam = 13.0, 1.0 / 58.0
    geom = EpochGeometry.pair(m, u, w, lam, RAY)
    got = expected_los_piecewise(SegmentTable.whole_epoch(1, _FACE, m.duration), geom)
    ts = np.linspace(0.0, m.duration, 20001)
    ps = [p_los_static(m.position(float(t)), u, w, lam, RAY) for t in ts]
    ref = float(np.trapezoid(ps, ts))
    assert math.isclose(got, ref, rel_tol=1e-6)


def test_open_segment_counts_full_length():
    u = Uav(120.0, 90.0, 100.0)
    m = UserMotion(0.0, 0.0, 15.0, 10.0)
    geom = EpochGeometry.pair(m, u, 13.0, 1.0 / 58.0, RAY)
    assert expected_los_piecewise(SegmentTable.whole_epoch(1, _OPEN, 10.0), geom) == 10.0


def test_piecewise_detail_rows_sum_to_total():
    u = Uav(120.0, 90.0, 100.0)
    m = UserMotion(0.0, 0.0, 15.0, 10.0)
    geom = EpochGeometry.pair(m, u, 13.0, 1.0 / 58.0, RAY)
    plan = canonical_plan(45.0, 13.0, m, u, 13.0, 3)
    total, rows = expected_los_piecewise(plan, geom, detail=True)
    assert math.isclose(total, sum(contrib for *_, contrib, _ in rows), rel_tol=1e-12)
    assert [r[:3] for r in rows] == [
        (KINDS[k], a, b)
        for k, a, b in zip(plan.kind.tolist(), plan.t_start.tolist(), plan.t_end.tolist())
    ]


# -- marginalized total -------------------------------------------------------


def test_expected_total_frozen_urban_value(urban):
    m = UserMotion(0.0, 0.0, 15.0, 10.0)
    r = expected_los_total(urban, m, Uav(120.0, 90.0, 100.0))
    assert math.isclose(r.expected_time, 8.233662496015025, rel_tol=1e-12)
    assert r.truncation_count == 9
    assert len(r.per_count) == 10 and len(r.weights) == 10
    assert all(0.0 <= e <= 10.0 for e in r.per_count)
    assert 1.0 - 1e-3 <= sum(r.weights) <= 1.0


_CDF = CdfHeights(lambda h: 1.0 - math.exp(-h * h / 128.0) if h > 0 else 0.0)


@pytest.mark.parametrize(
    "mu_b, mu_s, speed, duration, ux, model, expected",
    [
        # 30 m/s for 120 s at the paper platform in each preset (105, 88, 67 counts)
        (37.0, 10.0, 30.0, 120.0, 120.0, None, 43.82965766992164),
        (45.0, 13.0, 30.0, 120.0, 120.0, None, 79.4326054095491),
        (60.0, 20.0, 30.0, 120.0, 120.0, None, 116.28836950646857),
        # the generic height law, every contact on one set of Chebyshev panels
        (45.0, 13.0, 15.0, 10.0, 120.0, _CDF, 8.233662496015025),
        # Simpson nodes on the pass-under instant: the first, the middle and
        # the last node of a wall segment
        (45.0, 13.0, 15.0, 10.0, 0.0, None, 8.20653691213218),
        (45.0, 13.0, 15.0, 10.0, 7.5, None, 8.215319948711054),
        (45.0, 13.0, 15.0, 10.0, 75.0, None, 8.265531891696813),
    ],
)
def test_expected_total_frozen_values(mu_b, mu_s, speed, duration, ux, model, expected):
    r = expected_los_total(
        GridParams(mu_b, mu_s, 8.0), UserMotion(0.0, 0.0, speed, duration),
        Uav(ux, 90.0, 100.0), model=model,
    )
    assert math.isclose(r.expected_time, expected, rel_tol=1e-12)


def test_expected_total_past_exp_underflow(urban):
    # lam v T ~ 1000, where the Poisson weights cannot start from exp(-lam v T)
    m = UserMotion(0.0, 0.0, 30.0, 1935.0)
    assert urban.lam * m.speed * m.duration > 1000.0
    r = expected_los_total(urban, m, Uav(120.0, 90.0, 100.0))
    assert math.isfinite(r.expected_time)
    assert 0.0 <= r.expected_time <= m.duration
    assert 0.0 <= r.dropped_mass <= 1e-3


def test_crossings_above_the_bound_raise_at_once(urban):
    # just past the bound, and at a duration of 1e300 s, the epoch is refused
    # before any count is priced; the truncation count alone stays unbounded
    u = Uav(120.0, 90.0, 100.0)
    for duration in (MAX_MEAN_CROSSINGS * 58.0 / 30.0 * (1.0 + 1e-12), 1e300):
        m = UserMotion(0.0, 0.0, 30.0, duration)
        assert urban.lam * m.speed * m.duration > MAX_MEAN_CROSSINGS
        start = time.process_time()
        with pytest.raises(ValueError, match="street crossings"):
            expected_los_total(urban, m, u)
        assert time.process_time() - start < 1.0
    assert poisson_truncation_count(1.0, 2.0 * MAX_MEAN_CROSSINGS, 1.0, 1e-3) > MAX_MEAN_CROSSINGS
    # a platform over the user's own street prices no count at any length
    assert expected_los_total(urban, UserMotion(0.0, 0.0, 30.0, 1e300),
                              Uav(120.0, 5.0, 100.0)).expected_time == 1e300


@given(
    speed=st.floats(0.0, 40.0),
    duration=st.floats(0.5, 40.0),
    ux=st.floats(-150.0, 150.0),
    uy=st.floats(20.0, 150.0),
    height=st.floats(20.0, 150.0),
    eps=st.sampled_from([0.1, 1e-3, 1e-6]),
)
def test_batched_counts_match_single_plans(speed, duration, ux, uy, height, eps):
    params = GridParams(45.0, 13.0, 8.0)
    m = UserMotion(-20.0, 0.0, speed, duration)
    u = Uav(ux, uy, height)
    r = expected_los_total(params, m, u, epsilon=eps)
    geom = EpochGeometry.pair(m, u, params.mu_s, params.lam, RAY)
    for n, e in enumerate(r.per_count):
        plan = canonical_plan(params.mu_b, params.mu_s, m, u, params.mu_s, n)
        assert e == expected_los_piecewise(plan, geom)
    weighted = sum(w * e for w, e in zip(r.weights, r.per_count)) / sum(r.weights)
    assert math.isclose(weighted, r.expected_time, rel_tol=1e-12)
    assert 0.0 <= r.dropped_mass <= eps


def _assert_result_shape(r):
    assert len(r.per_count) == len(r.weights) == r.truncation_count + 1
    assert type(r.expected_time) is float


def test_expected_total_zero_duration(urban):
    r = expected_los_total(urban, UserMotion(0.0, 0.0, 15.0, 0.0), Uav(120.0, 90.0, 100.0))
    assert r.expected_time == 0.0
    # settled directly: one count of weight 1, worth the (empty) epoch
    _assert_result_shape(r)
    assert (r.per_count, r.weights, r.dropped_mass) == ([0.0], [1.0], 0.0)
    _assert_result_shape(expected_los_total(urban, UserMotion(0, 0, 15, 0), Uav(120, 90, 100)))


def test_expected_total_platform_over_own_street(urban):
    r = expected_los_total(urban, UserMotion(0.0, 0.0, 15.0, 10.0), Uav(30.0, 8.0, 60.0))
    assert r.expected_time == 10.0
    _assert_result_shape(r)
    assert (r.per_count, r.weights, r.dropped_mass) == ([10.0], [1.0], 0.0)
    # integer inputs still give float results
    r = expected_los_total(urban, UserMotion(0, 0, 15, 10), Uav(30, 8, 60))
    assert r.expected_time == 10.0
    _assert_result_shape(r)
    assert [type(e) for e in r.per_count] == [float]
    # a priced pair: one value and one weight per crossing count
    r = expected_los_total(urban, UserMotion(0, 0, 15, 10), Uav(120, 90, 100))
    _assert_result_shape(r)
    assert r.truncation_count > 0


def test_expected_total_static_user_reduces_to_point_probability(urban):
    u = Uav(120.0, 90.0, 100.0)
    r = expected_los_total(urban, UserMotion(0.0, 0.0, 0.0, 10.0), u)
    p = p_los_static((0.0, 0.0), u, 13.0, urban.lam, RAY)
    assert math.isclose(r.expected_time, p * 10.0, rel_tol=1e-12)
    assert r.truncation_count == 0


@settings(max_examples=200)
@given(
    preset=st.sampled_from(sorted(PRESETS)),
    sigma=st.floats(2.0, 20.0),
    ux=st.floats(-300.0, 300.0),
    beyond=st.floats(0.01, 300.0),
    h=st.floats(1.0, 300.0),
    x0=st.floats(-300.0, 300.0),
    T=st.floats(0.01, 20.0),
)
def test_standing_still_equals_duration_times_point_probability(preset, sigma, ux, beyond, h,
                                                                x0, T):
    # both sides price the same contact fraction w/dy over the same span,
    # so the reduction holds to the last bit
    _, mu_b, mu_s = PRESETS[preset]
    params = GridParams(mu_b, mu_s, sigma)
    u = Uav(ux, mu_s + beyond, h)
    r = expected_los_total(params, UserMotion(x0, 0.0, 0.0, T), u)
    p = p_los_static((x0, 0.0), u, params.mu_s, params.lam, RayleighHeights(params.sigma))
    assert r.expected_time == T * p


@given(speed=st.floats(0.0, 40.0), duration=st.floats(0.0, 12.0))
def test_expected_total_within_epoch_bounds(speed, duration):
    from uavlos.env import GridParams

    params = GridParams(45.0, 13.0, 8.0)
    m = UserMotion(0.0, 0.0, speed, duration)
    r = expected_los_total(params, m, Uav(120.0, 90.0, 100.0), epsilon=1e-2)
    assert 0.0 <= r.expected_time <= duration + 1e-9
