import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import poisson

from uavlos.analytic import (
    CdfHeights,
    HeightModel,
    RayleighHeights,
    _tail_integral,
    p_los_contact,
    p_los_static,
    void_rate,
)
from uavlos.cli import PRESETS
from uavlos.env import (
    _FACE,
    _OPEN,
    _WALL,
    KINDS,
    DegenerateGeometryError,
    GridParams,
    SegmentTable,
    Uav,
    UserMotion,
    corner_events,
    corner_position,
    sample_grid_anchored,
)
from uavlos.mobility import (
    MAX_EVENT_RATE,
    MAX_MEAN_CROSSINGS,
    EpochGeometry,
    _canonical_table,
    _segment_integrals,
    canonical_plan,
    expected_los_piecewise,
    expected_los_total,
    expected_los_x_segment,
    p_los_x_segment,
    poisson_truncation_count,
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


@dataclass
class WallSweep:
    """Scalar reference for one wall-pinned sweep starting at x_start, local
    time tau in [0, t_len], judged one instant at a time.

    Which wall the link meets flips when the user passes under the platform's
    x: ahead of it the west corner ``wall_ahead``, behind it the east corner
    ``wall_back``.  A missing wall is +inf ahead and -inf behind, as in
    ``SegmentTable``; a missing or unreachable wall means no contact, so the
    clear probability there is 1, as it is with the user under the platform.
    """

    x_start: float
    y0: float
    v: float
    u: Uav
    lam: float
    model: HeightModel
    wall_ahead: float = math.inf
    wall_back: float = -math.inf

    def p(self, tau: float) -> float:
        x_t = self.x_start + self.v * tau
        dx, dy = self.u.x - x_t, self.u.y - self.y0
        if dx == 0.0:
            return 1.0
        s_wall = ((self.wall_ahead if dx > 0.0 else self.wall_back) - x_t) / dx
        # the better conditioned axis, through the contact's y as the array pass rounds it
        s = ((self.y0 + dy * s_wall) - self.y0) / dy if abs(dx) < abs(dy) else s_wall
        if not (0.0 < s_wall <= 1.0 and 0.0 < s <= 1.0):
            return 1.0
        return p_los_contact(s, abs(dx) + abs(dy), self.lam, self.model, self.u.height)


def simpson_3(sweep: WallSweep, t_len: float) -> float:
    """The library's three point estimate of the sweep: a one-wall table."""
    u = sweep.u
    geom = EpochGeometry(sweep.x_start, sweep.y0, sweep.v, t_len, u.x, u.y, u.height, math.nan,
                         sweep.lam, sweep.model)
    table = SegmentTable(np.zeros(1, dtype=int), np.array([_WALL]), np.zeros(1), np.array([t_len]),
                         np.array([sweep.wall_ahead]), np.array([sweep.wall_back]))
    return expected_los_piecewise(table, geom)


def simpson_dense(sweep: WallSweep, t_len: float, nodes: int = 129) -> float:
    """Composite Simpson of ``sweep.p`` on an odd number of nodes."""
    if t_len <= 0.0:
        return 0.0
    xs = np.linspace(0.0, t_len, nodes)
    ps = np.array([sweep.p(float(x)) for x in xs])
    h = t_len / (nodes - 1)
    return float(h / 3.0 * (ps[0] + ps[-1] + 4.0 * ps[1:-1:2].sum() + 2.0 * ps[2:-2:2].sum()))


def scalar_residual(sweep: WallSweep, t_len: float) -> float:
    """Gap between the three point estimate and the 129 node scalar reference."""
    return abs(simpson_3(sweep, t_len) - simpson_dense(sweep, t_len))


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
        assert math.isclose(simpson_3(sweep, t_len), simpson, rel_tol=1e-13)


def test_y_segment_simpson_against_dense_reference():
    sweep, t_len = _gap_sweep()
    coarse = simpson_3(sweep, t_len)
    fine = simpson_dense(sweep, t_len, nodes=513)
    resid = scalar_residual(sweep, t_len)
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


@pytest.mark.parametrize("eps", [0.0, 1.0, -1e-3, math.nan])
def test_truncation_count_refuses_epsilon_outside_the_unit_interval(eps):
    with pytest.raises(ValueError, match=r"epsilon must be in \(0, 1\)"):
        poisson_truncation_count(1.0 / 58.0, 15.0, 10.0, eps)


def test_truncation_count_zero_rate():
    assert poisson_truncation_count(1.0 / 58.0, 0.0, 10.0, 1e-3) == 0
    assert poisson_truncation_count(1.0 / 58.0, 15.0, 0.0, 1e-3) == 0


@pytest.mark.parametrize("mu", [-1.0, math.inf, math.nan])
def test_truncation_count_refuses_a_rate_not_finite_and_nonnegative(mu):
    with pytest.raises(ValueError, match="event rate must be finite and nonnegative"):
        poisson_truncation_count(1.0, mu, 1.0, 1e-3)


@pytest.mark.parametrize("mu", [MAX_EVENT_RATE * (1.0 + 1e-12), 1e300])
def test_truncation_count_refuses_a_rate_above_the_bound_at_once(mu):
    # no Poisson law is built: it would take about mu terms
    start = time.process_time()
    with pytest.raises(ValueError, match="event rate must be finite and nonnegative"):
        poisson_truncation_count(1.0, mu, 1.0, 1e-3)
    assert time.process_time() - start < 1.0


# -- representative layouts ---------------------------------------------------


def test_canonical_plan_zero_crossings_single_face():
    m = UserMotion(0.0, 0.0, 15.0, 10.0)
    plan = canonical_plan(45.0, 13.0, m, Uav(120.0, 90.0, 100.0), 13.0, 0)
    assert plan.kind.tolist() == [_FACE]
    assert plan.t_end[0] == 10.0


def test_canonical_plan_refuses_a_negative_crossing_count():
    with pytest.raises(ValueError, match="crossing count must be nonnegative"):
        canonical_plan(45.0, 13.0, UserMotion(0.0, 0.0, 15.0, 10.0), Uav(120.0, 90.0, 100.0),
                       13.0, -1)


@pytest.mark.parametrize("speed, duration", [(15.0, 10.0), (0.0, 10.0), (15.0, 0.0)])
@pytest.mark.parametrize("crossings", [0, 3])
def test_canonical_plans_refuse_a_platform_over_the_street(speed, duration, crossings):
    # moving, still and empty walks alike, at any crossing count
    m = UserMotion(0.0, 0.0, speed, duration)
    u = Uav(120.0, 13.0, 100.0)  # on the street's far line
    with pytest.raises(DegenerateGeometryError, match="far line"):
        canonical_plan(45.0, 13.0, m, u, 13.0, crossings)
    geom = EpochGeometry.of([m, m], [Uav(120.0, 90.0, 100.0), u], 13.0, 1.0 / 58.0, RAY)
    with pytest.raises(DegenerateGeometryError, match="far line"):
        _canonical_table(45.0, 13.0, geom, 13.0, np.array([crossings, crossings]))


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
    geom = EpochGeometry.one(m, u, w, lam, RAY)
    got = expected_los_piecewise(canonical_plan(45.0, w, m, u, w, 0), geom)
    ts = np.linspace(0.0, m.duration, 20001)
    ps = [p_los_static(m.position(float(t)), u, w, lam, RAY) for t in ts]
    ref = float(np.trapezoid(ps, ts))
    assert math.isclose(got, ref, rel_tol=1e-6)


def test_open_segment_counts_full_length():
    u = Uav(120.0, 90.0, 100.0)
    m = UserMotion(0.0, 0.0, 15.0, 10.0)
    geom = EpochGeometry.one(m, u, 13.0, 1.0 / 58.0, RAY)
    table = SegmentTable(np.zeros(1, dtype=int), np.array([_OPEN]), np.zeros(1), np.array([10.0]),
                         np.array([math.inf]), np.array([-math.inf]))
    assert expected_los_piecewise(table, geom) == 10.0


def test_hand_built_face_table_refuses_a_platform_not_beyond_the_street():
    # a face's contact sits at the fraction w / dy of the link, so a platform
    # on the user's line (dy = 0) or over the street (dy <= w) has none; the
    # table is refused before any division, as the plan builders refuse it
    m = UserMotion(0.0, 0.0, 15.0, 10.0)
    face = SegmentTable(np.zeros(1, dtype=int), np.array([_FACE]), np.zeros(1), np.array([10.0]),
                        np.array([math.inf]), np.array([-math.inf]))
    for dy in (0.0, 5.0, 13.0):
        geom = EpochGeometry.one(m, Uav(120.0, dy, 100.0), 13.0, 1.0 / 58.0, RAY)
        with pytest.raises(DegenerateGeometryError, match="far line"):
            expected_los_piecewise(face, geom)
    # beyond the far line, hand-built and builder-made tables price as before
    for dy, hand, plan in ((13.5, 10.0, 10.0), (90.0, 7.902878649873793, 8.23891811289297)):
        u = Uav(120.0, dy, 100.0)
        geom = EpochGeometry.one(m, u, 13.0, 1.0 / 58.0, RAY)
        assert expected_los_piecewise(face, geom) == hand
        assert expected_los_piecewise(canonical_plan(45.0, 13.0, m, u, 13.0, 3), geom) == plan


def test_piecewise_detail_rows_sum_to_total():
    u = Uav(120.0, 90.0, 100.0)
    m = UserMotion(0.0, 0.0, 15.0, 10.0)
    geom = EpochGeometry.one(m, u, 13.0, 1.0 / 58.0, RAY)
    plan = canonical_plan(45.0, 13.0, m, u, 13.0, 3)
    total, rows = expected_los_piecewise(plan, geom, detail=True)
    assert math.isclose(total, sum(contrib for *_, contrib, _ in rows), rel_tol=1e-12)
    assert [r[:3] for r in rows] == [
        (KINDS[k], a, b)
        for k, a, b in zip(plan.kind.tolist(), plan.t_start.tolist(), plan.t_end.tolist())
    ]


_CDF = CdfHeights(lambda h: -math.expm1(-(h * h) / 128.0) if h > 0.0 else 0.0)


@settings(max_examples=60, deadline=None)
# a walk so slow that its pass-under instant overflows, on a canonical and a realized wall
@example(model=RAY, realized=False, crossings=1, seed=0, x0=0.0, speed=5e-324, duration=2.0,
         ux=0.0, uy=35.0, height=20.0)
@example(model=RAY, realized=True, crossings=0, seed=1, x0=0.0, speed=1e-310, duration=2.0,
         ux=50.0, uy=35.0, height=20.0)
@given(
    model=st.sampled_from([RAY, _CDF]),
    realized=st.booleans(),
    crossings=st.integers(0, 8),
    seed=st.integers(0, 10_000),
    x0=st.floats(-100.0, 100.0),
    speed=st.floats(0.0, 30.0),
    duration=st.floats(0.0, 12.0),
    ux=st.floats(-150.0, 150.0),
    uy=st.floats(35.0, 150.0),
    height=st.floats(20.0, 150.0),
)
def test_detail_residuals_match_the_scalar_reference(model, realized, crossings, seed, x0, speed,
                                                    duration, ux, uy, height):
    # canonical and realized plans: each wall segment's residual is its
    # three point value's gap to the 129 node scalar rule on WallSweep.p
    params = GridParams(45.0, 13.0, 8.0)
    m, u = UserMotion(x0, 0.0, speed, duration), Uav(ux, uy, height)
    if realized:
        table = corner_events(sample_grid_anchored(params, seed, 0.0, 13.0), m, u)
    else:
        table = canonical_plan(params.mu_b, params.mu_s, m, u, 13.0, crossings)
    geom = EpochGeometry.one(m, u, 13.0, params.lam, model)
    total, rows = expected_los_piecewise(table, geom, detail=True)
    assert total == expected_los_piecewise(table, geom)
    assert [c for *_, c, _ in rows] == _segment_integrals(table, geom).tolist()
    for (kind, t0, t1, c, resid), ahead, back in zip(rows, table.wall_x.tolist(),
                                                     table.back_wall_x.tolist()):
        if kind != KINDS[_WALL]:
            assert resid == 0.0
            continue
        sweep = WallSweep(x0 + speed * t0, 0.0, speed, u, params.lam, model, ahead, back)
        assert abs(resid - abs(c - simpson_dense(sweep, t1 - t0))) <= 1e-12


def test_face_and_wall_contacts_share_one_panel_build():
    # a face segment and a wall segment below one platform height: the
    # generic law builds that height's panels once, then evaluates its CDF
    # at the face's contact and at the wall's three Simpson nodes
    calls = []
    model = CdfHeights(lambda h: calls.append(h) or RAY.cdf(h))
    _tail_integral(model, 100.0, np.array([0.5]))
    build = len(calls)
    geom = EpochGeometry.one(UserMotion(0.0, 0.0, 5.0, 4.0), Uav(120.0, 90.0, 100.0), 15.0,
                              1.0 / 58.0, model)
    # the user walks x = 10 to 20 over the wall segment, meeting the wall at x = 50 throughout
    table = SegmentTable(np.zeros(2, dtype=int), np.array([_FACE, _WALL]), np.array([0.0, 2.0]),
                         np.array([2.0, 4.0]), np.array([math.inf, 50.0]),
                         np.array([-math.inf, -math.inf]))
    for _ in range(2):  # the same count again: no panels outlive a call
        calls.clear()
        expected_los_piecewise(table, geom)
        assert len(calls) == build + 1 + 3


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
    # before any count is priced; the truncation count alone goes on up to
    # MAX_EVENT_RATE
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
    geom = EpochGeometry.one(m, u, params.mu_s, params.lam, RAY)
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


@settings(max_examples=150, deadline=None)
@example(preset="urban", seed=0, under=True, x0=0.0, ux=480, beyond=77.0, h=100.0, v=60,
         t_len=16, ahead=0.5, back=0.5, T=10.0)
@given(
    preset=st.sampled_from(sorted(PRESETS)),
    seed=st.integers(0, 10_000),
    under=st.booleans(),
    x0=st.floats(-150.0, 150.0),
    ux=st.integers(-600, 600),  # quarter metres, so that a node lands on it exactly
    beyond=st.floats(0.01, 150.0),
    h=st.floats(1.0, 150.0),
    v=st.integers(1, 120),  # quarter metres per second
    t_len=st.integers(1, 96),  # eighths of a second
    ahead=st.floats(0.0, 1.0, exclude_max=True) | st.just(math.inf),
    back=st.floats(0.0, 1.0, exclude_max=True) | st.just(math.inf),
    T=st.floats(0.01, 20.0),
)
def test_degenerate_walks_price_exactly(preset, seed, under, x0, ux, beyond, h, v, t_len, ahead,
                                        back, T):
    # the general formulas price a still walk, a Simpson node on the
    # pass-under instant and a zero-length wall with no branch of their own
    _, mu_b, mu_s = PRESETS[preset]
    params = GridParams(mu_b, mu_s, 8.0)
    u = Uav(ux / 4.0, mu_s + beyond, h)
    # a still walk, possibly right under the platform: T times the point probability
    x_still = u.x if under else x0
    still = expected_los_total(params, UserMotion(x_still, 0.0, 0.0, T), u).expected_time
    p = p_los_static((x_still, 0.0), u, mu_s, params.lam, RAY)
    assert math.isclose(still, T * p, rel_tol=1e-12)
    assert 0.0 <= still <= T
    # one wall whose middle node is the pass-under instant, its walls (ahead
    # of the user, between it and the platform, and behind once past) at
    # fractions of the half sweep or missing
    speed, t_len = v / 4.0, t_len / 8.0
    half = speed * 0.5 * t_len
    sweep = WallSweep(u.x - half, 0.0, speed, u, params.lam, RAY,
                      u.x - ahead * half if math.isfinite(ahead) else math.inf,
                      u.x + back * half if math.isfinite(back) else -math.inf)
    assert sweep.x_start + speed * (0.5 * t_len) == u.x and sweep.p(0.5 * t_len) == 1.0
    ps = [sweep.p(t) for t in (0.0, 0.5 * t_len, t_len)]
    wall = simpson_3(sweep, t_len)
    assert math.isclose(wall, t_len / 6.0 * (ps[0] + 4.0 * ps[1] + ps[2]), rel_tol=1e-12)
    assert 0.0 <= wall <= t_len
    # an empty walk whose front-line crossing lies over a realized gap (one
    # between two columns, or past the first or the last): one wall segment
    # of length 0
    grid = sample_grid_anchored(params, seed, 0.0, mu_s)
    west, east = grid.building_columns()
    gaps = [west[0] - 1.0, east[-1] + 1.0, *(0.5 * (east[:-1] + west[1:]))] if west.size else []
    assume(gaps)
    start = float(corner_position(gaps[seed % len(gaps)], u.x, u.y, 0.0, mu_s))
    m = UserMotion(start, 0.0, speed, 0.0)
    table = corner_events(grid, m, u)
    assert table.kind.tolist() == [_WALL] and table.t_end.tolist() == [0.0]
    geom = EpochGeometry.one(m, u, mu_s, params.lam, RAY)
    assert expected_los_piecewise(table, geom) == 0.0


@given(speed=st.floats(0.0, 40.0), duration=st.floats(0.0, 12.0))
def test_expected_total_within_epoch_bounds(speed, duration):
    from uavlos.env import GridParams

    params = GridParams(45.0, 13.0, 8.0)
    m = UserMotion(0.0, 0.0, speed, duration)
    r = expected_los_total(params, m, Uav(120.0, 90.0, 100.0), epsilon=1e-2)
    assert 0.0 <= r.expected_time <= duration + 1e-9
