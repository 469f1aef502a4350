import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import per_city
from conftest import grid_cities, make_single_block_grid, point_links
from uavlos import env, oracle
from uavlos.analytic import RayleighHeights, p_los_static
from uavlos.env import (
    DegenerateGeometryError,
    DegenerateGridError,
    GridParams,
    Pairs,
    Uav,
    UserInBuildingError,
    UrbanGrid,
    UserMotion,
    _draw_cities,
    _link_blocks,
    sample_grid_anchored,
)
from uavlos.oracle import (
    _CHUNK,
    _blocking,
    _point_clear,
    _walk_clear,
    TrialStats,
    coverage_time,
    is_los,
    los_intervals,
    los_time,
    los_time_sampled,
    monte_carlo_expected_los,
    monte_carlo_static_los,
    start_contact_x,
)

# Shared hand geometry: one block [8,12] x [16,24], platform at (20, 40, 50),
# user line y = 0.  Rays from the platform through the corners hit y = 0 at
#   (8, 24) -> x = 20 - 12 * 40/16  = -10
#   (12,16) -> x = 20 -  8 * 40/24  = 20/3
# so a tall block shadows exactly x in (-10, 20/3).
UAV = Uav(20.0, 40.0, 50.0)
WALK = UserMotion(-15.0, 0.0, 1.0, 25.0)


def test_is_los_hand_cases():
    tall = make_single_block_grid(1000.0)
    assert is_los(tall, (-12.0, 0.0), UAV)  # before the shadow
    assert not is_los(tall, (0.0, 0.0), UAV)  # inside it
    assert is_los(tall, (8.0, 0.0), UAV)  # past it
    # entry by the bottom face is at link fraction 16/40 = 0.4, so the link
    # clears any block below 50 * 0.4 = 20 everywhere in the shadow
    assert is_los(make_single_block_grid(18.0), (0.0, 0.0), UAV)
    # footprints are half-open: a link that only grazes the south-east
    # corner (12, 16) enters nothing, even over the tallest block
    assert is_los(tall, (0.0, 0.0), Uav(24.0, 32.0, 50.0))
    with pytest.raises(UserInBuildingError):
        is_los(tall, (10.0, 20.0), UAV)


def test_subnormal_run_along_x_is_judged_without_warnings():
    # one block [-2, 2] x [16, 24] of height 1000: the link to a platform at
    # x = 5e-324 runs a subnormal distance along x, so its x-slab fractions
    # overflow to -inf and +inf, their limits, and the block blocks it
    grid = UrbanGrid(GridParams(4.0, 4.0, 8.0), 0, np.array([-2.0, 2.0]),
                     np.array([16.0, 24.0]), np.array([-2.0]), np.array([16.0]),
                     np.array([[1000.0]]))
    u = Uav(5e-324, 40.0, 50.0)
    cities = grid_cities(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_los(grid, (0.0, 0.0), u) is False
        assert _point_clear(cities, *point_links((0.0, 0.0), [u, UAV])).tolist() == [
            [False, per_city.is_los(grid, (0.0, 0.0), UAV)]]


def test_intervals_tall_block():
    # always blocked while crossing: clear outside t in (5, 15 + 20/3)
    g = make_single_block_grid(1000.0)
    iv = los_intervals(g, WALK, UAV)
    assert len(iv) == 2
    assert iv[0][0] == 0.0 and math.isclose(iv[0][1], 5.0, abs_tol=2e-5)
    assert math.isclose(iv[1][0], 15.0 + 20.0 / 3.0, abs_tol=2e-5)
    assert iv[1][1] == WALK.duration
    assert math.isclose(los_time(g, WALK, UAV), 25.0 - 50.0 / 3.0, abs_tol=5e-5)


def test_intervals_height_threshold():
    # H = 21: west-wall entry fraction (8 - x)/(20 - x) decays through
    # 21/50 = 0.42 at x = -20/29, where the block starts winning; it keeps
    # blocking until the link passes the south-east corner at x = 20/3
    g = make_single_block_grid(21.0)
    iv = los_intervals(g, WALK, UAV)
    t_on = 15.0 - 20.0 / 29.0
    t_off = 15.0 + 20.0 / 3.0
    assert len(iv) == 2
    assert math.isclose(iv[0][1], t_on, abs_tol=2e-5)
    assert math.isclose(iv[1][0], t_off, abs_tol=2e-5)
    assert math.isclose(los_time(g, WALK, UAV), 25.0 - (t_off - t_on), abs_tol=5e-5)


def test_intervals_low_block_never_blocks():
    g = make_single_block_grid(18.0)
    assert los_intervals(g, WALK, UAV) == [(0.0, 25.0)]
    assert los_time(g, WALK, UAV) == 25.0


def test_intervals_static_user():
    g = make_single_block_grid(1000.0)
    blocked = UserMotion(0.0, 0.0, 0.0, 9.0)
    clear = UserMotion(-12.0, 0.0, 0.0, 9.0)
    assert los_intervals(g, blocked, UAV) == []
    assert los_intervals(g, clear, UAV) == [(0.0, 9.0)]


def test_los_time_matches_dense_sampling():
    params = GridParams(45.0, 13.0, 8.0)
    m = UserMotion(0.0, 0.0, 15.0, 10.0)
    u = Uav(120.0, 90.0, 100.0)
    for seed in range(3):
        g = sample_grid_anchored(params, seed, 0.0, 13.0)
        exact = los_time(g, m, u)
        approx = los_time_sampled(g, m, u, samples=4096)
        assert abs(exact - approx) < 0.05


def test_los_time_frozen_urban_seed():
    params = GridParams(45.0, 13.0, 8.0)
    g = sample_grid_anchored(params, 7, 0.0, 13.0)
    t = los_time(g, UserMotion(0.0, 0.0, 15.0, 10.0), Uav(120.0, 90.0, 100.0))
    # exact engine; the bisection engine it replaced converges to this value
    # as its flip tolerance shrinks (1e-6 s: 9.374757008746045, 1e-9 s:
    # 9.374756813951695, 1e-12 s: 9.374756813873876, 1e-14 s: 9.37475681387372)
    assert math.isclose(t, 9.374756813873722, abs_tol=1e-9)


def _check_midpoints(grid, motion, u, iv):
    """Clear intervals longer than 1 us are clear at their midpoint, the blocked
    stretches between and around them blocked at theirs."""
    T = motion.duration
    edges = [0.0] + [e for a, b in iv for e in (a, b)] + [T]
    for k, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        clear = k % 2 == 1
        interior = 0 < k < len(edges) - 2
        assert a <= b
        if b - a > 1e-6 or (interior and not clear):
            assert is_los(grid, motion.position(0.5 * (a + b)), u) == clear


def _exact(grid, motion, u):
    with np.errstate(all="raise"):
        iv = los_intervals(grid, motion, u)
    _check_midpoints(grid, motion, u, iv)
    return iv


def _close(iv, expect):
    return len(iv) == len(expect) and all(
        math.isclose(a, c, abs_tol=1e-12) and math.isclose(b, d, abs_tol=1e-12)
        for (a, b), (c, d) in zip(iv, expect)
    )


def test_intervals_platform_over_own_street():
    # the street runs up to y = 16, so the link never reaches the block
    g = make_single_block_grid(1000.0)
    assert _exact(g, WALK, Uav(20.0, 10.0, 50.0)) == [(0.0, 25.0)]


def test_intervals_walk_passes_under_platform():
    # platform at x = 10 over the block's far side: the bottom face is at
    # link fraction 0.4 and h/H = 25/50 caps the window at 0.5, so the block
    # blocks while 0.5 x + 5 is in [8, 12], i.e. x in [6, 14]; the tall block
    # caps at the top face, 0.6, and blocks for x in [5, 15]
    u = Uav(10.0, 40.0, 50.0)
    walk = UserMotion(0.0, 0.0, 1.0, 20.0)
    assert _close(_exact(make_single_block_grid(25.0), walk, u), [(0.0, 6.0), (14.0, 20.0)])
    assert _close(_exact(make_single_block_grid(1000.0), walk, u), [(0.0, 5.0), (15.0, 20.0)])


def test_intervals_window_reaching_the_platform():
    # the platform hovers over the block below its roof, so the window runs to
    # s_b = 1, where the link point stands still at u.x
    walk = UserMotion(0.0, 0.0, 1.0, 20.0)
    g = make_single_block_grid(1000.0)
    assert _exact(g, walk, Uav(10.0, 20.0, 30.0)) == []
    # u.x on the east edge: blocked until the walker passes x = 12
    assert _exact(g, walk, Uav(12.0, 20.0, 30.0)) == [(12.0, 20.0)]
    # u.x on the west edge: blocked from the moment the walker passes x = 8
    assert _exact(g, walk, Uav(8.0, 20.0, 30.0)) == [(0.0, 8.0)]


def test_intervals_graze_at_link_height_blocks():
    # h = H * s_entry with entry by the bottom face (s = 0.4): the window is
    # the single fraction 0.4, which is over the footprint for x in [0, 20/3]
    g = make_single_block_grid(20.0)
    assert _close(_exact(g, WALK, UAV), [(0.0, 15.0), (15.0 + 20.0 / 3.0, 25.0)])
    assert _exact(make_single_block_grid(20.0 - 1e-9), WALK, UAV) == [(0.0, 25.0)]


def test_intervals_graze_at_a_corner_is_clear():
    # to the platform at (24, 32) the link from x = 0 only grazes the
    # south-east corner (12, 16) and the link from x = -40 only the
    # north-west corner (8, 24); the tall block shadows exactly x in (-40, 0)
    tall = make_single_block_grid(1000.0)
    u = Uav(24.0, 32.0, 50.0)
    assert _exact(tall, UserMotion(0.0, 0.0, 0.0, 9.0), u) == [(0.0, 9.0)]
    assert _exact(tall, UserMotion(-40.0, 0.0, 0.0, 9.0), u) == [(0.0, 9.0)]
    walk = UserMotion(-50.0, 0.0, 1.0, 60.0)
    assert _close(_exact(tall, walk, u), [(0.0, 10.0), (50.0, 60.0)])


@pytest.mark.parametrize("g, u", [
    ((8.0, 0.0), Uav(8.0, 40.0, 50.0)),  # along the west face
    ((12.0, 0.0), Uav(12.0, 40.0, 50.0)),  # along the east face
    ((0.0, 16.0), Uav(20.0, 16.0, 50.0)),  # along the south face
    ((0.0, 24.0), Uav(20.0, 24.0, 50.0)),  # along the north face
    ((10.0, 0.0), Uav(10.0, 40.0, 50.0)),  # through the block
], ids=["west", "east", "south", "north", "through"])
def test_link_along_a_face_is_clear_on_every_block(g, u):
    # the verdict must not hang on which blocks the box query returns: the
    # slab test over all blocks of the city agrees with ``is_los``
    tall = make_single_block_grid(1000.0)
    every = tall.blocks_overlapping(-math.inf, math.inf, -math.inf, math.inf)
    assert len(every[0]) == 1
    clear = not _blocking(*every, *g, u.x, u.y, u.height).any()
    assert clear == is_los(tall, g, u) == (g[0] != 10.0)


@st.composite
def _edge_cities(draw):
    """A small hand-built city with integer edges, a ground point on a street
    band, platforms over block edges, and a speed and duration per platform."""
    axes = []
    for _ in range(2):
        points = sorted(draw(st.lists(st.integers(-20, 20), min_size=2, max_size=4,
                                      unique=True)))
        splits = [draw(st.integers(lo, hi)) for lo, hi in zip(points, points[1:])]
        axes.append((np.array(points, dtype=float), np.array(splits, dtype=float)))
    (xp, xs), (yp, ys) = axes
    heights = np.array(draw(st.lists(st.sampled_from([0.0, 10.0, 20.0, 25.0, 1000.0]),
                                     min_size=(len(xp) - 1) * (len(yp) - 1),
                                     max_size=(len(xp) - 1) * (len(yp) - 1))))
    grid = UrbanGrid(GridParams(4.0, 4.0, 8.0), 0, xp, yp, xs, ys,
                     heights.reshape(len(xp) - 1, len(yp) - 1))
    x_edges = sorted({*xp.tolist(), *xs.tolist()})
    y_edges = sorted({*yp.tolist(), *ys.tolist()})
    streets = [y for y in [yp[0] - 5.0, *y_edges] if grid.band_at("y", y)[0] == "street"]
    g = (draw(st.sampled_from(x_edges)), draw(st.sampled_from(streets)))
    uavs = draw(st.lists(st.builds(Uav, st.sampled_from(x_edges + [g[0]]),
                                   st.sampled_from(y_edges + [g[1], g[1] + 30.0]),
                                   st.sampled_from([20.0, 50.0])), min_size=1, max_size=3))
    walks = draw(st.lists(st.tuples(st.sampled_from([0.0, 1.0, 2.5, 2.9]),
                                    st.sampled_from([2.0, 4.0, 7.7]), st.booleans()),
                          min_size=len(uavs), max_size=len(uavs)))
    return grid, g, uavs, walks


@settings(max_examples=200)
@given(_edge_cities())
# a graze at exactly the link height (20 = 50 * 0.4) blocks, both the link
# from g and the still walk under the second platform
@example(case=(make_single_block_grid(20.0), (0.0, 0.0), [UAV, Uav(10.0, 40.0, 50.0)],
               [(2.5, 4.0, True), (0.0, 4.0, False)]))
def test_verdicts_do_not_depend_on_the_prefilter(case):
    # every referee judges a link on all blocks of the city exactly as on the
    # blocks its box query returns, for links on block edges and walks that
    # start or end under their platform; all the walks judged at once read
    # the same
    grid, g, uavs, walks = case
    cities = grid_cities(grid)
    every = per_city.blocks_overlapping(grid, -np.inf, np.inf, -np.inf, np.inf)
    motions = [UserMotion(u.x - v * T if ends else u.x, g[1], v, T)
               for u, (v, T, ends) in zip(uavs, walks)]
    row = [[per_city.los_time(grid, m, u) for m, u in zip(motions, uavs)]]
    assert _walk_clear(cities, Pairs.of(motions, uavs)).tolist() == row
    with pytest.MonkeyPatch.context() as mp:
        # every link's box is the whole plane
        mp.setattr(oracle, "_link_blocks", lambda cities, *box: _link_blocks(
            cities, *(np.full_like(b, bound) for b, bound in zip(box, [-np.inf, np.inf] * 2))))
        assert _point_clear(cities, *point_links(g, uavs)).tolist() == [
            [per_city.is_los(grid, g, u) for u in uavs]]
        assert _walk_clear(cities, Pairs.of(motions, uavs)).tolist() == row
        for u, m in zip(uavs, motions):
            v, T = m.speed, m.duration
            assert _walk_clear(cities, Pairs.of([m], [u])).tolist() == [
                [per_city.los_time(grid, m, u)]]
            ts = (np.arange(64) + 0.5) * (T / 64)
            blocked = _blocking(*every, (m.x0 + v * ts)[:, None], m.y0, u.x, u.y,
                                u.height).any(axis=1)
            assert los_time_sampled(grid, m, u, samples=64) == T * (64 - blocked.sum()) / 64


PRESET_WIDTHS = [(37.0, 10.0), (45.0, 13.0), (60.0, 20.0)]


@settings(max_examples=200)
@given(
    preset=st.sampled_from(PRESET_WIDTHS),
    sigma=st.floats(4.0, 16.0),
    seed=st.integers(0, 2**32 - 1),
    ux=st.floats(-150.0, 150.0),
    uy=st.floats(5.0, 150.0),
    north=st.booleans(),
    h=st.floats(20.0, 160.0),
    x0=st.floats(-150.0, 100.0),
    v=st.floats(0.5, 30.0),
    T=st.floats(1.0, 20.0),
)
def test_intervals_agree_with_static_test(preset, sigma, seed, ux, uy, north, h, x0, v, T):
    grid = sample_grid_anchored(GridParams(*preset, sigma), seed, 0.0, preset[1])
    iv = _exact(grid, UserMotion(x0, 0.0, v, T), Uav(ux, uy if north else -uy, h))
    starts = [a for a, _ in iv]
    assert starts == sorted(starts)
    assert all(b1 < a2 for (_, b1), (a2, _) in zip(iv, iv[1:]))


def test_los_time_sampled_equals_static_loop():
    params = GridParams(45.0, 13.0, 8.0)
    m = UserMotion(-40.0, 0.0, 15.0, 10.0)
    for seed, u in ((0, Uav(120.0, 90.0, 100.0)), (1, Uav(-30.0, -60.0, 40.0)),
                    (2, Uav(50.0, 30.0, 60.0))):
        g = sample_grid_anchored(params, seed, 0.0, 13.0)
        ts = (np.arange(512) + 0.5) * (m.duration / 512)
        hits = sum(is_los(g, m.position(float(t)), u) for t in ts)
        assert los_time_sampled(g, m, u, samples=512) == m.duration * hits / 512
    # one sample stands exactly at u.x = 8, the block's west edge: its link
    # runs along the west face, which does not block, though the walk's box
    # holds the block
    g = make_single_block_grid(1000.0)
    walk, u = UserMotion(-0.5, 0.0, 1.0, 16.0), Uav(8.0, 20.0, 30.0)
    ts = (np.arange(16) + 0.5) * (walk.duration / 16)
    assert walk.position(float(ts[8])) == (8.0, 0.0) and is_los(g, (8.0, 0.0), u)
    hits = sum(is_los(g, walk.position(float(t)), u) for t in ts)
    assert los_time_sampled(g, walk, u, samples=16) == walk.duration * hits / 16 == 9.0


@pytest.mark.parametrize("samples", [0, -3, 1.5, 2.0, "16"])
def test_los_time_sampled_refuses_a_sample_count_not_a_positive_int(samples):
    g = make_single_block_grid(1000.0)
    walk = UserMotion(-0.5, 0.0, 1.0, 10.0)
    with pytest.raises(ValueError, match="samples must be a positive int"):
        los_time_sampled(g, walk, UAV, samples=samples)
    # a NumPy integer counts as an int
    assert los_time_sampled(g, walk, UAV, samples=np.int64(16)) == los_time_sampled(
        g, walk, UAV, samples=16)


def test_los_time_sampled_user_in_building():
    g = make_single_block_grid(1000.0)
    with pytest.raises(UserInBuildingError):
        los_time_sampled(g, UserMotion(0.0, 20.0, 1.0, 20.0), UAV, samples=64)
    # the same building band, but every sample west of the block
    assert los_time_sampled(g, UserMotion(-20.0, 20.0, 1.0, 20.0), UAV, samples=64) == 20.0


def test_los_time_empty_grid_is_full_epoch():
    # street fraction so close to 1 that no building band fits the region
    wide = GridParams(20.0, 1e6, 8.0)
    m = UserMotion(0.0, 0.0, 15.0, 10.0)
    for seed in range(4):
        g = sample_grid_anchored(wide, seed, 0.0, wide.mu_s)
        assert los_time(g, m, Uav(70.0, 45.0, 100.0)) == 10.0


# -- coverage window ----------------------------------------------------------


def test_coverage_unlimited_range():
    assert coverage_time(UserMotion(0.0, 0.0, 15.0, 10.0), Uav(500.0, 0.0, 100.0)) == 10.0


def test_coverage_platform_out_of_reach():
    # range shorter than the platform height: the sphere never meets ground
    assert coverage_time(UserMotion(0.0, 0.0, 1.0, 10.0), Uav(0.0, 0.0, 80.0, 50.0)) == 0.0


def test_coverage_starts_outside():
    # start distance sqrt(900 + 1600 + 900) ~ 58.3 exceeds the 50 m range
    u = Uav(30.0, 40.0, 30.0, link_range=50.0)
    assert coverage_time(UserMotion(0.0, 0.0, 1.0, 60.0), u) == 0.0


def test_coverage_exit_time_exact():
    # exit when (x - 30)^2 + 40^2 + 30^2 = 60^2, walking +x from 0 at 1 m/s
    u = Uav(30.0, 40.0, 30.0, link_range=60.0)
    t = coverage_time(UserMotion(0.0, 0.0, 1.0, 100.0), u)
    assert math.isclose(t, 30.0 + math.sqrt(60.0**2 - 40.0**2 - 30.0**2), rel_tol=1e-12)


def test_coverage_clamped_to_duration():
    u = Uav(30.0, 40.0, 30.0, link_range=60.0)
    assert coverage_time(UserMotion(0.0, 0.0, 1.0, 20.0), u) == 20.0
    assert coverage_time(UserMotion(0.0, 0.0, 0.0, 20.0), u) == 20.0


# -- trial statistics ---------------------------------------------------------


def test_trial_stats_hand_values():
    s = TrialStats([1.0, 2.0, 3.0, 4.0])
    assert s.n == 4
    assert s.mean == 2.5
    expect_se = math.sqrt(5.0 / 3.0) / 2.0
    assert math.isclose(s.stderr, expect_se, rel_tol=1e-12)
    lo, hi = s.ci95()
    assert math.isclose(lo, 2.5 - 1.96 * expect_se)
    assert math.isclose(hi, 2.5 + 1.96 * expect_se)


def test_trial_stats_degenerate():
    assert math.isnan(TrialStats([3.0]).stderr)


# -- grid-ensemble estimators -------------------------------------------------


def test_mc_expected_los_deterministic(urban):
    m = UserMotion(0.0, 0.0, 15.0, 10.0)
    u = Uav(70.0, 45.0, 100.0)
    a = monte_carlo_expected_los(urban, m, u, trials=50, seed=3)
    b = monte_carlo_expected_los(urban, m, u, trials=50, seed=3)
    assert np.array_equal(a.values, b.values)
    c = monte_carlo_expected_los(urban, m, u, trials=50, seed=4)
    assert not np.array_equal(a.values, c.values)
    assert all(0.0 <= v <= 10.0 for v in a.values)


def test_mc_contact_conditioning_lowers_clear_probability(urban):
    # guaranteeing a building column at the first crossing can only add a
    # potential blocker; at a shallow viewing angle the effect is large
    u = Uav(120.0, 90.0, 60.0)
    cond = monte_carlo_static_los(urban, (0.0, 0.0), u, trials=500, seed=11)
    raw = monte_carlo_static_los(urban, (0.0, 0.0), u, trials=500, seed=11,
                                 require_contact=False)
    assert cond.mean < raw.mean
    assert set(cond.values) <= {0.0, 1.0}


# A straightforward per-draw city sampler, the reference the chunked drawer is
# held to bit for bit: every draw computes its own splits and joins its own Y
# points, with no pass over a chunk.


def _ref_ppp(rng, lam, lo, hi):
    points = rng.uniform(lo, hi, rng.poisson(lam * (hi - lo)))
    points.sort()
    return points


def _ref_splits(points, f):
    return points[:-1] + f * (points[1:] - points[:-1]) if len(points) >= 2 else np.empty(0)


def _ref_draw(params, rng, y_anchor, street_width, contact_x=None):
    """(x_points, y_points, x_splits, y_splits, block_heights) of one anchored
    city, or None once the X points are drawn when contact_x is given and no
    building band covers it."""
    x_lo, x_hi, y_lo, y_hi = params.box
    f = params.street_fraction
    xp = _ref_ppp(rng, params.lam, x_lo, x_hi)
    xs = _ref_splits(xp, f)
    if contact_x is not None:
        k = int(xp.searchsorted(contact_x, "right")) - 1
        if not (0 <= k < len(xs) and contact_x >= xs[k]):
            return None
    if not (y_lo <= y_anchor < y_hi):
        raise DegenerateGridError("anchor outside the region")
    gap = rng.exponential(1.0 / params.lam)
    if street_width is None:
        w = f * gap
        cell_end = y_anchor + gap
    else:
        if street_width <= 0:
            raise ValueError("street width must be positive")
        w = street_width
        cell_end = y_anchor + w + (1.0 - f) * gap
    cell_end = min(cell_end, y_hi)
    if cell_end - y_anchor <= w:
        w = cell_end - y_anchor
    below = _ref_ppp(rng, params.lam, y_lo, y_anchor)
    above = _ref_ppp(rng, params.lam, cell_end, y_hi) if cell_end < y_hi else np.empty(0)
    yp = np.concatenate([below, [y_anchor, cell_end], above])
    ys = _ref_splits(yp, f)
    ys[len(below)] = min(y_anchor + w, cell_end)
    heights = rng.rayleigh(params.sigma, size=(max(len(xp) - 1, 0), len(ys)))
    return xp, yp, xs, ys, heights


def _reference_cities(params, seed, trials, y0, contact):
    """(city, draws) per trial of the range by the reference rule: draw whole
    cities over seeds [seed, trial, attempt] until a building band covers
    the contact, at most 1000 of them."""
    for trial in trials:
        for attempt in range(1000):
            rng = np.random.default_rng(np.random.SeedSequence([seed, trial, attempt]))
            city = _ref_draw(params, rng, y0, params.mu_s, contact)
            if city is not None:
                yield UrbanGrid(params, seed, *city), attempt + 1
                break
        else:
            raise DegenerateGeometryError("no building band covered the contact")


def _reference_chunk(params, seed, trials, y0, contact) -> dict:
    """Every ``_Cities`` field of a chunk, from the reference cities."""
    grids, draws = zip(*_reference_cities(params, seed, trials, y0, contact))
    nx = np.array([len(g.x_splits) for g in grids])
    ny = np.array([len(g.y_splits) for g in grids])
    return {
        "west": np.concatenate([g.x_splits for g in grids]),
        "east": np.concatenate([g.x_points[1:] for g in grids]),
        "south": np.concatenate([g.y_splits for g in grids]),
        "north": np.concatenate([g.y_points[1:] for g in grids]),
        "heights": np.concatenate([g.block_heights.ravel() for g in grids]),
        "nx": nx,
        "ny": ny,
        "draws": np.array(draws),
        "col_city": np.concatenate([np.full(n, i) for i, n in enumerate(nx)]),
        "row_city": np.concatenate([np.full(n, i) for i, n in enumerate(ny)]),
        "first_col": np.concatenate([[0], np.cumsum(nx)[:-1]]),
        "first_row": np.concatenate([[0], np.cumsum(ny)[:-1]]),
        "first_cell": np.concatenate([[0], np.cumsum(nx * ny)[:-1]]),
    }


@settings(max_examples=60)
@given(
    preset=st.sampled_from([(45.0, 13.0), (37.0, 10.0), (60.0, 20.0), (5.0, 45.0), (0.5, 80.0)]),
    side=st.tuples(st.floats(30.0, 400.0), st.floats(30.0, 400.0)),
    seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70)),
    # anchors near both region edges clip the anchor cell or leave nothing above it
    at=st.one_of(st.floats(0.0, 0.02), st.floats(0.0, 1.0), st.floats(0.97, 1.0)),
    contact=st.one_of(st.none(), st.floats(-0.5, 0.5)),
    first=st.sampled_from([0, 1, 250]),
    n=st.integers(1, 12),
    width=st.one_of(st.none(), st.floats(0.5, 60.0)),
)
def test_chunk_cities_match_the_per_draw_reference(preset, side, seed, at, contact, first, n,
                                                   width):
    # every field of a chunk's cities, and a whole city of sample_grid_anchored,
    # equals the per-draw reference, dtype and all; where the reference raises,
    # the drawer raises the same error.  Regions down to 30 m give cities with
    # no X point or one
    params = GridParams(*preset, 8.0, side)
    y0 = -side[1] / 2 + at * side[1]
    cx = None if contact is None else contact * side[0]
    trials = range(first, first + n)
    try:
        expect = _reference_chunk(params, seed, trials, y0, cx)
    except (DegenerateGridError, DegenerateGeometryError) as e:
        with pytest.raises(ValueError) as raised:
            _draw_cities(params, seed, trials, y0, cx)
        assert type(raised.value) is type(e)
        return
    cities = _draw_cities(params, seed, trials, y0, cx)
    for name, value in expect.items():
        got = getattr(cities, name)
        assert got.dtype == value.dtype and np.array_equal(got, value), name
    q = np.random.SeedSequence([seed, first])
    grid = sample_grid_anchored(params, q, y0, width)
    ref = _ref_draw(params, np.random.default_rng(q), y0, width)
    for name, value in zip(("x_points", "y_points", "x_splits", "y_splits", "block_heights"), ref):
        got = getattr(grid, name)
        assert got.dtype == value.dtype and np.array_equal(got, value), name


@st.composite
def _hand_grid(draw):
    """A small hand-built city with integer edges, possibly with no columns
    or no rows (an axis of fewer than two points)."""
    axes = []
    for _ in range(2):
        points = sorted(draw(st.lists(st.integers(-20, 20), max_size=4, unique=True)))
        splits = [draw(st.integers(lo, hi)) for lo, hi in zip(points, points[1:])]
        axes.append((np.array(points, dtype=float), np.array(splits, dtype=float)))
    (xp, xs), (yp, ys) = axes
    shape = (len(xs), len(ys))
    heights = draw(st.lists(st.sampled_from([0.0, 10.0, 1000.0]), min_size=math.prod(shape),
                            max_size=math.prod(shape)))
    return UrbanGrid(GridParams(4.0, 4.0, 8.0), 0, xp, yp, xs, ys,
                     np.array(heights).reshape(shape))


@st.composite
def _box_cases(draw):
    """(cities, grids, boxes): a drawn chunk of a preset (on a 30 m region
    some cities have no columns) or a few hand cities, as flat arrays and as
    grids, and boxes with bounds on block edges (zero-width bands included),
    outside the region, unbounded or anywhere, of zero width or inverted."""
    if draw(st.booleans()):
        side = draw(st.sampled_from([30.0, 400.0]))
        params = GridParams(*draw(st.sampled_from(PRESET_WIDTHS)), 8.0, (side, side))
        seed, n = draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 4))
        cities = _draw_cities(params, seed, range(n), 0.0, None)
        grids = [g for g, _ in _reference_cities(params, seed, range(n), 0.0, None)]
    else:
        grids = draw(st.lists(_hand_grid(), min_size=1, max_size=3))
        cities = grid_cities(*grids)
    far = [-math.inf, -1e4, 1e4, math.inf]
    x_edges = sorted({x for g in grids for x in (*g.x_points.tolist(), *g.x_splits.tolist())})
    y_edges = sorted({y for g in grids for y in (*g.y_points.tolist(), *g.y_splits.tolist())})

    def interval(edges):
        bound = st.one_of(st.sampled_from(edges + far), st.floats(-250.0, 250.0))
        on_edge = st.sampled_from(edges or far).map(lambda e: (e, e))
        return st.one_of(st.tuples(bound, bound).map(sorted), on_edge, st.tuples(bound, bound))

    boxes = draw(st.lists(st.tuples(interval(x_edges), interval(y_edges)), max_size=5))
    return cities, grids, [(*x, *y) for x, y in boxes]


@settings(max_examples=150)
@given(_box_cases())
def test_link_blocks_are_each_links_box_query(case):
    # each (city, link) gathers the blocks ``blocks_overlapping`` returns on
    # that city for the link's box, in the same order, city by city and link
    # by link; no links gather nothing
    cities, grids, boxes = case
    bounds = np.array(boxes, dtype=float).reshape(-1, 4).T
    link, *blocks = _link_blocks(cities, *bounds)
    assert np.all(np.diff(link) >= 0)
    assert link.dtype.kind == "i" and all(len(b) == len(link) for b in blocks)
    for c, grid in enumerate(grids):
        for k, box in enumerate(boxes):
            mine = link == c * len(boxes) + k
            assert [b[mine].tolist() for b in blocks] == [
                b.tolist() for b in per_city.blocks_overlapping(grid, *box)]
    assert np.all(link < len(grids) * len(boxes))


def test_trial_grid_matches_full_draw_rejection(urban):
    # the chunk's flat arrays hold the reference cities bit for bit; with a
    # building fraction of 0.1 and a two-word seed, trials need up to 51
    # draws, so the chunk hashes its attempts in several rounds
    sparse = GridParams(5.0, 45.0, 8.0)
    for params, seed in ((urban, 0), (urban, 3), (sparse, 2**32 + 7)):
        cx = start_contact_x(params, (0.0, 0.0), Uav(120.0, 90.0, 100.0))
        for contact in (cx, None):
            grids, draws = zip(*_reference_cities(params, seed, range(40), 0.0, contact))
            cities = _draw_cities(params, seed, range(40), 0.0, contact)
            assert cities.draws.tolist() == list(draws)
            expect = {
                "west": [g.x_splits for g in grids],
                "east": [g.x_points[1:] for g in grids],
                "south": [g.y_splits for g in grids],
                "north": [g.y_points[1:] for g in grids],
                "heights": [g.block_heights.ravel() for g in grids],
            }
            for name, parts in expect.items():
                assert np.array_equal(getattr(cities, name), np.concatenate(parts)), name
            assert cities.nx.tolist() == [len(g.x_splits) for g in grids]
            assert cities.ny.tolist() == [len(g.y_splits) for g in grids]
            assert (sum(draws) > 40) == (contact is not None)
            if params is sparse and contact is not None:
                assert max(draws) > 4 * env._FIRST_ROUND


def test_uncoverable_contact_raises_after_the_first_trials_1000_draws(monkeypatch):
    # buildings 0.01 m wide in 100 m cells almost never cover x = 37: trial 0
    # rejects all of its 1000 draws, and no later trial draws before the error
    drawn = []
    draw = env._draw_anchored
    monkeypatch.setattr(env, "_draw_anchored", lambda *a: drawn.append(1) or draw(*a))
    with pytest.raises(DegenerateGeometryError, match="x = 37 in 1000 city draws"):
        _draw_cities(GridParams(0.01, 100.0, 8.0), 5, range(_CHUNK), 0.0, 37.0)
    assert len(drawn) == 1000


# per-trial draws and clear seconds of one contact-conditioned run (urban,
# Uav(120, 90, 100), a 15 m/s walk for 10 s, seed 3, 60 trials), frozen from
# the per-draw sampler
FROZEN_DRAWS = [
    1, 1, 2, 1, 1, 1, 1, 1, 1, 2, 1, 1, 2, 1, 2, 2, 1, 3, 1, 1, 1, 2, 2, 1, 1, 1, 2, 2, 2, 1,
    2, 1, 1, 1, 2, 1, 2, 4, 1, 2, 3, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 1, 1, 1, 1,
]
FROZEN_VALUES = [
    10.0, 10.0, 9.176841669534257, 10.0, 10.0, 10.0, 9.119741521401009, 7.938728795602326,
    7.510971609795801, 10.0, 8.899867901205777, 10.0, 2.285000445276994, 9.05593076363224,
    10.0, 10.0, 10.0, 10.0, 9.83492858954415, 7.536497483760923, 10.0, 10.0, 10.0,
    4.793800222912298, 9.637424461035215, 10.0, 10.0, 5.710809076516936, 10.0,
    5.771312022721354, 10.0, 6.095043664249086, 10.0, 6.184034765341076, 10.0, 10.0,
    8.845227311400302, 10.0, 10.0, 9.659526074917855, 9.463409922069252, 9.681348118757084,
    5.860446670909171, 10.0, 9.443273500415756, 6.047265058428925, 9.13848737853786, 10.0,
    7.673953454144106, 10.0, 10.0, 10.0, 7.5999057093098, 7.011523397564023, 8.755202443202206,
    10.0, 10.0, 9.423038585697299, 10.0, 9.319037091307575,
]


def test_monte_carlo_stream_is_frozen(urban, monkeypatch):
    # in two chunks, the second starting mid-run
    monkeypatch.setattr(oracle, "_CHUNK", 32)
    run = monte_carlo_expected_los(urban, UserMotion(0.0, 0.0, 15.0, 10.0),
                                   Uav(120.0, 90.0, 100.0), 60, 3)
    assert run.draws.tolist() == FROZEN_DRAWS
    assert run.values.tolist() == FROZEN_VALUES


def test_sparse_monte_carlo_stream_across_chunks_is_frozen():
    # per-trial draws and clear seconds of a 260-trial contact-conditioned run
    # of the sparse preset (Uav(200, 100, 15), a 15 m/s walk for 10 s, seed
    # 3): two chunks at their real size, and trials that need up to 57
    # draws, so later hash rounds.  Frozen from the sampler that drew each
    # axis with rng.uniform and mapped it per draw
    frozen = json.loads((Path(__file__).parent / "data" / "mc_stream_sparse.json").read_text())
    run = monte_carlo_expected_los(GridParams(5.0, 45.0, 8.0), UserMotion(0.0, 0.0, 15.0, 10.0),
                                   Uav(200.0, 100.0, 15.0), 260, 3)
    assert run.n > _CHUNK and run.draws.max() > 4 * env._FIRST_ROUND
    assert run.draws.tolist() == frozen["draws"]
    assert run.values.tolist() == frozen["values"]


def test_mc_contact_outside_region_raises(urban, monkeypatch):
    # no draw can put a building band under a start contact outside the
    # region's [-200, 200) in x, so none is made: at x = 5000 * 13/14, far
    # outside, and at x = 400 * 13/26 = 200, the open edge
    draws = []
    monkeypatch.setattr(oracle, "_draw_cities", lambda *a: draws.append(a))
    for u, x in ((Uav(5000.0, 14.0, 100.0), "4642.86"), (Uav(400.0, 26.0, 100.0), "200")):
        with pytest.raises(DegenerateGeometryError, match=f"x = {x} "):
            monte_carlo_expected_los(urban, UserMotion(0.0, 0.0, 15.0, 10.0), u, 1, 0)
        with pytest.raises(DegenerateGeometryError, match=f"x = {x} "):
            monte_carlo_static_los(urban, (0.0, 0.0), u, 1, 0)
    assert draws == []


# chunk sizes around the chunked runners' boundary, and small runs
TRIAL_COUNTS = [1, 2, 9, _CHUNK - 1, _CHUNK + 1]
GEOMETRY = dict(
    preset=st.sampled_from(PRESET_WIDTHS),
    seed=st.integers(0, 2**32 - 1),
    y0=st.floats(-150.0, 150.0),
    ux=st.floats(-150.0, 150.0),
    dy=st.floats(5.0, 150.0),
    north=st.booleans(),
    h=st.floats(20.0, 160.0),
    x0=st.floats(-150.0, 100.0),
    require_contact=st.booleans(),
    trials=st.sampled_from(TRIAL_COUNTS),
)


@settings(max_examples=40)
@given(v=st.one_of(st.just(0.0), st.floats(0.5, 30.0)),
       T=st.one_of(st.just(0.0), st.floats(0.5, 20.0)), **GEOMETRY)
def test_mc_trials_equal_los_time_on_reference_cities(
    preset, seed, y0, ux, dy, north, h, x0, require_contact, trials, v, T
):
    params = GridParams(*preset, 8.0)
    motion = UserMotion(x0, y0, v, T)
    u = Uav(ux, y0 + dy if north else y0 - dy, h)
    contact = start_contact_x(params, (x0, y0), u) if require_contact else None
    run = monte_carlo_expected_los(params, motion, u, trials, seed, require_contact)
    ref = list(_reference_cities(params, seed, range(trials), y0, contact))
    assert run.values.tolist() == [per_city.los_time(g, motion, u) for g, _ in ref]
    assert run.draws.tolist() == [d for _, d in ref]


@settings(max_examples=30)
@given(**GEOMETRY)
def test_mc_static_trials_equal_is_los_on_reference_cities(
    preset, seed, y0, ux, dy, north, h, x0, require_contact, trials
):
    params = GridParams(*preset, 8.0)
    u = Uav(ux, y0 + dy if north else y0 - dy, h)
    contact = start_contact_x(params, (x0, y0), u) if require_contact else None
    run = monte_carlo_static_los(params, (x0, y0), u, trials, seed, require_contact)
    ref = list(_reference_cities(params, seed, range(trials), y0, contact))
    assert run.values.tolist() == [float(per_city.is_los(g, (x0, y0), u)) for g, _ in ref]
    assert run.draws.tolist() == [d for _, d in ref]


def test_mc_prefix_stable_across_chunk_boundary(urban):
    m = UserMotion(0.0, 0.0, 15.0, 10.0)
    u = Uav(70.0, 45.0, 100.0)
    long = monte_carlo_expected_los(urban, m, u, 2 * _CHUNK + 3, 5)
    for n in (1, _CHUNK - 1, _CHUNK, _CHUNK + 1):
        short = monte_carlo_expected_los(urban, m, u, n, 5)
        assert np.array_equal(short.values, long.values[:n])
        assert np.array_equal(short.draws, long.draws[:n])
    static = monte_carlo_static_los(urban, (0.0, 0.0), u, _CHUNK + 1, 5)
    assert np.array_equal(static.values[:3], monte_carlo_static_los(urban, (0.0, 0.0), u, 3, 5).values)
    assert monte_carlo_expected_los(urban, m, u, 0, 5).n == 0


def test_mc_runners_reject_negative_trials(urban):
    u = Uav(70.0, 45.0, 100.0)
    with pytest.raises(ValueError, match="^trials must be nonnegative, got -2$"):
        monte_carlo_expected_los(urban, UserMotion(0.0, 0.0, 15.0, 10.0), u, -2, 0)
    with pytest.raises(ValueError, match="^trials must be nonnegative, got -2$"):
        monte_carlo_static_los(urban, (0.0, 0.0), u, -2, 0)


# a walk on the anchored street: its line's offset into the street as a
# fraction of the pinned width, where it starts (anywhere, or under its
# platform so that it starts or ends there), its speed and duration, and its
# platform as (x, dy, north, height, link range); a small range gives a
# coverage horizon of 0
_STREET_WALK = st.tuples(
    st.sampled_from([0.0, 0.5]), st.floats(-150.0, 100.0),
    st.sampled_from(["free", "starts under", "ends under"]),
    st.one_of(st.just(0.0), st.floats(0.5, 30.0)), st.one_of(st.just(0.0), st.floats(0.5, 20.0)),
    st.tuples(st.floats(-150.0, 150.0), st.one_of(st.just(0.0), st.floats(5.0, 150.0)),
              st.booleans(), st.floats(20.0, 160.0),
              st.one_of(st.just(math.inf), st.floats(30.0, 250.0))))


@settings(max_examples=60)
@given(preset=st.sampled_from(PRESET_WIDTHS), seed=st.integers(0, 2**32 - 1),
       y0=st.floats(-150.0, 150.0), n=st.integers(1, 4), walks=st.lists(_STREET_WALK, max_size=6))
def test_walk_clear_judges_every_walk_as_los_time(preset, seed, y0, n, walks):
    # many walks in one call, still, moving and empty ones mixed, each walk
    # on each city equal to ``los_time`` there; each walk judged alone gives
    # the same column
    params = GridParams(*preset, 8.0)
    motions, uavs = [], []
    for off, x0, start, v, T, (ux, dy, north, h, reach) in walks:
        line = y0 + off * params.mu_s
        u = Uav(ux, line + dy if north else line - dy, h, reach)
        x0 = {"free": x0, "starts under": ux, "ends under": ux - v * T}[start]
        m = UserMotion(x0, line, v, T)
        motions.append(replace(m, duration=coverage_time(m, u)))
        uavs.append(u)
    cities = _draw_cities(params, seed, range(n), y0, None)
    grids = [g for g, _ in _reference_cities(params, seed, range(n), y0, None)]
    clear = _walk_clear(cities, Pairs.of(motions, uavs))
    assert clear.shape == (n, len(motions))
    assert clear.tolist() == [[per_city.los_time(g, m, u) for m, u in zip(motions, uavs)]
                              for g in grids]
    for k, (m, u) in enumerate(zip(motions, uavs)):
        assert np.array_equal(_walk_clear(cities, Pairs.of([m], [u])), clear[:, [k]])


def test_walk_clear_refuses_a_walk_line_in_a_building_band():
    grid = make_single_block_grid(1000.0)
    cities = grid_cities(grid)
    inside = UserMotion(0.0, 20.0, 1.0, 10.0)  # y = 20 lies in the block's band [16, 24)
    for motions in ([inside], [WALK, inside], [WALK, replace(inside, speed=0.0)]):
        with pytest.raises(UserInBuildingError, match="walk line y = 20.0 "):
            _walk_clear(cities, Pairs.of(motions, [UAV] * len(motions)))
    with pytest.raises(UserInBuildingError):
        los_time(grid, inside, UAV)
    # an empty walk is not judged, as ``los_time`` and ``los_time_sampled`` do not judge it
    empty = replace(inside, duration=0.0)
    assert _walk_clear(cities, Pairs.of([WALK, empty], [UAV, UAV])).tolist() == [
        [los_time(grid, WALK, UAV), los_time(grid, empty, UAV)]]
    assert los_time(grid, empty, UAV) == los_time_sampled(grid, empty, UAV, samples=16) == 0.0


def test_ground_checks_find_the_one_city_that_holds_the_band():
    # the block [8, 12] x [16, 24] of ``make_single_block_grid`` is the only
    # band holding y = 16 in a chunk; another city has a column at x = 10 and
    # a row below, a third a row at y = 16 and a column elsewhere.  A line on
    # the band's low edge lies inside it, one on its high edge outside, for a
    # walk and for a start link; x and y held by two different cities are
    # not inside a building
    params = GridParams(4.0, 4.0, 8.0)
    column = UrbanGrid(params, 0, np.array([6.0, 12.0]), np.array([0.0, 10.0]),
                       np.array([8.0]), np.array([4.0]), np.array([[5.0]]))
    row = UrbanGrid(params, 0, np.array([20.0, 30.0]), np.array([10.0, 24.0]),
                    np.array([25.0]), np.array([16.0]), np.array([[5.0]]))
    block = make_single_block_grid(5.0)
    one = grid_cities(column, block, column)
    for y, inside in ((16.0, True), (24.0, False)):
        walk = UserMotion(0.0, y, 1.0, 10.0)
        if inside:
            with pytest.raises(UserInBuildingError, match=f"walk line y = {y} "):
                _walk_clear(one, Pairs.of([walk], [UAV]))
            with pytest.raises(UserInBuildingError, match=rf"ground point \(10.0, {y}\)"):
                _point_clear(one, *point_links((10.0, y), [UAV]))
        else:
            assert _walk_clear(one, Pairs.of([walk], [UAV])).tolist() == [
                [per_city.los_time(g, walk, UAV)] for g in (column, block, column)]
            assert _point_clear(one, *point_links((10.0, y), [UAV])).tolist() == [
                [per_city.is_los(g, (10.0, y), UAV)] for g in (column, block, column)]
    assert _point_clear(grid_cities(column, row), *point_links((10.0, 16.0), [UAV])).tolist() == [
        [per_city.is_los(g, (10.0, 16.0), UAV)] for g in (column, row)]
    # the first ground point inside, in link order, is named
    links = point_links((0.0, 16.0), [UAV, UAV])
    links[0][1] = 10.0
    with pytest.raises(UserInBuildingError, match=r"ground point \(10.0, 16.0\)"):
        _point_clear(grid_cities(row, block), *links)


@pytest.mark.parametrize("g", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0),
                               (0.0, -math.inf)], ids=["nan-x", "nan-y", "inf-x", "-inf-y"])
def test_non_finite_ground_point_is_refused(urban, g):
    # every entry point that takes a ground point refuses a non-finite one,
    # rather than indexing a band with it, reading its link as clear or
    # blaming a start contact at x = nan
    grid = sample_grid_anchored(urban, 0, 0.0, urban.mu_s)
    u = Uav(70.0, 45.0, 100.0)
    calls = [lambda: is_los(grid, g, u),
             lambda: p_los_static(g, u, urban.mu_s, urban.lam, RayleighHeights(urban.sigma)),
             lambda: start_contact_x(urban, g, u),
             lambda: monte_carlo_static_los(urban, g, u, 3, 0),
             lambda: monte_carlo_static_los(urban, g, u, 3, 0, require_contact=False)]
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()


def test_mc_walk_line_in_building_band_raises():
    # a street far narrower than the float spacing at y = 100 rounds away,
    # so the anchored cities put the walk line in a building band
    params = GridParams(45.0, 1e-20, 8.0)
    with pytest.raises(UserInBuildingError, match="walk line y = 100.0 "):
        monte_carlo_expected_los(params, UserMotion(0.0, 100.0, 15.0, 10.0),
                                 Uav(70.0, 145.0, 100.0), 3, 0)
    with pytest.raises(UserInBuildingError, match=r"ground point \(0.0, 100.0\)"):
        monte_carlo_static_los(params, (0.0, 100.0), Uav(70.0, 145.0, 100.0), 3, 0)


def test_mc_static_deterministic(urban):
    u = Uav(70.0, 45.0, 70.0)
    a = monte_carlo_static_los(urban, (0.0, 0.0), u, trials=200, seed=5)
    b = monte_carlo_static_los(urban, (0.0, 0.0), u, trials=200, seed=5)
    assert np.array_equal(a.values, b.values)
    assert 0.0 <= a.mean <= 1.0
