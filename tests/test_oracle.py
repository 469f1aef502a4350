import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_single_block_grid
from uavlos import env, oracle
from uavlos.env import (
    DegenerateGeometryError,
    GridParams,
    Uav,
    UserInBuildingError,
    UrbanGrid,
    UserMotion,
    _draw_cities,
    _join_cities,
    sample_grid_anchored,
)
from uavlos.oracle import (
    _CHUNK,
    _blocking,
    _box_blocks,
    _box_runs,
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
    cities = _join_cities([(grid.x_points, grid.y_points, grid.x_splits, grid.y_splits,
                            grid.block_heights)], [1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_los(grid, (0.0, 0.0), u) is False
        assert _point_clear(cities, (0.0, 0.0), [u, UAV]).tolist() == [
            [False, is_los(grid, (0.0, 0.0), UAV)]]


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
def test_verdicts_do_not_depend_on_the_prefilter(case):
    # every referee judges a link on all blocks of the city exactly as on the
    # blocks its box query returns, for links on block edges and walks that
    # start or end under their platform
    grid, g, uavs, walks = case
    cities = _join_cities([(grid.x_points, grid.y_points, grid.x_splits, grid.y_splits,
                            grid.block_heights)], [1])
    runs = _box_runs(cities, -np.inf, np.inf, -np.inf, np.inf)
    every = _box_blocks(cities, *runs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_box_runs", lambda cities, *box: runs)
        assert _point_clear(cities, g, uavs).tolist() == [[is_los(grid, g, u) for u in uavs]]
    for u, (v, T, ends) in zip(uavs, walks):
        m = UserMotion(u.x - v * T if ends else u.x, g[1], v, T)
        assert _walk_clear(cities, m, u, every).tolist() == [los_time(grid, m, u)]
        ts = (np.arange(64) + 0.5) * (T / 64)
        blocked = _blocking(*every, (m.x0 + v * ts)[:, None], m.y0, u.x, u.y, u.height).any(axis=1)
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


def _reference_cities(params, seed, trials, y0, contact):
    """(city, draws) per trial by the reference rule: draw whole cities over
    seeds [seed, trial, attempt] until a building band covers the contact."""
    for trial in range(trials):
        for attempt in range(1000):
            grid = sample_grid_anchored(params, np.random.SeedSequence([seed, trial, attempt]),
                                        y0, params.mu_s)
            if contact is None or grid.band_at("x", contact)[0] == "building":
                yield grid, attempt + 1
                break


def test_trial_grid_matches_full_draw_rejection(urban):
    # the chunk's flat arrays hold the reference cities bit for bit; with a
    # building fraction of 0.1 and a two-word seed, trials need up to 51
    # draws, so the chunk hashes its attempts in several rounds
    sparse = GridParams(5.0, 45.0, 8.0)
    for params, seed in ((urban, 0), (urban, 3), (sparse, 2**32 + 7)):
        cx = start_contact_x(params, (0.0, 0.0), Uav(120.0, 90.0, 100.0))
        for contact in (cx, None):
            grids, draws = zip(*_reference_cities(params, seed, 40, 0.0, contact))
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
    ref = list(_reference_cities(params, seed, trials, y0, contact))
    assert run.values.tolist() == [los_time(g, motion, u) for g, _ in ref]
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
    ref = list(_reference_cities(params, seed, trials, y0, contact))
    assert run.values.tolist() == [float(is_los(g, (x0, y0), u)) for g, _ in ref]
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
