import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import grid_cities, make_single_block_grid, point_links
from uavlos.analytic import CdfHeights, RayleighHeights
from uavlos import oracle
from uavlos.assoc import (
    Assignment,
    _realized,
    _score_pairs,
    _walks,
    assign_max_expected_los,
    assign_nearest_los,
    compare_policies,
    pair_score,
    realized_value,
)
from uavlos.env import (
    GridParams,
    Pairs,
    Uav,
    UrbanGrid,
    UserMotion,
    _draw_anchored,
    _join_cities,
    _law,
    sample_grid_anchored,
)
from uavlos.mobility import (
    CELL_BLOCK,
    EpochGeometry,
    _expected_los,
    expected_los_total,
    poisson_truncation_count,
)
from uavlos.oracle import (
    _CHUNK,
    _chunks,
    _point_clear,
    _walk_clear,
    coverage_time,
    is_los,
    los_time,
)


def test_assignment_rejects_shared_platform():
    with pytest.raises(ValueError):
        Assignment([0, 0])
    a = Assignment([1, None, 0])
    assert a.assigned() == [(0, 1), (2, 0)]


def test_pair_score_zero_when_never_in_range(urban):
    m = UserMotion(0.0, 0.0, 15.0, 10.0)
    far = Uav(500.0, 45.0, 100.0, link_range=80.0)
    assert pair_score(urban, m, far) == 0.0


def test_pair_score_certain_over_own_street(urban):
    # platform above the user's street, unlimited range: every second clear
    m = UserMotion(0.0, 0.0, 15.0, 10.0)
    u = Uav(30.0, 8.0, 60.0)
    assert pair_score(urban, m, u) == 10.0


def test_pair_score_truncated_by_range(urban):
    m = UserMotion(0.0, 0.0, 15.0, 10.0)
    u = Uav(30.0, 8.0, 60.0, link_range=90.0)
    horizon = coverage_time(m, u)
    assert 0.0 < horizon < 10.0
    assert pair_score(urban, m, u) == pytest.approx(horizon)


def test_greedy_assignment_tie_breaks_by_id(urban):
    users = [UserMotion(0.0, 0.0, 15.0, 10.0), UserMotion(0.0, 0.0, 15.0, 10.0)]
    uavs = [Uav(70.0, 45.0, 100.0), Uav(70.0, 45.0, 100.0)]
    a = assign_max_expected_los(users, uavs, urban)
    assert a.pairs == [0, 1]


def test_greedy_assignment_skips_zero_scores(urban):
    users = [UserMotion(0.0, 0.0, 15.0, 10.0)]
    uavs = [Uav(500.0, 45.0, 100.0, link_range=80.0)]
    a = assign_max_expected_los(users, uavs, urban)
    assert a.pairs == [None]


def test_greedy_assignment_prefers_higher_scores(urban):
    # one platform over the user's own street dominates a cross-street one
    users = [UserMotion(0.0, 0.0, 15.0, 10.0)]
    uavs = [Uav(120.0, 90.0, 100.0), Uav(30.0, 8.0, 60.0)]
    a = assign_max_expected_los(users, uavs, urban)
    assert a.pairs == [1]


def test_nearest_policy_avoids_blocked_platform():
    # the tall block shadows (20, 40, 50) from x = 0; the farther platform
    # at (-30, 40, 50) keeps a clear line and wins despite the distance
    g = make_single_block_grid(1000.0)
    users = [UserMotion(0.0, 0.0, 1.0, 10.0)]
    near, far = Uav(20.0, 40.0, 50.0), Uav(-30.0, 40.0, 50.0)
    assert assign_nearest_los(users, [near, far], g).pairs == [1]
    # with a low block the near platform is clear again
    g = make_single_block_grid(18.0)
    assert assign_nearest_los(users, [near, far], g).pairs == [0]


def test_nearest_policy_respects_range_and_capacity():
    g = make_single_block_grid(18.0)
    users = [UserMotion(0.0, 0.0, 1.0, 10.0), UserMotion(1.0, 0.0, 1.0, 10.0)]
    only = Uav(20.0, 40.0, 50.0)
    a = assign_nearest_los(users, [only], g)
    assert a.pairs == [0, None]  # user 0 is considered first and takes it
    short = Uav(20.0, 40.0, 50.0, link_range=40.0)
    assert assign_nearest_los(users, [short], g).pairs == [None, None]


def test_nearest_policy_distance_tie_takes_lower_id():
    # x = -40 and x = 30 are both 35 m from the user at x = -5; the low block
    # leaves both links clear, so only the tie rule decides, in either order
    g = make_single_block_grid(18.0)
    users = [UserMotion(-5.0, 0.0, 1.0, 10.0)]
    west, east = Uav(-40.0, 40.0, 50.0), Uav(30.0, 40.0, 50.0)
    assert is_los(g, (-5.0, 0.0), west) and is_los(g, (-5.0, 0.0), east)
    assert assign_nearest_los(users, [west, east], g).pairs == [0]
    assert assign_nearest_los(users, [east, west], g).pairs == [0]


def test_realized_value_is_truncated_clear_time():
    g = make_single_block_grid(1000.0)
    m = UserMotion(-15.0, 0.0, 1.0, 25.0)
    u = Uav(20.0, 40.0, 50.0, link_range=55.0)
    val = realized_value(Assignment([0]), g, [m], [u])
    horizon = coverage_time(m, u)
    clipped = UserMotion(m.x0, m.y0, m.speed, horizon)
    assert math.isclose(val, los_time(g, clipped, u), rel_tol=1e-12)
    assert realized_value(Assignment([None]), g, [m], [u]) == 0.0


def test_compare_policies_needs_shared_street(urban):
    users = [UserMotion(0.0, 0.0, 15.0, 10.0), UserMotion(0.0, 5.0, 15.0, 10.0)]
    uavs = [Uav(70.0, 45.0, 100.0)]
    with pytest.raises(ValueError):
        compare_policies(urban, users, uavs, trials=5, seed=0)


def test_compare_policies_paired_difference(urban):
    users = [UserMotion(-170.0, 0.0, 20.0, 10.0), UserMotion(-55.0, 0.0, 20.0, 10.0)]
    uavs = []
    for x0 in (-170.0, -55.0):
        uavs.append(Uav(x0 - 25.0, 45.0, 100.0, link_range=130.0))
        uavs.append(Uav(x0 + 60.0, 45.0, 100.0, link_range=130.0))
    cmp = compare_policies(urban, users, uavs, trials=40, seed=31)
    assert cmp.proposed.n == cmp.benchmark.n == 40
    d = cmp.difference
    assert math.isclose(d.mean, cmp.proposed.mean - cmp.benchmark.mean, abs_tol=1e-9)
    # the trial streams are shared, so the paired spread is far tighter than
    # the individual ones whenever the policies mostly agree per grid
    assert d.n == 40


def test_compare_policies_reports_fixed_assignment_and_scores(urban):
    users = [UserMotion(-170.0, 0.0, 20.0, 10.0), UserMotion(-55.0, 0.0, 20.0, 10.0)]
    uavs = [Uav(x, 45.0, 100.0, link_range=130.0) for x in (-195.0, -110.0, -80.0, 5.0)]
    cmp = compare_policies(urban, users, uavs, trials=3, seed=31)
    assert cmp.assignment == assign_max_expected_los(users, uavs, urban)
    assert cmp.scores == [[pair_score(urban, m, u) for u in uavs] for m in users]
    assert cmp.predicted == sum(cmp.scores[j][k] for j, k in cmp.assignment.assigned())


def test_association_sweep_scores_each_pair_once_per_speed(monkeypatch):
    import uavlos.assoc as assoc
    from uavlos.cli import ExperimentConfig, run_experiment

    calls = []  # pairs handed to each batched pricing pass
    real = assoc._expected_los

    def counted(params, geom, epsilon):
        calls.append(len(geom.x0))
        return real(params, geom, epsilon)

    monkeypatch.setattr(assoc, "_expected_los", counted)
    user_xs = [-120.0, -40.0, 40.0]
    cfg = ExperimentConfig.from_dict(
        {"sweep": "association", "values": [2.0, 10.0], "trials": 2, "user_xs": user_xs}
    )
    run_experiment(cfg, None, False)
    n_users, n_uavs = len(user_xs), 2 * len(user_xs)
    assert sum(calls) == len(cfg.values) * n_users * n_uavs
    assert len(calls) == len(cfg.values)


def test_compare_policies_referees_each_chunk_in_one_walk_pass(urban, monkeypatch):
    import uavlos.assoc as assoc

    calls = []  # (cities, walks) handed to each walk referee pass
    real = assoc._walk_clear

    def counted(cities, pairs):
        calls.append((len(cities.nx), len(pairs.x0)))
        return real(cities, pairs)

    monkeypatch.setattr(assoc, "_walk_clear", counted)
    monkeypatch.setattr(oracle, "_CHUNK", 32)
    users = [UserMotion(x, 0.0, 15.0, 10.0) for x in (-170.0, -55.0, 40.0)]
    uavs = [Uav(m.x0 + dx, 45.0, 100.0) for m in users for dx in (-25.0, 60.0)]
    compare_policies(urban, users, uavs, 65, 3)
    # one pass per chunk, over at most every (user, platform) pair
    assert [c for c, _ in calls] == [32, 32, 1]
    assert all(len(users) <= w <= len(users) * len(uavs) for _, w in calls)


_PRESETS = [(37.0, 10.0), (45.0, 13.0), (60.0, 20.0)]
# walks on two streets, standing still or not, empty epochs or not
_WALK = st.tuples(st.floats(-150.0, 150.0), st.sampled_from([0.0, 30.0]),
                  st.one_of(st.just(0.0), st.floats(0.5, 30.0)),
                  st.one_of(st.just(0.0), st.floats(0.5, 20.0)))
# platforms north or south of the first street, in unlimited or finite range
_SITE = st.tuples(st.floats(-150.0, 150.0), st.floats(5.0, 150.0), st.booleans(),
                  st.floats(20.0, 160.0), st.one_of(st.just(math.inf), st.floats(30.0, 250.0)))
# over the first street: the link never leaves it
_OWN = st.tuples(st.floats(-150.0, 150.0), st.floats(0.0, 0.99), st.floats(20.0, 160.0),
                 st.floats(30.0, 250.0))


def _walks_and_platforms(params, walks, sites, own):
    users = [UserMotion(*w) for w in walks]
    uavs = [Uav(x, dy if north else -dy, h, r) for x, dy, north, h, r in sites]
    ox, frac, oh, orange = own
    return users, uavs + [Uav(ox, frac * params.mu_s, oh, orange)]


@settings(max_examples=60)
@given(preset=st.sampled_from(_PRESETS), walks=st.lists(_WALK, min_size=1, max_size=4),
       sites=st.lists(_SITE, max_size=4), own=_OWN, eps=st.sampled_from([1e-3, 1e-6]))
def test_score_matrix_equals_pair_scores(preset, walks, sites, own, eps):
    params = GridParams(*preset, 8.0)
    users, uavs = _walks_and_platforms(params, walks, sites, own)
    scores = _score_pairs(_walks(users, uavs), params, eps)
    assert scores == [[pair_score(params, m, u, eps) for u in uavs] for m in users]
    for m, row in zip(users, scores):
        for u, score in zip(uavs, row):
            clipped = replace(m, duration=coverage_time(m, u))
            assert score == expected_los_total(params, clipped, u, eps).expected_time


_CDF = CdfHeights(lambda h: -math.expm1(-(h * h) / 128.0) if h > 0.0 else 0.0)


@settings(max_examples=30)
@given(preset=st.sampled_from(_PRESETS), walks=st.lists(_WALK, min_size=1, max_size=3),
       sites=st.lists(_SITE, max_size=2), own=_OWN, cdf=st.booleans())
def test_batched_pass_equals_single_pairs(preset, walks, sites, own, cdf):
    # the batched pass over (pair x crossing count) rows against one call per
    # pair, on either height law: every result field, bit for bit
    params = GridParams(*preset, 8.0)
    users, uavs = _walks_and_platforms(params, walks, sites, own)
    model = _CDF if cdf else RayleighHeights(params.sigma)
    motions = [m for m in users for _ in uavs]
    platforms = uavs * len(users)
    expected, per_count, laws = _expected_los(params, EpochGeometry.of(
        motions, platforms, params.mu_s, params.lam, model), 1e-3)
    assert len(expected) == len(laws) == len(motions)
    lo = 0  # each pair's counts follow the previous pair's in the flat array
    for p, (m, u) in enumerate(zip(motions, platforms)):
        r = expected_los_total(params, m, u, 1e-3, model)
        weights, dropped = laws[p]
        n = len(weights)
        assert expected[p] == r.expected_time
        # weighted in count order, as Python's ``sum`` adds
        assert expected[p] == sum(w * e for w, e in zip(weights, r.per_count)) / sum(weights)
        assert per_count[lo:lo + n].tolist() == r.per_count
        assert list(weights) == r.weights
        assert dropped == r.dropped_mass
        lo += n
    assert lo == len(per_count)


def test_score_matrix_with_a_long_epoch_across_blocks(urban):
    # 7.5 min at 30 m/s: one pair alone has more crossing counts than a block
    # holds, and its rows start at a block offset inside the matrix
    users = [UserMotion(-100.0, 0.0, 5.0, 10.0), UserMotion(0.0, 0.0, 30.0, 450.0)]
    uavs = [Uav(120.0, 90.0, 100.0), Uav(-60.0, 60.0, 80.0, link_range=2e4)]
    mu = urban.lam * 30.0 * 450.0  # lam v T, the longest epoch of the matrix
    assert poisson_truncation_count(urban.lam, 30.0, 450.0, 1e-3) + 1 > CELL_BLOCK // (mu + 4.0)
    scores = _score_pairs(_walks(users, uavs), urban, 1e-3)
    assert scores == [[pair_score(urban, m, u) for u in uavs] for m in users]
    clipped = replace(users[1], duration=coverage_time(users[1], uavs[1]))
    r = expected_los_total(urban, clipped, uavs[1])
    assert scores[1][1] == r.expected_time
    # hundreds of counts, weighted in count order as Python's ``sum`` adds
    assert r.expected_time == sum(w * e for w, e in zip(r.weights, r.per_count)) / sum(r.weights)


def _per_city_reference(params, users, uavs, trials, seed, fixed):
    """(proposed, benchmark) per trial, one sampled city at a time."""
    out = []
    for i in range(trials):
        grid = sample_grid_anchored(params, np.random.SeedSequence([seed, i]), users[0].y0,
                                    params.mu_s)
        bench = assign_nearest_los(users, uavs, grid)
        out.append((realized_value(fixed, grid, users, uavs),
                    realized_value(bench, grid, users, uavs)))
    return out


_PLATFORM = st.tuples(st.floats(-150.0, 150.0), st.floats(5.0, 150.0), st.booleans(),
                      st.floats(20.0, 160.0), st.floats(30.0, 250.0))


@settings(max_examples=25)
@given(
    preset=st.sampled_from([(37.0, 10.0), (45.0, 13.0), (60.0, 20.0)]),
    seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**80)),
    y0=st.floats(-150.0, 150.0).filter(lambda y: y != 0.0),
    xs=st.lists(st.floats(-150.0, 100.0), min_size=1, max_size=6),
    platforms=st.lists(_PLATFORM, max_size=4),
    own=st.tuples(st.floats(-150.0, 150.0), st.floats(0.0, 0.99), st.floats(20.0, 160.0),
                  st.floats(30.0, 250.0)),
    v=st.one_of(st.just(0.0), st.floats(0.5, 30.0)),
    T=st.one_of(st.just(0.0), st.floats(0.5, 20.0)),
    trials=st.sampled_from([1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1]),
)
@example(preset=(45.0, 13.0), seed=2**64 + 5, y0=-3.0, xs=[-120.0, -20.0],
         platforms=[(-60.0, 45.0, True, 60.0, 200.0), (40.0, 30.0, False, 90.0, 120.0)],
         own=(10.0, 0.5, 80.0, 150.0), v=12.0, T=10.0, trials=_CHUNK + 1)
def test_compare_policies_trials_equal_per_city_reference(
    preset, seed, y0, xs, platforms, own, v, T, trials
):
    params = GridParams(*preset, 8.0)
    users = [UserMotion(x, y0, v, T) for x in xs]
    # platforms north and south of the street, with finite ranges, and one
    # over the users' own street, whose start link no building can block
    uavs = [Uav(x, y0 + dy if north else y0 - dy, h, r) for x, dy, north, h, r in platforms]
    ox, frac, oh, orange = own
    uavs.append(Uav(ox, y0 + frac * params.mu_s, oh, orange))
    cmp = compare_policies(params, users, uavs, trials, seed)
    ref = _per_city_reference(params, users, uavs, trials, seed, cmp.assignment)
    assert cmp.proposed.values.tolist() == [a for a, _ in ref]
    assert cmp.benchmark.values.tolist() == [b for _, b in ref]


def test_one_platform_per_group_equals_per_city_reference(urban):
    # every link is judged on the blocks of its own box
    users = [UserMotion(x, 0.0, 12.0, 10.0) for x in (-120.0, -20.0)]
    uavs = [Uav(-150.0, 45.0, 60.0), Uav(-60.0, -40.0, 90.0, 140.0), Uav(10.0, 80.0, 40.0),
            Uav(90.0, 30.0, 120.0)]
    trials = _CHUNK + 1
    seeds = [np.random.SeedSequence([3, i]) for i in range(trials)]
    cities = _join_cities([_draw_anchored(np.random.default_rng(q), _law(urban), 0.0, urban.mu_s)
                           for q in seeds], [1] * trials, 0.0, _law(urban))
    grids = [sample_grid_anchored(urban, q, 0.0, urban.mu_s) for q in seeds]
    for m in users:
        g = (m.x0, m.y0)
        assert _point_clear(cities, *point_links(g, uavs)).tolist() == [
            [is_los(grid, g, u) for u in uavs] for grid in grids]
    cmp = compare_policies(urban, users, uavs, trials, 3)
    ref = _per_city_reference(urban, users, uavs, trials, 3, cmp.assignment)
    assert cmp.proposed.values.tolist() == [a for a, _ in ref]
    assert cmp.benchmark.values.tolist() == [b for _, b in ref]


@pytest.mark.parametrize("speed", [0.0, 2.9])
def test_shared_gather_is_masked_to_each_link_box(speed):
    # the walk from x = -7.3 at 2.9 m/s for 7.7 s ends at x_end, and its
    # platform ``above`` hovers over x_end; a tall block's west face lies on
    # the line x = x_end, just outside the box of every link to ``above``,
    # but inside the box of ``east``.  Each link gathers only its own box,
    # and the gather is a prefilter only: the link at x_end runs along that
    # face, which does not block, and the walk's spans leave out the block
    # its box misses (at speed 2.9 the last instant would round to 8.9e-16 s
    # before the end of the walk)
    walk = UserMotion(-7.3, 0.0, 2.9, 7.7)
    x_end = walk.x0 + walk.speed * walk.duration
    walk = replace(walk, x0=x_end, speed=0.0) if speed == 0.0 else walk
    grid = UrbanGrid(GridParams(4.0, 4.0, 8.0), 0, np.array([x_end, x_end + 10.0]),
                     np.array([16.0, 24.0]), np.array([x_end]), np.array([16.0]),
                     np.array([[1000.0]]))
    cities = grid_cities(grid)
    above, east = Uav(x_end, 30.0, 50.0), Uav(x_end + 30.0, 30.0, 50.0)
    g = (x_end, 0.0)
    assert is_los(grid, g, above) and los_time(grid, walk, above) == walk.duration
    assert _point_clear(cities, *point_links(g, [above, east])).tolist() == [
        [True, is_los(grid, g, east)]]
    assert _walk_clear(cities, Pairs.of([walk, walk], [above, east])).tolist() == [
        [walk.duration, los_time(grid, walk, east)]]
    # the user walks to ``above`` in the first row and to ``east`` in the second
    pairs = np.array([[[0]], [[1]]])
    assert _realized(cities, _walks([walk], [above, east]), pairs).tolist() == [
        [walk.duration], [los_time(grid, walk, east)]]


_EDGE_PLATFORMS = {
    # 60 m up with a 50 m range: no user is ever in range, so no chunk has a start link
    "no candidates": [Uav(x, 45.0, 60.0, 50.0) for x in (-150.0, 10.0)],
    "no platforms": [],
    "still and moving": [Uav(-150.0, 45.0, 60.0), Uav(-60.0, -40.0, 90.0, 140.0),
                         Uav(10.0, 80.0, 40.0)],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(_EDGE_PLATFORMS))
def test_empty_and_mixed_chunks_equal_per_city_reference(urban, case):
    # the flat gathers' empty paths (a chunk without start links or walks,
    # no platforms at all) and, across the chunk boundary, still and moving
    # walks judged in one call; every warning is an error
    users = [UserMotion(x, 0.0, v, 10.0) for x, v in ((-120.0, 0.0), (-20.0, 12.0), (60.0, 0.0))]
    uavs = _EDGE_PLATFORMS[case]
    trials = _CHUNK + 1
    cmp = compare_policies(urban, users, uavs, trials, 3)
    ref = _per_city_reference(urban, users, uavs, trials, 3, cmp.assignment)
    assert cmp.proposed.values.tolist() == [a for a, _ in ref]
    assert cmp.benchmark.values.tolist() == [b for _, b in ref]
    # every user with every platform, each walk clipped to its coverage time
    motions = [replace(m, duration=coverage_time(m, u)) for m in users for u in uavs]
    platforms = uavs * len(users)
    law = _law(urban)
    for chunk in _chunks(trials):
        seeds = [np.random.SeedSequence([3, i]) for i in chunk]
        cities = _join_cities([_draw_anchored(np.random.default_rng(q), law, 0.0, urban.mu_s)
                               for q in seeds], [1] * len(chunk), 0.0, law)
        grids = [sample_grid_anchored(urban, q, 0.0, urban.mu_s) for q in seeds]
        assert _walk_clear(cities, Pairs.of(motions, platforms)).tolist() == [
            [los_time(grid, m, u) for m, u in zip(motions, platforms)] for grid in grids]


def test_compare_policies_prefix_stable_across_chunk_boundary(urban):
    users = [UserMotion(x, 0.0, 15.0, 10.0) for x in (-170.0, -55.0)]
    uavs = [Uav(x, 45.0, 100.0, link_range=130.0) for x in (-195.0, -110.0, -80.0, 5.0)]
    long = compare_policies(urban, users, uavs, _CHUNK + 2, seed=4)
    for n in (1, _CHUNK - 1, _CHUNK, _CHUNK + 1):
        short = compare_policies(urban, users, uavs, n, seed=4)
        assert np.array_equal(short.proposed.values, long.proposed.values[:n])
        assert np.array_equal(short.benchmark.values, long.benchmark.values[:n])
    # association draws are never rejected: one city per trial
    for stats in (long.proposed, long.benchmark, long.difference):
        assert stats.draws.tolist() == [1] * (_CHUNK + 2)


def test_compare_policies_stream_is_frozen(urban, monkeypatch):
    # both means of one 60-trial run in two chunks, frozen from the per-draw
    # sampler: a drawer that moves the city streams moves them
    monkeypatch.setattr(oracle, "_CHUNK", 32)
    users = [UserMotion(x, 0.0, 15.0, 10.0) for x in (-170.0, -55.0)]
    uavs = [Uav(-150.0, 45.0, 60.0), Uav(-60.0, -40.0, 90.0, 140.0), Uav(10.0, 80.0, 40.0),
            Uav(90.0, 30.0, 120.0)]
    cmp = compare_policies(urban, users, uavs, 60, 3)
    assert cmp.proposed.mean == 18.880481874465023
    assert cmp.benchmark.mean == 16.13301078082126


def test_compare_policies_sums_each_trial_left_to_right(urban):
    # a dozen served users per trial: a pairwise or blocked sum of their clear
    # seconds rounds differently from the user-order sum of ``realized_value``
    users = [UserMotion(-180.0 + 30.0 * i, 0.0, 7.0, 10.0) for i in range(12)]
    uavs = [Uav(m.x0 + dx, 45.0, 60.0) for m in users for dx in (-20.0, 40.0)]
    cmp = compare_policies(urban, users, uavs, 20, seed=2)
    ref = _per_city_reference(urban, users, uavs, 20, 2, cmp.assignment)
    assert cmp.proposed.values.tolist() == [a for a, _ in ref]
    assert cmp.benchmark.values.tolist() == [b for _, b in ref]


def test_compare_policies_edge_cases(urban):
    users = [UserMotion(x, 0.0, 15.0, 10.0) for x in (-40.0, 10.0)]
    uavs = [Uav(x, 45.0, 100.0) for x in (-20.0, 60.0)]
    empty = compare_policies(urban, users, uavs, 0, seed=0)
    assert empty.proposed.n == empty.benchmark.n == empty.difference.n == 0
    assert empty.proposed.draws.tolist() == []
    bare = compare_policies(urban, users, [], 3, seed=0)
    assert bare.assignment.pairs == [None, None]
    assert bare.proposed.values.tolist() == bare.benchmark.values.tolist() == [0.0] * 3
    with pytest.raises(ValueError, match="^no users$"):
        compare_policies(urban, [], uavs, 3, seed=0)
    with pytest.raises(ValueError, match="^trials must be nonnegative, got -1$"):
        compare_policies(urban, users, uavs, -1, seed=0)

