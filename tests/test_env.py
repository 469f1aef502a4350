import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavlos import env
from uavlos.env import (
    FACE,
    KINDS,
    OPEN,
    WALL,
    DegenerateGeometryError,
    GridParams,
    SegmentTable,
    Uav,
    UrbanGrid,
    UserInBuildingError,
    UserMotion,
    corner_events,
    corner_position,
    sample_grid,
    sample_grid_anchored,
    _FACE,
    _OPEN,
    _WALL,
    _front_cross,
)
from uavlos.analytic import RayleighHeights
from uavlos.mobility import EpochGeometry, _canonical_table, expected_los_piecewise


def test_params_derived_quantities(urban):
    assert urban.lam == 1.0 / 58.0
    assert urban.street_fraction == 13.0 / 58.0
    assert urban.box == (-200.0, 200.0, -200.0, 200.0)


def test_params_validation():
    with pytest.raises(ValueError):
        GridParams(0.0, 13.0, 8.0)
    with pytest.raises(ValueError):
        GridParams(45.0, -1.0, 8.0)
    with pytest.raises(ValueError):
        GridParams(45.0, 13.0, 0.0)


def test_uav_and_motion_validation():
    with pytest.raises(ValueError):
        Uav(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Uav(0.0, 0.0, 10.0, link_range=0.0)
    with pytest.raises(ValueError):
        UserMotion(0.0, 0.0, -1.0, 10.0)
    m = UserMotion(5.0, 1.0, 2.0, 10.0)
    assert m.position(3.0) == (11.0, 1.0)


_BUILDERS = {
    "grid-mu_b": lambda v: GridParams(v, 13.0, 8.0),
    "grid-mu_s": lambda v: GridParams(45.0, v, 8.0),
    "grid-sigma": lambda v: GridParams(45.0, 13.0, v),
    "grid-region": lambda v: GridParams(45.0, 13.0, 8.0, (400.0, v)),
    "uav-x": lambda v: Uav(v, 90.0, 100.0),
    "uav-y": lambda v: Uav(120.0, v, 100.0),
    "uav-height": lambda v: Uav(120.0, 90.0, v),
    "uav-link_range": lambda v: Uav(120.0, 90.0, 100.0, v),
    "motion-x0": lambda v: UserMotion(v, 0.0, 15.0, 10.0),
    "motion-y0": lambda v: UserMotion(0.0, v, 15.0, 10.0),
    "motion-speed": lambda v: UserMotion(0.0, 0.0, v, 10.0),
    "motion-duration": lambda v: UserMotion(0.0, 0.0, 15.0, v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", sorted(_BUILDERS))
def test_non_finite_fields_are_rejected(field, value):
    if (field, value) == ("uav-link_range", math.inf):
        assert _BUILDERS[field](value).link_range == math.inf  # unlimited range
        return
    with pytest.raises(ValueError):
        _BUILDERS[field](value)


def test_sampling_deterministic(urban):
    a = sample_grid(urban, 42)
    b = sample_grid(urban, 42)
    assert np.array_equal(a.x_points, b.x_points)
    assert np.array_equal(a.block_heights, b.block_heights)
    c = sample_grid(urban, 43)
    assert not np.array_equal(a.x_points, c.x_points)


def test_band_queries_consistent(urban):
    g = sample_grid(urban, 0)
    for axis, points, splits in (("x", g.x_points, g.x_splits), ("y", g.y_points, g.y_splits)):
        for k in range(len(points) - 1):
            mid_street = 0.5 * (points[k] + splits[k])
            mid_bldg = 0.5 * (splits[k] + points[k + 1])
            kind, idx, lo, hi = g.band_at(axis, mid_street)
            assert (kind, idx) == ("street", k)
            assert lo <= mid_street < hi
            kind, idx, lo, hi = g.band_at(axis, mid_bldg)
            assert (kind, idx) == ("building", k)
            assert lo <= mid_bldg < hi
    assert g.band_at("x", 1e9) == ("street", -1, -math.inf, math.inf)
    assert g.band_at("y", -1e9)[1] == -1


def test_anchored_street_is_pinned(urban):
    for seed in range(5):
        g = sample_grid_anchored(urban, seed, 0.0, 13.0)
        kind, _, lo, hi = g.band_at("y", 6.0)
        assert kind == "street"
        assert lo == 0.0 and hi == 13.0
        assert g.street_width_at_y(0.0) == 13.0
        assert g.band_at("y", 13.0 + 1e-9)[0] == "building"


def test_anchored_natural_split(urban):
    g = sample_grid_anchored(urban, 3, 0.0, None)
    kind, _, lo, _ = g.band_at("y", 1e-9)
    assert kind == "street" and lo == 0.0


def test_street_width_errors(urban):
    g = sample_grid_anchored(urban, 1, 0.0, 13.0)
    with pytest.raises(UserInBuildingError):
        g.street_width_at_y(14.0)
    with pytest.raises(DegenerateGeometryError):
        g.street_width_at_y(1e9)


def test_rayleigh_heights_scale(urban):
    g = sample_grid(urban, 5)
    h = g.block_heights.ravel()
    assert np.all(h > 0)
    # Rayleigh mean is sigma * sqrt(pi/2); ~50 blocks, loose statistical gate
    assert abs(h.mean() - 8.0 * math.sqrt(math.pi / 2.0)) < 3.0


def test_grid_json_roundtrip(urban):
    g = sample_grid_anchored(urban, 9, 0.0, 13.0)
    h = UrbanGrid.from_json(g.to_json())
    assert h.params == g.params
    assert np.array_equal(h.x_points, g.x_points)
    assert np.array_equal(h.y_points, g.y_points)
    assert np.array_equal(h.x_splits, g.x_splits)
    assert np.array_equal(h.y_splits, g.y_splits)
    assert np.array_equal(h.block_heights, g.block_heights)


def test_grid_json_rejects_unknown_format():
    with pytest.raises(ValueError):
        UrbanGrid.from_json('{"format": "something-else"}')


def test_grid_json_rejects_splits_not_matching_cells():
    # two x cells but one split: the building band of the second cell,
    # [10, 20), would be lost from every query
    g = UrbanGrid(GridParams(4.0, 4.0, 8.0), 0, np.array([0.0, 10.0, 20.0]),
                  np.array([16.0, 24.0]), np.array([5.0, 15.0]), np.array([20.0]),
                  np.array([[30.0], [40.0]]))
    payload = json.loads(g.to_json())
    payload["x_splits"] = [10.0]
    with pytest.raises(ValueError, match="1 band splits for 2 cells"):
        UrbanGrid.from_json(json.dumps(payload))


def _set(k, value):
    def corrupt(a):
        a.flat[k] = value(a)
        return a
    return corrupt


@st.composite
def _unit_ranges(draw):
    """(lo, hi) of a Poisson run: negative, wide, sub-metre, and an anchor
    cell ending a few ulps below the region edge."""
    kind = draw(st.sampled_from(["negative", "wide", "sub-metre", "edge"]))
    if kind == "negative":
        lo = draw(st.floats(-1e4, -1.0))
        return lo, lo + draw(st.floats(0.5, -lo))
    if kind == "wide":
        lo = draw(st.floats(-1e12, 1e12))
        return lo, lo + draw(st.floats(1e4, 1e13))
    if kind == "sub-metre":
        lo = draw(st.floats(-1e4, 1e4))
        return lo, lo + draw(st.floats(1e-9, 1.0))
    hi = draw(st.floats(1.0, 1e4))
    lo = hi
    for _ in range(draw(st.integers(1, 8))):
        lo = math.nextafter(lo, -math.inf)
    return lo, hi


@settings(max_examples=300)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 64), bounds=_unit_ranges(),
       mean_count=st.floats(0.0, 20.0))
def test_unit_variates_map_to_numpys_uniform_bit_for_bit(seed, n, bounds, mean_count):
    # a city draws sorted unit variates and the join maps them: NumPy's
    # uniform computes lo + (hi - lo) * u from the same u, rounding the
    # product and the sum apart.  A NumPy whose C code fuses them into one
    # multiply-add would shift every stream, and fails here
    lo, hi = bounds
    rng, rng2 = np.random.default_rng(seed), np.random.default_rng(seed)
    want = np.sort(rng2.uniform(lo, hi, n))
    assert (lo + (hi - lo) * np.sort(rng.random(n))).tobytes() == want.tobytes()
    lam = mean_count / (hi - lo)
    u = env._ppp(rng, lam, lo, hi)
    want = np.sort(rng2.uniform(lo, hi, rng2.poisson(lam * (hi - lo))))
    assert env._scaled(lo, hi, u).tobytes() == want.tobytes()
    # the contact test maps single points as Python floats
    assert np.array([env._scaled(lo, hi, v) for v in u.tolist()]).tobytes() == want.tobytes()
    assert rng.random() == rng2.random()  # both streams consumed alike


@pytest.mark.parametrize("field, corrupt, piece, corrupt_piece, message", [
    ("x_points", _set(1, lambda a: a[0]), 0, _set(1, lambda a: a[0]),
     "axis points must be strictly increasing"),
    ("y_splits", _set(0, lambda a: a[0] - 100.0), 4, lambda pin: pin - 100.0,
     "band split outside its cell"),
    ("x_splits", lambda a: a[:-1], None, None, "band splits for"),
    ("block_heights", lambda h: h[:, :-1], 5, lambda h: h[:, :-1],
     "height matrix shape does not match cell counts"),
    ("block_heights", _set(0, lambda h: -1.0), 5, _set(0, lambda h: -1.0),
     "negative building height"),
], ids=["points", "split", "split-count", "shape", "height"])
def test_city_invariants_checked_on_every_draw(urban, monkeypatch, field, corrupt, piece,
                                               corrupt_piece, message):
    # the same five checks guard a city built by hand and each city of a
    # chunk.  A draw yields no split but its anchor cell's, so a split count
    # that does not match the cells can arise only in the flat arrays the
    # join builds and checks
    grid = sample_grid_anchored(urban, 0, 0.0, 13.0)
    with pytest.raises(ValueError, match=message):
        replace(grid, **{field: corrupt(getattr(grid, field).copy())})
    good = env._draw_anchored(np.random.default_rng(0), env._law(urban), 0.0, 13.0)
    bad = list(good)
    if piece is None:
        cells = env._cells

        def short(*args):
            lo, hi, split = cells(*args)
            return lo, hi, split[:-1]

        monkeypatch.setattr(env, "_cells", short)
    else:
        bad[piece] = corrupt_piece(np.copy(bad[piece]))
    draws = iter([good, tuple(bad), good])
    monkeypatch.setattr(env, "_draw_anchored", lambda *a: next(draws))
    with pytest.raises(ValueError, match=message):
        env._draw_cities(urban, 0, range(3), 0.0, None)


@pytest.mark.parametrize("width", [3, 2], ids=["seed-trial-attempt", "seed-trial"])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 10**99 + 7],
                         ids=["0", "1", "2^32-1", "2^32", "2^64+5", "100-digit"])
def test_seed_state_matches_numpy_seed_sequence(seed, width):
    # every row equals NumPy's own hash of [seed, trial(, attempt)], and a
    # generator built from it draws what default_rng(SeedSequence) draws
    trial = np.array([0, 1, 2, 255, 256, 999, 2**31, 2**32 - 1])
    columns = (trial, np.arange(len(trial)) * 137 % 1000)[:width - 1]
    state = env._seed_state(seed, *columns)
    assert state.shape == (len(trial), 4) and state.dtype == np.uint64
    for i, words in enumerate(state):
        entropy = [seed, *(int(c[i]) for c in columns)]
        assert np.array_equal(words, np.random.SeedSequence(entropy).generate_state(4, np.uint64))
        expect = np.random.default_rng(np.random.SeedSequence(entropy)).random(8)
        assert np.array_equal(env._generator(words).random(8), expect)


def test_seed_state_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        env._seed_state(-1, np.arange(3))


def test_blocks_overlapping_brute_force(urban):
    g = sample_grid(urban, 2)
    cw, ce = g.building_columns()
    rs, rn = g.building_rows()
    box = (-80.0, 40.0, -10.0, 120.0)
    w, e, s, n, h = g.blocks_overlapping(*box)
    got = sorted(zip(w.tolist(), e.tolist(), s.tolist(), n.tolist(), h.tolist()))
    expect = []
    for i in range(len(cw)):
        for j in range(len(rs)):
            if ce[i] > box[0] and cw[i] < box[1] and rn[j] > box[2] and rs[j] < box[3]:
                expect.append((cw[i], ce[i], rs[j], rn[j], g.block_heights[i, j]))
    assert got == sorted(expect)


def test_blocks_overlapping_x_major_order(urban):
    # the blocks in the order of the index grid (x cell outer, y cell inner)
    g = sample_grid(urban, 2)
    cw, ce = g.building_columns()
    rs, rn = g.building_rows()
    boxes = [(-80.0, 40.0, -10.0, 120.0), (-500.0, 500.0, -500.0, 500.0),
             (float(ce[2]), float(cw[4]), float(rn[1]), float(rs[3])),  # edges touch only
             (0.0, 0.0, 0.0, 0.0), (300.0, 400.0, 0.0, 10.0)]
    for box in boxes:
        ci = np.nonzero((ce > box[0]) & (cw < box[1]))[0]
        rj = np.nonzero((rn > box[2]) & (rs < box[3]))[0]
        ii, jj = np.repeat(ci, len(rj)), np.tile(rj, len(ci))
        expect = (cw[ii], ce[ii], rs[jj], rn[jj], g.block_heights[ii, jj])
        got = g.blocks_overlapping(*box)
        assert all(np.array_equal(a, b) for a, b in zip(got, expect))


def test_is_inside_building(urban):
    g = sample_grid(urban, 2)
    cw, ce = g.building_columns()
    rs, rn = g.building_rows()
    bx, by = 0.5 * (cw[0] + ce[0]), 0.5 * (rs[0] + rn[0])
    assert g.is_inside_building(bx, by)
    sx = 0.5 * (g.x_points[0] + g.x_splits[0])
    assert not g.is_inside_building(sx, by)


@given(
    corner=st.floats(-150.0, 150.0),
    ux=st.floats(-150.0, 150.0),
    uy=st.floats(20.0, 200.0),
    w=st.floats(1.0, 19.0),
)
def test_corner_position_inverts_front_cross(corner, ux, uy, w):
    u = Uav(ux, uy, 100.0)
    pos = corner_position(corner, u.x, u.y, 0.0, w)
    assert math.isclose(_front_cross(pos, 0.0, u.x, u.y, w), corner, abs_tol=1e-6)


def test_corner_position_needs_far_platform():
    with pytest.raises(DegenerateGeometryError):
        corner_position(0.0, 10.0, 5.0, 0.0, 13.0)


# -- segment plans -------------------------------------------------------------


def _assert_valid_plans(t: SegmentTable, rows: int, duration: float) -> None:
    """The invariants every segment plan keeps, checked on each row of a table."""
    assert np.array_equal(np.unique(t.row), np.arange(rows))
    assert np.all(t.row[1:] >= t.row[:-1])
    assert np.all((0 <= t.kind) & (t.kind < 3))
    length = t.t_end - t.t_start
    assert np.all(length > 0.0) if duration > 0.0 else np.all(length == 0.0)
    first = np.flatnonzero(np.r_[True, t.row[1:] != t.row[:-1]])
    last = np.r_[first[1:], len(t.row)] - 1
    assert np.all(np.abs(t.t_start[first]) <= 1e-9)
    assert np.all(np.abs(t.t_end[last] - duration) <= 1e-9)
    same_row = t.row[1:] == t.row[:-1]
    assert np.array_equal(t.t_end[:-1][same_row], t.t_start[1:][same_row])
    # neighbours alternate kind, except two walls tracking different walls
    other_walls = (t.kind[1:] == _WALL) & (
        (t.wall_x[1:] != t.wall_x[:-1]) | (t.back_wall_x[1:] != t.back_wall_x[:-1])
    )
    assert not np.any(same_row & (t.kind[1:] == t.kind[:-1]) & ~other_walls)


_WALKS = dict(
    x0=st.floats(-150.0, 150.0),
    speed=st.floats(0.0, 40.0),
    duration=st.sampled_from([0.0, 0.5, 10.0, 60.0]),
    ux=st.floats(-150.0, 150.0),
    uy=st.floats(35.0, 200.0),
)
# a street width far below float resolution closes every cross street, so the
# faces on either side meet and must merge into one segment
_STREETS = st.sampled_from([10.0, 13.0, 20.0, 1e-300])


@settings(max_examples=200)
@given(
    **_WALKS,
    mu_b=st.floats(20.0, 80.0),
    mu_s=_STREETS,
    counts=st.lists(st.integers(0, 40), min_size=1, max_size=6),
)
def test_canonical_tables_are_valid_plans(x0, speed, duration, ux, uy, mu_b, mu_s, counts):
    m = UserMotion(x0, 0.0, speed, duration)
    geom = EpochGeometry.of([m] * len(counts), [Uav(ux, uy, 100.0)] * len(counts), mu_s,
                            1.0 / (mu_b + mu_s), RayleighHeights(8.0))
    t = _canonical_table(mu_b, mu_s, geom, np.array(counts))
    _assert_valid_plans(t, len(counts), duration)


@settings(max_examples=200)
@given(**_WALKS, mu_s=_STREETS, seed=st.integers(0, 10_000))
def test_corner_event_tables_are_valid_plans(x0, speed, duration, ux, uy, mu_s, seed):
    g = sample_grid_anchored(GridParams(45.0, mu_s, 8.0), seed, 0.0, 13.0)
    m = UserMotion(x0, 0.0, speed, duration)
    _assert_valid_plans(corner_events(g, m, Uav(ux, uy, 100.0)), 1, duration)


def test_still_canonical_tables_keep_one_face_per_row():
    # no row moves, whatever its crossing count: each keeps its face over [0, T]
    ms = [UserMotion(-20.0, 0.0, 0.0, 10.0), UserMotion(5.0, 0.0, 0.0, 3.0),
          UserMotion(0.0, 0.0, 12.0, 0.0)]
    uavs = [Uav(120.0, 90.0, 100.0), Uav(-60.0, 60.0, 80.0), Uav(30.0, 40.0, 50.0)]
    geom = EpochGeometry.of(ms, uavs, 13.0, 1.0 / 58.0, RayleighHeights(8.0))
    t = _canonical_table(45.0, 13.0, geom, np.array([0, 4, 7]))
    assert t.row.tolist() == [0, 1, 2]
    assert t.kind.tolist() == [_FACE] * 3
    assert t.t_start.tolist() == [0.0] * 3
    assert t.t_end.tolist() == [10.0, 3.0, 0.0]


def test_corner_events_without_building_columns_are_one_open_segment():
    params = GridParams(45.0, 13.0, 8.0, (2.0, 60.0))  # too narrow for a building column
    g = sample_grid_anchored(params, 0, 0.0)
    assert g.building_columns()[0].size == 0
    m, u = UserMotion(-1.0, 0.5, 15.0, 10.0), Uav(120.0, 90.0, 100.0)
    t = corner_events(g, m, u)
    assert (t.row.tolist(), t.kind.tolist(), t.t_start.tolist(), t.t_end.tolist()) == (
        [0], [_OPEN], [0.0], [10.0])
    w = g.street_width_at_y(m.y0)
    geom = EpochGeometry.pair(m, u, w, params.lam, RayleighHeights(8.0))
    assert expected_los_piecewise(t, geom) == 10.0
    with pytest.raises(DegenerateGeometryError, match="far line"):
        corner_events(g, m, Uav(120.0, m.y0 + w, 100.0))


def test_corner_events_on_realized_grid(urban):
    motion = UserMotion(-30.0, 0.0, 15.0, 10.0)
    u = Uav(120.0, 90.0, 100.0)
    for seed in range(4):
        g = sample_grid_anchored(urban, seed, 0.0, 13.0)
        t = corner_events(g, motion, u)
        assert np.all(t.row == 0)
        assert t.t_start[0] == 0.0
        assert math.isclose(t.t_end[-1], motion.duration)
        for end, start in zip(t.t_end[:-1].tolist(), t.t_start[1:].tolist()):
            assert math.isclose(end, start)
        assert set(KINDS[k] for k in t.kind.tolist()) <= {FACE, WALL, OPEN}
