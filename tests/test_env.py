import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import grid_cities
from uavlos import env
from uavlos.env import (
    FACE,
    KINDS,
    OPEN,
    WALL,
    DegenerateGeometryError,
    MAX_MEAN_CELLS,
    GridParams,
    Pairs,
    SegmentTable,
    Uav,
    UrbanGrid,
    UserInBuildingError,
    UserMotion,
    _any,
    corner_events,
    corner_position,
    sample_grid_anchored,
    _FACE,
    _OPEN,
    _WALL,
    _draw_cities,
    _front_cross,
    segment_table,
)
from uavlos.analytic import RayleighHeights
from uavlos.cli import PRESETS
from uavlos.mobility import (
    EpochGeometry,
    _canonical_table,
    _segment_integrals,
    expected_los_piecewise,
)
from uavlos.oracle import _walk_clear


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
    with pytest.raises(ValueError, match="two sides"):
        GridParams(45.0, 13.0, 8.0, (400.0, 400.0, 7.0))
    # a city draw allocates its axis points and height matrix at once, so a
    # region of about 1.7e10 mean cells a side is refused before any draw
    for region in [(1e12, 1e12), (5e6, 10.0), (10.0, 5e6), (2e4, 2e4)]:
        with pytest.raises(ValueError, match="mean cells"):
            GridParams(45.0, 13.0, 8.0, region)
    # every preset at the default 400 m region holds far fewer cells
    for _, mu_b, mu_s in PRESETS.values():
        assert (GridParams(mu_b, mu_s, 8.0).lam * 400.0) ** 2 < 100.0 < MAX_MEAN_CELLS


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
    a = sample_grid_anchored(urban, 42, urban.box[2])
    b = sample_grid_anchored(urban, 42, urban.box[2])
    assert np.array_equal(a.x_points, b.x_points)
    assert np.array_equal(a.block_heights, b.block_heights)
    c = sample_grid_anchored(urban, 43, urban.box[2])
    assert not np.array_equal(a.x_points, c.x_points)


def test_band_queries_consistent(urban):
    g = sample_grid_anchored(urban, 0, urban.box[2])
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
    g = sample_grid_anchored(urban, 5, urban.box[2])
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


def _without(payload: dict, key: str) -> dict:
    return {k: v for k, v in payload.items() if k != key}


_BAD_GRIDS = {  # name: (corruption of a dumped grid's payload, field the error names)
    "no params": (lambda p: _without(p, "params"), "params"),
    "no x_points": (lambda p: _without(p, "x_points"), "x_points"),
    "scalar region": (lambda p: {**p, "params": {**p["params"], "region": 400}}, "region"),
    "string mu_b": (lambda p: {**p, "params": {**p["params"], "mu_b": "45"}}, "mu_b"),
    "a list": (lambda p: [p], "format"),
    "three-side region": (lambda p: {**p, "params": {**p["params"], "region": [400, 400, 7]}},
                          "region"),
    "fractional seed": (lambda p: {**p, "seed": 1.7}, "seed"),
    "boolean seed": (lambda p: {**p, "seed": True}, "seed"),
    "nan point": (lambda p: {**p, "y_points": [math.nan] + p["y_points"][1:]}, "y_points"),
    "ragged heights": (lambda p: {**p, "block_heights": [[1.0], [1.0, 2.0]]}, "block_heights"),
    "huge region": (lambda p: {**p, "params": {**p["params"], "region": [1e12, 1e12]}},
                    "region"),
}


@pytest.mark.parametrize("case", sorted(_BAD_GRIDS))
def test_grid_json_refuses_a_malformed_payload_naming_the_field(urban, case):
    corrupt, name = _BAD_GRIDS[case]
    payload = corrupt(json.loads(sample_grid_anchored(urban, 9, 0.0, 13.0).to_json()))
    with pytest.raises(ValueError, match=name):
        UrbanGrid.from_json(json.dumps(payload))


@pytest.mark.parametrize("nx, ny", [(0, 0), (0, 2), (2, 0), (2, 3)])
def test_grid_json_roundtrips_cities_without_cells(nx, ny):
    axis = lambda n: (np.arange(n + 1) * 10.0, np.arange(n) * 10.0 + 4.0)
    (xp, xs), (yp, ys) = axis(nx), axis(ny)
    g = UrbanGrid(GridParams(4.0, 4.0, 8.0), 3, xp, yp, xs, ys, np.ones((nx, ny)))
    h = UrbanGrid.from_json(g.to_json())
    assert h.block_heights.shape == (nx, ny) and h.seed == 3


def _cells_grid(nx: int, ny: int) -> UrbanGrid:
    """nx by ny cells 10 m wide, each split 4 m in; -1 cells is an axis without points."""
    def axis(n):
        return np.arange(n + 1) * 10.0, np.arange(max(n, 0)) * 10.0 + 4.0

    (xp, xs), (yp, ys) = axis(nx), axis(ny)
    shape = (max(nx, 0), max(ny, 0))
    return UrbanGrid(GridParams(4.0, 4.0, 8.0), 0, xp, yp, xs, ys,
                     np.arange(float(shape[0] * shape[1])).reshape(shape))


_GRIDS = {
    "hand": lambda urban: _cells_grid(2, 3),
    "sample_grid": lambda urban: sample_grid_anchored(urban, 42, urban.box[2]),
    "from_json": lambda urban: UrbanGrid.from_json(
        sample_grid_anchored(urban, 9, 0.0, 13.0).to_json()),
    "no x points": lambda urban: _cells_grid(-1, 2),
    "one y point": lambda urban: UrbanGrid.from_json(_cells_grid(3, 0).to_json()),
}


@pytest.mark.parametrize("case", sorted(_GRIDS))
def test_grid_holds_itself_as_a_one_city_chunk(urban, case):
    # however a grid is built, its ``cities`` is the one-city chunk the
    # passes judge, field by field as ``grid_cities`` flattens it
    grid = _GRIDS[case](urban)
    want = grid_cities(grid)
    for f in fields(want):
        got, expected = getattr(grid.cities, f.name), getattr(want, f.name)
        assert got.dtype == expected.dtype and np.array_equal(got, expected), f.name
    box = grid.blocks_overlapping(-math.inf, math.inf, -math.inf, math.inf)
    assert len(box[0]) == grid.block_heights.size


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


@pytest.mark.parametrize("params", [GridParams(mu_b, mu_s, 8.0) for _, mu_b, mu_s in PRESETS.values()]
                         + [GridParams(45.0, 13.0, 8.0, (30.0, 30.0))],
                         ids=[*PRESETS, "30m-region"])
def test_contact_test_matches_the_band_at_its_edges(params):
    # a contact-conditioned draw is accepted exactly when the city drawn from
    # the same stream has a building band at contact_x: on each X point and
    # each split, one float either side of them, below the first point and
    # at or past the last, where the 30 m region often has no cell at all
    law = env._law(params)
    seen = set()
    for seed in range(12):
        grid = sample_grid_anchored(params, seed, 0.0, params.mu_s)
        xp = grid.x_points
        edges = [*xp.tolist(), *grid.x_splits.tolist()]
        contacts = [c for e in edges for c in (e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf))]
        if len(xp):
            contacts += [xp[0] - 1.0, xp[-1] + 1.0, law[2]]
        contacts.append(0.0)
        for c in contacts:
            drawn = env._draw_anchored(np.random.default_rng(seed), law, 0.0, params.mu_s, float(c))
            building = grid.band_at("x", float(c))[0] == "building"
            assert (drawn is not None) == building, (seed, c)
            seen.add(building)
            if building:
                assert np.array_equal(drawn[-1], grid.block_heights)
    assert seen == {True, False}


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
    g = sample_grid_anchored(urban, 2, urban.box[2])
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
    g = sample_grid_anchored(urban, 2, urban.box[2])
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
    g = sample_grid_anchored(urban, 2, urban.box[2])
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
    t = _canonical_table(mu_b, mu_s, geom, mu_s, np.array(counts))
    _assert_valid_plans(t, len(counts), duration)


@settings(max_examples=200)
@given(**_WALKS, mu_s=_STREETS, seed=st.integers(0, 10_000))
def test_corner_event_tables_are_valid_plans(x0, speed, duration, ux, uy, mu_s, seed):
    g = sample_grid_anchored(GridParams(45.0, mu_s, 8.0), seed, 0.0, 13.0)
    m = UserMotion(x0, 0.0, speed, duration)
    _assert_valid_plans(corner_events(g, m, Uav(ux, uy, 100.0)), 1, duration)


@settings(max_examples=200)
@given(**_WALKS, mu_b=st.floats(20.0, 80.0), mu_s=_STREETS,
       counts=st.lists(st.integers(0, 40), min_size=1, max_size=6), seed=st.integers(0, 10_000),
       layout=st.sampled_from(["canonical", "realized", "no columns"]))
@example(x0=0.0, speed=0.0, duration=10.0, ux=120.0, uy=90.0, mu_b=45.0, mu_s=13.0, counts=[0, 3],
         seed=0, layout="canonical")  # a still walk
@example(x0=0.0, speed=15.0, duration=0.0, ux=120.0, uy=90.0, mu_b=45.0, mu_s=13.0, counts=[0, 3],
         seed=0, layout="realized")  # an empty epoch
@example(x0=-1.0, speed=15.0, duration=10.0, ux=120.0, uy=90.0, mu_b=45.0, mu_s=13.0, counts=[0],
         seed=0, layout="no columns")
def test_faces_and_open_segments_track_no_wall(x0, speed, duration, ux, uy, mu_b, mu_s, counts,
                                               seed, layout):
    # segment_table merges neighbours by comparing both walls whatever their
    # kind, which relies on every face and open segment carrying (inf, -inf)
    m, u = UserMotion(x0, 0.0, speed, duration), Uav(ux, uy, 100.0)
    if layout == "canonical":
        pairs = Pairs.of([m] * len(counts), [u] * len(counts))
        t = _canonical_table(mu_b, mu_s, pairs, mu_s, np.array(counts))
    else:
        # a building column needs two X points: in a 1 mm wide region that
        # happens once in about 1e9 draws (in a 2 m one, 48 of 10,001 seeds)
        region = (1e-3, 60.0) if layout == "no columns" else (400.0, 400.0)
        g = sample_grid_anchored(GridParams(mu_b, mu_s, 8.0, region), seed, 0.0, 13.0)
        assert layout == "realized" or g.building_columns()[0].size == 0
        t = corner_events(g, m, u)
    off = t.kind != _WALL
    assert np.all(t.wall_x[off] == math.inf) and np.all(t.back_wall_x[off] == -math.inf)


@pytest.mark.parametrize("mask, holds", [
    (True, True), (False, False), (np.True_, True), (np.False_, False),
    (np.array(True), True), (np.array(False), False),
    (np.array([], dtype=bool), False), (np.zeros((0, 3), dtype=bool), False),
    (np.array([False, True]), True), (np.array([False, False]), False),
    (np.array([[False, False], [False, True]]), True), (np.zeros((2, 2), dtype=bool), False),
])
def test_any_truth_table(mask, holds):
    # a per-row mask, or one truth value for every row, as a Python bool
    got = _any(mask)
    assert type(got) is bool and got is holds


def test_still_canonical_tables_keep_one_face_per_row():
    # no row moves, whatever its crossing count: each keeps its face over [0, T]
    ms = [UserMotion(-20.0, 0.0, 0.0, 10.0), UserMotion(5.0, 0.0, 0.0, 3.0),
          UserMotion(0.0, 0.0, 12.0, 0.0)]
    uavs = [Uav(120.0, 90.0, 100.0), Uav(-60.0, 60.0, 80.0), Uav(30.0, 40.0, 50.0)]
    geom = EpochGeometry.of(ms, uavs, 13.0, 1.0 / 58.0, RayleighHeights(8.0))
    t = _canonical_table(45.0, 13.0, geom, 13.0, np.array([0, 4, 7]))
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
    geom = EpochGeometry.one(m, u, w, params.lam, RayleighHeights(8.0))
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


# one pair: a walk as (x0, its y in street widths, speed, duration), starting
# anywhere or under its platform or ending under it, and its platform as
# (x, dy, height), where dy = 0 puts it on the walk line
def _pairs(dy):
    return st.tuples(
        st.floats(-150.0, 150.0), st.sampled_from([0.0, 0.5]),
        st.one_of(st.just(0.0), st.floats(0.5, 30.0)), st.sampled_from([0.0, 4.0, 10.0]),
        st.sampled_from(["free", "starts under", "ends under"]),
        st.tuples(st.floats(-150.0, 150.0), dy, st.floats(20.0, 150.0)))


def _motion_and_uav(pair, w: float) -> tuple[UserMotion, Uav]:
    x0, off, v, T, start, (ux, dy, h) = pair
    x0 = {"free": x0, "starts under": ux, "ends under": ux - v * T}[start]
    return UserMotion(x0, off * w, v, T), Uav(ux, off * w + dy, h)


@settings(max_examples=100)
@given(pair=_pairs(st.one_of(st.just(0.0), st.floats(15.0, 150.0))),
       others=st.lists(_pairs(st.floats(15.0, 150.0)), min_size=1, max_size=3),
       at=st.integers(0, 3), count=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_a_pair_reads_alike_as_scalars_one_row_or_a_row_of_many(pair, others, at, count, seed):
    # every reader of the record (plans, their integrals, the referee) gives
    # one pair the same results, bit for bit, as a record of scalars, a
    # one-row record and one row of a record of several pairs
    params = GridParams(45.0, 13.0, 8.0)
    w = params.mu_s
    m, u = _motion_and_uav(pair, w)
    rest = [_motion_and_uav(p, w) for p in others]
    r = min(at, len(rest))
    motions, uavs = zip(*rest[:r], (m, u), *rest[r:])
    cities = _draw_cities(params, seed, range(2), 0.0, None)
    west, east = sample_grid_anchored(params, seed, 0.0, w).building_columns()
    results = []
    for p, row in ((Pairs.one(m, u), 0), (Pairs.of([m], [u]), 0), (Pairs.of(motions, uavs), r)):
        rows = np.size(p.x0)
        geom = EpochGeometry(*p, w, params.lam, RayleighHeights(8.0))
        out = [_walk_clear(cities, p)[:, row].tolist()]
        layout = np.tile(west, (rows, 1)), np.tile(east, (rows, 1))
        for plan in (lambda: segment_table(*layout, p, w),
                     lambda: _canonical_table(45.0, w, p, w, np.full(rows, count))):
            try:
                t = plan()
            except DegenerateGeometryError:
                assert u.y - m.y0 <= w
                out.append("beyond the far line")
                continue
            mine = t.row == row
            out.append([getattr(t, f)[mine].tolist() for f in
                        ("kind", "t_start", "t_end", "wall_x", "back_wall_x")])
            out.append(_segment_integrals(t, geom)[mine].tolist())
        results.append(out)
    assert results[0] == results[1] == results[2]
