"""Manhattan-grid city model.

The city is built from two independent one dimensional Poisson point processes,
one per axis, each with density ``lam = 1 / (mu_b + mu_s)``.  Consecutive points
bound a cell; every cell splits into a street band on the low-coordinate side
and a building band on the high side, so streets run the full length of the
region in both directions and buildings occupy the rectangular blocks where two
building bands overlap.  Each block carries one building with a Rayleigh
distributed height.

Distances are meters, times are seconds throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

GRID_FORMAT = "uavlos-grid-v1"


class DegenerateGridError(ValueError):
    """Raised when the requested region cannot hold a street grid."""


class DegenerateGeometryError(ValueError):
    """Raised when a link geometry has no meaningful crossing structure."""


class UserInBuildingError(ValueError):
    """Raised when a ground position sits inside a building footprint."""


@dataclass
class GridParams:
    """City statistics: mean building width, mean street width, height scale.

    ``region`` gives the side lengths of the modeled area, centered on the
    origin, so a 400 x 400 region spans [-200, 200] on both axes.
    """

    mu_b: float
    mu_s: float
    sigma: float
    region: tuple[float, float] = (400.0, 400.0)

    def __post_init__(self) -> None:
        if self.mu_b <= 0 or self.mu_s <= 0:
            raise ValueError("mean widths must be positive")
        if self.sigma <= 0:
            raise ValueError("height scale must be positive")
        if self.region[0] <= 0 or self.region[1] <= 0:
            raise DegenerateGridError("region too small to contain a cell")

    @property
    def lam(self) -> float:
        """Axis point density, one street/building pair per 1/lam meters."""
        return 1.0 / (self.mu_b + self.mu_s)

    @property
    def street_fraction(self) -> float:
        return self.mu_s / (self.mu_b + self.mu_s)

    @property
    def box(self) -> tuple[float, float, float, float]:
        """(x_lo, x_hi, y_lo, y_hi) of the modeled area."""
        hx, hy = self.region[0] / 2.0, self.region[1] / 2.0
        return (-hx, hx, -hy, hy)


@dataclass
class Uav:
    """A static aerial platform at (x, y, height) with a 3D link range."""

    x: float
    y: float
    height: float
    link_range: float = math.inf

    def __post_init__(self) -> None:
        if self.height <= 0:
            raise ValueError("height must be positive")
        if self.link_range <= 0:
            raise ValueError("link range must be positive")


@dataclass
class UserMotion:
    """Ground user walking in the +X direction at constant speed."""

    x0: float
    y0: float
    speed: float
    duration: float

    def __post_init__(self) -> None:
        if self.speed < 0:
            raise ValueError("speed must be nonnegative")
        if self.duration < 0:
            raise ValueError("duration must be nonnegative")

    def position(self, t: float) -> tuple[float, float]:
        return (self.x0 + self.speed * t, self.y0)


FACE = "face"  # first contact slides along a building front line (parallel X)
WALL = "wall"  # first contact pinned on a west wall (parallel Y)
OPEN = "open"  # no contact at all, the link sees no building edge


def _check_cells(lo: np.ndarray, hi: np.ndarray, splits: np.ndarray) -> None:
    """Axis invariants of ``UrbanGrid`` on cells [lo, hi) and their band splits."""
    if len(splits) != len(lo):
        raise ValueError(f"{len(splits)} band splits for {len(lo)} cells")
    if (hi - lo <= 0.0).any():
        raise ValueError("axis points must be strictly increasing")
    if (splits < lo).any() or (splits > hi).any():
        raise ValueError("band split outside its cell")


def _check_shape(x_points: np.ndarray, y_points: np.ndarray, heights: np.ndarray) -> None:
    if heights.shape != (max(len(x_points) - 1, 0), max(len(y_points) - 1, 0)):
        raise ValueError("height matrix shape does not match cell counts")


def _check_heights(heights: np.ndarray) -> None:
    if (heights < 0).any():
        raise ValueError("negative building height")


def _band(points: np.ndarray, splits: np.ndarray, c: float) -> tuple[str, int, float, float]:
    """("street" | "building", cell index, band_lo, band_hi) at c on one axis."""
    if len(points) < 2 or c < points[0] or c >= points[-1]:
        return ("street", -1, -math.inf, math.inf)
    k = int(points.searchsorted(c, "right")) - 1
    if c < splits[k]:
        return ("street", k, float(points[k]), float(splits[k]))
    return ("building", k, float(splits[k]), float(points[k + 1]))


@dataclass
class UrbanGrid:
    """One sampled city: axis points, per-cell band splits, block heights.

    ``x_splits[k]`` is the boundary between the street band and the building
    band inside the cell [x_points[k], x_points[k+1]); same for Y.  Block
    (k, j) is the rectangle x in [x_splits[k], x_points[k+1]) crossed with
    y in [y_splits[j], y_points[j+1]) and has height block_heights[k, j].
    """

    params: GridParams
    seed: int
    x_points: np.ndarray
    y_points: np.ndarray
    x_splits: np.ndarray
    y_splits: np.ndarray
    block_heights: np.ndarray

    def __post_init__(self) -> None:
        for pts, spl in ((self.x_points, self.x_splits), (self.y_points, self.y_splits)):
            _check_cells(pts[:-1], pts[1:], spl)
        _check_shape(self.x_points, self.y_points, self.block_heights)
        _check_heights(self.block_heights)

    # -- band queries ---------------------------------------------------------

    def band_at(self, axis: str, c: float) -> tuple[str, int, float, float]:
        """("street" | "building", cell index, band_lo, band_hi) at coordinate c.

        Outside the sampled point range everything counts as street, cell -1.
        """
        if axis == "x":
            return _band(self.x_points, self.x_splits, c)
        return _band(self.y_points, self.y_splits, c)

    def street_width_at_y(self, y: float) -> float:
        """Width of the street band containing y; errors if y is in a building band."""
        kind, k, lo, hi = self.band_at("y", y)
        if kind != "street":
            raise UserInBuildingError(f"y = {y} lies in a building band")
        if k < 0:
            raise DegenerateGeometryError("y outside the sampled street structure")
        return hi - lo

    def is_inside_building(self, x: float, y: float) -> bool:
        kx = self.band_at("x", x)
        ky = self.band_at("y", y)
        return kx[0] == "building" and ky[0] == "building"

    def building_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """(west edges, east edges) of the vertical building bands."""
        return self.x_splits, self.x_points[1:]

    def building_rows(self) -> tuple[np.ndarray, np.ndarray]:
        return self.y_splits, self.y_points[1:]

    def blocks_overlapping(
        self, x_lo: float, x_hi: float, y_lo: float, y_hi: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Blocks whose footprints share more than an edge with the axis-aligned box.

        Returns (west, east, south, north, height) arrays, one entry per block.
        A prefilter only: a block left out at most touches the box, and the
        slab test finds that a touch blocks no link in the box.
        """
        cw, ce = self.building_columns()
        rs, rn = self.building_rows()
        # edges ascend, so the bands meeting an open interval form one run
        i0, i1 = ce.searchsorted(x_lo, "right"), cw.searchsorted(x_hi)
        j0, j1 = rn.searchsorted(y_lo, "right"), rs.searchsorted(y_hi)
        n, m = i1 - i0, j1 - j0
        if n <= 0 or m <= 0:
            e = np.empty(0)
            return e, e, e, e, e
        return (cw[i0:i1].repeat(m), ce[i0:i1].repeat(m),
                rs[None, j0:j1].repeat(n, axis=0).ravel(),
                rn[None, j0:j1].repeat(n, axis=0).ravel(),
                self.block_heights[i0:i1, j0:j1].ravel())

    # -- serialization --------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "format": GRID_FORMAT,
            # SeedSequence-seeded grids (Monte Carlo trials) serialize as seed 0
            "seed": self.seed if isinstance(self.seed, (int, np.integer)) else 0,
            "params": {
                "mu_b": self.params.mu_b,
                "mu_s": self.params.mu_s,
                "sigma": self.params.sigma,
                "region": list(self.params.region),
            },
            "x_points": self.x_points.tolist(),
            "y_points": self.y_points.tolist(),
            "x_splits": self.x_splits.tolist(),
            "y_splits": self.y_splits.tolist(),
            "block_heights": self.block_heights.tolist(),
        }
        return json.dumps(payload, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "UrbanGrid":
        payload = json.loads(text)
        if payload.get("format") != GRID_FORMAT:
            raise ValueError(f"unknown grid format {payload.get('format')!r}")
        p = payload["params"]
        params = GridParams(p["mu_b"], p["mu_s"], p["sigma"], tuple(p["region"]))
        nx = max(len(payload["x_points"]) - 1, 0)
        ny = max(len(payload["y_points"]) - 1, 0)
        heights = np.asarray(payload["block_heights"], dtype=float).reshape(nx, ny)
        return cls(
            params=params,
            seed=int(payload["seed"]),
            x_points=np.asarray(payload["x_points"], dtype=float),
            y_points=np.asarray(payload["y_points"], dtype=float),
            x_splits=np.asarray(payload["x_splits"], dtype=float),
            y_splits=np.asarray(payload["y_splits"], dtype=float),
            block_heights=heights,
        )


# -- sampling -----------------------------------------------------------------


def _ppp(rng: np.random.Generator, lam: float, lo: float, hi: float) -> np.ndarray:
    """Homogeneous Poisson draws on [lo, hi), sorted."""
    points = rng.uniform(lo, hi, rng.poisson(lam * (hi - lo)))
    points.sort()
    return points


def _splits(points: np.ndarray, f: float) -> np.ndarray:
    """Street/building boundary of each cell, a street fraction f into it."""
    return points[:-1] + f * (points[1:] - points[:-1]) if len(points) >= 2 else np.empty(0)


def _draw_columns(params: GridParams, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """X points and splits, the first draw of every city."""
    x_lo, x_hi, _, _ = params.box
    xp = _ppp(rng, params.lam, x_lo, x_hi)
    return xp, _splits(xp, params.street_fraction)


def sample_grid(params: GridParams, seed: int | np.random.SeedSequence) -> UrbanGrid:
    """Draw one city.  Identical (params, seed) gives a bit-identical grid.

    Draw order is fixed: X count and points, Y count and points, then the
    height matrix row-major over (x cell, y cell).
    """
    rng = np.random.default_rng(seed)
    _, _, y_lo, y_hi = params.box
    xp, xs = _draw_columns(params, rng)
    yp = _ppp(rng, params.lam, y_lo, y_hi)
    ys = _splits(yp, params.street_fraction)
    heights = rng.rayleigh(params.sigma, size=(max(len(xp) - 1, 0), max(len(yp) - 1, 0)))
    return UrbanGrid(params, seed, xp, yp, xs, ys, heights)


def sample_grid_anchored(
    params: GridParams,
    seed: int | np.random.SeedSequence,
    y_anchor: float = 0.0,
    street_width: float | None = None,
) -> UrbanGrid:
    """Draw a city conditioned so a street band starts exactly at ``y_anchor``.

    A cell boundary is pinned at y_anchor (adding one point to a Poisson
    process leaves the law of the rest unchanged), so a user standing at
    y = y_anchor is guaranteed to stand on the low edge of a street.  When
    ``street_width`` is given, that street's width is pinned to it and the
    building band behind keeps its natural width law; otherwise the anchor
    cell is split like any other cell.

    Draw order: X count and points, anchor cell gap, Y points below, Y points
    above, then heights.
    """
    rng = np.random.default_rng(seed)
    return UrbanGrid(params, seed, *_draw_anchored(params, rng, y_anchor, street_width))


def _draw_anchored(
    params: GridParams,
    rng: np.random.Generator,
    y_anchor: float,
    street_width: float | None,
    contact_x: float | None = None,
) -> tuple[np.ndarray, ...] | None:
    """The draws of ``sample_grid_anchored`` from rng, as its (x_points,
    y_points, x_splits, y_splits, block_heights), or None without drawing past
    the X points when contact_x is given and no building band covers it."""
    xp, xs = _draw_columns(params, rng)
    if contact_x is not None and _band(xp, xs, contact_x)[0] != "building":
        return None
    _, _, y_lo, y_hi = params.box
    if not (y_lo <= y_anchor < y_hi):
        raise DegenerateGridError("anchor outside the region")
    f = params.street_fraction
    gap = rng.exponential(1.0 / params.lam)
    if street_width is None:
        w = f * gap
        cell_end = y_anchor + gap
    else:
        if street_width <= 0:
            raise ValueError("street width must be positive")
        w = street_width
        cell_end = y_anchor + w + (1.0 - f) * gap
    # clip the anchor cell at the region edge so the street stays well defined
    cell_end = min(cell_end, y_hi)
    if cell_end - y_anchor <= w:
        w = cell_end - y_anchor
    below = _ppp(rng, params.lam, y_lo, y_anchor)
    above = _ppp(rng, params.lam, cell_end, y_hi) if cell_end < y_hi else np.empty(0)
    yp = np.concatenate([below, [y_anchor, cell_end], above])
    ys = _splits(yp, f)
    # pin the anchor cell's split, cell len(below), to the requested street width
    ys[len(below)] = min(y_anchor + w, cell_end)
    heights = rng.rayleigh(params.sigma, size=(max(len(xp) - 1, 0), len(ys)))
    return xp, yp, xs, ys, heights


@dataclass
class _Cities:
    """Several sampled cities as flat arrays, city after city.

    ``west`` and ``east`` hold every city's building columns (as
    ``UrbanGrid.building_columns`` gives them), ``south`` and ``north`` its
    building rows, and ``heights`` its height matrix row-major.  ``nx`` and
    ``ny`` count the columns and rows of each city, and ``draws`` the city
    draws it took.  ``col_city`` and ``row_city`` give the city of each
    column and row, and ``first_col``, ``first_row`` and ``first_cell`` the
    flat index of each city's first column, row and height.
    """

    west: np.ndarray
    east: np.ndarray
    south: np.ndarray
    north: np.ndarray
    heights: np.ndarray
    nx: np.ndarray
    ny: np.ndarray
    draws: np.ndarray
    col_city: np.ndarray
    row_city: np.ndarray
    first_col: np.ndarray
    first_row: np.ndarray
    first_cell: np.ndarray


def _draw_cities(
    params: GridParams,
    seed: int,
    trials: range,
    y_anchor: float,
    contact_x: float | None,
) -> _Cities:
    """For each trial, the first city over seeds [seed, trial, attempt],
    attempt = 0, 1, ..., with a building band at contact_x (the first city
    when contact_x is None), exactly as ``sample_grid_anchored`` draws it
    with the anchored street as wide as the mean street width.

    The invariants ``UrbanGrid`` checks hold for every city, checked on the
    flat arrays.  Raises DegenerateGeometryError after 1000 rejected draws.
    """
    cities, draws = [], []
    for trial in trials:
        for attempt in range(1000):
            rng = np.random.default_rng(np.random.SeedSequence([seed, trial, attempt]))
            city = _draw_anchored(params, rng, y_anchor, params.mu_s, contact_x)
            if city is not None:
                break
        else:
            raise DegenerateGeometryError(
                f"no building band covered the start contact at x = {contact_x:g} "
                "in 1000 city draws"
            )
        cities.append(city)
        draws.append(attempt + 1)
    return _join_cities(cities, draws)


def _join_cities(cities: list[tuple[np.ndarray, ...]], draws: list[int]) -> _Cities:
    """At least one city drawn by ``_draw_anchored`` joined into flat arrays,
    with the invariants ``UrbanGrid`` checks checked on them; ``draws[i]``
    counts the city draws behind city i."""
    xp, yp, xs, ys, hs = zip(*cities)
    for x, y, h in zip(xp, yp, hs):
        _check_shape(x, y, h)
    west, south = np.concatenate(xs), np.concatenate(ys)
    east, north = np.concatenate([p[1:] for p in xp]), np.concatenate([p[1:] for p in yp])
    _check_cells(np.concatenate([p[:-1] for p in xp]), east, west)
    _check_cells(np.concatenate([p[:-1] for p in yp]), north, south)
    heights = np.concatenate([h.ravel() for h in hs])
    _check_heights(heights)
    nx, ny = np.array([len(x) for x in xs]), np.array([len(y) for y in ys])
    city = np.arange(len(nx))
    return _Cities(west, east, south, north, heights, nx, ny, np.array(draws),
                   np.repeat(city, nx), np.repeat(city, ny), np.cumsum(nx) - nx,
                   np.cumsum(ny) - ny, np.cumsum(nx * ny) - nx * ny)


# -- slab intersection --------------------------------------------------------


def _slab_fracs(lo, hi, start, delta):
    """Per-axis entry/exit fractions of segments through [lo, hi) slabs (broadcasting).

    A segment with no run along the axis is inside a slab only strictly
    between its faces: lying along a face is clear, as grazing a corner is.
    A run so small that a fraction overflows gives it as +-inf, its limit.
    """
    if np.all(delta != 0.0):
        with np.errstate(over="ignore"):
            a = (lo - start) / delta
            b = (hi - start) / delta
        return np.minimum(a, b), np.maximum(a, b)
    # a segment with delta 0 lies inside the slab at every fraction or at none
    inside = (lo < start) & (start < hi)
    still = delta == 0.0
    with np.errstate(over="ignore"):
        a = (lo - start) / np.where(still, 1.0, delta)
        b = (hi - start) / np.where(still, 1.0, delta)
    return (np.where(still, np.where(inside, -np.inf, np.inf), np.minimum(a, b)),
            np.where(still, np.where(inside, np.inf, -np.inf), np.maximum(a, b)))


# -- corner event sweep -------------------------------------------------------


def corner_position(corner_x, ux, uy, y0, street_width: float):
    """User x at which the projected link sweeps onto a front-line corner.

    Similar triangles through the corner at (corner_x, y0 + street_width):
    the ray from the platform at (ux, uy) through the corner meets the user's
    line y = y0 at the returned x.  The user reaches it before reaching
    corner_x itself.  Works elementwise on arrays.
    """
    dy = uy - y0
    if _any(dy <= street_width):
        raise DegenerateGeometryError("platform not beyond the street's far line")
    return ux - (ux - corner_x) * dy / (dy - street_width)


def corner_events(grid: UrbanGrid, motion: UserMotion, u: Uav) -> SegmentTable:
    """Segment plan, a one-row table, for a user walking one realized street.

    The far-side corner set comes from the vertical building bands: west
    corners at the cell splits, east corners at the cell's high boundary.
    Face segments cover the spans where the front-line crossing lies inside a
    building band, wall segments the spans where it lies over a street gap
    (first contact then pinned on the next west wall).
    """
    w = grid.street_width_at_y(motion.y0)
    west, east = grid.building_columns()
    return segment_table(west[None, :], east[None, :], motion.x0, motion.y0, motion.speed,
                         motion.duration, u.x, u.y, w)


KINDS = (FACE, WALL, OPEN)  # SegmentTable.kind indexes this tuple
_FACE, _WALL, _OPEN = range(3)


@dataclass
class SegmentTable:
    """Segment plans of one or more epochs [0, T] as flat arrays, plan by plan.

    A segment is a piece of the epoch over which the first-contact side does
    not change.  ``row`` numbers the plan each segment belongs to and
    ``kind`` indexes ``KINDS``.  Each row tiles [0, T] in time order, and
    neighbouring segments differ in kind, except two walls that track
    different walls.  A wall segment tracks two candidates, because which
    one the link meets depends on the sweep direction: ``wall_x`` is the west
    corner ahead of the front-line crossing (met while the user is west of
    the platform), ``back_wall_x`` the east corner behind it (met once the
    user has passed under the platform's x).  A missing candidate is +inf
    ahead and -inf behind: a link aimed at it never reaches a wall.
    """

    row: np.ndarray
    kind: np.ndarray
    t_start: np.ndarray
    t_end: np.ndarray
    wall_x: np.ndarray
    back_wall_x: np.ndarray

    @classmethod
    def whole_epoch(cls, rows: int, kind: int, duration: float) -> "SegmentTable":
        """One segment of the given kind over [0, duration] in each of ``rows`` plans."""
        return cls(np.arange(rows), np.full(rows, kind), np.zeros(rows), np.full(rows, duration),
                   np.full(rows, math.inf), np.full(rows, -math.inf))


def segment_table(
    west: np.ndarray, east: np.ndarray, x0, y0, speed, duration, ux, uy, street_width: float
) -> SegmentTable:
    """Segment plans of several far-side layouts at once, one per row.

    Row r of ``west`` and ``east`` holds the sorted west and east corners of
    layout r, seen by a user walking in +X from (x0[r], y0[r]) at speed[r]
    for duration[r] seconds, linked to a platform at (ux[r], uy[r]), across a
    street ``street_width`` wide; a scalar in place of any of these arrays
    holds for every row.  Every corner passage inside the epoch is a
    boundary; each piece between boundaries is classified by the front-line
    crossing at its midpoint: on a building face, over a gap (wall segment,
    with the nearest west wall ahead and east wall behind), or past every
    column (open).  Zero-length pieces are dropped, except the one piece of
    an epoch of length 0, and neighbours of the same kind merged; two wall
    pieces merge only when they track the same walls.
    """
    rows, cols = west.shape
    v, T = speed, duration
    if cols == 0:
        if _any(uy - y0 <= street_width):
            raise DegenerateGeometryError("platform not beyond the street's far line")
        return SegmentTable.whole_epoch(rows, _OPEN, T)
    # corners interleave west, east, west, ... and their passages inherit
    # that order; a passage outside (x0, x_end) pins to 0 or T and leaves
    # only zero-length pieces behind, so a user standing still keeps one piece
    corners = np.empty((rows, 2 * cols))
    corners[:, 0::2] = west
    corners[:, 1::2] = east
    col = (slice(None), None)
    pos = corner_position(corners, _at(ux, col), _at(uy, col), _at(y0, col), street_width)
    start, end = _at(x0, col), _at(T, col)
    # a tiny or zero speed overflows or divides only times that get pinned
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        times = np.where(pos <= start, 0.0, np.where(pos >= _at(x0 + v * T, col), end,
                                                     (pos - start) / _at(v, col)))
    if (times[:, 1:] < times[:, :-1]).any():
        times.sort(axis=1)
    bounds = np.empty((rows, 2 * cols + 2))
    bounds[:, 0] = 0.0
    bounds[:, 1:-1] = times
    bounds[:, -1] = T
    keep = bounds[:, 1:] > bounds[:, :-1]
    if _any(T == 0.0):
        keep[:, -1] |= T == 0.0
    row, j = np.nonzero(keep)
    t0, t1 = bounds[:, :-1][keep], bounds[:, 1:][keep]
    xc = _front_cross(_at(x0, row) + _at(v, row) * 0.5 * (t0 + t1), _at(y0, row), _at(ux, row),
                      _at(uy, row), street_width)
    # columns padded with -inf and +inf: column k of a row sits at k + 1
    padded = np.full((2, rows, cols + 2), math.inf)
    padded[:, :, 0] = -math.inf
    padded[0, :, 1:-1] = west
    padded[1, :, 1:-1] = east
    wp, ep = padded.reshape(2, -1)
    # piece j runs between passages j - 1 and j, so its crossing lies in
    # column (j - 1) // 2 up to rounding; k is that column's flat index
    k = row * (cols + 2) + 1 + (j - 1) // 2
    while True:  # step to the last west corner at or below the crossing
        up = wp[k + 1] <= xc
        if not up.any():
            break
        k += up
    while True:
        down = wp[k] > xc
        if not down.any():
            break
        k -= down
    west_k, east_k = wp[k], ep[k]
    face = xc < east_k
    ahead = np.where(face, math.inf, wp[k + 1 - (west_k == xc)])  # first west not below
    back = np.where(face, -math.inf, east_k)
    kind = np.where(face, _FACE, np.where(np.isinf(ahead) & np.isinf(back), _OPEN, _WALL))

    new = np.ones(len(kind), dtype=bool)
    new[1:] = (
        (row[1:] != row[:-1])
        | (kind[1:] != kind[:-1])
        | ((kind[1:] == _WALL) & ((ahead[1:] != ahead[:-1]) | (back[1:] != back[:-1])))
    )
    first = np.flatnonzero(new)
    last = np.concatenate([first[1:], [len(kind)]]) - 1
    return SegmentTable(row[first], kind[first], t0[first], t1[last], ahead[first], back[first])


def _at(a, index):
    """a[index] for an array with one entry per row, a itself for a scalar
    that holds for every row."""
    return a[index] if isinstance(a, np.ndarray) else a


def _any(mask) -> bool:
    """Whether a per-row mask, or one truth value for every row, holds anywhere."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def _all(mask) -> bool:
    """Whether a per-row mask, or one truth value for every row, holds everywhere."""
    return bool(mask.all()) if isinstance(mask, np.ndarray) else bool(mask)


def _front_cross(x_user, y0, ux, uy, street_width: float):
    """X where the link to a platform at (ux, uy) crosses the building front
    line y = y0 + w (elementwise)."""
    return x_user + (ux - x_user) * street_width / (uy - y0)
