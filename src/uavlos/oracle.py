"""Ground-truth link blockage by direct geometry.

Everything here works from the sampled city itself: a link is clear when no
building on the ground-projected segment reaches the link's height where the
segment enters its footprint.  For a walk the blocked instants of each block
come in closed form: the walker moves along its street, so a block's y-slab
and its height fix the window of link fractions where the link could meet it,
and the link point at any fixed fraction moves linearly in time, so the block
blocks on exactly one interval, bounded by the instants the window's two ends
cross the block's west and east edges.  All blocks are solved at once as arrays
and the clear intervals are the complement of their union.  One referee,
``_walk_clear``, applies the same algebra to a whole chunk of sampled cities
and any number of walks at once, and ``_point_clear`` any number of links at
an instant, each on the blocks of its own box (``env._link_blocks``, the one
box query): the Monte Carlo runners judge their one walk or link with them,
``assoc`` every walk and start link of a chunk, and ``is_los`` is
``_point_clear`` on the grid's one city.  Touching a footprint's face or
corner does not block, while reaching exactly the link height does, so the
box query is a prefilter only: every verdict is the same on any superset of
a link's blocks.
None of it reuses the closed-form machinery, so it can referee it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import (
    DegenerateGeometryError,
    GridParams,
    Pairs,
    Uav,
    UrbanGrid,
    UserInBuildingError,
    UserMotion,
    _check_finite,
    _Cities,
    _draw_cities,
    _front_cross,
    _link_blocks,
    _slab_fracs,
)


def _blocking(west, east, south, north, height, gx, gy, ux, uy, uh) -> np.ndarray:
    """The static blockage test of ``is_los`` per block, elementwise over broadcast shapes."""
    sx_lo, sx_hi = _slab_fracs(west, east, gx, ux - gx)
    sy_lo, sy_hi = _slab_fracs(south, north, gy, uy - gy)
    s_in = np.maximum(sx_lo, sy_lo)
    s_out = np.minimum(sx_hi, sy_hi)
    crossed = (s_in < s_out) & (s_out > 0.0) & (s_in < 1.0)
    return crossed & (height >= uh * np.clip(s_in, 0.0, 1.0))


def is_los(grid: UrbanGrid, g: tuple[float, float], u: Uav) -> bool:
    """True when the straight link from ground point g to the platform is clear.

    A building blocks the link when the ground-projected segment crosses its
    footprint and the building height reaches the link height at the entry
    point; a graze at exactly the link height counts as blocked, while a
    segment touching only a face or a corner of the footprint does not.  This
    is ``_point_clear`` on the grid's one city.  Raises ValueError unless g
    is finite.
    """
    _check_finite(*g)
    link = np.array([[g[0]], [g[1]], [u.x], [u.y], [u.height]], dtype=float)
    return bool(_point_clear(grid.cities, *link)[0, 0])


def _edge_times(edge: np.ndarray, s: np.ndarray, p: Pairs) -> np.ndarray:
    """At [i, j], when the link point at fraction s[j] reaches x = edge[i],
    elementwise over the axes after the first, for the walks of p.

    The point sits at (1 - s) x(t) + s ux = ux + (1 - s)(x(t) - ux).  At
    s = 1 it stands still at ux, and the time is the limit from s < 1: the
    walker reaching ux when the edge is at ux, never (+inf) past an edge
    east of ux and always (-inf) past one west of it.
    """
    d = (edge - p.ux)[:, None]
    gap = 1.0 - s
    limit = np.where(d == 0.0, 0.0, np.copysign(np.inf, d))
    # in place from here: a fresh (edge x end x city x walk x block)
    # temporary can come on fresh pages, a page fault each
    t = np.divide(d, gap, out=np.repeat(limit, len(s), axis=1), where=gap > 0.0)
    t += p.ux - p.x0
    t /= p.speed
    return t


def _blocked_spans(west, east, south, north, height, p: Pairs):
    """(start, end, hit): the instants each block blocks the walk of p,
    elementwise, and whether that span reaches into (0, T).

    The walker keeps y = y0, so each block's y-slab and height give a fixed
    window [s_a, s_b] of link fractions where the link can meet it: s_a is
    the slab entry (at least 0), s_b the slab exit capped at 1 and at h/H, so
    a graze at exactly the link height counts.  The link point at a fixed
    fraction s < 1 moves east with the walker, so the block blocks from the
    first instant either end of the window reaches its west edge until the
    last instant either end leaves its east edge.  A block outside the walk's
    box could meet it only at t = 0 or T, up to rounding, so it never hits.
    """
    x_lo, x_hi, _, _ = p.box
    sy_lo, sy_hi = _slab_fracs(south, north, p.y0, p.uy - p.y0)
    s_a = np.maximum(sy_lo, 0.0)
    s_b = np.minimum(np.minimum(sy_hi, 1.0), height / p.height)
    # the window must be nonempty and the footprint crossed on a stretch of
    # positive length strictly between the walker and the platform
    meet = ((s_a <= s_b) & (s_a < 1.0) & (sy_hi > 0.0) & (sy_lo < sy_hi)
            & (west < x_hi) & (east > x_lo) & (west < east))
    (west_a, west_b), (east_a, east_b) = _edge_times(np.array([west, east]),
                                                     np.array([s_a, s_b]), p)
    start = np.minimum(west_a, west_b)
    end = np.maximum(east_a, east_b)
    return start, end, meet & (end > 0.0) & (start < p.duration)


def _merged_spans(start: np.ndarray, end: np.ndarray, T) -> tuple[np.ndarray, np.ndarray]:
    """Blocked spans along the last axis, for any leading shape, sorted by
    start and clipped to [0, T], each end raised to the latest end so far.

    The clear pieces are then, in time order, from 0 to the first start,
    from each end to the next start, and from the last end to T; a piece
    that does not run forward is empty, and a span with start = end = T adds
    only empty pieces.
    """
    shape = start.shape
    order = np.argsort(start, axis=-1)
    # flat indices into the row-major arrays
    order += (np.arange(math.prod(shape[:-1])) * shape[-1]).reshape(shape[:-1] + (1,))
    start, end = start.ravel()[order], end.ravel()[order]
    return np.maximum(start, 0.0), np.maximum.accumulate(np.minimum(end, T), axis=-1)


def los_intervals(grid: UrbanGrid, motion: UserMotion, u: Uav) -> list[tuple[float, float]]:
    """Maximal clear intervals of the walk, in time order; touching blockages merge.

    Each block blocks on one interval (see ``_blocked_spans``), and the walk
    is clear on the complement of their union.
    """
    T = motion.duration
    if T <= 0.0:
        return []
    kind, _, _, _ = grid.band_at("y", motion.y0)
    if kind != "street":
        raise UserInBuildingError(f"walk line y = {motion.y0} lies in a building band")
    if motion.speed == 0.0:
        return [(0.0, T)] if is_los(grid, (motion.x0, motion.y0), u) else []
    p = Pairs.one(motion, u)
    start, end, hit = _blocked_spans(*grid.blocks_overlapping(*p.box), p)
    start, end = _merged_spans(start[hit], end[hit], T)
    return [(a, b) for a, b in zip([0.0, *end.tolist()], [*start.tolist(), T]) if b > a]


def los_time(grid: UrbanGrid, motion: UserMotion, u: Uav) -> float:
    """Clear seconds over the walk, from the exact interval engine."""
    return float(sum(b - a for a, b in los_intervals(grid, motion, u)))


def los_time_sampled(
    grid: UrbanGrid, motion: UserMotion, u: Uav, samples: int = 4096
) -> float:
    """Midpoint-sampled clear seconds; slow cross-check for the interval engine.

    Each sample is judged exactly as ``is_los`` judges it, all samples
    against every block the walk's box query returns in one (sample x block)
    array; a block outside a sample's own box does not block it.  Raises
    ValueError unless ``samples`` is a positive int.
    """
    if not (isinstance(samples, (int, np.integer)) and samples > 0):
        raise ValueError(f"samples must be a positive int, got {samples!r}")
    T = motion.duration
    if T <= 0.0:
        return 0.0
    ts = (np.arange(samples) + 0.5) * (T / samples)
    gx = motion.x0 + motion.speed * ts
    gy = motion.y0
    if grid.band_at("y", gy)[0] == "building":
        x = next((x for x in gx.tolist() if grid.is_inside_building(x, gy)), None)
        if x is not None:
            raise UserInBuildingError(f"ground point ({x}, {gy}) is inside a building")
    west, east, south, north, height = grid.blocks_overlapping(
        min(gx[0], u.x), max(gx[-1], u.x), min(gy, u.y), max(gy, u.y)
    )
    blocked = _blocking(west, east, south, north, height, gx[:, None], gy, u.x, u.y, u.height)
    hits = samples - int(np.count_nonzero(blocked.any(axis=1)))
    return T * hits / samples


def coverage_time(motion: UserMotion, u: Uav) -> float:
    """Seconds from the start of the walk until the 3D link range is exceeded.

    Counts only the initial contiguous stretch: once the user leaves the
    range disk the link is considered down even if the walk re-enters later.
    """
    T = motion.duration
    if math.isinf(u.link_range):
        return T
    r2 = u.link_range * u.link_range - u.height * u.height
    if r2 < 0.0:
        return 0.0
    dx0 = motion.x0 - u.x
    dy = motion.y0 - u.y
    if dx0 * dx0 + dy * dy > r2:
        return 0.0
    if motion.speed == 0.0:
        return T
    reach = r2 - dy * dy
    root = math.sqrt(reach) if reach > 0.0 else 0.0
    # walking in +x: in range while x - u.x stays within [-root, root]
    t_exit = (root - dx0) / motion.speed
    return float(min(max(t_exit, 0.0), T))


@dataclass
class TrialStats:
    """Per-trial values of a Monte Carlo run with the usual summaries.

    ``draws`` holds the city draws behind each trial for values refereed on
    drawn cities (accepted draw included), so ``draws.mean() - 1`` is the
    number of rejected draws per accepted trial; None for values from other
    sources.
    """

    values: np.ndarray
    draws: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return float(self.values.mean()) if self.n else math.nan

    @property
    def stderr(self) -> float:
        if self.n < 2:
            return math.nan
        return float(self.values.std(ddof=1) / math.sqrt(self.n))

    def ci95(self) -> tuple[float, float]:
        half = 1.96 * self.stderr
        return (self.mean - half, self.mean + half)


def start_contact_x(params: GridParams, g: tuple[float, float], u: Uav) -> float | None:
    """Where the link from g crosses the far line of a street as wide as the
    mean street width: the building contact the Monte Carlo runners condition
    on, None when the link never leaves that street.

    Raises DegenerateGeometryError when the contact lies outside the region's
    [x_lo, x_hi), where no building band can reach, and ValueError unless g
    is finite.
    """
    _check_finite(*g)
    gx, gy = g
    if u.y - gy <= params.mu_s:
        return None
    cx = _front_cross(gx, gy, u.x, u.y, params.mu_s)
    x_lo, x_hi, _, _ = params.box
    if not x_lo <= cx < x_hi:
        raise DegenerateGeometryError(
            f"the start contact at x = {cx:g} lies outside the region [{x_lo:g}, {x_hi:g})"
        )
    return cx


# trials drawn and refereed per array pass: large enough to spread the fixed
# cost of a pass, small enough that padding every (city, walk) row of spans
# to the one with the most stays cheap
_CHUNK = 256


def _in_bands(lo: np.ndarray, hi: np.ndarray, city: np.ndarray, n: int, c: float) -> np.ndarray:
    """Per city, whether one of its building bands [lo, hi) on an axis holds c;
    ``city`` gives the city of each band, and there are n cities."""
    return np.bincount(city[(lo <= c) & (c < hi)], minlength=n) > 0


def _check_trials(trials: int) -> None:
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")


def _chunks(trials: int) -> list[range]:
    """The trial numbers of each array pass, in order."""
    return [range(first, min(first + _CHUNK, trials)) for first in range(0, trials, _CHUNK)]


def _moving_clear(cities: _Cities, p: Pairs) -> np.ndarray:
    """Clear seconds of the moving walks of p (1-D fields) per (city, walk).

    Each walk's hit spans go into its own row, padded to the row with the
    most by spans (T, T), which add only empty pieces; the clear pieces
    between the merged spans are then summed left to right along each row,
    as ``los_time`` sums its intervals.
    """
    n, walks = len(cities.nx), len(p.x0)
    link, *blocks = _link_blocks(cities, *p.box)
    start, end, hit = _blocked_spans(*blocks, p.take(link % walks))
    link = link[hit]
    count = np.bincount(link, minlength=n * walks)
    col = np.arange(len(link)) - (np.cumsum(count) - count)[link]
    T = np.tile(p.duration, n)[:, None]
    spans = np.tile(T, (2, 1, count.max(initial=0)))
    spans[:, link, col] = start[hit], end[hit]
    start, end = _merged_spans(*spans, T)
    lo = np.concatenate([np.zeros_like(T), end], axis=-1)
    hi = np.concatenate([start, T], axis=-1)
    return np.cumsum(np.where(hi > lo, hi - lo, 0.0), axis=-1)[:, -1].reshape(n, walks)


def _walk_clear(cities: _Cities, pairs: Pairs) -> np.ndarray:
    """Per city (row) and walk (column), the clear seconds of each walk of
    pairs (a record of scalars is one walk): ``los_time`` on that city, bit
    for bit, for a chunk of cities and any number of walks at once.

    Each walk is judged on the blocks of its own box (``_link_blocks``):
    the still walks all at once as links (``_point_clear``), clear for all
    of T or none, and the moving ones all at once by their spans.
    """
    n = len(cities.nx)
    walks = np.array(tuple(pairs), dtype=float).reshape(7, -1)
    _, y0, speed, duration = walks[:4].tolist()
    clear = np.zeros((n, walks.shape[1]))
    live = [k for k, T in enumerate(duration) if T > 0.0]
    for y in dict.fromkeys(y0[k] for k in live):
        if _in_bands(cities.south, cities.north, cities.row_city, n, y).any():
            raise UserInBuildingError(f"walk line y = {y} lies in a building band")
    still = [k for k in live if speed[k] == 0.0]
    moving = [k for k in live if speed[k] != 0.0]
    if still:
        x0, y, _, T, ux, uy, h = walks[:, still]
        clear[:, still] = np.where(_point_clear(cities, x0, y, ux, uy, h), T, 0.0)
    if moving:
        clear[:, moving] = _moving_clear(cities, Pairs(*walks[:, moving]))
    return clear


def _point_clear(cities: _Cities, gx, gy, ux, uy, uh) -> np.ndarray:
    """Per city (row) and link (column), whether the link from ground point
    (gx[k], gy[k]) to the platform at (ux[k], uy[k]) ``uh[k]`` meters up is
    clear: ``is_los`` on that city, for a chunk of cities and any number of
    links at once, each judged on the blocks of its own box and blocked when
    any of them blocks it."""
    n, links = len(cities.nx), len(gx)
    for x, y in dict.fromkeys(zip(gx.tolist(), gy.tolist())):
        if (_in_bands(cities.west, cities.east, cities.col_city, n, x)
                & _in_bands(cities.south, cities.north, cities.row_city, n, y)).any():
            raise UserInBuildingError(f"ground point ({x}, {y}) is inside a building")
    link, *blocks = _link_blocks(cities, np.minimum(gx, ux), np.maximum(gx, ux),
                                 np.minimum(gy, uy), np.maximum(gy, uy))
    k = link % links
    hit = _blocking(*blocks, gx[k], gy[k], ux[k], uy[k], uh[k])
    return np.bincount(link[hit], minlength=n * links).reshape(n, links) == 0


def _run_chunks(params: GridParams, seed: int, trials: int, y_anchor: float,
                contact_x: float | None, referee) -> TrialStats:
    """Trial values of a runner, ``referee`` applied to each chunk of drawn cities."""
    values, draws = [np.empty(0)], [np.empty(0, dtype=int)]
    for chunk in _chunks(trials):
        cities = _draw_cities(params, seed, chunk, y_anchor, contact_x)
        values.append(referee(cities))
        draws.append(cities.draws)
    return TrialStats(np.concatenate(values), np.concatenate(draws))


def monte_carlo_expected_los(
    params: GridParams,
    motion: UserMotion,
    u: Uav,
    trials: int,
    seed: int,
    require_contact: bool = True,
) -> TrialStats:
    """Clear seconds per epoch over freshly drawn cities.

    Cities are drawn conditioned on a street edge at the walk line; the walk
    street's width is pinned to the mean street width so the run estimates
    the expectation at that width rather than averaging the width law
    through the nonlinearity, and by default draws are rejected until a
    building face covers the link's street crossing at the walk start, since
    the closed form conditions on that first contact existing.  Trial i draws
    from seed sequences [seed, i, attempt] regardless of trials, so extending
    a run keeps its prefix.  Each trial's value is ``los_time`` on its city,
    bit for bit, computed for a chunk of cities at once.
    """
    _check_trials(trials)
    cx = start_contact_x(params, (motion.x0, motion.y0), u) if require_contact else None
    return _run_chunks(params, seed, trials, motion.y0, cx,
                       lambda cities: _walk_clear(cities, Pairs.one(motion, u))[:, 0])


def monte_carlo_static_los(
    params: GridParams,
    g: tuple[float, float],
    u: Uav,
    trials: int,
    seed: int,
    require_contact: bool = True,
) -> TrialStats:
    """Clear-at-an-instant indicator over freshly drawn cities (0/1 values).

    Same ensemble as the epoch runner: street edge anchored at the ground
    point, width pinned to the mean street width, and draws conditioned on
    the contact building existing unless ``require_contact`` is off.  Each
    trial's value is ``is_los`` on its city.  Raises ValueError unless g is
    finite.
    """
    _check_trials(trials)
    _check_finite(*g)
    cx = start_contact_x(params, g, u) if require_contact else None
    link = np.array([[g[0]], [g[1]], [u.x], [u.y], [u.height]], dtype=float)
    return _run_chunks(params, seed, trials, g[1], cx,
                       lambda cities: np.where(_point_clear(cities, *link)[:, 0], 1.0, 0.0))
