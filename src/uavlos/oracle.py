"""Ground-truth link blockage by direct geometry.

Everything here works from the sampled city itself: a link is clear when no
building on the ground-projected segment reaches the link's height where the
segment enters its footprint.  For a walk the blocked instants of each block
come in closed form: the walker moves along its street, so a block's y-slab
and its height fix the window of link fractions where the link could meet
it, and the link point at any fixed fraction moves linearly in time, so the
block blocks on exactly one interval, bounded by the instants the window's
two ends cross the block's west and east edges.  All blocks are solved at
once as arrays and the clear intervals are the complement of their union.
None of it reuses the closed-form machinery, so it can referee it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import (
    DegenerateGeometryError,
    GridParams,
    Uav,
    UrbanGrid,
    UserInBuildingError,
    UserMotion,
    _anchored_rest,
    _band,
    _draw_columns,
    _front_cross,
    _slab_fracs,
)


def _blocking(west, east, south, north, height, gx, gy, u: Uav) -> np.ndarray:
    """The static blockage test of ``is_los`` per block, elementwise over broadcast shapes."""
    sx_lo, sx_hi = _slab_fracs(west, east, gx, u.x - gx)
    sy_lo, sy_hi = _slab_fracs(south, north, gy, u.y - gy)
    s_in = np.maximum(sx_lo, sy_lo)
    s_out = np.minimum(sx_hi, sy_hi)
    crossed = (s_in < s_out) & (s_out > 0.0) & (s_in < 1.0)
    return crossed & (height >= u.height * np.clip(s_in, 0.0, 1.0))


def is_los(grid: UrbanGrid, g: tuple[float, float], u: Uav) -> bool:
    """True when the straight link from ground point g to the platform is clear.

    A building blocks the link when the ground-projected segment crosses its
    footprint and the building height reaches the link height at the entry
    point; a graze at exactly the link height counts as blocked.
    """
    gx, gy = g
    if grid.is_inside_building(gx, gy):
        raise UserInBuildingError(f"ground point ({gx}, {gy}) is inside a building")
    west, east, south, north, height = grid.blocks_overlapping(
        min(gx, u.x), max(gx, u.x), min(gy, u.y), max(gy, u.y)
    )
    if len(west) == 0:
        return True
    return not bool(_blocking(west, east, south, north, height, gx, gy, u).any())


def _edge_times(edge: np.ndarray, s: np.ndarray, motion: UserMotion, u: Uav) -> np.ndarray:
    """When the link point at fraction s reaches x = edge, elementwise.

    The point sits at (1 - s) x(t) + s u.x = u.x + (1 - s)(x(t) - u.x).  At
    s = 1 it stands still at u.x, and the time is the limit from s < 1: the
    walker reaching u.x when the edge is at u.x, never (+inf) past an edge
    east of u.x and always (-inf) past one west of it.
    """
    d = edge - u.x
    gap = 1.0 - s
    limit = np.where(d == 0.0, 0.0, np.copysign(np.inf, d))
    offset = np.divide(d, gap, out=limit, where=gap > 0.0)
    return (u.x - motion.x0 + offset) / motion.speed


def los_intervals(grid: UrbanGrid, motion: UserMotion, u: Uav) -> list[tuple[float, float]]:
    """Maximal clear intervals of the walk, in time order; touching blockages merge.

    The walker keeps y = y0, so each block's y-slab and height give a fixed
    window [s_a, s_b] of link fractions where the link can meet it: s_a is
    the slab entry (at least 0), s_b the slab exit capped at 1 and at h/H, so
    a graze at exactly the link height counts.  The link point at a fixed
    fraction s < 1 moves east with the walker, so the block blocks from the
    first instant either end of the window reaches its west edge until the
    last instant either end leaves its east edge.
    """
    T = motion.duration
    if T <= 0.0:
        return []
    kind, _, _, _ = grid.band_at("y", motion.y0)
    if kind != "street":
        raise UserInBuildingError(f"walk line y = {motion.y0} lies in a building band")
    v = motion.speed
    if v == 0.0:
        return [(0.0, T)] if is_los(grid, (motion.x0, motion.y0), u) else []
    x_end = motion.x0 + v * T
    west, east, south, north, height = grid.blocks_overlapping(
        min(motion.x0, x_end, u.x),
        max(motion.x0, x_end, u.x),
        min(motion.y0, u.y),
        max(motion.y0, u.y),
    )
    sy_lo, sy_hi = _slab_fracs(south, north, motion.y0, u.y - motion.y0)
    s_a = np.maximum(sy_lo, 0.0)
    s_b = np.minimum(np.minimum(sy_hi, 1.0), height / u.height)
    # the window must be nonempty and the footprint crossed on a stretch of
    # positive length strictly between the walker and the platform
    meet = (s_a <= s_b) & (s_a < 1.0) & (sy_hi > 0.0) & (sy_lo < sy_hi) & (west < east)
    t = _edge_times(np.array([west, west, east, east]), np.array([s_a, s_b, s_a, s_b]), motion, u)
    start = np.minimum(t[0], t[1])
    end = np.maximum(t[2], t[3])
    hit = meet & (end > 0.0) & (start < T)
    start, end = start[hit], end[hit]
    order = np.argsort(start)
    start = np.maximum(start[order], 0.0)
    end = np.maximum.accumulate(np.minimum(end[order], T))
    # clear between the running end of the blockages so far and the next start
    lo = np.concatenate([[0.0], end]).tolist()
    hi = np.concatenate([start, [T]]).tolist()
    return [(a, b) for a, b in zip(lo, hi) if b > a]


def los_time(grid: UrbanGrid, motion: UserMotion, u: Uav) -> float:
    """Clear seconds over the walk, from the exact interval engine."""
    return float(sum(b - a for a, b in los_intervals(grid, motion, u)))


def los_time_sampled(
    grid: UrbanGrid, motion: UserMotion, u: Uav, samples: int = 4096
) -> float:
    """Midpoint-sampled clear seconds; slow cross-check for the interval engine.

    Each sample is judged exactly as ``is_los`` judges it: every block the
    walk's box query returns is kept for the samples whose own box it
    overlaps, so all samples are tested in one (sample x block) array.
    """
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
    gx = gx[:, None]
    near = (east > np.minimum(gx, u.x)) & (west < np.maximum(gx, u.x))
    blocked = near & _blocking(west, east, south, north, height, gx, gy, u)
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
    """Per-trial values of a Monte Carlo run with the usual summaries."""

    values: np.ndarray

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


def _start_contact_x(gx: float, gy: float, u: Uav, w: float) -> float | None:
    """Where the start-of-walk link crosses the street's far line, if it does."""
    if u.y - gy <= w:
        return None
    return _front_cross(gx, gy, u, w)


def _trial_grid(
    params: GridParams,
    seed: int,
    trial: int,
    y_anchor: float,
    contact_x: float | None,
) -> UrbanGrid:
    """The first city over seeds [seed, trial, attempt], attempt = 0, 1, ..., with a
    building band at contact_x (the first city when contact_x is None).

    Cities come out exactly as ``sample_grid_anchored`` draws them, with the
    anchored street as wide as the mean street width, but a city is drawn past
    its X points only when those cover the contact.  Raises
    DegenerateGeometryError before any draw when the contact lies outside the
    region's [x_lo, x_hi), where no building band can reach, and after 1000
    rejected draws otherwise.
    """
    x_lo, x_hi, _, _ = params.box
    if contact_x is not None and not x_lo <= contact_x < x_hi:
        raise DegenerateGeometryError(
            f"the start contact at x = {contact_x:g} lies outside the region "
            f"[{x_lo:g}, {x_hi:g})"
        )
    for attempt in range(1000):
        ss = np.random.SeedSequence([seed, trial, attempt])
        rng = np.random.default_rng(ss)
        xp, xs = _draw_columns(params, rng)
        if contact_x is None or _band(xp, xs, contact_x)[0] == "building":
            return _anchored_rest(params, ss, rng, xp, xs, y_anchor, params.mu_s)
    raise DegenerateGeometryError(
        f"no building band covered the start contact at x = {contact_x:g} in 1000 city draws"
    )


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
    a run keeps its prefix.
    """
    w = params.mu_s
    cx = _start_contact_x(motion.x0, motion.y0, u, w) if require_contact else None
    vals = np.empty(trials)
    for i in range(trials):
        grid = _trial_grid(params, seed, i, motion.y0, cx)
        vals[i] = los_time(grid, motion, u)
    return TrialStats(vals)


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
    the contact building existing unless ``require_contact`` is off.
    """
    w = params.mu_s
    cx = _start_contact_x(g[0], g[1], u, w) if require_contact else None
    vals = np.empty(trials)
    for i in range(trials):
        grid = _trial_grid(params, seed, i, g[1], cx)
        vals[i] = 1.0 if is_los(grid, g, u) else 0.0
    return TrialStats(vals)
