"""Per-city references for the chunk passes, one city and one link at a time.

The box query reads each axis's run of bands with two ``searchsorted``
calls, a link is judged on the blocks of its box by a slab test of its own,
a walk's clear seconds are summed from its intervals, and the
nearest-in-sight policy and the realized value loop over users and
platforms.  The passes in ``env``, ``oracle`` and ``assoc`` make every
number from flat arrays of many cities and links; the tests hold them equal
to these, bit for bit.
"""

from dataclasses import replace

import numpy as np

from uavlos.assoc import Assignment, _candidates
from uavlos.env import Pairs, Uav, UrbanGrid, UserInBuildingError, UserMotion
from uavlos.oracle import _blocked_spans, _merged_spans, coverage_time


def blocks_overlapping(grid: UrbanGrid, x_lo: float, x_hi: float, y_lo: float, y_hi: float):
    """(west, east, south, north, height) of the blocks whose footprints
    share more than an edge with the axis-aligned box, column by column."""
    cw, ce = grid.building_columns()
    rs, rn = grid.building_rows()
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
            grid.block_heights[i0:i1, j0:j1].ravel())


def is_los(grid: UrbanGrid, g: tuple[float, float], u: Uav) -> bool:
    """Whether the link from g to u is clear, judged on the blocks of its box."""
    gx, gy = g
    if grid.is_inside_building(gx, gy):
        raise UserInBuildingError(f"ground point ({gx}, {gy}) is inside a building")
    west, east, south, north, height = blocks_overlapping(
        grid, min(gx, u.x), max(gx, u.x), min(gy, u.y), max(gy, u.y)
    )
    return not _blocks(west, east, south, north, height, g, u).any()


def _blocks(west, east, south, north, height, g, u: Uav) -> np.ndarray:
    """Per block, whether it blocks the link from g to u: the ground segment
    crosses the footprint on a stretch of positive length, not only a face
    or a corner, and the block reaches the link's height where the segment
    enters it.  The package's ``_blocking`` tests the same; this copy stays
    apart from it, so a fault in one shows against the other."""
    fracs = []
    for lo, hi, start, end in ((west, east, g[0], u.x), (south, north, g[1], u.y)):
        run = end - start
        if run == 0.0:  # inside the slab at every fraction or at none
            inside = (lo < start) & (start < hi)
            fracs.append((np.where(inside, -np.inf, np.inf), np.where(inside, np.inf, -np.inf)))
        else:
            with np.errstate(over="ignore"):
                a, b = (lo - start) / run, (hi - start) / run
            fracs.append((np.minimum(a, b), np.maximum(a, b)))
    (x_in, x_out), (y_in, y_out) = fracs
    s_in, s_out = np.maximum(x_in, y_in), np.minimum(x_out, y_out)
    return ((s_in < s_out) & (s_out > 0.0) & (s_in < 1.0)
            & (height >= u.height * np.clip(s_in, 0.0, 1.0)))


def los_time(grid: UrbanGrid, motion: UserMotion, u: Uav) -> float:
    """Clear seconds of the walk: ``oracle.los_time`` on the box query and
    ``is_los`` above, for a walk line on a street."""
    T = motion.duration
    if T <= 0.0:
        return 0.0
    if motion.speed == 0.0:
        return T if is_los(grid, (motion.x0, motion.y0), u) else 0.0
    p = Pairs.one(motion, u)
    start, end, hit = _blocked_spans(*blocks_overlapping(grid, *p.box), p)
    start, end = _merged_spans(start[hit], end[hit], T)
    return float(sum(b - a for a, b in zip([0.0, *end.tolist()], [*start.tolist(), T]) if b > a))


def assign_nearest_los(users: list[UserMotion], uavs: list[Uav], grid: UrbanGrid) -> Assignment:
    """Users in id order each take the nearest free platform in range that
    ``is_los`` above finds clear at the start of the walk."""
    pairs, taken = [], set()
    for m, cand in zip(users, _candidates(users, uavs)):
        clear = [k for k in cand if is_los(grid, (m.x0, m.y0), uavs[k])]
        k = next((k for k in clear if k not in taken), None)
        taken.add(k)
        pairs.append(k)
    return Assignment(pairs)


def realized_value(assignment: Assignment, grid: UrbanGrid, users: list[UserMotion],
                   uavs: list[Uav]) -> float:
    """Clear seconds of every served user's walk, truncated to its platform's
    range, added in user order."""
    total = 0.0
    for j, k in assignment.assigned():
        u = uavs[k]
        horizon = coverage_time(users[j], u)
        if horizon <= 0.0:
            continue
        total += los_time(grid, replace(users[j], duration=horizon), u)
    return total
