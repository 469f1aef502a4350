"""Expected line-of-sight time of moving users over one epoch.

The epoch [0, T] splits into segments on which the first-contact side of the
projected link does not change.  While the contact slides along a building
front line the contact fraction is the constant w/dy, the clear probability
is a pure exponential in time and its integral is closed form.  While the
contact is pinned on a vertical wall the fraction drifts and the integral is
taken with the three point Simpson rule (a dense composite rule on the
scalar ``WallSweep`` is kept alongside as the error reference).

The epoch expectation weights per-crossing-count plans by a truncated
Poisson law over the number of streets the user passes.  Evaluation is
batched over (user-platform pair x crossing count) rows: ``EpochGeometry``
holds the walk and platform of each row as arrays, the representative
layouts of a block of rows (at most ROW_BLOCK of them, and fewer for long
walks, so that a block holds about CELL_BLOCK padded corners, which bounds
the memory of long epochs) are built together as one padded (row x corner)
array (``env.segment_table``), every segment of every row lands in one flat
``SegmentTable``, face and wall segments are integrated as arrays that read
their row's parameters through ``SegmentTable.row``, and ``np.bincount``
sums them per row.  The pass returns arrays (expected times, per-count
values, Poisson laws); a pair settled without pricing (an empty epoch, or a
platform over the user's own street) is one count of weight 1.  One pair
(``expected_los_total``, the only builder of ``ExpectedLosResult``) is a
pass over its own rows; ``assoc`` prices a whole score matrix in one pass.
``SegmentTable`` is the only plan type: a single plan, canonical
(``canonical_plan``) or realized (``env.corner_events``), is a table of one
row and goes through the same evaluator.  The Poisson weights start from
the mode, so no factor of exp(-lam v T) can underflow.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .analytic import (
    HeightModel,
    RayleighHeights,
    p_los_contact,
    void_rate,
)
from .env import (
    _FACE,
    _WALL,
    KINDS,
    _all,
    _any,
    DegenerateGeometryError,
    SegmentTable,
    Uav,
    UserMotion,
    _front_cross,
    segment_table,
)

SERIES_SWITCH = 1e-8  # |rate * v * t| below this takes the series form
NUDGE = 1e-9  # relative node shift off a removable singular instant
# (pair x crossing count) rows whose layouts are built and priced together:
# at most ROW_BLOCK, and fewer for long walks, whose layouts have many columns,
# so that a block's padded layout holds about CELL_BLOCK corners at most
ROW_BLOCK = 256
CELL_BLOCK = 2**11
_SIMPSON_NODES = np.array([[0.0], [0.5], [1.0]])  # fractions of a wall segment
_SETTLED = ([1.0], 0.0)  # the law of a pair settled directly: one count, nothing dropped
# most street crossings (lam v T) an epoch priced count by count may expect:
# it prices about lam v T counts of about lam v T corners each, so one urban
# pair just below the bound takes about 9 s of CPU on a 2-core x86 host
MAX_MEAN_CROSSINGS = 4096.0


def p_los_x_segment(t, base, rate, v):
    """Clear probability t seconds into a front-line sliding segment.

    ``base * exp(rate * v * t)``: the form for a user receding from the
    platform, where the void exponent grows linearly with the walked
    distance.  Approaching callers pass the sign through ``rate``.
    """
    return base * np.exp(rate * v * t)


def expected_los_x_segment(base, rate, v, t_len):
    """Integral of base * exp(rate * v * t) over [0, t_len], elementwise.

    Closed form base * (exp(rate v T) - 1) / (rate v); switches to the series
    base * T * (1 + rate v T / 2) when |rate v T| < 1e-8, which covers the
    standing-still case exactly (base * T).
    """
    rv = rate * v
    x = rv * t_len
    series = np.abs(x) < SERIES_SWITCH
    closed = base * np.expm1(x) / np.where(series, 1.0, rv)
    return np.where(series, base * t_len * (1.0 + 0.5 * x), closed)[()]


@dataclass
class EpochGeometry:
    """Everything the segment evaluators need about user-platform pairs, one row each.

    Row r is a user walking in +X from (x0[r], y0[r]) at speed[r] for
    duration[r] seconds and a platform at (ux[r], uy[r]) at height[r].  When
    the fields are scalars instead of arrays, one pair holds for every row.
    Every user's street is ``street_width`` wide, and the city has axis
    density ``lam`` and building heights drawn from ``model``.
    """

    x0: np.ndarray | float
    y0: np.ndarray | float
    speed: np.ndarray | float
    duration: np.ndarray | float
    ux: np.ndarray | float
    uy: np.ndarray | float
    height: np.ndarray | float
    street_width: float
    lam: float
    model: HeightModel

    @classmethod
    def pair(cls, motion: UserMotion, u: Uav, street_width: float, lam: float,
             model: HeightModel) -> "EpochGeometry":
        """One pair, holding for every row."""
        return cls(motion.x0, motion.y0, motion.speed, motion.duration, u.x, u.y, u.height,
                   street_width, lam, model)

    @classmethod
    def of(cls, motions: list[UserMotion], uavs: list[Uav], street_width: float, lam: float,
           model: HeightModel) -> "EpochGeometry":
        """Row r pairs motions[r] with uavs[r]."""
        walks = np.array([(m.x0, m.y0, m.speed, m.duration) for m in motions], dtype=float)
        platforms = np.array([(u.x, u.y, u.height) for u in uavs], dtype=float)
        return cls(*walks.reshape(-1, 4).T.copy(), *platforms.reshape(-1, 3).T.copy(),
                   street_width, lam, model)

    def take(self, rows) -> "EpochGeometry":
        """The geometry of the given rows (an index, index array, mask or slice);
        a geometry that holds for every row is its own."""
        if not isinstance(self.x0, np.ndarray):
            return self
        return EpochGeometry(self.x0[rows], self.y0[rows], self.speed[rows], self.duration[rows],
                             self.ux[rows], self.uy[rows], self.height[rows], self.street_width,
                             self.lam, self.model)

    @property
    def dy(self) -> np.ndarray:
        return self.uy - self.y0


@dataclass
class WallSweep:
    """A wall-pinned sweep starting at x_start, local time tau in [0, t_len].

    Which wall the link meets flips when the user passes under the platform's
    x: ahead of it the west corner ``wall_ahead``, behind it the east corner
    ``wall_back``.  A missing wall is +inf ahead and -inf behind, as in
    ``SegmentTable``; a missing or unreachable wall means no contact, so the
    clear probability there is 1, as it is with the user under the platform.
    ``p`` is the scalar reference form of ``_wall_clear``.
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
        # the better conditioned axis, through the contact's y as ``_wall_clear`` rounds it
        s =((self.y0 + dy * s_wall) - self.y0) / dy if abs(dx) < abs(dy) else s_wall
        if not (0.0 < s_wall <= 1.0 and 0.0 < s <= 1.0):
            return 1.0
        return p_los_contact(s, abs(dx) + abs(dy), self.lam, self.model, self.u.height)

    def singular_time(self) -> float:
        """Instant the user passes under the platform's x; nan when standing still."""
        if self.v == 0.0:
            return math.nan
        return (self.u.x - self.x_start) / self.v


def _nudged(node, t_len, t_sing):
    """Shift quadrature nodes off the removable singular instant (nan or inf: none)."""
    eps = NUDGE * t_len
    close = np.abs(node - t_sing) < eps
    if not close.any():
        return node
    shifted = np.where(node + eps <= t_len, node + eps, node - eps)
    return np.where(close, shifted, node)[()]


def _wall_clear(g: EpochGeometry, x, ahead, back):
    """Clear probability of a wall-pinned link with the user at x, elementwise
    along the last axis of x, whose entries belong to the rows of g.

    Array form of ``WallSweep.p``: the wall ahead while the user is west of
    the platform, the wall behind once past it; the contact fraction is
    taken along the better conditioned axis (y when the link runs more
    across the street than along it).
    The caller ignores division warnings: a user under the platform or a
    link along the street divides by zero.
    """
    dx = g.ux - x
    span_y = g.uy - g.y0
    wall = np.where(dx > 0, ahead, np.where(dx < 0, back, math.nan))
    s_wall = (wall - x) / dx  # where the link meets the wall
    s = np.where(np.abs(dx) < abs(span_y), ((g.y0 + span_y * s_wall) - g.y0) / span_y, s_wall)
    hit = (s_wall > 0.0) & (s_wall <= 1.0) & (s > 0.0) & (s <= 1.0)
    p = np.ones(x.shape)
    span = (np.abs(dx) + abs(span_y))[hit]
    height = g.height
    if isinstance(height, np.ndarray):
        height = np.broadcast_to(height, x.shape)[hit]
    p[hit] = p_los_contact(s[hit], span, g.lam, g.model, height)
    return p


def _wall_integrals(geom: EpochGeometry, row, t_start, t_len, ahead, back):
    """Three point Simpson estimate of each wall segment's clear time; segment
    i belongs to row ``row[i]`` of geom."""
    g = geom.take(row)
    x_start = g.x0 + g.speed * t_start
    with np.errstate(divide="ignore", invalid="ignore"):
        t_sing = (g.ux - x_start) / g.speed  # +-inf or nan standing still: no such instant
        nodes = _nudged(_SIMPSON_NODES * t_len, t_len, t_sing)
        p0, p1, p2 = _wall_clear(g, x_start + g.speed * nodes, ahead, back)
    return np.where(t_len > 0.0, (t_len / 6.0) * (p0 + 4.0 * p1 + p2), 0.0)


def _face_integrals(geom: EpochGeometry, row, t_start, t_len):
    """Exact clear-time integral of each front-line sliding segment; segment i
    belongs to row ``row[i]`` of geom.

    The contact fraction of a pair is the constant w/dy, so one pair's
    first-building term and void rate are computed once (the generic height
    law on panels built once per distinct height for the whole call); each
    segment starts from its own static probability, which then decays while
    the user recedes from the platform in x and grows while approaching,
    with an exact split at the instant the user passes underneath.  A
    platform over the user's own street (dy <= w) leaves no contact: always
    clear.
    """
    g = geom.take(row)
    contact = g.dy > g.street_width
    if not _all(contact):
        out = t_len.copy()
        if _any(contact):
            out[contact] = _face_integrals(geom, row[contact], t_start[contact], t_len[contact])
        return out
    s = g.street_width / g.dy
    rate = void_rate(s, g.lam, g.model, g.height)
    v = g.speed
    x_start = g.x0 + v * t_start
    base = g.model.cdf(g.height * s) * np.exp(rate * (np.abs(g.ux - x_start) + abs(g.dy)))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t_star = (g.ux - x_start) / v
        approach = np.minimum(np.maximum(t_star, 0.0), t_len)  # up to the pass-under instant
        recede = t_len - approach
        e1 = expected_los_x_segment(base, -rate, v, approach)
        base_mid = p_los_x_segment(np.where(recede > 0.0, approach, 0.0), base, -rate, v)
        e2 = expected_los_x_segment(base_mid, rate, v, recede)
    out = np.where(base > 0.0, e1 + e2, 0.0)
    still = v == 0.0
    return np.where(still, base * t_len, out) if _any(still) else out


def _segment_integrals(table: SegmentTable, geom: EpochGeometry) -> np.ndarray:
    """Expected clear seconds of every segment in the table, row r of the
    table priced on row r of geom.

    Faces integrate in closed form, walls by the three point Simpson rule,
    open segments contribute their full length.
    """
    out = table.t_end - table.t_start
    face = table.kind == _FACE
    if face.any():
        out[face] = _face_integrals(geom, table.row[face], table.t_start[face], out[face])
    wall = table.kind == _WALL
    if wall.any():
        out[wall] = _wall_integrals(geom, table.row[wall], table.t_start[wall], out[wall],
                                    table.wall_x[wall], table.back_wall_x[wall])
    return out


def expected_los_y_segment(sweep: WallSweep, t_len: float) -> float:
    """Three point Simpson estimate of the wall-segment clear time."""
    u = sweep.u
    geom = EpochGeometry(sweep.x_start, sweep.y0, sweep.v, t_len, u.x, u.y, u.height, math.nan,
                         sweep.lam, sweep.model)
    return float(_wall_integrals(geom, np.zeros(1, dtype=int), np.zeros(1), np.array([t_len]),
                                 np.array([sweep.wall_ahead]), np.array([sweep.wall_back]))[0])


def expected_los_y_segment_reference(
    sweep: WallSweep, t_len: float, nodes: int = 129
) -> float:
    """Composite Simpson on >= 129 nodes, the error reference for the 3 point rule."""
    if t_len <= 0.0:
        return 0.0
    if nodes < 129:
        nodes = 129
    if nodes % 2 == 0:
        nodes += 1
    ts = sweep.singular_time()
    xs = np.linspace(0.0, t_len, nodes)
    ps = np.array([sweep.p(float(_nudged(float(x), t_len, ts))) for x in xs])
    h = t_len / (nodes - 1)
    return float(h / 3.0 * (ps[0] + ps[-1] + 4.0 * ps[1:-1:2].sum() + 2.0 * ps[2:-2:2].sum()))


def simpson_residual(sweep: WallSweep, t_len: float) -> float:
    """Absolute gap between the 3 point rule and the dense reference."""
    dense = expected_los_y_segment_reference(sweep, t_len)
    return abs(expected_los_y_segment(sweep, t_len) - dense)


def expected_los_piecewise(table: SegmentTable, geom: EpochGeometry, detail: bool = False):
    """Expected clear seconds over the whole epoch of a one-row segment table,
    priced on the one pair of geom.

    Front-line segments integrate in closed form from a freshly evaluated
    start probability; wall segments take the 3 point Simpson rule; open
    segments contribute their full length.  The sum is the same
    ``np.bincount`` that ``expected_los_total`` takes per count, so both
    agree bit for bit.  With ``detail`` a list of (kind, t_start, t_end,
    contribution, simpson residual) rows comes back alongside the total.
    """
    contrib = _segment_integrals(table, geom)
    total = float(np.bincount(table.row, weights=contrib, minlength=1)[0])
    if not detail:
        return total
    g = geom.take(0)
    rows = []
    for k, t0, t1, ahead, back, c in zip(
        table.kind.tolist(), table.t_start.tolist(), table.t_end.tolist(),
        table.wall_x.tolist(), table.back_wall_x.tolist(), contrib.tolist(),
    ):
        resid = 0.0
        if k == _WALL:
            sweep = WallSweep(g.x0 + g.speed * t0, g.y0, g.speed, Uav(g.ux, g.uy, g.height),
                              g.lam, g.model, ahead, back)
            resid = simpson_residual(sweep, t1 - t0)
        rows.append((KINDS[k], t0, t1, c, resid))
    return total, rows


# -- crossing-count marginalization -------------------------------------------


def _truncated_pmf(mu: float, epsilon: float) -> tuple[list[float], float]:
    """Poisson(mu) pmf on 0..N and the mass past N, for the smallest N whose tail
    mass past N is at most epsilon.

    The terms start at the mode with weight 1, follow the ratio recurrence
    outwards (until they fall far below epsilon above the mode) and are
    normalized by their sum, so no factor exp(-mu) can underflow however
    large mu is.  Tail masses are summed from the far end, free of the
    cancellation in 1 - (mass up to N).
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must be in (0, 1)")
    if mu < 0:
        raise ValueError("negative event rate")
    mode = math.floor(mu)
    terms = [1.0]
    for n in range(mode, 0, -1):
        terms.append(terms[-1] * (n / mu))
    terms.reverse()
    total = sum(terms)
    n, r = mode, 1.0
    while True:
        n += 1
        r *= mu / n
        if r <= total * epsilon * 2.0**-60:
            break
        terms.append(r)
        total += r
    total = math.fsum(terms)
    pmf = [t / total for t in terms]
    n_max, tail = len(pmf) - 1, 0.0  # tail: the mass past n_max
    while n_max > 0 and tail + pmf[n_max] <= epsilon:
        tail += pmf[n_max]
        n_max -= 1
    return pmf[: n_max + 1], tail


def poisson_truncation_count(lam: float, v: float, T: float, epsilon: float) -> int:
    """Smallest N with Poisson(lam v T) mass at least 1 - epsilon on {0..N}.

    Raises ValueError unless 0 < epsilon < 1 and lam v T >= 0.
    """
    return len(_truncated_pmf(lam * v * T, epsilon)[0]) - 1


def _canonical_table(mu_b: float, mu_s: float, geom: EpochGeometry,
                     counts: np.ndarray) -> SegmentTable:
    """Representative segment plans, row r for counts[r] crossings on row r of geom.

    The columns of a layout are an arithmetic progression with the mean
    period.  Each row takes the column range its own walk needs, and rows
    are padded to the widest by continuing their progressions: surplus
    columns fall outside the epoch and change nothing.
    """
    T = geom.duration
    moving = counts > 0
    still = (geom.speed == 0.0) | (T == 0.0)
    if _any(still):
        moving &= np.logical_not(still)
    if not moving.any():
        return SegmentTable.whole_epoch(len(counts), _FACE, T)  # the contact never leaves its face
    g, w = geom.take(moving), geom.street_width
    dy = g.dy
    if _any(dy <= w):
        raise DegenerateGeometryError("platform not beyond the street's far line")
    t_first = g.duration / (counts[moving] + 1.0)
    enter_x = g.x0 + g.speed * t_first
    first_west = g.ux - (g.ux - enter_x) * (dy - w) / dy
    period = mu_b + mu_s

    # the front-line crossing moves east with the user, from xc0 to xc1 up
    # to rounding, which the margin of one column on either side absorbs
    xc0 = _front_cross(g.x0, g.y0, g.ux, g.uy, w)
    xc1 = _front_cross(g.x0 + g.speed * g.duration, g.y0, g.ux, g.uy, w)
    k_lo = np.floor((xc0 - first_west) / period)
    k_hi = np.ceil((xc1 - first_west) / period)
    cols = int((k_hi - k_lo).max()) + 3
    west = np.full((len(counts), cols), math.inf)
    west[moving] = first_west[:, None] + period * (k_lo[:, None] + np.arange(-1, cols - 1))
    east = west + mu_b
    west[~moving, 0] = -math.inf  # no crossings: one face along the whole line
    return segment_table(west, east, geom.x0, geom.y0, geom.speed, T, geom.ux, geom.uy, w)


def canonical_plan(
    mu_b: float,
    mu_s: float,
    motion: UserMotion,
    u: Uav,
    street_width: float,
    crossings: int,
) -> SegmentTable:
    """Representative segment plan, a one-row table, for a crossing count.

    The far side of the user's street is laid out as repeating periods of one
    mean street gap followed by one mean building face.  The layout is slid
    so the first face-enter event lands at T / (crossings + 1), the mean
    first arrival of a Poisson process conditioned on that many arrivals in
    the epoch; every corner passage inside the epoch then becomes an event.
    Zero crossings means the contact never leaves its face.
    """
    if crossings < 0:
        raise ValueError("crossing count must be nonnegative")
    geom = EpochGeometry.pair(motion, u, street_width, math.nan, None)  # a layout reads no heights
    return _canonical_table(mu_b, mu_s, geom, np.array([crossings]))


@dataclass
class ExpectedLosResult:
    """Crossing-count marginalized expectation and its ingredients.

    One ``per_count`` value and weight per crossing count; a pair settled
    without pricing is one count of weight 1, worth its whole epoch.
    ``dropped_mass`` is the Poisson mass past the truncation count, which is
    1 - sum(weights) in exact arithmetic; it is summed over the tail itself.
    ``expected_time`` renormalizes the kept weights.
    """

    expected_time: float
    truncation_count: int
    per_count: list[float]
    weights: list[float]
    epsilon: float
    dropped_mass: float = 0.0


def _expected_los(params, geom: EpochGeometry, epsilon: float) -> tuple:
    """The expected time of every pair of geom (streets as wide as the mean),
    the per-count values of all pairs as one flat array, pair after pair, and
    each pair's truncated Poisson law (weights, dropped mass).

    An empty epoch or a platform over the user's own street is settled
    directly: one count of weight 1, worth its whole epoch.  The other pairs
    expand into one row per crossing count, priced a block at a time on
    their canonical layouts; the weights are computed once per distinct lam v T.
    Raises ValueError when a pair to price has lam v T above MAX_MEAN_CROSSINGS.
    """
    T = np.asarray(geom.duration, dtype=float).reshape(-1)
    mu = geom.lam * geom.speed * T
    settled = (T == 0.0) | (geom.dy <= geom.street_width)
    rates = set(mu[~settled].tolist())
    if max(rates, default=0.0) > MAX_MEAN_CROSSINGS:
        raise ValueError(f"an epoch expects {max(rates):g} street crossings (lam v T), "
                         f"more than the {MAX_MEAN_CROSSINGS:g} priced")
    pmfs = {m: _truncated_pmf(m, epsilon) for m in rates}
    laws = [_SETTLED if s else pmfs[m] for m, s in zip(mu.tolist(), settled.tolist())]
    sizes = np.array([len(w) for w, _ in laws], dtype=int)
    starts = sizes.cumsum() - sizes
    pair = np.arange(len(T)).repeat(sizes)
    per_count = T[pair]  # a settled pair's one count: its whole epoch
    live = (~settled)[pair].nonzero()[0]
    # a layout spans about lam v T (the keys of pmfs) mean periods of its walk, plus margins
    step = max(1, min(ROW_BLOCK, int(CELL_BLOCK // (max(pmfs, default=0.0) + 4.0))))
    for lo in range(0, len(live), step):
        rows = live[lo:lo + step]
        g, c = geom.take(pair[rows]), rows - starts[pair[rows]]
        table = _canonical_table(params.mu_b, params.mu_s, g, c)
        per_count[rows] = np.bincount(table.row, weights=_segment_integrals(table, g),
                                      minlength=len(c))
    weights = np.fromiter(itertools.chain.from_iterable(w for w, _ in laws), float, len(pair))
    # bincount adds each pair's terms in count order, from 0, as ``sum`` does
    expected = (np.bincount(pair, weights=weights * per_count, minlength=len(T))
                / np.bincount(pair, weights=weights, minlength=len(T)))
    return expected, per_count, laws


def expected_los_total(
    params,
    motion: UserMotion,
    u: Uav,
    epsilon: float = 1e-3,
    model: HeightModel | None = None,
) -> ExpectedLosResult:
    """Expected clear seconds over [0, T], marginalized over crossing counts.

    ``params`` supplies mu_b, mu_s, sigma and the derived axis density; the
    user's street is as wide as the mean street width.  Each count is
    priced on its canonical representative layout; this is the one-pair
    case of the batched pass that ``assoc`` runs over a whole score matrix.
    """
    m = RayleighHeights(params.sigma) if model is None else model
    geom = EpochGeometry.pair(motion, u, params.mu_s, params.lam, m)
    expected, per_count, ((weights, dropped),) = _expected_los(params, geom, epsilon)
    return ExpectedLosResult(expected.item(), len(weights) - 1, per_count.tolist(),
                             list(weights), epsilon, dropped)
