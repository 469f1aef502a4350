"""Expected line-of-sight time of a moving user over one epoch.

The epoch [0, T] splits into segments on which the first-contact side of the
projected link does not change.  While the contact slides along a building
front line the contact fraction is the constant w/dy, the clear probability
is a pure exponential in time and its integral is closed form.  While the
contact is pinned on a vertical wall the fraction drifts and the integral is
taken with the three point Simpson rule (a dense composite rule on the
scalar ``WallSweep`` is kept alongside as the error reference).

The epoch expectation weights per-crossing-count plans by a truncated
Poisson law over the number of streets the user passes.  Evaluation is
batched: the representative layouts of a block of crossing counts (a fixed
COUNT_BLOCK of them, which bounds the memory of long epochs) are built
together as one padded (count x corner) array (``env.segment_table``), every
segment of every count lands in one flat ``SegmentTable``, face and wall
segments are integrated as arrays, and ``np.bincount`` sums them per count.
``SegmentTable`` is the only plan type: a single plan, canonical
(``canonical_plan``) or realized (``env.corner_events``), is a table of one
row and goes through the same evaluator.  The Poisson weights start from
the mode, so no factor of exp(-lam v T) can underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import (
    HeightModel,
    RayleighHeights,
    p_los_contact,
    p_los_static,
    void_rate,
    wall_contact,
)
from .env import (
    _FACE,
    _WALL,
    KINDS,
    DegenerateGeometryError,
    SegmentTable,
    Uav,
    UserMotion,
    _front_cross,
    segment_table,
)

SERIES_SWITCH = 1e-8  # |rate * v * t| below this takes the series form
NUDGE = 1e-9  # relative node shift off a removable singular instant
COUNT_BLOCK = 32  # crossing counts whose layouts are built and priced together
_SIMPSON_NODES = np.array([[0.0], [0.5], [1.0]])  # fractions of a wall segment


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
    """Everything the segment evaluators need about one user-platform pair."""

    motion: UserMotion
    u: Uav
    street_width: float
    lam: float
    model: HeightModel

    @property
    def dy(self) -> float:
        return self.u.y - self.motion.y0


@dataclass
class WallSweep:
    """A wall-pinned sweep starting at x_start, local time tau in [0, t_len].

    Which wall the link meets flips when the user passes under the platform's
    x: ahead of it the west corner ``wall_ahead``, behind it the east corner
    ``wall_back``.  A missing wall is +inf ahead and -inf behind, as in
    ``SegmentTable``; a missing or unreachable wall means no contact, so the
    clear probability there is 1.  ``p`` is the scalar reference form, built
    on ``p_los_static``.
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
        wall = self.wall_ahead if self.u.x > x_t else self.wall_back
        # no contact when the wall is out of reach or the user is under the platform
        c = wall_contact((x_t, self.y0), self.u, wall)
        if c is None:
            return 1.0
        return p_los_static((x_t, self.y0), self.u, None, self.lam, self.model, contact=c)

    def singular_time(self) -> float:
        """Instant the user passes under the platform's x; nan when standing still."""
        if self.v == 0.0:
            return math.nan
        return (self.u.x - self.x_start) / self.v


def _nudged(node, t_len, t_sing):
    """Shift quadrature nodes off the removable singular instant (nan: none)."""
    eps = NUDGE * t_len
    shifted = np.where(node + eps <= t_len, node + eps, node - eps)
    return np.where(np.abs(node - t_sing) < eps, shifted, node)[()]


def _wall_clear(u: Uav, y0: float, lam: float, model: HeightModel, x, ahead, back):
    """Clear probability of a wall-pinned link with the user at x, elementwise.

    Array form of ``WallSweep.p``: the wall ahead while the user is west of
    the platform, the wall behind once past it; the contact fraction is
    taken along the better conditioned axis, as ``contact_ratio`` does.
    """
    dx = u.x - x
    span_y = u.y - y0
    wall = np.where(dx > 0, ahead, np.where(dx < 0, back, math.nan))
    with np.errstate(divide="ignore", invalid="ignore"):
        s_wall = (wall - x) / dx  # where the link meets the wall
        s = s_wall
        if span_y != 0.0:
            s = np.where(np.abs(dx) < abs(span_y), ((y0 + span_y * s_wall) - y0) / span_y, s_wall)
    hit = (s_wall > 0.0) & (s_wall <= 1.0) & (s > 0.0) & (s <= 1.0)
    p = np.ones(x.shape)
    p[hit] = p_los_contact(s[hit], np.abs(dx[hit]) + abs(span_y), lam, model, u.height)
    return p


def _wall_integrals(u: Uav, y0: float, v: float, lam: float, model: HeightModel,
                    x_start, t_len, ahead, back):
    """Three point Simpson estimate of each wall segment's clear time."""
    t_sing = (u.x - x_start) / v if v != 0.0 else math.nan
    nodes = _nudged(_SIMPSON_NODES * t_len, t_len, t_sing)
    p0, p1, p2 = _wall_clear(u, y0, lam, model, x_start + v * nodes, ahead, back)
    return np.where(t_len > 0.0, (t_len / 6.0) * (p0 + 4.0 * p1 + p2), 0.0)


def _face_integrals(geom: EpochGeometry, t_start, t_len):
    """Exact clear-time integral of each front-line sliding segment.

    The contact fraction is the constant w/dy, so the first-building term and
    the void rate are computed once; each segment starts from its own static
    probability, which then decays while the user recedes from the platform
    in x and grows while approaching, with an exact split at the instant the
    user passes underneath.
    """
    m, u = geom.motion, geom.u
    if geom.dy <= geom.street_width:
        return t_len.copy()  # no contact: always clear
    s = geom.street_width / geom.dy
    rate = void_rate(s, geom.lam, geom.model, u.height)
    x_start = m.x0 + m.speed * t_start
    base = geom.model.cdf(u.height * s) * np.exp(rate * (np.abs(u.x - x_start) + abs(geom.dy)))
    if m.speed == 0.0:
        return base * t_len
    with np.errstate(over="ignore", invalid="ignore"):
        t_star = (u.x - x_start) / m.speed
        approach = np.minimum(np.maximum(t_star, 0.0), t_len)  # up to the pass-under instant
        recede = t_len - approach
        e1 = expected_los_x_segment(base, -rate, m.speed, approach)
        base_mid = p_los_x_segment(np.where(recede > 0.0, approach, 0.0), base, -rate, m.speed)
        e2 = expected_los_x_segment(base_mid, rate, m.speed, recede)
    return np.where(base > 0.0, e1 + e2, 0.0)


def _segment_integrals(table: SegmentTable, geom: EpochGeometry) -> np.ndarray:
    """Expected clear seconds of every segment in the table.

    Faces integrate in closed form, walls by the three point Simpson rule,
    open segments contribute their full length.
    """
    m = geom.motion
    out = table.t_end - table.t_start
    face = table.kind == _FACE
    if face.any():
        out[face] = _face_integrals(geom, table.t_start[face], out[face])
    wall = table.kind == _WALL
    if wall.any():
        out[wall] = _wall_integrals(
            geom.u, m.y0, m.speed, geom.lam, geom.model,
            m.x0 + m.speed * table.t_start[wall], out[wall],
            table.wall_x[wall], table.back_wall_x[wall],
        )
    return out


def expected_los_y_segment(sweep: WallSweep, t_len: float) -> float:
    """Three point Simpson estimate of the wall-segment clear time."""
    return float(_wall_integrals(
        sweep.u, sweep.y0, sweep.v, sweep.lam, sweep.model, np.array([sweep.x_start]),
        np.array([t_len]), np.array([sweep.wall_ahead]), np.array([sweep.wall_back]),
    )[0])


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
    return abs(expected_los_y_segment(sweep, t_len) - expected_los_y_segment_reference(sweep, t_len))


def expected_los_piecewise(table: SegmentTable, geom: EpochGeometry, detail: bool = False):
    """Expected clear seconds over the whole epoch of a one-row segment table.

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
    m = geom.motion
    rows = []
    for k, t0, t1, ahead, back, c in zip(
        table.kind.tolist(), table.t_start.tolist(), table.t_end.tolist(),
        table.wall_x.tolist(), table.back_wall_x.tolist(), contrib.tolist(),
    ):
        resid = 0.0
        if k == _WALL:
            sweep = WallSweep(m.x0 + m.speed * t0, m.y0, m.speed, geom.u, geom.lam,
                              geom.model, ahead, back)
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


def _canonical_table(
    mu_b: float,
    mu_s: float,
    motion: UserMotion,
    u: Uav,
    street_width: float,
    counts: np.ndarray,
) -> SegmentTable:
    """Representative segment plans of several crossing counts, row i for counts[i].

    The columns of every layout are an arithmetic progression with the mean
    period, so one common column range, wide enough for each count, serves
    them all; surplus columns fall outside the epoch and change nothing.
    """
    T = motion.duration
    rows = len(counts)
    if motion.speed == 0.0 or T == 0.0 or not counts.any():
        return SegmentTable.whole_epoch(rows, _FACE, T)  # the contact never leaves its face
    dy = u.y - motion.y0
    if dy <= street_width:
        raise DegenerateGeometryError("platform not beyond the street's far line")
    moving = counts > 0
    t_first = T / (counts[moving] + 1.0)
    enter_x = motion.x0 + motion.speed * t_first
    first_west = u.x - (u.x - enter_x) * (dy - street_width) / dy
    period = mu_b + mu_s

    xc0 = _front_cross(motion.x0, motion.y0, u, street_width)
    xc1 = _front_cross(motion.x0 + motion.speed * T, motion.y0, u, street_width)
    k_min = np.floor((min(xc0, xc1) - first_west) / period).min() - 1
    k_max = np.ceil((max(xc0, xc1) - first_west) / period).max() + 1
    west = np.full((rows, int(k_max - k_min) + 1), math.inf)
    west[moving] = first_west[:, None] + period * np.arange(k_min, k_max + 1, dtype=float)
    east = west + mu_b
    west[~moving, 0] = -math.inf  # zero crossings: one face along the whole line
    return segment_table(west, east, motion, u, street_width)


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
    return _canonical_table(mu_b, mu_s, motion, u, street_width, np.array([crossings]))


@dataclass
class ExpectedLosResult:
    """Crossing-count marginalized expectation and its ingredients.

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
    priced on its canonical representative layout, COUNT_BLOCK counts at a
    time.
    """
    w = params.mu_s
    m = RayleighHeights(params.sigma) if model is None else model
    lam = params.lam
    T = motion.duration
    geom = EpochGeometry(motion, u, w, lam, m)

    if T == 0.0:
        return ExpectedLosResult(0.0, 0, [], [], epsilon)
    if u.y - motion.y0 <= w:
        # platform over the user's own street: the projection never leaves it
        return ExpectedLosResult(T, 0, [T], [1.0], epsilon)

    weights, dropped = _truncated_pmf(lam * motion.speed * T, epsilon)
    n_max = len(weights) - 1
    per_count = np.empty(n_max + 1)
    for first in range(0, n_max + 1, COUNT_BLOCK):
        counts = np.arange(first, min(first + COUNT_BLOCK, n_max + 1))
        table = _canonical_table(params.mu_b, params.mu_s, motion, u, w, counts)
        per_count[counts] = np.bincount(
            table.row, weights=_segment_integrals(table, geom), minlength=len(counts)
        )
    per_count = per_count.tolist()
    wsum = sum(weights)
    expected = sum(wt * e for wt, e in zip(weights, per_count)) / wsum
    return ExpectedLosResult(expected, n_max, per_count, weights, epsilon, dropped)
