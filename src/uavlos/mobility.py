"""Expected line-of-sight time of moving users over one epoch.

The epoch [0, T] splits into segments on which the first-contact side of the
projected link does not change.  While the contact slides along a building
front line the contact fraction is the constant w/dy, the clear probability
is a pure exponential in time and its integral is closed form.  While the
contact is pinned on a vertical wall the fraction drifts and the integral is
taken with the three point Simpson rule; ``expected_los_piecewise`` reports
each wall segment's gap to composite Simpson on 129 nodes, priced by the same
array pass over the segment cut into pieces.

The epoch expectation weights per-crossing-count plans by a truncated
Poisson law over the number of streets the user passes.  Evaluation is
batched over (user-platform pair x crossing count) rows: ``EpochGeometry``
is the ``env.Pairs`` record of the rows with the city's street width and
height law.  The pairs are cut into the fewest blocks of whole pairs whose
padded layouts hold about CELL_BLOCK corners, near-equal in rows
(``_blocks``); a pair with more rows than a block holds is priced alone,
in equal parts.  The representative layouts of a block are built together
as one padded (row x corner) array (``env.segment_table``), every segment
of every row lands in one flat ``SegmentTable``, face and wall segments are
integrated as arrays that read their row's parameters through
``SegmentTable.row``, every contact of the table is priced in one
``void_rate`` call, and ``np.bincount`` sums them per row and then weights
the block's pairs before the next block is built, so no array but the
returned per-count values spans every row.  The pass returns arrays
(expected times, per-count values, Poisson laws); a pair settled without
pricing (an empty epoch, or a platform over the user's own street) is one
count of weight 1.  One pair (``expected_los_total``, the only builder of
``ExpectedLosResult``) is one block; ``assoc`` prices a whole score matrix
in one block when its layouts fit the budget.
``SegmentTable`` is the only plan type: a single plan, canonical
(``canonical_plan``) or realized (``env.corner_events``), is a table of one
row and goes through the same evaluator.  The Poisson weights start from
the mode, so no factor of exp(-lam v T) can underflow.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .analytic import (
    HeightModel,
    RayleighHeights,
    void_rate,
)
from .env import (
    _FACE,
    _WALL,
    KINDS,
    _any,
    DegenerateGeometryError,
    Pairs,
    SegmentTable,
    Uav,
    UserMotion,
    _front_cross,
    segment_table,
)

SERIES_SWITCH = 1e-8  # |rate * v * t| below this takes the series form
# padded layout corners a block of whole pairs may hold, at (lam v T + 4) per
# row for the largest lam v T.  At 2**11..2**14 a 1000 x 200 urban score
# matrix took 2.60, 1.88, 1.55 and 1.36 s and closed_form's peak RSS rose 0.0,
# 0.55, 1.2 and 2.1 MB (BENCH_pr27.json); 2**12 is the least that prices the
# crowded-street matrix in one block
CELL_BLOCK = 2**12
_SIMPSON_NODES = np.array([[0.0], [0.5], [1.0]])  # fractions of a wall segment
_RESIDUAL_PIECES = 64  # pieces of a wall segment in its dense Simpson reference
_SETTLED = ([1.0], 0.0)  # the law of a pair settled directly: one count, nothing dropped
# most street crossings (lam v T) an epoch priced count by count may expect:
# it prices about lam v T counts of about lam v T corners each, so one urban
# pair just below the bound takes about 9 s of CPU on a 2-core x86 host
MAX_MEAN_CROSSINGS = 4096.0
# largest Poisson rate whose law is built: about 1.05 M terms, 0.45 s of CPU on
# the same host
MAX_EVENT_RATE = 2.0**20


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
class EpochGeometry(Pairs):
    """User-platform pairs (``env.Pairs``) in a city: every user's street is
    ``street_width`` wide, and the city has axis density ``lam`` and
    building heights drawn from ``model``."""

    street_width: float
    lam: float
    model: HeightModel

    pair = classmethod(Pairs.one.__func__)  # (motion, u, street_width, lam, model)


def _wall_contacts(g: Pairs, x, ahead, back):
    """Where the wall-pinned links with the user at x meet their wall,
    elementwise along the last axis of x, whose entries belong to the rows of
    g: the mask of links that meet it, and their contact fractions, spans
    and platform heights (one height for every link when g has one).

    The link meets the wall ahead while the user is west of the platform
    and the wall behind once past it; a missing or unreachable wall, or the
    user under the platform (an infinite or nan fraction), means no contact.
    The contact fraction is taken along the better conditioned axis (y when
    the link runs more across the street than along it).  The caller
    ignores division and overflow warnings: a user under the platform or a
    link along the street divides by zero, a user all but under it
    overflows.
    """
    dx = g.ux - x
    adx, span_y = np.abs(dx), g.uy - g.y0
    s_wall = (np.where(dx > 0, ahead, back) - x) / dx  # where the link meets the wall
    s = np.where(adx < abs(span_y), ((g.y0 + span_y * s_wall) - g.y0) / span_y, s_wall)
    # both fractions in (0, 1]; a nan fails either comparison
    hit = (np.minimum(s_wall, s) > 0.0) & (np.maximum(s_wall, s) <= 1.0)
    height = g.height
    if isinstance(height, np.ndarray):
        height = np.broadcast_to(height, x.shape)[hit]
    return hit, s[hit], (adx + abs(span_y))[hit], height


def _face_integrals(g: Pairs, dx, t_len, base, rate):
    """Exact clear-time integral of each front-line sliding segment, segment
    i starting dx[i] west of the platform of row i of g.

    The contact fraction of a pair is the constant w/dy, so a segment's
    clear probability starts at ``base`` and its void rate ``rate`` holds
    throughout; the probability decays while the user recedes from the
    platform in x and grows while approaching, with an exact split at the
    instant the user passes underneath.
    """
    v = g.speed
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t_star = dx / v
        # a still user has t_star +-inf, or nan right under the platform (taken as 0): base * T
        approach = np.fmin(np.fmax(t_star, 0.0), t_len)  # up to the pass-under instant
        recede = t_len - approach
        toward = -rate
        e1 = expected_los_x_segment(base, toward, v, approach)
        base_mid = p_los_x_segment(np.where(recede > 0.0, approach, 0.0), base, toward, v)
        e2 = expected_los_x_segment(base_mid, rate, v, recede)
    return np.where(base > 0.0, e1 + e2, 0.0)


def _segment_integrals(table: SegmentTable, geom: EpochGeometry) -> np.ndarray:
    """Expected clear seconds of every segment in the table, row r of the
    table priced on row r of geom.

    Faces integrate in closed form, walls by the three point Simpson rule,
    open segments contribute their full length.  Every face has a contact
    at the constant fraction w/dy: its platform is beyond the street's far
    line, as every plan builder checks.  Every contact of the table, the
    faces' fractions and the wall Simpson nodes', is priced in one
    ``model.cdf`` and one ``void_rate`` call, so a generic height law builds
    each distinct height's panels once per table.
    """
    out = table.t_end - table.t_start
    face = (table.kind == _FACE).nonzero()[0]
    fg = geom.take(table.row[face])
    f_dx = fg.ux - (fg.x0 + fg.speed * table.t_start[face])
    wall = (table.kind == _WALL).nonzero()[0]
    wg, w_len = geom.take(table.row[wall]), out[wall]
    w_start = wg.x0 + wg.speed * table.t_start[wall]
    # a node right under the platform meets no wall: clear, the limit on both sides
    x = w_start + wg.speed * (_SIMPSON_NODES * w_len)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        hit, s, span, height = _wall_contacts(wg, x, table.wall_x[wall], table.back_wall_x[wall])
    # the face fractions first (one per face, or one for all when one pair
    # holds for every row), then the wall nodes'
    s = np.concatenate([np.atleast_1d(geom.street_width / fg.dy)[:face.size], s])
    if isinstance(height, np.ndarray):
        height = np.concatenate([fg.height, height])
    f = geom.model.cdf(height * s)
    rate = void_rate(s, geom.lam, geom.model, height)
    n = s.size - span.size
    base = f[:n] * np.exp(rate[:n] * (np.abs(f_dx) + abs(fg.dy)))
    out[face] = _face_integrals(fg, f_dx, out[face], base, rate[:n])
    clear = np.empty(x.shape)
    clear.fill(1.0)
    clear[hit] = f[n:] * np.exp(rate[n:] * span)
    out[wall] = (w_len / 6.0) * (clear[0] + 4.0 * clear[1] + clear[2])
    return out


def expected_los_piecewise(table: SegmentTable, geom: EpochGeometry, detail: bool = False):
    """Expected clear seconds over the whole epoch of a one-row segment table,
    priced on the one pair of geom.

    Front-line segments integrate in closed form from a freshly evaluated
    start probability; wall segments take the 3 point Simpson rule; open
    segments contribute their full length.  The sum is the same
    ``np.bincount`` that ``expected_los_total`` takes per count, so both
    agree bit for bit.  With ``detail`` a list of (kind, t_start, t_end,
    contribution, simpson residual) rows comes back alongside the total: a
    wall segment's residual is its gap to composite Simpson on 129 nodes,
    the same pass over the segment cut into 64 pieces; other kinds have 0.
    Raises DegenerateGeometryError for a table with a face segment unless
    the platform is beyond the street's far line, as every plan builder
    checks: such a face has no contact.
    """
    if (table.kind == _FACE).any() and _any(geom.dy <= geom.street_width):
        raise DegenerateGeometryError("platform not beyond the street's far line")
    contrib = _segment_integrals(table, geom)
    total = float(np.bincount(table.row, weights=contrib, minlength=1)[0])
    if not detail:
        return total
    # each wall segment cut into n equal pieces, all priced in one pass:
    # their sum is composite Simpson on 2n + 1 nodes
    n = _RESIDUAL_PIECES
    wall = np.flatnonzero(table.kind == _WALL)
    t0, t1 = table.t_start[wall], table.t_end[wall]
    edges = t0[:, None] + (t1 - t0)[:, None] * (np.arange(n + 1) / n)
    each = wall.repeat(n)
    pieces = SegmentTable(table.row[each], table.kind[each], edges[:, :-1].ravel(),
                          edges[:, 1:].ravel(), table.wall_x[each], table.back_wall_x[each])
    dense = np.bincount(np.arange(wall.size).repeat(n), weights=_segment_integrals(pieces, geom),
                        minlength=wall.size)
    resid = np.zeros(contrib.size)
    resid[wall] = np.abs(contrib[wall] - dense)
    kinds = [KINDS[k] for k in table.kind.tolist()]
    return total, list(zip(kinds, table.t_start.tolist(), table.t_end.tolist(), contrib.tolist(),
                           resid.tolist()))


# -- crossing-count marginalization -------------------------------------------


def _truncated_pmf(mu: float, epsilon: float) -> tuple[list[float], float]:
    """Poisson(mu) pmf on 0..N and the mass past N, for the smallest N whose tail
    mass past N is at most epsilon.

    The terms start at the mode with weight 1, follow the ratio recurrence
    outwards (until they fall far below epsilon above the mode) and are
    normalized by their sum, so no factor exp(-mu) can underflow however
    large mu is.  Tail masses are summed from the far end, free of the
    cancellation in 1 - (mass up to N).  The callers check 0 < epsilon < 1.
    """
    if not 0.0 <= mu <= MAX_EVENT_RATE:  # NaN fails here too
        raise ValueError(f"event rate must be finite and nonnegative, at most "
                         f"{MAX_EVENT_RATE:.0f}, got {mu!r}")
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

    Raises ValueError unless 0 < epsilon < 1 and 0 <= lam v T <= MAX_EVENT_RATE.
    """
    if not 0.0 < epsilon < 1.0:  # NaN fails here too
        raise ValueError("epsilon must be in (0, 1)")
    return len(_truncated_pmf(lam * v * T, epsilon)[0]) - 1


def _canonical_table(mu_b: float, mu_s: float, pairs: Pairs, street_width: float,
                     counts: np.ndarray) -> SegmentTable:
    """Representative segment plans on a street ``street_width`` wide, row r
    for counts[r] crossings on row r of pairs.

    The columns of a layout are an arithmetic progression with the mean
    period.  Each row takes the column range its own walk needs, and rows
    are padded to the widest by continuing their progressions: surplus
    columns fall outside the epoch and change nothing.  A row with no
    crossings, or a still or empty walk, has one face along the whole line:
    its contact never leaves it.  Raises DegenerateGeometryError unless
    every row's platform is beyond the street's far line.
    """
    w = street_width
    if _any(pairs.dy <= w):
        raise DegenerateGeometryError("platform not beyond the street's far line")
    moving = counts > 0
    still = (pairs.speed == 0.0) | (pairs.duration == 0.0)
    if _any(still):
        moving &= np.logical_not(still)
    g = pairs.take(moving)
    dy = g.dy
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
    cols = int((k_hi - k_lo).max(initial=0.0)) + 3
    west = np.empty((len(counts), cols))
    west.fill(math.inf)
    west[moving] = first_west[:, None] + period * (k_lo[:, None] + np.arange(-1, cols - 1))
    east = west + mu_b
    west[:, 0][~moving] = -math.inf  # no crossings: one face along the whole line
    return segment_table(west, east, pairs, w)


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
    Zero crossings, or a still or empty walk, means the contact never leaves
    its face.  Raises DegenerateGeometryError, at any crossing count, unless
    the platform is beyond the street's far line.
    """
    if crossings < 0:
        raise ValueError("crossing count must be nonnegative")
    return _canonical_table(mu_b, mu_s, Pairs.one(motion, u), street_width, np.array([crossings]))


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
    expand into one row per crossing count, priced on their canonical
    layouts in blocks of whole pairs (``_blocks``, where a settled pair's
    one row counts too); each block is weighted before the next, and the
    weights are computed once per distinct lam v T.
    Raises ValueError unless 0 < epsilon < 1, and when a pair to price has
    lam v T above MAX_MEAN_CROSSINGS.
    """
    if not 0.0 < epsilon < 1.0:  # NaN fails here too
        raise ValueError("epsilon must be in (0, 1)")
    T = np.asarray(geom.duration, dtype=float).reshape(-1)
    mu = geom.lam * geom.speed * T
    settled = (T == 0.0) | (geom.dy <= geom.street_width)
    priced = ~settled
    rates = set(mu[priced].tolist())
    top = max(rates, default=0.0)
    if top > MAX_MEAN_CROSSINGS:
        raise ValueError(f"an epoch expects {top:g} street crossings (lam v T), "
                         f"more than the {MAX_MEAN_CROSSINGS:g} priced")
    pmfs = {m: _truncated_pmf(m, epsilon) for m in rates}
    laws = [_SETTLED if s else pmfs[m] for m, s in zip(mu.tolist(), settled.tolist())]
    sizes = [len(w) for w, _ in laws]
    ends = list(itertools.accumulate(sizes, initial=0))  # pair k's counts: ends[k]:ends[k + 1]
    starts = np.array(ends[:-1], dtype=int)
    per_count = np.empty(ends[-1])
    expected = np.empty(len(T))
    # a layout spans about lam v T mean periods of its walk, plus margins
    cap = max(1, int(CELL_BLOCK // (top + 4.0)))
    for lo, hi, step in _blocks(ends, max(sizes, default=0), cap):
        pair = np.arange(lo, hi).repeat(sizes[lo:hi])
        values = T[pair]  # a settled pair's one count: its whole epoch
        live = priced[pair].nonzero()[0]
        for k in range(0, len(live), step):
            rows = live[k:k + step]
            p = pair[rows]
            g = EpochGeometry(*geom.take(p), geom.street_width, geom.lam, geom.model)
            table = _canonical_table(params.mu_b, params.mu_s, g, geom.street_width,
                                     rows - (starts[p] - ends[lo]))
            values[rows] = np.bincount(table.row, weights=_segment_integrals(table, g),
                                       minlength=len(rows))
        weights = np.fromiter(itertools.chain.from_iterable(w for w, _ in laws[lo:hi]), float,
                              len(pair))
        # bincount adds each pair's terms in count order, from 0, as ``sum`` does
        pair -= lo
        expected[lo:hi] = (np.bincount(pair, weights=weights * values, minlength=hi - lo)
                           / np.bincount(pair, weights=weights, minlength=hi - lo))
        per_count[ends[lo]:ends[hi]] = values
    return expected, per_count, laws


def _blocks(ends: list[int], largest: int, cap: int) -> list[tuple[int, int, int]]:
    """(first pair, pair past the last, rows per part) of the fewest blocks
    of consecutive pairs with at most ``cap`` rows, near-equal in rows; pair
    k has rows ends[k]:ends[k + 1], at most ``largest``.  A pair with more
    rows than ``cap`` is a block of its own, priced in equal parts.

    For R rows, n = ceil(R / cap): a greedy cut at ceil(R / n) + largest - 1
    rows leaves every block but the last at least ceil(R / n) rows, so at most n
    blocks; where that cut passes ``cap``, greedy at ``cap`` is the fewest.
    """
    n = -(-ends[-1] // cap)
    if n <= 1:
        return [(0, len(ends) - 1, cap)]
    cut = min(cap, -(-ends[-1] // n) + min(largest, cap) - 1)
    out, lo = [], 0
    while lo < len(ends) - 1:
        hi = max(lo + 1, bisect.bisect_right(ends, ends[lo] + cut) - 1)
        rows = ends[hi] - ends[lo]
        out.append((lo, hi, -(-rows // -(-rows // cap))))
        lo = hi
    return out


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
