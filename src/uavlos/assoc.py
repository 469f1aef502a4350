"""User to platform association policies and their paired evaluation.

Two policies.  The mobility-aware one scores every user/platform pair by the
closed-form expected clear seconds over the epoch (truncated to the time the
walk stays inside the platform's range disk) and assigns greedily from the
best score down, one user per platform.  The benchmark ignores mobility: on
each realized city it gives every user, in id order, the nearest free
platform in 3D distance that is within range and actually clear at the start
of the walk.  Both are scored by realized clear seconds on shared city draws
so their difference is a paired statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import (
    GridParams,
    Pairs,
    Uav,
    UrbanGrid,
    UserMotion,
    _Cities,
    _draw_anchored,
    _generator,
    _join_cities,
    _law,
    _seed_state,
)
from .analytic import RayleighHeights
from .mobility import EpochGeometry, _expected_los
from .oracle import (
    TrialStats,
    _check_trials,
    _chunks,
    _point_clear,
    _walk_clear,
    coverage_time,
)


@dataclass
class Assignment:
    """Platform index per user, None for an unassigned user; one user per platform."""

    pairs: list[int | None]

    def __post_init__(self) -> None:
        used = [k for k in self.pairs if k is not None]
        if len(used) != len(set(used)):
            raise ValueError("a platform is assigned to more than one user")

    def assigned(self) -> list[tuple[int, int]]:
        return [(j, k) for j, k in enumerate(self.pairs) if k is not None]


def _dist3d(m: UserMotion, u: Uav) -> float:
    return math.hypot(m.x0 - u.x, m.y0 - u.y, u.height)


def pair_score(
    params: GridParams,
    motion: UserMotion,
    u: Uav,
    epsilon: float = 1e-3,
) -> float:
    """Expected clear seconds for one pair, over the in-range part of the walk."""
    return _score_pairs(_walks([motion], [u]), params, epsilon)[0][0]


def _walks(users: list[UserMotion], uavs: list[Uav]) -> Pairs:
    """Every user (axis 0) with every platform (axis 1), each walk clipped to
    the time its platform stays in range (``coverage_time``): a pair never
    in range gets an empty walk."""
    motions = [m for m in users for _ in uavs]
    platforms = uavs * len(users)
    walks = np.array(tuple(Pairs.of(motions, platforms)))
    walks[3] = [coverage_time(m, u) for m, u in zip(motions, platforms)]  # the durations
    return Pairs(*walks.reshape(7, len(users), len(uavs)))


def _score_pairs(walks: Pairs, params: GridParams, epsilon: float) -> list[list[float]]:
    """``pair_score`` of every user (row) with every platform (column) of
    ``_walks``, all priced in one batched pass."""
    geom = EpochGeometry(*np.reshape(tuple(walks), (7, -1)), params.mu_s, params.lam,
                         RayleighHeights(params.sigma))
    expected, _, _ = _expected_los(params, geom, epsilon)
    return expected.reshape(walks.x0.shape).tolist()


def _greedy(scores: list[list[float]]) -> Assignment:
    """Greedy assignment from the globally best score down; zero scores never assign."""
    ranked = sorted(
        (-s, j, k) for j, row in enumerate(scores) for k, s in enumerate(row) if s > 0.0
    )
    pairs: list[int | None] = [None] * len(scores)
    taken = set()
    for _, j, k in ranked:
        if pairs[j] is None and k not in taken:
            pairs[j] = k
            taken.add(k)
    return Assignment(pairs)


def assign_max_expected_los(
    users: list[UserMotion],
    uavs: list[Uav],
    params: GridParams,
    epsilon: float = 1e-3,
) -> Assignment:
    """Greedy assignment from the globally best expected clear time down.

    Ties take the lower user id, then the lower platform id.  A pair with a
    zero score is never assigned, so an all-blocked or out-of-range user
    stays unassigned.
    """
    return _greedy(_score_pairs(_walks(users, uavs), params, epsilon))


def _candidates(users: list[UserMotion], uavs: list[Uav]) -> list[list[int]]:
    """Per user, the platforms within range, nearest first by 3D distance;
    distance ties take the lower platform id."""
    out = []
    for m in users:
        d = [_dist3d(m, u) for u in uavs]
        out.append(sorted((k for k, u in enumerate(uavs) if d[k] <= u.link_range),
                          key=lambda k: (d[k], k)))
    return out


def _nearest(cities: _Cities, walks: Pairs, candidates: list[list[int]]) -> np.ndarray:
    """The nearest-in-sight platform of each (city, user) of ``_walks``, -1
    for none.  Every start link to a user's ``_candidates`` is judged on every
    city in one ``_point_clear`` call; users go in id order and each takes,
    per city, its first candidate that is clear and not yet taken there."""
    n, (n_users, n_uavs) = len(cities.nx), walks.x0.shape
    user, uav = np.array([(j, k) for j, cand in enumerate(candidates) for k in cand],
                         dtype=int).reshape(-1, 2).T
    x0, y0, _, _, ux, uy, h = walks.take((user, uav))
    clear = np.zeros((n, n_users, n_uavs), dtype=bool)
    clear[:, user, uav] = _point_clear(cities, x0, y0, ux, uy, h)
    pairs = np.full((n, n_users), -1)
    taken = np.zeros((n, n_uavs), dtype=bool)
    rows = np.arange(n)
    for j, cand in enumerate(candidates):
        if not cand:
            continue
        free = clear[:, j, cand] & ~taken[:, cand]
        first = free.argmax(axis=1)
        got = free[rows, first]
        pick = np.asarray(cand)[first][got]
        pairs[got, j] = pick
        taken[rows[got], pick] = True
    return pairs


def assign_nearest_los(
    users: list[UserMotion], uavs: list[Uav], grid: UrbanGrid
) -> Assignment:
    """Static benchmark on one realized city, users served in id order.

    Each user takes the nearest free platform by 3D distance among those
    within range and clear on the realized city at the start of the walk;
    distance ties take the lower platform id.  This is ``_nearest`` on the
    grid's one city.
    """
    pairs = _nearest(grid.cities, _walks(users, uavs), _candidates(users, uavs))[0]
    return Assignment([None if k < 0 else k for k in pairs.tolist()])


def realized_value(
    assignment: Assignment,
    grid: UrbanGrid,
    users: list[UserMotion],
    uavs: list[Uav],
) -> float:
    """Total realized clear seconds of an assignment on one city.

    Each served user contributes the clear time of its walk, truncated to the
    stretch the platform stays in range.  This is ``_realized`` on the grid's
    one city.  Raises ValueError unless the assignment holds one entry per
    user, each None or a platform index.
    """
    if (len(assignment.pairs) != len(users)
            or not {*assignment.pairs} <= {None, *range(len(uavs))}):
        raise ValueError(f"assignment {assignment.pairs} does not fit "
                         f"{len(users)} users and {len(uavs)} platforms")
    pairs = np.array([-1 if k is None else k for k in assignment.pairs], dtype=int)
    return float(_realized(grid.cities, _walks(users, uavs), pairs[None])[0])


def _shared_street(users: list[UserMotion]) -> float:
    if not users:
        raise ValueError("no users")
    ys = {m.y0 for m in users}
    if len(ys) != 1:
        raise ValueError(
            "evaluation draws cities anchored on the users' street, "
            "so all users must walk the same y"
        )
    return ys.pop()


@dataclass
class PolicyComparison:
    """Paired totals of the mobility-aware policy and the static benchmark.

    ``assignment`` is the mobility-aware policy's fixed assignment and
    ``scores[j][k]`` the expected clear seconds it ranked user j with
    platform k by.
    """

    proposed: TrialStats
    benchmark: TrialStats
    assignment: Assignment
    scores: list[list[float]]

    @property
    def predicted(self) -> float:
        """Expected clear seconds of the fixed assignment, summed over its pairs."""
        return sum(self.scores[j][k] for j, k in self.assignment.assigned())

    @property
    def difference(self) -> TrialStats:
        """Per-trial proposed minus benchmark; its CI is the paired interval."""
        return TrialStats(self.proposed.values - self.benchmark.values, self.proposed.draws)


def _realized(cities: _Cities, walks: Pairs, pairs: np.ndarray) -> np.ndarray:
    """``realized_value`` of the assignments ``pairs[..., t, :]`` (platform per
    user, -1 for none) on city t, bit for bit, from the walks of ``_walks``.
    Every distinct assigned (user, platform) walk is refereed in one
    ``_walk_clear`` call for the whole chunk; each trial's walks are then
    read by one index, a zero column standing for an unassigned user."""
    n_users, n_uavs = walks.x0.shape
    code = np.where(pairs >= 0, np.arange(n_users) * n_uavs + pairs, -1)
    rows = np.unique(code[code >= 0])
    clear = np.concatenate([_walk_clear(cities, walks.take(np.divmod(rows, n_uavs))),
                            np.zeros((len(cities.nx), 1))], axis=1)
    column = np.where(code >= 0, np.searchsorted(rows, code), -1)
    values = clear[np.arange(len(clear))[:, None], column]
    # left to right over the users from 0.0, as a running total adds them
    return sum(np.moveaxis(values, -1, 0), np.zeros(values.shape[:-1]))


def compare_policies(
    params: GridParams,
    users: list[UserMotion],
    uavs: list[Uav],
    trials: int,
    seed: int,
    epsilon: float = 1e-3,
) -> PolicyComparison:
    """Score both policies on identical city draws.

    The mobility-aware assignment is fixed up front (it uses no realized
    geometry); the benchmark re-assigns on every draw since it reads the
    realized start-of-walk blockage.  Trial i draws its city as
    ``sample_grid_anchored(params, SeedSequence([seed, i]), y0, params.mu_s)``
    does, from the same stream, which one ``_seed_state`` hash seeds for the
    whole chunk; both values are ``realized_value`` of the two assignments
    on that city, bit for bit, computed for a chunk of cities at once: every
    user's start links in one ``_point_clear`` call (``_nearest``), then
    every walk either policy assigns in the chunk in one ``_walk_clear`` call.
    """
    _check_trials(trials)
    y0 = _shared_street(users)
    walks = _walks(users, uavs)
    scores = _score_pairs(walks, params, epsilon)
    fixed = _greedy(scores)
    candidates = _candidates(users, uavs)
    fixed_pairs = np.array([-1 if k is None else k for k in fixed.pairs], dtype=int)
    values = [np.empty((2, 0))]
    law = _law(params)
    for chunk in _chunks(trials):
        state = _seed_state(seed, np.arange(chunk.start, chunk.stop))
        cities = _join_cities([_draw_anchored(_generator(w), law, y0, params.mu_s)
                               for w in state], [1] * len(chunk), y0, law)
        bench = _nearest(cities, walks, candidates)
        values.append(_realized(cities, walks,
                                np.stack([np.broadcast_to(fixed_pairs, bench.shape), bench])))
    va, vb = np.concatenate(values, axis=1)
    draws = np.ones(trials, dtype=int)  # association draws are never rejected
    return PolicyComparison(TrialStats(va, draws), TrialStats(vb, draws), fixed, scores)
