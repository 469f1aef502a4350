"""Acceptance criteria: one registry, run by the test suite and by ``uavlos validate``.

Each ``CRITERIA`` entry re-derives one promise of the package at its full
tolerance, seed and trial count and returns a ``Verdict``.  c1-c8 are the
headline promises; the last three are exact invariants of the Monte Carlo
runner and the association benchmark.  ``c5b-width`` is the one expected failure.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.stats import poisson

from .analytic import CdfHeights, RayleighHeights, p_los_static
from .assoc import assign_max_expected_los, assign_nearest_los, compare_policies, realized_value
from .cli import CSV_COLUMNS, PRESETS, RUNNERS, ExperimentConfig
from .env import GridParams, Uav, UserMotion, sample_grid_anchored
from .mobility import (
    expected_los_total,
    expected_los_x_segment,
    p_los_x_segment,
    poisson_truncation_count,
)
from .oracle import (
    is_los,
    los_intervals,
    los_time_sampled,
    monte_carlo_expected_los,
    monte_carlo_static_los,
)


@dataclass(frozen=True)
class Verdict:
    """One criterion's outcome: its title, the headline figure against its gate
    (None for a shape check), the draws or cases behind it, and a one-line account."""

    name: str
    ok: bool
    measured: float | None
    tolerance: float | None
    trials: int | None
    detail: str
    expected_fail: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "ok", bool(self.ok))  # a plain bool for JSON, not numpy's


def c1_segment_expectation_vs_quadrature() -> Verdict:
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        base = float(rng.uniform(0.05, 1.0))
        rate = float(rng.uniform(-0.05, 0.05)) or 1e-4
        v = float(rng.uniform(0.1, 40.0))
        t_len = float(rng.uniform(0.01, 10.0))
        closed = expected_los_x_segment(base, rate, v, t_len)
        ref, _ = quad(p_los_x_segment, 0.0, t_len, args=(base, rate, v), epsabs=1e-13)
        worst = max(worst, abs(closed - ref) / abs(ref))
    elapsed = time.perf_counter() - t0
    return Verdict(
        "1/8 segment expectation vs quadrature",
        worst <= 1e-9 and elapsed < 5.0,
        worst, 1e-9, 1000,
        # no wall time here: two runs of ``validate`` print the same bytes
        f"1000 random segments, max rel err {worst:.2e} (tol 1e-9), time limit 5 s",
    )


def c2_generic_height_law_vs_closed_form() -> Verdict:
    sigma = 8.0
    generic = CdfHeights(lambda h: 1.0 - math.exp(-h * h / (2.0 * sigma * sigma)))
    closed = RayleighHeights(sigma)
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        w = float(rng.uniform(5.0, 25.0))
        dy = float(rng.uniform(w + 5.0, 200.0))
        dx = float(rng.uniform(-200.0, 200.0))
        h = float(rng.uniform(20.0, 160.0))
        lam = float(rng.uniform(1.0 / 90.0, 1.0 / 40.0))
        u = Uav(dx, dy, h)
        a = p_los_static((0.0, 0.0), u, w, lam, closed)
        b = p_los_static((0.0, 0.0), u, w, lam, generic)
        worst = max(worst, abs(a - b) / max(a, 1e-300))
    return Verdict(
        "2/8 generic height CDF path vs closed form",
        worst <= 1e-8, worst, 1e-8, 1000,
        f"1000 geometries, max rel gap {worst:.2e} (tol 1e-8)",
    )


def c3_expected_los_vs_grid_ensemble() -> Verdict:
    motion = UserMotion(0.0, 0.0, 15.0, 10.0)
    trials = 10_000
    worst = 0.0
    cells = []
    for preset, (_, mu_b, mu_s) in PRESETS.items():
        params = GridParams(mu_b, mu_s, 8.0)
        for h in (60.0, 100.0, 140.0):
            u = Uav(70.0, 45.0, h)
            ana = expected_los_total(params, motion, u).expected_time
            mc = monte_carlo_expected_los(params, motion, u, trials, seed=17)
            rel = abs(ana - mc.mean) / mc.mean
            worst = max(worst, rel)
            cells.append(f"{preset[:3]}/h{h:.0f}:{100 * rel:.1f}%")
    return Verdict(
        "3/8 mobile expectation vs grid ensemble",
        worst <= 0.05, worst, 0.05, trials,
        f"9 preset/height cells at {trials} trials, worst gap {100 * worst:.1f}% "
        f"(tol 5%) [{', '.join(cells)}]",
    )


def c4_static_point_probability() -> Verdict:
    params = GridParams(45.0, 13.0, 8.0)
    u = Uav(70.0, 45.0, 70.0)
    # a motionless epoch must reduce exactly to probability x duration
    r = expected_los_total(params, UserMotion(0.0, 0.0, 0.0, 10.0), u)
    p = p_los_static((0.0, 0.0), u, 13.0, params.lam, RayleighHeights(8.0))
    exact = math.isclose(r.expected_time, 10.0 * p, rel_tol=1e-12)
    # and the point probability must match the conditioned grid ensemble
    trials = 10_000
    mc = monte_carlo_static_los(params, (0.0, 0.0), u, trials, seed=21)
    gate = 3.0 * math.sqrt(p * (1.0 - p) / trials)
    gap = abs(mc.mean - p)
    return Verdict(
        "4/8 static probability, exact reduction and ensemble",
        exact and gap <= gate, gap, gate, trials,
        f"v=0 reduction exact={exact}; |{mc.mean:.4f} - {p:.4f}| = {gap:.4f} "
        f"<= 3 binomial sd = {gate:.4f} at {trials} trials",
    )


def _sweep_rows(cfg_dict: dict) -> list[dict[str, str]]:
    """The sweep's rows as the cells ``uavlos run`` writes, so values carry its rounding."""
    cfg = ExperimentConfig.from_dict(cfg_dict)
    return [dict(zip(CSV_COLUMNS, row.csv_cells(False))) for row in RUNNERS[cfg.sweep](cfg)]


def _unimodal_with_interior_peak(values: list[float]) -> bool:
    tol = 1e-9
    peak = max(range(len(values)), key=values.__getitem__)
    if peak in (0, len(values) - 1):
        return False
    rising = all(b >= a - tol for a, b in zip(values[: peak + 1], values[1 : peak + 1]))
    falling = all(b <= a + tol for a, b in zip(values[peak:], values[peak + 1 :]))
    return rising and falling


def c5a_height_sweep_interior_peak() -> Verdict:
    rows = _sweep_rows({
        "sweep": "uav_height", "preset": "urban", "trials": 25, "seed": 5,
        "initial_distance": 160.0, "uav_dy": 45.0, "link_range": 165.0,
    })
    vals = [float(r["analytic_s"]) for r in rows]
    hs = [float(r["value"]) for r in rows]
    peak = hs[max(range(len(vals)), key=vals.__getitem__)]
    return Verdict(
        "5a/8 height sweep rises to an interior peak then falls",
        _unimodal_with_interior_peak(vals), peak, None, 25,
        f"fixed 160 m start distance, peak at {peak:.0f} m, "
        f"ends {vals[0]:.2f} s / {vals[-1]:.2f} s, top {max(vals):.2f} s",
    )


@functools.cache  # c5b and c5b-width read the same sweep
def _ratio_curves() -> dict[str, tuple[float, ...]]:
    rows = _sweep_rows({
        "sweep": "building_ratio", "preset": "urban", "trials": 25, "seed": 5,
        "street_widths": [10.0, 20.0],
    })
    curves: dict[str, list[float]] = {}
    for r in rows:
        curves.setdefault(r["variant"], []).append(float(r["analytic_s"]))
    return {variant: tuple(values) for variant, values in curves.items()}


def c5b_ratio_sweep_decreases_per_width() -> Verdict:
    curves = _ratio_curves()
    dec10 = all(b < a for a, b in zip(curves["w=10"], curves["w=10"][1:]))
    dec20 = all(b < a for a, b in zip(curves["w=20"], curves["w=20"][1:]))
    # largest step along either curve; every step must be a drop
    rise = max(b - a for c in curves.values() for a, b in zip(c, c[1:]))
    return Verdict(
        "5b/8 denser builds shorten clear time at both street widths",
        dec10 and dec20, rise, 0.0, 25,
        f"w=10: {curves['w=10'][0]:.2f}->{curves['w=10'][-1]:.2f} s, "
        f"w=20: {curves['w=20'][0]:.2f}->{curves['w=20'][-1]:.2f} s, both decreasing",
    )


def c5b_width_ordering() -> Verdict:
    # The narrower-street curve would have to sit above the wider one for
    # this clause to hold.  With the street width pinned to the user's own
    # street, a 20 m street puts the first building line twice as far out,
    # drops the contact fraction, and lifts the whole curve; every
    # parametrization consistent with the other criteria orders the curves
    # the other way.
    curves = _ratio_curves()
    dominant = all(a > b for a, b in zip(curves["w=10"], curves["w=20"]))
    margin = min(a - b for a, b in zip(curves["w=10"], curves["w=20"]))
    return Verdict(
        "5b/8 narrow-street curve dominates the wide one",
        dominant, margin, 0.0, 25,
        f"w=10 mean {sum(curves['w=10']) / len(curves['w=10']):.2f} s vs "
        f"w=20 mean {sum(curves['w=20']) / len(curves['w=20']):.2f} s",
        expected_fail=True,
    )


def c5c_velocity_sweep_interior_peak() -> Verdict:
    rows = _sweep_rows({
        "sweep": "velocity", "preset": "urban", "trials": 25, "seed": 5,
        "uav_dx": 120.0, "uav_dy": 60.0, "uav_height": 60.0, "link_range": 155.0,
    })
    vals = [float(r["analytic_s"]) for r in rows]
    vs = [float(r["value"]) for r in rows]
    peak = vs[max(range(len(vals)), key=vals.__getitem__)]
    return Verdict(
        "5c/8 speed sweep rises to an interior peak then falls",
        _unimodal_with_interior_peak(vals), peak, None, 25,
        f"range-limited link, peak at {peak:g} m/s, "
        f"ends {vals[0]:.2f} s / {vals[-1]:.2f} s, top {max(vals):.2f} s",
    )


def c6_association_beats_nearest_when_moving() -> Verdict:
    params = GridParams(45.0, 13.0, 8.0)
    trials = 1000
    uavs = []
    for x0 in (-170.0, -55.0):
        uavs.append(Uav(x0 - 25.0, 45.0, 100.0, link_range=130.0))
        uavs.append(Uav(x0 + 60.0, 45.0, 100.0, link_range=130.0))

    def run(v):
        users = [UserMotion(x0, 0.0, v, 10.0) for x0 in (-170.0, -55.0)]
        return compare_policies(params, users, uavs, trials, seed=31)

    slow = run(2.0)
    fast = run(20.0)
    s_lo, s_hi = slow.difference.ci95()
    band = 0.05 * slow.benchmark.mean
    slow_ok = s_lo <= band and s_hi >= -band
    f_lo, _ = fast.difference.ci95()
    fast_ok = fast.difference.mean > 0.0 and f_lo > 0.0
    return Verdict(
        "6/8 mobility-aware association vs nearest-in-sight",
        slow_ok and fast_ok, fast.difference.mean, band, trials,
        f"{trials} paired trials; slow walk diff CI [{s_lo:.3f}, {s_hi:.3f}] s "
        f"within +-{band:.3f} s of zero; fast walk gain "
        f"{fast.difference.mean:.2f} s, CI low {f_lo:.2f} s > 0",
    )


def c7_truncation_count_minimal() -> Verdict:
    ok = True
    checked = 0
    loose = 0
    for mu in (0.01, 0.1, 0.5, 1.0, 2.0, 150.0 / 58.0, 5.0, 10.0, 20.0):
        for eps in (0.1, 0.01, 1e-3, 1e-4, 1e-6):
            n = poisson_truncation_count(1.0, mu, 1.0, eps)
            good = poisson.sf(n, mu) <= eps and (n == 0 or poisson.sf(n - 1, mu) > eps)
            ok = ok and good
            checked += 1
            loose += not good
    return Verdict(
        "7/8 crossing-count truncation is minimal",
        ok, loose, 0, checked,
        f"{checked} (rate, tolerance) pairs, tail bound tight in every case",
    )


def c8_interval_engine_vs_dense_sampling() -> Verdict:
    rng = np.random.default_rng(808)
    T = 10.0
    samples = 10_000  # 1 ms resolution
    worst = 0.0
    ok = True
    for trial in range(100):
        params = GridParams(
            float(rng.uniform(30.0, 70.0)),
            float(rng.uniform(8.0, 25.0)),
            float(rng.uniform(4.0, 12.0)),
        )
        grid = sample_grid_anchored(
            params, np.random.SeedSequence([808, trial]), 0.0, params.mu_s
        )
        u = Uav(
            float(rng.uniform(40.0, 160.0)),
            float(rng.uniform(20.0, 120.0)),
            float(rng.uniform(30.0, 150.0)),
        )
        motion = UserMotion(0.0, 0.0, float(rng.uniform(5.0, 30.0)), T)
        iv = los_intervals(grid, motion, u)
        exact = sum(b - a for a, b in iv)
        approx = los_time_sampled(grid, motion, u, samples=samples)
        flips = sum(1 for a, b in iv for e in (a, b) if 1e-9 < e < T - 1e-9)
        budget = 2.0 * (T / samples) * max(1, flips)
        gap = abs(exact - approx)
        worst = max(worst, gap / budget)
        ok = ok and gap <= budget
    return Verdict(
        "8/8 interval engine vs 1 ms dense sampling",
        ok, worst, 1.0, 100,
        f"100 random cities, worst gap at {100 * worst:.0f}% of the "
        f"per-transition budget",
    )


def no_building_limit() -> Verdict:
    # street so wide the link never leaves it: both sides exactly T
    wide = GridParams(20.0, 1e6, 8.0)
    u = Uav(70.0, 45.0, 100.0)
    motion = UserMotion(0.0, 0.0, 15.0, 10.0)
    ana = expected_los_total(wide, motion, u).expected_time
    mc = monte_carlo_expected_los(wide, motion, u, trials=200, seed=7)
    T = motion.duration
    return Verdict(
        "no-building limit: closed form and ensemble both exactly T",
        ana == T and mc.mean == T, max(abs(ana - T), abs(mc.mean - T)), 0.0, 200,
        f"analytic={ana!r} mc={mc.mean!r}",
    )


def assoc_1x1_identical() -> Verdict:
    params = GridParams(45.0, 13.0, 8.0)
    # one user, one platform over the user's own street: no blockage is
    # possible, so both policies must assign it on every draw
    user = [UserMotion(0.0, 0.0, 15.0, 10.0)]
    uav = [Uav(10.0, 8.0, 100.0)]
    fixed = assign_max_expected_los(user, uav, params)
    same = fixed.pairs == [0]
    diffs = []
    for i in range(50):
        grid = sample_grid_anchored(params, np.random.SeedSequence([13, i]), 0.0, params.mu_s)
        bench = assign_nearest_los(user, uav, grid)
        same = same and bench.pairs == [0]
        diffs.append(realized_value(fixed, grid, user, uav)
                     - realized_value(bench, grid, user, uav))
    zero = all(d == 0.0 for d in diffs)
    worst = max(map(abs, diffs))
    return Verdict(
        "association, one platform over the user's street: both policies identical",
        same and zero, worst, 0.0, 50,
        f"identical={same} max_abs_diff={worst:g}",
    )


def assoc_nearest_brute_force() -> Verdict:
    params = GridParams(45.0, 13.0, 8.0)
    users = [UserMotion(x, 0.0, 15.0, 10.0) for x in (-60.0, -20.0, 20.0)]
    # at 100 m hardly any start link is blocked, at 30 m many are
    cases = mismatched = blocked = conflicts = 0
    for height in (100.0, 30.0):
        uavs = [Uav(x, 45.0, height) for x in (-40.0, 30.0)]
        dist = np.array([[math.hypot(m.x0 - u.x, m.y0 - u.y, u.height) for u in uavs]
                         for m in users])
        reach = dist <= np.array([u.link_range for u in uavs])
        for seed in range(99, 119):
            grid = sample_grid_anchored(params, seed, 0.0, params.mu_s)
            clear = np.array([[is_los(grid, (m.x0, m.y0), u) for u in uavs] for m in users])
            blocked += int(np.count_nonzero(reach & ~clear))
            # users in id order take the nearest free candidate; argmin keeps
            # the lower platform id on a distance tie
            cand = np.where(reach & clear, dist, np.inf)
            free = np.ones(len(uavs), dtype=bool)
            expect: list[int | None] = []
            for row in cand:
                avail = np.where(free, row, np.inf)
                conflicts += bool(row.min() < avail.min())  # nearest candidate taken
                pick = int(np.argmin(avail)) if np.isfinite(avail).any() else None
                expect.append(pick)
                if pick is not None:
                    free[pick] = False
            cases += 1
            mismatched += assign_nearest_los(users, uavs, grid).pairs != expect
    links = cases * len(users) * len(uavs)
    return Verdict(
        "association, nearest-in-sight policy vs an independent re-implementation",
        mismatched == 0, mismatched, 0, cases,
        f"{cases} cities x heights, {mismatched} assignments differ; exercised "
        f"{blocked} of {links} start links blocked and {conflicts} capacity conflicts",
    )


CRITERIA: dict[str, Callable[[], Verdict]] = {
    "c1": c1_segment_expectation_vs_quadrature,
    "c2": c2_generic_height_law_vs_closed_form,
    "c3": c3_expected_los_vs_grid_ensemble,
    "c4": c4_static_point_probability,
    "c5a": c5a_height_sweep_interior_peak,
    "c5b": c5b_ratio_sweep_decreases_per_width,
    "c5b-width": c5b_width_ordering,
    "c5c": c5c_velocity_sweep_interior_peak,
    "c6": c6_association_beats_nearest_when_moving,
    "c7": c7_truncation_count_minimal,
    "c8": c8_interval_engine_vs_dense_sampling,
    "no-building-limit": no_building_limit,
    "assoc-1x1-identical": assoc_1x1_identical,
    "assoc-nearest-brute-force": assoc_nearest_brute_force,
}
