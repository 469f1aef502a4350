"""The benchmark's workloads: seeded inputs, one operation each, output checks.

A workload turns ``--seed`` into a fixed, ordered list of operations (one
*pass*).  The harness in ``run.py`` repeats the pass and times each
operation; this module only knows what the operations are, how to run one
through the package's public functions, and how to judge what came back.

``reference_seed0.json`` holds, from the commit that introduced the
benchmark (``run.py --write-reference``), every operation's output for seed
0 and a long referee run for each accuracy point.  Seed 0 outputs are
compared with the stored ones; other seeds are judged by invariants.
"""

from __future__ import annotations

import contextlib
import io
import math

import numpy as np

from uavlos import analytic, cli, env, mobility

REFERENCE_SEED = 0

# Analytic values must reproduce the reference to this relative error.
ANALYTIC_RTOL = 1e-9
# A Monte Carlo mean or stderr may move only on the scale of the referee's
# interval resolution (1e-6 s per endpoint, a few dozen endpoints per total),
# far below one Monte Carlo standard error, so a change in which cities are
# drawn cannot hide under it.
MC_ATOL = 1e-4
# CSV cells carry 10 significant digits; the paired difference row is
# recomputed from the rounded proposed and benchmark cells.
CSV_RTOL = 3e-9

SIGMA = 8.0  # Rayleigh scale of building heights, the package default


def csv_rows(cfg: cli.ExperimentConfig) -> list[list[str]]:
    """Run one configured sweep through ``run_experiment``; data rows as cells."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.run_experiment(cfg, None, False)
    lines = buf.getvalue().splitlines()
    if not lines or not lines[0].startswith("# uavlos-results-v1 "):
        raise ValueError("missing results header")
    if lines[1] != ",".join(cli.CSV_COLUMNS):
        raise ValueError(f"unexpected CSV columns {lines[1]!r}")
    return [line.split(",") for line in lines[2:]]


def _num(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def _close(a: float, b: float, rtol: float = 0.0, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _compare_rows(got: list[list[str]], ref: list[list[str]]) -> str | None:
    """Row-by-row comparison against reference cells at the stated tolerances."""
    if len(got) != len(ref):
        return f"{len(got)} rows, reference has {len(ref)}"
    for g, r in zip(got, ref):
        if g[:3] != r[:3] or g[6] != r[6]:
            return f"row key {g[:3] + g[6:7]} != reference {r[:3] + r[6:7]}"
        ga, ra = _num(g[3]), _num(r[3])
        if (ga is None) != (ra is None) or (ga is not None and not _close(ga, ra, ANALYTIC_RTOL)):
            return f"analytic {g[3]!r} != reference {r[3]!r} in row {g[:3]}"
        for col in (4, 5):
            gm, rm = _num(g[col]), _num(r[col])
            if (gm is None) != (rm is None) or (gm is not None and not _close(gm, rm, atol=MC_ATOL)):
                return f"{cli.CSV_COLUMNS[col]} {g[col]!r} != reference {r[col]!r} in row {g[:3]}"
    return None


def _in_range(x: float | None, lo: float, hi: float) -> bool:
    return x is not None and math.isfinite(x) and lo - 1e-9 <= x <= hi + 1e-9


class Workload:
    """One named workload; subclasses fill in the operations for a seed."""

    name = ""
    referee_trials = 20_000

    def __init__(self, seed: int, references: dict):
        self.seed = seed
        self.references = references
        self.reference = references.get(self.name) if seed == REFERENCE_SEED else None
        self.ops = self.build()

    def build(self) -> list:
        raise NotImplementedError

    def run_op(self, op):
        raise NotImplementedError

    def check(self, i: int, out) -> str | None:
        """None when operation i's output is correct, else what is wrong."""
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def referee_configs(self) -> list[cli.ExperimentConfig]:
        """Long runs whose first-row Monte Carlo means anchor the model gap.

        Their inputs do not depend on the seed, so the stored means serve
        every seed.
        """
        raise NotImplementedError

    def gap_analytic(self, outputs: list) -> list[float | None]:
        """Closed-form values of this run that the referee configs measure.

        ``outputs`` holds None for an operation that raised.
        """
        raise NotImplementedError

    def model_gap_pct(self, outputs: list) -> float:
        """Mean |analytic - referee| / referee over the accuracy points, in %."""
        means = self.references["referee"][self.name]["means"]
        gaps = [abs(a - r) / r for a, r in zip(self.gap_analytic(outputs), means) if a is not None]
        return 100.0 * float(np.mean(gaps))

    def reference_entry(self, outputs: list) -> dict:
        return {"outputs": outputs}


class Sweep(Workload):
    """A ``uavlos run`` sweep, one ``run_experiment`` call per operation.

    Each speed runs as ``chunks`` calls, each with its own Monte Carlo seed.
    Short operations keep their best times steady on a noisy host, and the
    cost of city draws averages over independent cities.
    """

    trials = 0
    chunks = 1
    speeds: list[float] = []

    def config(self, v: float, trials: int, seed: int) -> cli.ExperimentConfig:
        raise NotImplementedError

    def build(self) -> list:
        return [self.config(v, self.trials, 1000 * self.seed + 10 * i + j)
                for i, v in enumerate(self.speeds) for j in range(self.chunks)]

    def run_op(self, cfg):
        return csv_rows(cfg)

    def warm_up(self) -> None:
        csv_rows(self.config(10.0, 2, 1000 * self.seed + 999))

    def referee_configs(self) -> list[cli.ExperimentConfig]:
        return [self.config(v, self.referee_trials, REFERENCE_SEED) for v in self.speeds]

    def gap_analytic(self, outputs: list) -> list[float | None]:
        # one value per speed: the first row's analytic cell does not depend
        # on the trials or the seed
        return [_num(rows[0][3]) if rows else None for rows in outputs[:: self.chunks]]


class McSweep(Sweep):
    """The paper's walking-speed sweep with the contact-conditioned referee."""

    name = "mc_sweep"
    trials = 50
    chunks = 3
    speeds = cli.DEFAULT_VALUES["velocity"]

    def config(self, v: float, trials: int, seed: int) -> cli.ExperimentConfig:
        return cli.ExperimentConfig.from_dict(
            {"sweep": "velocity", "preset": "urban", "values": [v], "trials": trials, "seed": seed}
        )

    def check(self, i: int, out) -> str | None:
        if self.reference is not None:
            return _compare_rows(out, self.reference["outputs"][i])
        cfg = self.ops[i]
        if len(out) != 1 or _num(out[0][1]) != cfg.values[0] or out[0][6] != str(cfg.trials):
            return f"unexpected rows {out}"
        ana, mc = _num(out[0][3]), _num(out[0][4])
        if not (_in_range(ana, 0.0, cfg.duration) and _in_range(mc, 0.0, cfg.duration)):
            return f"value outside [0, {cfg.duration}] in {out[0]}"
        return None


class CrowdedStreet(Sweep):
    """The association sweep with several walkers sharing one street.

    Each call scores every user/platform pair once per ``assign_max_expected_los``
    (a fixed cost per call) and asks ``is_los`` about every free in-range
    platform in every trial, so the trials per call set the balance between
    pair scoring and ``is_los``.  Both grow with the square of the crowd
    while walks and city draws grow more slowly, which is why the crowd is
    five walkers rather than four.  It is not larger because calls of 0.2 s
    and more gave best times that moved by a third between runs on a noisy
    host.  The speeds stop at 10 m/s because pair scoring grows with the
    walk length.
    """

    name = "crowded_street"
    trials = 15
    chunks = 3
    referee_trials = 4_000
    speeds = [2.0, 5.0, 10.0]
    # 5 walkers spaced 50 m apart; each brings a trailing and a leading platform
    user_xs = [-180.0 + 50.0 * i for i in range(5)]

    def config(self, v: float, trials: int, seed: int) -> cli.ExperimentConfig:
        return cli.ExperimentConfig.from_dict(
            {"sweep": "association", "preset": "urban", "values": [v], "trials": trials,
             "seed": seed, "user_xs": self.user_xs}
        )

    def check(self, i: int, out) -> str | None:
        if self.reference is not None:
            err = _compare_rows(out, self.reference["outputs"][i])
            if err:
                return err
        cfg = self.ops[i]
        if [r[2] for r in out] != ["proposed", "benchmark", "difference"]:
            return f"unexpected variants {[r[2] for r in out]}"
        top = len(self.user_xs) * cfg.duration
        prop, bench, diff = (_num(r[4]) for r in out)
        predicted = _num(out[0][3])
        if not all(_in_range(x, 0.0, top) for x in (predicted, prop, bench)):
            return f"value outside [0, {top}] in {out}"
        scale = max(1.0, abs(prop), abs(bench))
        if not _close(diff, prop - bench, atol=CSV_RTOL * scale):
            return f"difference {diff!r} != proposed - benchmark {prop - bench!r}"
        return None


def _rayleigh_cdf(h: float) -> float:
    """The default height law handed over as a bare CDF (quadrature path)."""
    return -math.expm1(-(h * h) / (2.0 * SIGMA * SIGMA)) if h > 0.0 else 0.0


class ClosedForm(Workload):
    """A scan of ``expected_los_total`` with no referee and no city draws.

    The first operations are the paper geometry in each preset (the accuracy
    points).  Then come seeded platform geometries on the paper's 10 s
    epochs, a minority of calls on the generic quadrature height law, and a
    minority of long epochs at the paper geometry (38 to 105 crossing
    counts), whose cost grows about quadratically with the count.  Long
    epochs stay below lam*v*T ~ 745, where the Poisson recurrence underflows
    to a RuntimeError.  Epochs of 600 s (195 and 236 counts, about a second
    a call) were left out: their best times followed the host, and with them
    the median ``wall_s`` of the same code moved by 29% between two sets of
    runs.

    The quadrature and long-epoch calls are the slowest, so they set
    ``op_tail_ms``.  Their cost varies twofold with the platform geometry,
    so their platforms are fixed rather than seeded.
    """

    name = "closed_form"
    speeds = [1.0, 5.0, 10.0, 15.0, 30.0]
    n_geoms = 12
    cdf_uavs = [env.Uav(120.0, 90.0, 100.0), env.Uav(-60.0, 60.0, 80.0),
                env.Uav(30.0, 120.0, 140.0), env.Uav(-120.0, 40.0, 60.0)]
    long_epochs = [(15.0, 120.0), (30.0, 120.0)]  # (m/s, s)
    # the velocity sweep's default platform, walked at 15 m/s for 10 s
    paper_uav = env.Uav(120.0, 90.0, 100.0)
    paper_speed = 15.0

    def build(self) -> list:
        rng = np.random.default_rng(self.seed)
        geoms = [
            env.Uav(float(rng.uniform(-150.0, 150.0)), float(rng.uniform(30.0, 150.0)),
                    float(rng.uniform(40.0, 150.0)))
            for _ in range(self.n_geoms)
        ]
        params = {p: env.GridParams(mu_b, mu_s, SIGMA) for p, (_, mu_b, mu_s) in cli.PRESETS.items()}
        paper = env.UserMotion(0.0, 0.0, self.paper_speed, 10.0)
        ops = [(p, params[p], paper, self.paper_uav, None) for p in cli.PRESETS]
        for p in cli.PRESETS:
            for u in geoms:
                for v in self.speeds:
                    ops.append((p, params[p], env.UserMotion(0.0, 0.0, v, 10.0), u, None))
        cdf = analytic.CdfHeights(_rayleigh_cdf)
        for p in cli.PRESETS:
            for u in self.cdf_uavs:
                ops.append((p, params[p], paper, u, cdf))
        for p in cli.PRESETS:
            for v, T in self.long_epochs:
                ops.append((p, params[p], env.UserMotion(0.0, 0.0, v, T), self.paper_uav, None))
        return ops

    def run_op(self, op):
        _, params, motion, u, model = op
        return mobility.expected_los_total(params, motion, u, model=model).expected_time

    @staticmethod
    def describe(op) -> list:
        p, _, m, u, model = op
        return [p, m.speed, m.duration, u.x, u.y, u.height, "cdf" if model else "rayleigh"]

    def check(self, i: int, out) -> str | None:
        op = self.ops[i]
        if self.reference is not None:
            ref_in, ref_out = self.reference["inputs"][i], self.reference["outputs"][i]
            if self.describe(op) != ref_in:
                return f"inputs {self.describe(op)} != reference {ref_in}"
            if not _close(out, ref_out, ANALYTIC_RTOL):
                return f"expected_time {out!r} != reference {ref_out!r}"
        if not _in_range(out, 0.0, op[2].duration):
            return f"expected_time {out!r} outside [0, {op[2].duration}]"
        return None

    def warm_up(self) -> None:
        # one operation of each kind, the long one at a shorter epoch
        p = env.GridParams(45.0, 13.0, SIGMA)
        u = env.Uav(70.0, 45.0, 100.0)
        mobility.expected_los_total(p, env.UserMotion(0.0, 0.0, 15.0, 10.0), u)
        mobility.expected_los_total(p, env.UserMotion(0.0, 0.0, 15.0, 30.0), u)
        mobility.expected_los_total(p, env.UserMotion(0.0, 0.0, 15.0, 10.0), u,
                                    model=analytic.CdfHeights(_rayleigh_cdf))

    def referee_configs(self) -> list[cli.ExperimentConfig]:
        u = self.paper_uav
        return [
            cli.ExperimentConfig.from_dict(
                {"sweep": "velocity", "preset": p, "values": [self.paper_speed],
                 "trials": self.referee_trials, "seed": REFERENCE_SEED,
                 "uav_dx": u.x, "uav_dy": u.y, "uav_height": u.height}
            )
            for p in cli.PRESETS
        ]

    def gap_analytic(self, outputs: list) -> list[float | None]:
        return outputs[: len(cli.PRESETS)]

    def reference_entry(self, outputs: list) -> dict:
        return {"inputs": [self.describe(op) for op in self.ops], "outputs": outputs}


WORKLOADS = {w.name: w for w in (McSweep, ClosedForm, CrowdedStreet)}
