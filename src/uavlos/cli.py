"""Experiment runner: presets, JSON configs, seeded sweeps, CSV emission.

Four sweep families: platform height at a fixed 3D start distance, built-to-
street ratio at two street widths, walking speed, and the association policy
comparison.  Every run is reproducible: identical config and seed give a
byte-identical CSV (the runtime column is left blank unless --timing is on,
and the header carries a hash of the resolved config).  A config is checked
before any compute: each field's JSON type against its annotation on
``ExperimentConfig``, then each value by building the grids, walks and
platforms the sweep prices (``_points``); a refusal exits 2.  ``validate``
runs the acceptance criteria of ``uavlos.checks``, one JSON verdict line
each, and exits 1 on any failure that is not the expected one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
import types
import typing
from dataclasses import asdict, dataclass, field, fields, replace

from .assoc import compare_policies
from .env import (
    DegenerateGeometryError,
    GridParams,
    Uav,
    UserMotion,
    sample_grid_anchored,
)
from .mobility import MAX_MEAN_CROSSINGS, expected_los_total
from .oracle import coverage_time, monte_carlo_expected_los, start_contact_x

# Table I presets: (mean building height, mean building width, mean street width)
PRESETS = {
    "suburban": (10.0, 37.0, 10.0),
    "urban": (19.0, 45.0, 13.0),
    "dense_urban": (25.0, 60.0, 20.0),
}

SWEEPS = ("uav_height", "building_ratio", "velocity", "association")

CSV_COLUMNS = (
    "sweep",
    "value",
    "variant",
    "analytic_s",
    "mc_mean_s",
    "mc_stderr_s",
    "trials",
    "runtime_ms",
)

DEFAULT_VALUES = {
    "uav_height": [60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0, 150.0],
    "building_ratio": [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 9.0],
    "velocity": [0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0, 25.0, 30.0, 40.0],
    "association": [1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 25.0],
}


class ConfigError(ValueError):
    """Bad experiment configuration: an unknown key or name, a value of the
    wrong JSON type, or a value a sweep object refuses.  Reported before any
    compute, exit code 2."""


def _fits(value, hint) -> bool:
    """Whether a JSON value has the type a field annotation declares: an int
    counts as a float, a bool as neither, and null only where None may be."""
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    kind, args = typing.get_origin(hint) or hint, typing.get_args(hint)
    if kind is list:
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if kind is tuple:
        return isinstance(value, list) and len(value) == len(args) and all(map(_fits, value, args))
    accepted = (int, float) if kind is float else kind
    return not isinstance(value, bool) and isinstance(value, accepted)


@dataclass
class ExperimentConfig:
    """One experiment: a preset or custom grid, a sweep family, and run knobs."""

    sweep: str
    preset: str = "urban"
    values: list[float] = field(default_factory=list)
    trials: int = 10_000
    seed: int = 0
    epsilon: float = 1e-3
    sigma: float = 8.0
    region: tuple[float, float] = (400.0, 400.0)
    duration: float = 10.0
    speed: float = 15.0
    out: str | None = None
    # custom preset grid means
    mu_b: float | None = None
    mu_s: float | None = None
    # platform placement for the height/ratio/velocity sweeps
    uav_height: float = 100.0
    uav_dx: float = 120.0
    uav_dy: float = 90.0
    link_range: float = math.inf
    # height sweep: fixed 3D start distance, horizontal x offset adjusts per height
    initial_distance: float | None = None
    # ratio sweep: one curve per user street width
    street_widths: list[float] = field(default_factory=lambda: [10.0, 20.0])
    # association sweep: walkers on one street, a trailing and a leading
    # platform per walker at the given x offsets
    user_xs: list[float] = field(default_factory=lambda: [-170.0, -55.0])
    uav_behind_dx: float = -25.0
    uav_ahead_dx: float = 60.0

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "sweep" not in raw:
            raise ConfigError("config needs a 'sweep' key")
        raw = dict(raw)
        if raw.get("link_range") is None and "link_range" in raw:
            raw["link_range"] = math.inf
        for f in fields(cls):
            if f.name in raw and not _fits(raw[f.name], _FIELD_TYPES[f.name]):
                raise ConfigError(f"{f.name} must be {f.type}, got {raw[f.name]!r}")
        if "region" in raw:
            raw["region"] = tuple(raw["region"])
        cfg = cls(**raw)
        cfg.check()
        return cfg

    def check(self) -> None:
        """Refuse what no sweep object checks, then build the sweep: a value
        its grids, walks or platforms refuse is a ConfigError, and a start
        contact no city draw can cover a DegenerateGeometryError."""
        if self.sweep not in SWEEPS:
            raise ConfigError(f"sweep must be one of {SWEEPS}, got {self.sweep!r}")
        if self.preset not in PRESETS and self.preset != "custom":
            raise ConfigError(f"unknown preset {self.preset!r}")
        if self.preset == "custom" and (self.mu_b is None or self.mu_s is None):
            raise ConfigError("custom preset needs mu_b and mu_s")
        if not self.values:
            self.values = list(DEFAULT_VALUES[self.sweep])
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ConfigError("sweep values must be strictly increasing")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be a positive integer, got {self.trials!r}")
        if not (0.0 < self.epsilon < 1.0):
            raise ConfigError("epsilon must be in (0, 1)")
        if self.sweep == "uav_height":
            if self.initial_distance is None:
                raise ConfigError("uav_height sweep needs initial_distance")
            d, dy = float(self.initial_distance), float(self.uav_dy)  # a JSON int may be huge
            if not math.isfinite(d * d + dy * dy):  # ``**`` below and in ``_points`` would raise
                raise ConfigError(f"initial_distance {d:g} and uav_dy {dy:g} are too large: "
                                  "their squares overflow")
            for h in self.values:
                if h * h + self.uav_dy**2 >= self.initial_distance**2:
                    raise ConfigError(f"height {h} incompatible with initial_distance "
                                      f"{self.initial_distance} at uav_dy {self.uav_dy}")
        try:
            points = _points(self)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        if not points or not all(walks and uavs for *_, walks, uavs in points):
            raise ConfigError("street_widths and user_xs need at least one entry")
        for _, _, params, walks, _ in points:
            for m in walks:  # the street crossings the epoch expects (lam v T)
                if params.lam * m.speed * m.duration > MAX_MEAN_CROSSINGS:
                    raise ConfigError(f"an epoch of {m.duration:g} s at {m.speed:g} m/s "
                                      f"expects more than {MAX_MEAN_CROSSINGS:g} street "
                                      "crossings (lam v T)")
        if self.sweep != "association":  # the start contact the Monte Carlo conditions on
            for _, _, params, (m,), (u,) in points:
                if coverage_time(m, u) > 0.0:
                    start_contact_x(params, (m.x0, m.y0), u)

    def grid_params(self, mu_b: float | None = None, mu_s: float | None = None) -> GridParams:
        if mu_b is None or mu_s is None:
            if self.preset == "custom":
                mu_b, mu_s = self.mu_b, self.mu_s
            else:
                _, mu_b, mu_s = PRESETS[self.preset]
        return GridParams(mu_b, mu_s, self.sigma, self.region)

    def resolved(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = list(v)
            if v is math.inf:
                v = "inf"
            out[f.name] = v
        out.pop("out")
        return out


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(cfg.resolved(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class ResultRow:
    sweep: str
    value: float
    variant: str
    analytic_s: float | None
    mc_mean_s: float | None
    mc_stderr_s: float | None
    trials: int
    runtime_ms: float | None

    def csv_cells(self, timing: bool) -> list[str]:
        def num(x, spec=".10g"):
            return "" if x is None else format(x, spec)

        ms = num(self.runtime_ms, ".1f") if timing else ""
        return [
            self.sweep,
            num(self.value),
            self.variant,
            num(self.analytic_s),
            num(self.mc_mean_s),
            num(self.mc_stderr_s),
            str(self.trials),
            ms,
        ]


def _points(cfg: ExperimentConfig) -> list[tuple]:
    """Every point of the sweep as (value, variant, grid, walks, platforms):
    the objects the runners price, whose constructors check every value."""
    def uav(x: float, h: float = cfg.uav_height) -> Uav:
        return Uav(x, cfg.uav_dy, h, link_range=cfg.link_range)

    def walk(speed: float, x0: float = 0.0) -> UserMotion:
        return UserMotion(x0, 0.0, speed, cfg.duration)

    if cfg.sweep == "building_ratio":
        return [(r, f"w={w:g}", cfg.grid_params(mu_b=r * w, mu_s=w), [walk(cfg.speed)],
                 [uav(cfg.uav_dx)])
                for w in cfg.street_widths for r in cfg.values]
    params = cfg.grid_params()
    if cfg.sweep == "uav_height":
        return [(h, "", params, [walk(cfg.speed)],
                 [uav(math.sqrt(cfg.initial_distance**2 - h * h - cfg.uav_dy**2), h)])
                for h in cfg.values]
    if cfg.sweep == "velocity":
        return [(v, "", params, [walk(v)], [uav(cfg.uav_dx)]) for v in cfg.values]
    uavs = [uav(x0 + dx) for x0 in cfg.user_xs for dx in (cfg.uav_behind_dx, cfg.uav_ahead_dx)]
    return [(v, "", params, [walk(v, x0) for x0 in cfg.user_xs], uavs) for v in cfg.values]


def _paired_rows(cfg: ExperimentConfig) -> list[ResultRow]:
    """One row per point: the closed form and the Monte Carlo of its one walk
    past its one platform, cut where the link range ends."""
    rows = []
    for value, variant, params, (m,), (u,) in _points(cfg):
        t0 = time.perf_counter()
        motion = replace(m, duration=coverage_time(m, u))
        if motion.duration <= 0.0:
            rows.append(ResultRow(cfg.sweep, value, variant, 0.0, 0.0, 0.0, cfg.trials, 0.0))
            continue
        ana = expected_los_total(params, motion, u, epsilon=cfg.epsilon).expected_time
        mc = monte_carlo_expected_los(params, motion, u, cfg.trials, cfg.seed)
        ms = (time.perf_counter() - t0) * 1000.0
        rows.append(ResultRow(cfg.sweep, value, variant, ana, mc.mean, mc.stderr, cfg.trials, ms))
    return rows


def _association_rows(cfg: ExperimentConfig) -> list[ResultRow]:
    """Three rows per speed: the proposed policy, the nearest-in-sight
    benchmark, and their paired difference."""
    rows = []
    for v, _, params, users, uavs in _points(cfg):
        t0 = time.perf_counter()
        cmp = compare_policies(params, users, uavs, cfg.trials, cfg.seed, cfg.epsilon)
        ms = (time.perf_counter() - t0) * 1000.0
        d = cmp.difference
        rows.append(ResultRow(cfg.sweep, v, "proposed", cmp.predicted,
                              cmp.proposed.mean, cmp.proposed.stderr, cfg.trials, ms))
        rows.append(ResultRow(cfg.sweep, v, "benchmark", None,
                              cmp.benchmark.mean, cmp.benchmark.stderr, cfg.trials, None))
        rows.append(ResultRow(cfg.sweep, v, "difference", None,
                              d.mean, d.stderr, cfg.trials, None))
    return rows


RUNNERS = {s: _association_rows if s == "association" else _paired_rows for s in SWEEPS}


def run_experiment(cfg: ExperimentConfig, out_path: str | None, timing: bool) -> None:
    """Execute the configured sweep and write the CSV (stdout if no path)."""
    rows = RUNNERS[cfg.sweep](cfg)
    lines = [f"# uavlos-results-v1 config={config_hash(cfg)} "
             f"preset={cfg.preset} sweep={cfg.sweep}"]
    lines.append(",".join(CSV_COLUMNS))
    lines.extend(",".join(r.csv_cells(timing)) for r in rows)
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


# -- validation ---------------------------------------------------------------


def run_validate(name: str) -> int:
    """Run one acceptance criterion, or all of them, one line each; 1 on any FAIL."""
    from .checks import CRITERIA  # checks builds its sweeps through this module

    if name != "all" and name not in CRITERIA:
        raise ConfigError(f"unknown criterion {name!r}; choose from {', '.join(CRITERIA)} or all")
    failed = False
    for key in CRITERIA if name == "all" else [name]:
        v = CRITERIA[key]()
        tag = "PASS" if v.ok else ("XFAIL" if v.expected_fail else "FAIL")
        print(f"{tag} {key} {json.dumps(asdict(v))}", flush=True)
        failed = failed or tag == "FAIL"
    return 1 if failed else 0


# -- entry point --------------------------------------------------------------


def _finite(parse):
    """A JSON number parser that refuses what no float holds (NaN, Infinity, 1e400)."""
    def checked(text: str):
        if not math.isfinite(float(text)):
            raise ConfigError(f"config holds {text}; every number must be finite")
        return parse(text)
    return checked


def _load_config(path: str | None, args: argparse.Namespace) -> ExperimentConfig:
    if path is None:
        raise ConfigError("run needs --config <path>")
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_float=_finite(float), parse_int=_finite(int),
                            parse_constant=_finite(float))
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    for key in ("seed", "trials"):  # overrides pass the same checks as the file
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
    return ExperimentConfig.from_dict(raw)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, args)
    out = args.out or cfg.out
    if out is not None:
        try:
            with open(out, "w"):
                pass
        except OSError as e:
            raise ConfigError(f"cannot write output: {e}") from e
    run_experiment(cfg, out, args.timing)
    return 0


def _cmd_grid_dump(args: argparse.Namespace) -> int:
    if args.preset not in PRESETS:
        raise ConfigError(f"unknown preset {args.preset!r}")
    _, mu_b, mu_s = PRESETS[args.preset]
    if args.street_width is not None and args.anchor_y is None:
        raise ConfigError("--street-width pins the anchored street, so it needs --anchor-y")
    try:
        params = GridParams(mu_b, mu_s, args.sigma)
        # unanchored, a street edge is pinned at the region's low edge
        y = params.box[2] if args.anchor_y is None else args.anchor_y
        grid = sample_grid_anchored(params, args.seed, y, args.street_width)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    text = grid.to_json()
    if args.out is None:
        sys.stdout.write(text + "\n")
    else:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise ConfigError(f"cannot write output: {e}") from e
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="uavlos")
    sub = p.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="execute a configured sweep, emit CSV")
    run.add_argument("--config", help="JSON experiment config")
    run.add_argument("--out", help="CSV output path (default stdout)")
    run.add_argument("--seed", type=int, help="override config seed")
    run.add_argument("--trials", type=int, help="override config trials")
    run.add_argument("--timing", action="store_true",
                     help="fill the runtime_ms column (off keeps output byte-identical)")
    run.set_defaults(fn=_cmd_run)

    val = sub.add_parser("validate", help="run the acceptance criteria")
    val.add_argument("criterion", nargs="?", default="all",
                     help="criterion name, such as c1 or c5b-width (default all)")
    val.set_defaults(fn=lambda a: run_validate(a.criterion))

    grid = sub.add_parser("grid", help="grid utilities")
    gsub = grid.add_subparsers(dest="grid_cmd", required=True)
    dump = gsub.add_parser("dump", help="sample a city and print it as JSON")
    dump.add_argument("--preset", default="urban")
    dump.add_argument("--seed", type=int, default=0)
    dump.add_argument("--sigma", type=float, default=8.0)
    dump.add_argument("--anchor-y", type=float, default=None,
                      help="pin a street edge at this y")
    dump.add_argument("--street-width", type=float, default=None,
                      help="pin the anchored street's width")
    dump.add_argument("--out")
    dump.set_defaults(fn=_cmd_grid_dump)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DegenerateGeometryError as e:
        print(f"geometry error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
