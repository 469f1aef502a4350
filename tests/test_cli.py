import csv
import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from uavlos import checks, cli
from uavlos.checks import Verdict
from uavlos.cli import (
    DEFAULT_VALUES,
    PRESETS,
    RUNNERS,
    SWEEPS,
    ConfigError,
    ExperimentConfig,
    config_hash,
    main,
)
from uavlos.env import GridParams, UrbanGrid, sample_grid_anchored


def _cfg(**extra) -> dict:
    base = {"sweep": "velocity", "trials": 5}
    base.update(extra)
    return base


def test_presets_are_frozen():
    assert PRESETS == {
        "suburban": (10.0, 37.0, 10.0),
        "urban": (19.0, 45.0, 13.0),
        "dense_urban": (25.0, 60.0, 20.0),
    }
    assert set(RUNNERS) == set(SWEEPS) == set(DEFAULT_VALUES)


def test_config_bounds_street_crossings_on_the_densest_grid_and_fastest_walk():
    # a 20 m period (ratio 1 at w = 10) at 20 m/s, the fastest of a velocity
    # sweep (30 m/s on the 58 m urban period), and of an association sweep
    # (with the duration of its walks)
    for raw, at_bound in (
        ({"sweep": "building_ratio", "values": [1.0, 3.0], "street_widths": [20.0, 10.0],
          "speed": 20.0}, 4096.0),
        (_cfg(values=[5.0, 30.0]), 4096.0 * 58.0 / 30.0),
        (_cfg(sweep="association", values=[5.0, 30.0]), 4096.0 * 58.0 / 30.0),
    ):
        ExperimentConfig.from_dict({**raw, "duration": at_bound * (1.0 - 1e-9)})
        with pytest.raises(ConfigError, match="more than 4096 street crossings"):
            ExperimentConfig.from_dict({**raw, "duration": at_bound * (1.0 + 1e-9)})
    # every default sweep passes, at its default duration
    for sweep in SWEEPS:
        ExperimentConfig.from_dict({"sweep": sweep, "initial_distance": 200.0})


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict(_cfg(nonsense=1))


def test_config_requires_sweep():
    with pytest.raises(ConfigError, match="sweep"):
        ExperimentConfig.from_dict({"preset": "urban"})
    with pytest.raises(ConfigError, match="sweep must be one of"):
        ExperimentConfig.from_dict({"sweep": "bogus"})


def test_config_rejects_unknown_preset():
    with pytest.raises(ConfigError, match="preset"):
        ExperimentConfig.from_dict(_cfg(preset="rural"))


def test_config_custom_needs_means():
    with pytest.raises(ConfigError, match="mu_b and mu_s"):
        ExperimentConfig.from_dict(_cfg(preset="custom"))
    cfg = ExperimentConfig.from_dict(_cfg(preset="custom", mu_b=50.0, mu_s=15.0))
    assert cfg.grid_params().mu_b == 50.0


def test_config_height_sweep_needs_reachable_distance():
    with pytest.raises(ConfigError, match="initial_distance"):
        ExperimentConfig.from_dict({"sweep": "uav_height"})
    with pytest.raises(ConfigError, match="incompatible"):
        ExperimentConfig.from_dict(
            {"sweep": "uav_height", "initial_distance": 100.0, "values": [60.0, 99.0]}
        )


def test_config_values_default_and_order():
    cfg = ExperimentConfig.from_dict({"sweep": "velocity"})
    assert cfg.values == DEFAULT_VALUES["velocity"]
    with pytest.raises(ConfigError, match="increasing"):
        ExperimentConfig.from_dict(_cfg(values=[3.0, 2.0]))


def test_config_null_link_range_means_unlimited():
    cfg = ExperimentConfig.from_dict(_cfg(link_range=None))
    assert cfg.link_range == math.inf
    assert config_hash(cfg)  # resolvable to JSON despite the infinity


def test_config_hash_tracks_content():
    a = config_hash(ExperimentConfig.from_dict(_cfg(seed=1)))
    b = config_hash(ExperimentConfig.from_dict(_cfg(seed=1)))
    c = config_hash(ExperimentConfig.from_dict(_cfg(seed=2)))
    assert a == b != c
    assert len(a) == 16


def _run(tmp_path, cfg_dict, *extra):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_dict))
    out = tmp_path / "out.csv"
    rc = main(["run", "--config", str(cfg_path), "--out", str(out), *extra])
    return rc, out


def test_run_velocity_sweep_csv(tmp_path):
    cfg = _cfg(values=[5.0, 15.0], seed=3, uav_dy=45.0, uav_height=100.0)
    rc, out = _run(tmp_path, cfg)
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# uavlos-results-v1 config=")
    rows = list(csv.DictReader(lines[1:]))
    assert [r["value"] for r in rows] == ["5", "15"]
    for r in rows:
        assert r["sweep"] == "velocity"
        assert r["trials"] == "5"
        assert 0.0 <= float(r["analytic_s"]) <= 10.0
        assert 0.0 <= float(r["mc_mean_s"]) <= 10.0
        assert r["runtime_ms"] == ""


def test_run_is_byte_identical(tmp_path):
    cfg = _cfg(values=[10.0], seed=3)
    _, first = _run(tmp_path, cfg)
    text1 = first.read_bytes()
    _, second = _run(tmp_path, cfg)
    assert second.read_bytes() == text1


# the urban sweeps whose CSVs every change of the model must leave byte for
# byte as they are, frozen under tests/data at seed 3 and 20 trials
FROZEN_SWEEPS = {
    "velocity": {"sweep": "velocity"},
    "building_ratio": {"sweep": "building_ratio"},
    "association": {"sweep": "association"},
    "uav_height": {"sweep": "uav_height", "initial_distance": 160.0, "uav_dy": 45.0,
                   "link_range": 165.0},
}


@pytest.mark.parametrize("name", sorted(FROZEN_SWEEPS))
def test_run_matches_the_frozen_csv(tmp_path, name):
    rc, out = _run(tmp_path, FROZEN_SWEEPS[name], "--seed", "3", "--trials", "20")
    assert rc == 0
    assert out.read_bytes() == (Path(__file__).parent / "data" / f"sweep_{name}.csv").read_bytes()


def test_run_point_out_of_link_range_writes_a_zero_row(tmp_path, monkeypatch):
    # the platform at (120, 90, 100) is 180 m from the walk's start, beyond
    # a 150 m link range: the point covers no time, and nothing is priced
    priced = []
    monkeypatch.setattr(cli, "expected_los_total", lambda *a, **k: priced.append(a))
    monkeypatch.setattr(cli, "monte_carlo_expected_los", lambda *a, **k: priced.append(a))
    rc, out = _run(tmp_path, _cfg(values=[5.0], link_range=150.0))
    assert rc == 0
    rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
    assert [(r["value"], r["analytic_s"], r["mc_mean_s"], r["mc_stderr_s"], r["trials"])
            for r in rows] == [("5", "0", "0", "0", "5")]
    assert priced == []


def test_run_timing_flag_fills_runtime(tmp_path):
    cfg = _cfg(values=[10.0], seed=3)
    rc, out = _run(tmp_path, cfg, "--timing")
    assert rc == 0
    rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
    assert float(rows[0]["runtime_ms"]) > 0.0


def test_run_trials_and_seed_overrides(tmp_path):
    cfg = _cfg(values=[10.0], seed=3, trials=5)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o.csv"
    rc = main(["run", "--config", str(cfg_path), "--out", str(out),
               "--trials", "9", "--seed", "4"])
    assert rc == 0
    rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
    assert rows[0]["trials"] == "9"


def test_run_ratio_sweep_has_width_variants(tmp_path):
    cfg = {
        "sweep": "building_ratio", "values": [1.0, 3.0], "trials": 4, "seed": 2,
        "street_widths": [10.0, 20.0],
    }
    rc, out = _run(tmp_path, cfg)
    assert rc == 0
    rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
    assert [(r["variant"], r["value"]) for r in rows] == [
        ("w=10", "1"), ("w=10", "3"), ("w=20", "1"), ("w=20", "3"),
    ]


def test_run_association_sweep_variants(tmp_path):
    cfg = {
        "sweep": "association", "values": [2.0, 20.0], "trials": 6, "seed": 31,
        "uav_dy": 45.0, "uav_height": 100.0, "link_range": 130.0,
    }
    rc, out = _run(tmp_path, cfg)
    assert rc == 0
    rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
    assert [r["variant"] for r in rows] == ["proposed", "benchmark", "difference"] * 2
    for r in rows:
        if r["variant"] == "proposed":
            assert r["analytic_s"] != ""
        else:
            assert r["analytic_s"] == ""


def test_run_config_errors_exit_two(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "missing.json")])
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"sweep": "nope"}))
    assert main(["run", "--config", str(bogus)]) == 2
    for constant in ("NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400):
        bogus.write_text(f'{{"sweep": "velocity", "duration": {constant}, "values": [5.0]}}')
        assert main(["run", "--config", str(bogus)]) == 2
    # an epoch expecting more street crossings than are priced is refused up front
    bogus.write_text(json.dumps({"sweep": "velocity", "duration": 1e300, "values": [5.0]}))
    assert main(["run", "--config", str(bogus)]) == 2
    # a start distance whose square overflows a float, here a JSON int
    bogus.write_text('{"sweep": "uav_height", "values": [60.0], "initial_distance": 1'
                     + "0" * 200 + "}")
    assert main(["run", "--config", str(bogus)]) == 2
    # a seed is a non-negative int and trials a positive int, a bool
    # neither, also when given on the command line
    for key, value in (("seed", -1), ("seed", 1.5), ("seed", True), ("trials", 2.5),
                       ("trials", True), ("trials", 0)):
        bogus.write_text(json.dumps(_cfg(values=[5.0], **{key: value})))
        assert main(["run", "--config", str(bogus)]) == 2, (key, value)
    bogus.write_text(json.dumps(_cfg(values=[5.0])))
    for flag, value in (("--seed", "-4"), ("--trials", "0"), ("--trials", "-3")):
        assert main(["run", "--config", str(bogus), flag, value]) == 2, (flag, value)
    # an epsilon outside (0, 1), a config that is a JSON list, and no config at all
    bogus.write_text(json.dumps(_cfg(values=[5.0], epsilon=0)))
    assert main(["run", "--config", str(bogus)]) == 2
    bogus.write_text(json.dumps([_cfg(values=[5.0])]))
    assert main(["run", "--config", str(bogus)]) == 2
    assert main(["run"]) == 2
    # a grid dump value that GridParams or the sampler refuses writes no file,
    # nor does a street width with no anchored street to pin
    capsys.readouterr()
    for flags in (["--seed", "-1"], ["--sigma", "0"], ["--sigma", "nan"], ["--anchor-y", "999"],
                  ["--street-width", "-1", "--anchor-y", "0"],
                  ["--street-width", "nan", "--anchor-y", "0"], ["--street-width", "nan"],
                  ["--street-width", "5"], ["--preset", "nope"]):
        assert main(["grid", "dump", *flags, "--out", str(tmp_path / "g.json")]) == 2, flags
        assert not (tmp_path / "g.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, (flags, err)
    # a good city to an output path that cannot be written
    assert main(["grid", "dump", "--out", str(tmp_path / "no" / "such" / "g.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output") and err.count("\n") == 1


def test_run_degenerate_geometry_exits_two(tmp_path, capsys, monkeypatch):
    # the start contact lies outside the region: for this platform at every
    # speed, and in the ratio sweep only at the second width (x = 300 * 25/30
    # = 250, against 100 at w = 10); either way nothing is priced first
    priced = []
    monkeypatch.setattr(cli, "expected_los_total", lambda *a, **k: priced.append(a))
    for cfg, x in ((_cfg(values=[15.0], uav_dx=5000.0, uav_dy=14.0), "4642.86"),
                   ({"sweep": "building_ratio", "values": [1.0], "trials": 5,
                     "street_widths": [10.0, 25.0], "uav_dx": 300.0, "uav_dy": 30.0}, "250")):
        rc, _ = _run(tmp_path, cfg)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("geometry error: the start contact at x = " + x + " lies outside")
        assert err.count("\n") == 1
    assert priced == []


@pytest.mark.parametrize("extra, rc", [
    ({"preset": "custom", "mu_b": -1, "mu_s": 5}, 2),
    ({"region": [0, 400]}, 2),
    ({"uav_height": -3}, 2),
    ({"link_range": -1}, 2),
    ({"sweep": "building_ratio", "street_widths": []}, 2),
    ({"sigma": "8"}, 2),
    ({"region": [400]}, 2),
    ({"region": [1e12, 1e12]}, 2),  # about 1.7e10 mean cells a side: refused before a draw
    ({"values": [1, "a"]}, 2),
    ({"values": 5}, 2),
    ({"sigma": 0}, 2),
    ({"duration": -1}, 2),
    ({"sweep": "association", "user_xs": []}, 2),
    ({"seed": 1.5}, 2),
    ({"preset": None}, 2),
    ({"link_range": None}, 0),
    ({"sweep": "uav_height", "trials": 5, "values": [60.0], "initial_distance": 1e200}, 2),
    ({"sweep": "uav_height", "trials": 5, "values": [60.0], "initial_distance": 160.0,
      "uav_dy": 1e200}, 2),
], ids=lambda x: json.dumps(x) if isinstance(x, dict) else f"rc{x}")
def test_run_refuses_a_value_a_sweep_object_refuses(tmp_path, capsys, monkeypatch, extra, rc):
    # a bad type or value exits 2 with one line before anything is priced;
    # the null link range (unlimited) still runs
    priced = []
    monkeypatch.setattr(cli, "expected_los_total",
                        lambda *a, **k: priced.append(a) or SimpleNamespace(expected_time=1.0))
    monkeypatch.setattr(cli, "compare_policies", lambda *a, **k: priced.append(a))
    assert _run(tmp_path, {**_cfg(values=[5.0]), **extra})[0] == rc
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 if rc else err == ""
    assert bool(priced) == (rc == 0)


def test_ratio_criteria_share_one_sweep(monkeypatch):
    # c5b and c5b-width read the same building-ratio sweep, built once
    built = []
    rows = [{"variant": f"w={w}", "analytic_s": str(a)}
            for w, curve in ((10, (7.0, 6.5, 6.0)), (20, (9.5, 9.0, 8.5))) for a in curve]
    monkeypatch.setattr(checks, "_sweep_rows", lambda cfg: built.append(cfg) or rows)
    checks._ratio_curves.cache_clear()
    try:
        assert checks.CRITERIA["c5b"]().measured == -0.5  # the largest step
        assert checks.CRITERIA["c5b-width"]().measured == -2.5  # the smallest w=10 lead
    finally:
        checks._ratio_curves.cache_clear()
    assert len(built) == 1


def test_unimodal_check_refuses_a_peak_at_either_end():
    assert checks._unimodal_with_interior_peak([1.0, 3.0, 2.0])
    assert not checks._unimodal_with_interior_peak([3.0, 2.0, 1.0])
    assert not checks._unimodal_with_interior_peak([1.0, 2.0, 3.0])


def test_run_unwritable_output_exits_two(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_cfg(values=[10.0])))
    rc = main(["run", "--config", str(cfg_path),
               "--out", str(tmp_path / "no" / "such" / "dir.csv")])
    assert rc == 2


def test_grid_dump_round_trips(tmp_path):
    out = tmp_path / "grid.json"
    rc = main(["grid", "dump", "--preset", "urban", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    g = UrbanGrid.from_json(out.read_text())
    assert g.seed == 3
    assert g.params.mu_b == 45.0 and g.params.mu_s == 13.0
    # unanchored, the one sampler pins a street edge at the region's low edge
    want = sample_grid_anchored(GridParams(45.0, 13.0, 8.0), 3, -200.0)
    assert out.read_text() == want.to_json() + "\n"
    assert g.y_points[0] == -200.0


def test_grid_dump_anchored(tmp_path):
    out = tmp_path / "grid.json"
    rc = main(["grid", "dump", "--preset", "urban", "--seed", "1",
               "--anchor-y", "0", "--street-width", "13", "--out", str(out)])
    assert rc == 0
    g = UrbanGrid.from_json(out.read_text())
    assert g.band_at("y", 6.0) == ("street", g.band_at("y", 6.0)[1], 0.0, 13.0)


def test_validate_quadrature_passes(monkeypatch, capsys):
    # a clock whose every reading is further on: the second run takes longer
    # than the first, and still prints the same bytes
    ticks = iter(range(1, 100))
    clock = SimpleNamespace(perf_counter=lambda: next(ticks) ** 2 / 100)
    monkeypatch.setattr(checks, "time", clock)
    assert main(["validate", "c1"]) == 0
    printed = capsys.readouterr().out
    assert main(["validate", "c1"]) == 0
    assert capsys.readouterr().out == printed
    tag, name, blob = printed.split(" ", 2)
    v = json.loads(blob)
    assert (tag, name, v["ok"], v["tolerance"], v["trials"]) == ("PASS", "c1", True, 1e-9, 1000)
    assert set(v) == {"name", "ok", "measured", "tolerance", "trials", "detail", "expected_fail"}


# (ok, expected_fail) of the entries of a stand-in registry
PASSES, FAILS, XFAILS = (True, False), (False, False), (False, True)


@pytest.mark.parametrize("argv, registry, rc, printed", [
    (["validate"], {"a": PASSES, "b": FAILS}, 1, [["PASS", "a"], ["FAIL", "b"]]),
    (["validate", "all"], {"a": PASSES, "b": XFAILS}, 0, [["PASS", "a"], ["XFAIL", "b"]]),
    (["validate", "c99"], {"a": PASSES, "b": PASSES}, 2, []),
    (["validate", "b"], {"a": FAILS, "b": PASSES}, 0, [["PASS", "b"]]),
], ids=["fail-exits-1", "lone-xfail-exits-0", "unknown-exits-2", "name-runs-alone"])
def test_validate_verb(monkeypatch, capsys, argv, registry, rc, printed):
    runs: list[str] = []

    def entry(key, ok, xfail):
        return lambda: runs.append(key) or Verdict(key, ok, 0.5, 1.0, 3, "detail", xfail)

    monkeypatch.setattr(checks, "CRITERIA", {k: entry(k, *v) for k, v in registry.items()})
    assert main(argv) == rc
    out = capsys.readouterr()
    assert [line.split(" ", 2)[:2] for line in out.out.splitlines()] == printed
    assert runs == [name for _, name in printed]
    assert rc != 2 or "unknown criterion 'c99'" in out.err
