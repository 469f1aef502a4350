"""The benchmark tracer wraps package names by string; each must still resolve,
and the counters it reads off the wrapped calls must still move."""

import importlib.util
import inspect
from pathlib import Path

import uavlos

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve_in_package():
    tracing = _tracing()
    for mod, fname in tracing.FUNCTIONS:
        assert inspect.isfunction(getattr(tracing.MODULES[mod], fname, None)), f"{mod}.{fname}"
    for mod, cls_name, meth in tracing.METHODS:
        cls = getattr(tracing.MODULES[mod], cls_name, None)
        assert cls is not None and inspect.isfunction(cls.__dict__.get(meth)), (
            f"{mod}.{cls_name}.{meth}"
        )


def test_tracer_counts_one_call_of_each_workload_path():
    params = uavlos.env.GridParams(45.0, 13.0, 8.0)
    motion = uavlos.UserMotion(0.0, 0.0, 15.0, 10.0)
    u = uavlos.Uav(70.0, 45.0, 100.0)
    users = [uavlos.UserMotion(x, 0.0, 15.0, 10.0) for x in (-40.0, 10.0)]
    uavs = [uavlos.Uav(x, 45.0, 100.0) for x in (-20.0, 60.0)]
    original = uavlos.expected_los_total
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        tracer.operation(lambda: uavlos.expected_los_total(params, motion, u))
        tracer.operation(lambda: uavlos.compare_policies(params, users, uavs, trials=3, seed=0))
        tracer.operation(lambda: uavlos.monte_carlo_expected_los(params, motion, u, 20, 0))
        # the chunked referees call no single-city engine, so ask one directly
        grid = uavlos.sample_grid_anchored(params, 0, 0.0, params.mu_s)
        tracer.operation(lambda: uavlos.los_time(grid, motion, u))
        # compare_policies prices its score matrix in one batched pass, so
        # score each pair once directly
        for m in users:
            for k in uavs:
                tracer.operation(lambda: uavlos.assoc.pair_score(params, m, k))
    finally:
        tracer.uninstall()
    counts, pairs = dict(tracer.counts), len(tracer.pairs)
    metrics = tracer.pass_metrics()
    assert counts["crossing_counts"] > 0
    assert counts["mc_trials"] == 20
    assert counts["blocks"] > 0 and counts["walk_blocks"] > 0
    assert pairs == len(users) * len(uavs)
    for name in ("mobility.expected_los_total", "assoc.compare_policies",
                 "oracle.monte_carlo_expected_los", "oracle.los_intervals"):
        assert metrics[f"{name}.calls"] > 0, name
    assert uavlos.expected_los_total is original
