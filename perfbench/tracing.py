"""Spans and counters recorded from outside the package, around its public calls.

``Tracer.install`` replaces each traced public function with a wrapper in
every ``uavlos`` module that holds it (the defining module and each module
that imported the name), so calls made inside the package are caught as
well as calls made by the benchmark.  A span records its name, start, end,
the span that was open when it started (its parent) and the operation it
belongs to.  Spans stay in flat in-memory arrays until ``save`` writes them.

Self time is a span's duration minus the time its child spans cover.  The
counters are taken from the wrapped calls' arguments and results, so a
later change inside the package cannot move them without changing what the
public functions are asked or return.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time
from array import array
from collections import Counter

import numpy as np

import uavlos
from uavlos import analytic, assoc, cli, env, mobility, oracle

MODULES = {"env": env, "analytic": analytic, "mobility": mobility,
           "oracle": oracle, "assoc": assoc, "cli": cli}

# (module, function) pairs traced wherever the function object is bound
FUNCTIONS = [
    ("oracle", "los_intervals"),
    ("oracle", "los_time"),
    ("oracle", "is_los"),
    ("oracle", "monte_carlo_expected_los"),
    ("env", "sample_grid_anchored"),
    ("mobility", "expected_los_total"),
    ("mobility", "canonical_plan"),
    ("mobility", "expected_los_piecewise"),
    ("mobility", "poisson_truncation_count"),
    ("analytic", "p_los_static"),
    ("analytic", "void_rate"),
    ("assoc", "pair_score"),
    ("assoc", "assign_max_expected_los"),
    ("assoc", "assign_nearest_los"),
    ("assoc", "realized_value"),
    ("assoc", "compare_policies"),
    ("cli", "run_experiment"),
]
METHODS = [("env", "UrbanGrid", "blocks_overlapping")]

ROOT = "bench.op"  # one root span per benchmark operation
SPAN_NAMES = ([ROOT] + [f"{m}.{f}" for m, f in FUNCTIONS]
              + [f"{m}.{c}.{f}" for m, c, f in METHODS])
SEGMENT_KINDS = (env.FACE, env.WALL, env.OPEN)

# name -> unit of the ratio metrics derived from the counters
RATIOS = {
    "oracle.contact_accept_ratio": "ratio",
    "oracle.blocks_per_walk": "count",
    "env.blocks_per_query": "count",
    "mobility.counts_per_call": "count",
    **{f"mobility.segments_per_plan.{k}": "count" for k in SEGMENT_KINDS},
    "assoc.distinct_pair_ratio": "ratio",
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES[1:]:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(RATIOS)
    for m in MODULES:
        units[f"{m}.self_share"] = "ratio"
    units.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s",
                  "trace.overhead_s": "s", "trace.layer_share": "ratio"})
    return units


def _pair_key(params, motion, u, *rest, **kw) -> tuple:
    return (dataclasses.astuple(params), dataclasses.astuple(motion), dataclasses.astuple(u),
            rest, tuple(sorted(kw.items())))


class Tracer:
    """In-memory span recorder and counter set for one traced run."""

    def __init__(self) -> None:
        self._index = {n: i for i, n in enumerate(SPAN_NAMES)}
        self._parent = array("q")
        self._op = array("q")
        self._name = array("H")
        self._t0 = array("d")
        self._t1 = array("d")
        self._stack = [-1]
        self._active: list[str] = []
        self._op_id = -1
        self._pass_start = 0
        self._patched: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        self.pairs: set = set()
        self._pair_sig = inspect.signature(assoc.pair_score)

    # -- spans ------------------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self._t0)
        self._parent.append(self._stack[-1])
        self._op.append(self._op_id)
        self._name.append(self._index[name])
        self._t0.append(time.perf_counter())
        self._t1.append(0.0)
        self._stack.append(sid)
        self._active.append(name)
        return sid

    def _close(self, sid: int) -> None:
        self._t1[sid] = time.perf_counter()
        self._stack.pop()
        self._active.pop()

    def operation(self, fn):
        """Run fn() as one benchmark operation under a fresh operation id."""
        self._op_id += 1
        sid = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(sid)

    # -- counters ---------------------------------------------------------------

    def _count(self, name: str, args: tuple, kwargs: dict, out) -> None:
        c = self.counts
        if name == "oracle.monte_carlo_expected_los":
            c["mc_trials"] += out.n
        elif name == "env.sample_grid_anchored":
            if "oracle.monte_carlo_expected_los" in self._active:
                c["mc_draws"] += 1
        elif name == "env.UrbanGrid.blocks_overlapping":
            n = len(out[0])
            c["blocks"] += n
            if self._active and self._active[-1] == "oracle.los_intervals":
                c["walk_blocks"] += n
        elif name == "mobility.expected_los_total":
            c["crossing_counts"] += out.truncation_count + 1
        elif name == "mobility.canonical_plan":
            for seg in out.segments:
                c[f"seg.{seg.kind}"] += 1
        elif name == "assoc.pair_score":
            bound = self._pair_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.pairs.add(_pair_key(**bound.arguments))

    # -- patching ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            tracer._count(name, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        holders = [uavlos, *MODULES.values()]
        for mod, fname in FUNCTIONS:
            orig = getattr(MODULES[mod], fname)
            wrapped = self._wrap(f"{mod}.{fname}", orig)
            for holder in holders:
                for attr, val in list(vars(holder).items()):
                    if val is orig:
                        self._patched.append((holder, attr, orig))
                        setattr(holder, attr, wrapped)
        for mod, cls_name, meth in METHODS:
            cls = getattr(MODULES[mod], cls_name)
            orig = cls.__dict__[meth]
            self._patched.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{mod}.{cls_name}.{meth}", orig))

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._patched):
            setattr(holder, attr, orig)
        self._patched.clear()

    # -- per-pass metrics -------------------------------------------------------

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts since the last call."""
        start, end = self._pass_start, len(self._t0)
        self._pass_start = end
        # slicing an array copies it, so no buffer stays exported while
        # later spans are appended
        t0 = np.frombuffer(self._t0[start:end], dtype=float)
        t1 = np.frombuffer(self._t1[start:end], dtype=float)
        parent = np.frombuffer(self._parent[start:end], dtype=np.int64)
        name = np.frombuffer(self._name[start:end], dtype=np.uint16)
        dur = t1 - t0
        child = np.zeros(end - start)
        inner = parent >= start
        np.add.at(child, parent[inner] - start, dur[inner])
        self_s = np.bincount(name, weights=dur - child, minlength=len(SPAN_NAMES))
        calls = np.bincount(name, minlength=len(SPAN_NAMES))
        wall = float(dur[name == 0].sum())

        out: dict[str, float] = {}
        for i, n in enumerate(SPAN_NAMES[1:], start=1):
            out[f"{n}.calls"] = int(calls[i])
            out[f"{n}.self_s"] = float(self_s[i])

        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def per_call(num: float, span: str) -> float:
            return ratio(num, out[f"{span}.calls"])

        out["oracle.contact_accept_ratio"] = ratio(c["mc_trials"], c["mc_draws"])
        out["oracle.blocks_per_walk"] = per_call(c["walk_blocks"], "oracle.los_intervals")
        out["env.blocks_per_query"] = per_call(c["blocks"], "env.UrbanGrid.blocks_overlapping")
        out["mobility.counts_per_call"] = per_call(c["crossing_counts"], "mobility.expected_los_total")
        for k in SEGMENT_KINDS:
            out[f"mobility.segments_per_plan.{k}"] = per_call(c[f"seg.{k}"], "mobility.canonical_plan")
        out["assoc.distinct_pair_ratio"] = per_call(len(self.pairs), "assoc.pair_score")
        for m in MODULES:
            share = sum(out[f"{n}.self_s"] for n in SPAN_NAMES[1:] if n.startswith(m + "."))
            out[f"{m}.self_share"] = ratio(share, wall)
        out["trace.wall_s"] = wall
        out["trace.layer_share"] = ratio(wall - float(self_s[0]), wall)
        self.counts = Counter()
        self.pairs = set()
        return out

    def save(self, path) -> None:
        """Write every span recorded so far as compressed columns."""
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            name=np.frombuffer(self._name, dtype=np.uint16),
            parent=np.frombuffer(self._parent, dtype=np.int64),
            op=np.frombuffer(self._op, dtype=np.int64),
            start_s=np.frombuffer(self._t0, dtype=float),
            end_s=np.frombuffer(self._t1, dtype=float),
        )
