"""uavlos benchmark: one workload, one seed, one measured run.

Run from the repository root:

    python3 perfbench/run.py --workload mc_sweep --seed 0 --seconds 30 --trace 0

The package is imported from ``src/`` of the tree the script sits in and is
driven only through its public functions.  A run sets up (import, seeded
inputs, warm-up), then repeats the workload's pass of operations until
``--seconds`` have been spent in passes and at least ``MIN_PASSES`` passes
are done, checking every operation's output.  Everything runs in this one
process on one thread, except the set-up probes: set-up is timed here and
again in four fresh interpreters, started one at a time between passes
spread over the run, and the median is reported.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the run first times untraced passes for half the time,
then traced passes for the other half, and the last line carries the
per-layer metrics; the spans go to ``.bench_build/perfbench/``.

``--write-reference`` regenerates ``reference_seed0.json`` from the current
code: seed 0 outputs of every workload and the long referee runs behind
``model_gap_pct``.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference_seed0.json"
WORKLOAD_NAMES = ("mc_sweep", "closed_form", "crowded_street")

MIN_PASSES = 10  # each operation's best time is taken over at least this many passes
SETUP_PROBES = 4  # fresh interpreters that repeat set-up, besides this process
HARD_CAP_S = 120.0  # no new pass starts after this, so a run ends within 180 s


def _import_workloads():
    src = ROOT / "src"
    if not (src / "uavlos" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def set_up(name: str, seed: int):
    """Import, seeded inputs and warm-up; returns the workload and seconds taken."""
    workloads = _import_workloads()
    if not REFERENCE.is_file():
        sys.exit(f"perfbench: missing {REFERENCE.name}")
    refs = json.loads(REFERENCE.read_text())
    w = workloads.WORKLOADS[name](seed, refs)
    w.warm_up()
    return w, time.perf_counter() - _T_START


def probe_setup(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Run:
    """Timed passes of one workload, with every output checked."""

    def __init__(self, w):
        self.w = w
        self.first: list = [None] * len(w.ops)
        self.attempted = 0
        self.failed = 0
        self.pass_ops: list[list[float]] = []  # per pass, per operation seconds

    def one_pass(self, call=None) -> None:
        durs = []
        for i, op in enumerate(self.w.ops):
            fn = (lambda op=op: self.w.run_op(op))
            t0 = time.perf_counter()
            try:
                out = call(fn) if call else fn()
            except Exception:
                out, err = None, traceback.format_exc()
            else:
                err = None
            durs.append(time.perf_counter() - t0)
            if err is None:
                err = self.w.check(i, out)
                if err is None and self.pass_ops and out != self.first[i]:
                    err = "output differs from the first pass on the same inputs"
            if not self.pass_ops:
                self.first[i] = out
            self.attempted += 1
            if err is not None:
                self.failed += 1
                if self.failed <= 3:
                    print(f"FAIL {self.w.name} op {i}: {err}", file=sys.stderr)
        self.pass_ops.append(durs)

    def repeat(self, seconds: float, min_passes: int, call=None, after_pass=None) -> None:
        """Passes until ``seconds`` were spent in them; ``after_pass`` time is not counted."""
        spent = 0.0
        while True:
            n = len(self.pass_ops)
            if n >= min_passes and spent >= seconds:
                break
            if n and time.perf_counter() - _T_START > HARD_CAP_S:
                print(f"perfbench: stopped after {n} passes at the time cap", file=sys.stderr)
                break
            t0 = time.perf_counter()
            self.one_pass(call)
            spent += time.perf_counter() - t0
            if after_pass:
                after_pass(spent)

    def walls(self) -> list[float]:
        return [sum(d) for d in self.pass_ops]


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its rank.

    Below twenty samples no such percentile is worth the name, and the tail
    is the slowest sample.
    """
    s = sorted(samples)
    n = len(s)
    if n < 20:
        return s[-1], 1.0
    return s[n - 11], (n - 10) / n


def machine_line() -> str:
    import numpy
    import scipy

    cores = len(os.sched_getaffinity(0))
    return (f"# machine: cores={cores} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__}")


def best_times(pass_ops: list[list[float]]) -> list[float]:
    """Each operation's fastest time over the given passes.

    On a shared host the same Python work runs up to ~50% slower for seconds
    at a time; between 20 s runs the median pass moved by 16-25%, the
    per-operation minimum by under 10%.
    """
    return [min(p[i] for p in pass_ops) for i in range(len(pass_ops[0]))]


def end_to_end(w, run: Run, setup_s: list[float]) -> dict:
    best = best_times(run.pass_ops)
    tail_s, rank = tail(best)
    walls = run.walls()
    print(f"# {w.name} seed={w.seed}: {len(walls)} passes of {len(w.ops)} operations; "
          f"pass seconds median {statistics.median(walls):.4f} min {min(walls):.4f} "
          f"max {max(walls):.4f}; op_tail_ms is p{100 * rank:.1f} of {len(best)} per-operation "
          f"best times; setup_s samples {[round(s, 4) for s in setup_s]}")
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (sum(best), "s"),
        "op_p50_ms": (1000.0 * statistics.median(best), "ms"),
        "op_tail_ms": (1000.0 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "model_gap_pct": (w.model_gap_pct(run.first), "%"),
        "ok_ratio": ((run.attempted - run.failed) / run.attempted, "ratio"),
    }


def per_layer(w, seconds: float) -> tuple[Run, dict]:
    import tracing

    run = Run(w)
    run.repeat(seconds / 2.0, 3)
    n_untraced = len(run.pass_ops)

    tracer = tracing.Tracer()
    per_pass: list[dict] = []
    tracer.install()
    try:
        run.repeat(seconds / 2.0, n_untraced + 3, call=tracer.operation,
                   after_pass=lambda _: per_pass.append(tracer.pass_metrics()))
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{w.name}-seed{w.seed}.npz"
    tracer.save(path)

    # The fastest pass on each side: its self times add up to its wall time.
    units = tracing.layer_metric_units()
    fastest = min(per_pass, key=lambda p: p["trace.wall_s"])
    metrics = {k: (v, units[k]) for k, v in fastest.items()}
    untraced = min(run.walls()[:n_untraced])
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (fastest["trace.wall_s"] - untraced, "s")
    print(f"# {w.name} seed={w.seed}: {n_untraced} untraced and {len(per_pass)} traced passes; "
          f"spans in {path.relative_to(ROOT)}")
    if set(metrics) != set(units):
        raise RuntimeError(f"per-layer metrics out of step: {set(metrics) ^ set(units)}")
    return run, metrics


def write_reference() -> None:
    """Store seed-0 outputs and long referee runs from the current code."""
    workloads = _import_workloads()
    refs: dict = {"referee": {}}
    for name in WORKLOAD_NAMES:
        w = workloads.WORKLOADS[name](workloads.REFERENCE_SEED, {})
        outputs = [w.run_op(op) for op in w.ops]
        errors = [e for e in (w.check(i, o) for i, o in enumerate(outputs)) if e]
        if errors:
            sys.exit(f"perfbench: {name} fails its invariants: {errors[0]}")
        refs[name] = w.reference_entry(outputs)
        cfgs = w.referee_configs()
        refs["referee"][name] = {
            "configs": [c.resolved() for c in cfgs],
            "means": [float(workloads.csv_rows(c)[0][4]) for c in cfgs],
        }
        print(f"{name}: referee means {refs['referee'][name]['means']}", flush=True)
    REFERENCE.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time; defaults to run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()

    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    w, setup_s = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    print(machine_line())
    if args.trace:
        run, metrics = per_layer(w, args.seconds)
    else:
        # Set-up is slower or faster for tens of seconds at a time on a shared
        # host, so the probes are spread over the run rather than run together.
        setups = [setup_s]

        def probe(spent: float) -> None:
            due = len(setups) * args.seconds / (SETUP_PROBES + 1)
            if len(setups) <= SETUP_PROBES and spent >= due:
                setups.append(probe_setup(args.workload, args.seed))

        run = Run(w)
        run.repeat(args.seconds, MIN_PASSES, after_pass=probe)
        while len(setups) <= SETUP_PROBES:
            setups.append(probe_setup(args.workload, args.seed))
        metrics = end_to_end(w, run, setups)

    for k, (v, unit) in metrics.items():
        print(f"{w.name} {k} = {v:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
