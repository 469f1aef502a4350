"""Steadiness self-check: run each workload repeatedly and report the spread.

Run from the repository root:

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...]

Each run is ``run.py --trace 0`` with its own seed (0, 1, 2, ...), one run
at a time; seed 0 is the one checked against the stored reference outputs.
For every end-to-end metric the check prints the median and quartiles of
the runs (``statistics.quantiles(values, n=4)``), the quartile distance as a
share of the median, and the metric's bound from ``BENCHMARK.json``.  A
spread under a third of the bound reads ``steady``, under the bound
``loose``, above it ``UNSTEADY``.  The exit code is 1 when any run fails,
reports wrong outputs, or any metric reads ``UNSTEADY``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(bench: dict, workload: str, seed: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description="Run each workload repeatedly and report the spread.")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args()

    metrics = bench["end_to_end"]
    bad = False
    for name in args.workload or names:
        results = []
        for k in range(args.runs):
            r = one_run(bench, name, k)
            results.append(r)
            line = " ".join(f"{m['name']}={r['metrics'][m['name']]['value']:.5g}" for m in metrics)
            print(f"{name} seed={k} correct={r['correct']} {line}", flush=True)
            if set(r["metrics"]) != {m["name"] for m in metrics}:
                print(f"  metrics differ from BENCHMARK.json: {sorted(r['metrics'])}")
                bad = True
            bad |= not r["correct"] or r["failed"] != 0
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else float("inf")
            if spread < m["bound"] / 3.0:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "loose"
            else:
                verdict, bad = "UNSTEADY", True
            print(f"  {name} {m['name']}: median {med:.5g} {m['unit']} q1 {q1:.5g} q3 {q3:.5g} "
                  f"spread {spread:.3f} bound {m['bound']} {verdict}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
