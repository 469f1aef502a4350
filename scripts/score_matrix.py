"""Time and peak memory of one large urban score matrix, in a fresh process.

1000 users walk east for 10 s from x ~ U(-150, 150) at v ~ U(0.5, 30) m/s on
the street y = 0; 200 platforms of unlimited range sit at x ~ U(-150, 150),
y ~ U(30, 150), height ~ U(40, 150).  Every pair is priced by the batched
closed form (``assoc._score_pairs``), as ``assign_max_expected_los`` and
``compare_policies`` price their score matrices.

    PYTHONPATH=src python scripts/score_matrix.py [--users 1000] [--uavs 200]

Prints one JSON line: the pricing wall time, the process's peak RSS after
it (``ru_maxrss``), and a sha256 of the score matrix so two trees can be
compared for identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time

import numpy as np

from uavlos.assoc import _score_pairs, _walks
from uavlos.env import GridParams, Uav, UserMotion


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--users", type=int, default=1000)
    ap.add_argument("--uavs", type=int, default=200)
    args = ap.parse_args(argv)
    rng = np.random.default_rng(0)
    ux, speed = rng.uniform(-150, 150, args.users), rng.uniform(0.5, 30, args.users)
    px, py, ph = (rng.uniform(lo, hi, args.uavs) for lo, hi in ((-150, 150), (30, 150), (40, 150)))
    users = [UserMotion(x, 0.0, v, 10.0) for x, v in zip(ux.tolist(), speed.tolist())]
    uavs = [Uav(x, y, h) for x, y, h in zip(px.tolist(), py.tolist(), ph.tolist())]
    urban = GridParams(45.0, 13.0, 8.0)
    walks = _walks(users, uavs)
    t0 = time.perf_counter()
    scores = _score_pairs(walks, urban, 1e-3)
    wall = time.perf_counter() - t0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    digest = hashlib.sha256(np.array(scores).tobytes()).hexdigest()
    json.dump({"users": args.users, "uavs": args.uavs, "score_s": round(wall, 4),
               "peak_rss_mb": round(rss_kb / 1024, 1), "sha256": digest}, sys.stdout)
    print()


if __name__ == "__main__":
    main()
