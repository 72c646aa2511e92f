#!/usr/bin/env python3
"""Time the rooted-grid hitting branch (layer L3: the boundary DP and the
blocker scan) on one or more source trees.

    python3 scripts/bench_rooted_grid.py before=../old/src after=src > BENCH_rooted_grid.json

Each ``label=src-dir`` runs in a fresh interpreter that imports
``coarse_menger`` from ``src-dir``.  For w = 3..6 (``--widths``) it times
``trees.two_disjoint_connected_transversals`` and
``trees.min_transversal_blocker`` (budget 2w) on ``rooted_p3_grid(w)`` as the
median of ``--runs`` runs, and records the blocker found.  One more, untimed
run reads the DP's layer list when the function returns, for the number of
states it kept (summed over layers) and its largest layer.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def _count_states(dp, g, roots):
    """Summed and largest layer size of one DP run, read from the function's
    ``layers`` local as it returns."""
    seen = {}

    def hook(frame, event, arg):
        if event == "return" and frame.f_code is dp.__code__:
            sizes = [len(layer) for layer in frame.f_locals["layers"]]
            seen.update(kept=sum(sizes), largest=max(sizes))

    sys.setprofile(hook)
    try:
        dp(g, roots)
    finally:
        sys.setprofile(None)
    return seen


def measure(src: str, widths, runs: int) -> list:
    sys.path.insert(0, src)
    from coarse_menger.generators import rooted_p3_grid
    from coarse_menger.trees import (
        min_transversal_blocker,
        two_disjoint_connected_transversals,
    )

    rows = []
    for w in widths:
        spec = rooted_p3_grid(w)
        g, roots = spec.graph, list(spec.roots)
        dp_s, blocker_s = [], []
        for _ in range(runs):
            t0 = time.perf_counter()
            pair = two_disjoint_connected_transversals(g, roots)
            t1 = time.perf_counter()
            z = min_transversal_blocker(g, roots, 2 * w)
            t2 = time.perf_counter()
            dp_s.append(t1 - t0)
            blocker_s.append(t2 - t1)
        states = _count_states(two_disjoint_connected_transversals, g, roots)
        rows.append({
            "w": w,
            "dp_s": round(statistics.median(dp_s), 4),
            "blocker_s": round(statistics.median(blocker_s), 4),
            "dp_pair_found": pair is not None,
            "dp_states_kept": states["kept"],
            "dp_largest_layer": states["largest"],
            "z": sorted(z),
            "min_hitting": len(z),
        })
        print(f"w={w} done", file=sys.stderr, flush=True)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="label=src-dir")
    parser.add_argument("--widths", default="3,4,5,6")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--one", help=argparse.SUPPRESS)
    args = parser.parse_args()
    widths = [int(w) for w in args.widths.split(",")]
    if args.one:
        json.dump(measure(args.one, widths, args.runs), sys.stdout)
        return 0
    if not args.trees:
        parser.error("name at least one label=src-dir")
    out = {
        "topic": "rooted-grid hitting branch",
        "layer": "L3",
        "what": "median seconds of the boundary DP and the blocker scan on "
                "rooted_p3_grid(w), DP states kept, and the blocker found",
        "runs": args.runs,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cores",
        "trees": {},
    }
    for spec in args.trees:
        label, _, src = spec.partition("=")
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--one", os.path.abspath(src),
             "--widths", args.widths, "--runs", str(args.runs)],
            check=True, stdout=subprocess.PIPE, text=True,
        )
        out["trees"][label] = json.loads(done.stdout)
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
