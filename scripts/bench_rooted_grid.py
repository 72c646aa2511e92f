#!/usr/bin/env python3
"""Time the rooted-grid hitting branch (layer L3: the boundary DP and the
blocker scan) on one or more source trees.

    python3 scripts/bench_rooted_grid.py before=../old/src after=src > BENCH_rooted_grid.json

Each ``label=src-dir`` runs in a fresh interpreter that imports
``coarse_menger`` from ``src-dir``.  For w = 3..6 (``--widths``) it times
``trees.two_disjoint_connected_transversals`` and
``trees.min_transversal_blocker`` (budget 2w) on ``rooted_p3_grid(w)`` as the
median of ``--runs`` runs, and records the blocker found.  One more, untimed
run wraps ``trees._drop_dominated``, which the DP calls once per vertex step
(the vertex's intro and the forgets after it), and sums the sizes of the
layers handed to it for the number of states the DP made, and of the layers
it returns for the number it kept (and takes their largest); a last untimed
run under ``tracemalloc`` records the DP's peak of traced memory.
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
import tracemalloc


#: what the script wraps in ``coarse_menger``: the DP's per-step pruning,
#: whose layers it counts
WRAPPED = ("trees._drop_dominated",)


def _count_states(trees, g, roots):
    """Summed sizes of the layers handed to ``trees._drop_dominated`` in one
    DP run, and summed and largest sizes of the layers it returns."""
    made, sizes = [], []
    drop = trees._drop_dominated

    def counted(layer):
        made.append(len(layer))
        kept = drop(layer)
        sizes.append(len(kept))
        return kept

    trees._drop_dominated = counted
    try:
        trees.two_disjoint_connected_transversals(g, roots)
    finally:
        trees._drop_dominated = drop
    return {"made": sum(made), "kept": sum(sizes), "largest": max(sizes)}


def _peak_mb(dp, g, roots) -> float:
    """The ``tracemalloc`` peak of one DP run, in MiB."""
    tracemalloc.start()
    try:
        dp(g, roots)
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
    finally:
        tracemalloc.stop()


def measure(src: str, widths, runs: int) -> list:
    sys.path.insert(0, src)
    from coarse_menger import trees
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
        states = _count_states(trees, g, roots)
        peak_mb = _peak_mb(two_disjoint_connected_transversals, g, roots)
        rows.append({
            "w": w,
            "dp_s": round(statistics.median(dp_s), 4),
            "blocker_s": round(statistics.median(blocker_s), 4),
            "dp_pair_found": pair is not None,
            "dp_states_made": states["made"],
            "dp_states_kept": states["kept"],
            "dp_largest_layer": states["largest"],
            "dp_peak_mb": peak_mb,
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
                "rooted_p3_grid(w), DP states made and kept, the DP's tracemalloc "
                "peak (MiB), and the blocker found",
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
