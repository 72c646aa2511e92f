#!/usr/bin/env python3
"""Time the rooted-grid acceptance oracle (layer L5:
``acceptance.exhaustive_two_disjoint_supports``) on one or more source trees.

    python3 scripts/bench_rooted_oracle.py before=../old/src after=src@3,4,5,6 > BENCH_rooted_oracle.json

Each ``label=src-dir`` runs in a fresh interpreter that imports
``coarse_menger`` from ``src-dir``, on w = 3..5 (``--widths``) or on the
widths after ``@`` in its argument, for a tree that finishes larger grids.
For each w it times the oracle on ``rooted_p3_grid(w)`` as the median of
``--runs`` runs and records its result (None when no two disjoint supports
exist), the order in which it searched the root sets
(``acceptance.root_search_order``: the positions in ``spec.roots`` of the
trunk start, the attachment and the trunk end; the input order in a tree
without it) and the peak RSS of the process so far, with garbage collected
after each run.  One more, untimed run counts the search work: the calls of
the attachment search (``q_dfs``) and of the trunk search (``trunk_dfs``),
the component walks (each ``_RootedSupports.witness`` call, and each
``_RootedSupports.components`` call made outside one), and the entries of
the search's memo, read from its locals as the oracle returns.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time


#: what the script wraps or reads in ``coarse_menger``: dotted attributes,
#: and the nested searches and the memo local of the oracle
WRAPPED = (
    "acceptance.exhaustive_two_disjoint_supports",
    "acceptance._RootedSupports.witness",
    "acceptance._RootedSupports.components",
    "acceptance.root_search_order",
)
SEARCHES = {"q_dfs": "attach_calls", "trunk_dfs": "trunk_calls"}
MEMO = "memo"


def _count_work(acceptance, g, roots):
    """Attachment and trunk calls, component walks and memo entries of one
    oracle run."""
    oracle = acceptance.exhaustive_two_disjoint_supports
    sup_class = acceptance._RootedSupports
    counts = {"attach_calls": 0, "trunk_calls": 0, "component_walks": 0,
              "memo_entries": 0}
    source = oracle.__code__.co_filename

    def hook(frame, event, arg):
        code = frame.f_code
        if code.co_filename != source:
            return
        if event == "call" and code.co_name in SEARCHES:
            counts[SEARCHES[code.co_name]] += 1
        elif event == "return" and code is oracle.__code__:
            local = frame.f_locals
            memo = local[MEMO] if MEMO in local else local["sup"]._survives
            counts["memo_entries"] = len(memo)

    # a tree whose witness walks through components() counts that walk once
    witness, walk = sup_class.witness, sup_class.components
    inside = []

    def counted_witness(self, removed):
        counts["component_walks"] += 1
        inside.append(True)
        try:
            return witness(self, removed)
        finally:
            inside.pop()

    def counted_walk(self, removed, *seeds):
        if not inside:
            counts["component_walks"] += 1
        return walk(self, removed, *seeds)

    sup_class.witness, sup_class.components = counted_witness, counted_walk
    sys.setprofile(hook)
    try:
        oracle(g, roots)
    finally:
        sys.setprofile(None)
        sup_class.witness, sup_class.components = witness, walk
    return counts


def measure(src: str, widths, runs: int) -> list:
    sys.path.insert(0, src)
    from coarse_menger import acceptance
    from coarse_menger.generators import rooted_p3_grid

    rows = []
    for w in widths:
        spec = rooted_p3_grid(w)
        g, roots = spec.graph, list(spec.roots)
        seconds = []
        for _ in range(runs):
            t0 = time.perf_counter()
            pair = acceptance.exhaustive_two_disjoint_supports(g, roots)
            seconds.append(time.perf_counter() - t0)
            # the oracle's recursive closures hold its memo in a reference
            # cycle; collect it, so that the peak RSS is one call's peak
            gc.collect()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        order = getattr(acceptance, "root_search_order", lambda g, roots: (0, 1, 2))
        rows.append({
            "w": w,
            "oracle_s": round(statistics.median(seconds), 4),
            "result": None if pair is None else [sorted(side) for side in pair],
            "order": list(order(g, roots)),
            "peak_rss_mb": round(peak_mb, 1),
            **_count_work(acceptance, g, roots),
        })
        print(f"w={w} done", file=sys.stderr, flush=True)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="label=src-dir[@widths]")
    parser.add_argument("--widths", default="3,4,5")
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
        "topic": "rooted-grid acceptance oracle",
        "layer": "L5",
        "what": "median seconds of exhaustive_two_disjoint_supports on "
                "rooted_p3_grid(w), its result, its root order (trunk start, "
                "attachment, trunk end), the search calls, component walks "
                "and memo entries of one run, and the peak RSS",
        "runs": args.runs,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cores",
        "trees": {},
    }
    for spec in args.trees:
        label, _, src = spec.partition("=")
        src, _, widths = src.partition("@")
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--one", os.path.abspath(src),
             "--widths", widths or args.widths, "--runs", str(args.runs)],
            check=True, stdout=subprocess.PIPE, text=True,
        )
        out["trees"][label] = json.loads(done.stdout)
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
