#!/usr/bin/env python3
"""Measure one topic of the exact solvers on one or more source trees, and
write its BENCH document to stdout.

    python3 scripts/bench.py duality before=../old/src after=src > BENCH_duality.json
    python3 scripts/bench.py rooted-grid before=../old/src after=src > BENCH_rooted_grid.json
    python3 scripts/bench.py rooted-oracle before=../old/src after=src > BENCH_rooted_oracle.json

Each ``label=src-dir`` runs in a fresh interpreter that imports
``coarse_menger`` from ``src-dir``.  Seconds are medians over ``--runs``
runs, counts come from one more, untimed run, and the rooted topics run on
``rooted_p3_grid(w)`` for w in ``--widths``.  The script wraps functions
where the library calls them, so every tree runs unmodified; a tree that
lacks a name of ``WRAPPED`` that its topic uses fails.  For every measured
quantity one ``label topic [w=N] key: value`` line per tree goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BASE_SEED = 11
HOSTS = 80
WEIGHTED_HOSTS = 20
WEIGHTS = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
R_VALUES = (1, 2, 3)
BETA_VALUES = (0, 1)
#: layer -> the functions timed into it: the far-conflict rows and the
#: per-vertex reach they read, the independent-set search, the ball-hit masks
LAYERS = {
    "packing.far_conflicts": ("packing._conflicts_through", "packing._reach"),
    "packing.max_independent_set": ("packing.max_independent_set",),
    "graph._hit_masks": ("covering._within",),
}
#: count -> (function, what one call adds, from its arguments and result)
COUNTED = {
    "max_independent_set_nodes": ("packing.max_independent_set", lambda a, res: res[1]),
    "set_cover_nodes": ("graph._set_cover", lambda a, res: res[1]),
    "member_masks_calls": ("graph._member_masks", lambda a, res: 1),
}
#: work -> what each transposition of a host's path family ``a[1]`` in
#: ``a[0]`` (once per host) adds for the cells that use it: P^2 per r and
#: P*|V| per beta, for P paths and |V| host vertices; and P
WORK = {
    "far_conflicts_p2": ("graph._member_masks", lambda a, res: len(a[1]) ** 2 * len(R_VALUES)),
    "hit_masks_pv": ("graph._member_masks",
                     lambda a, res: len(a[1]) * len(a[0]) * len(BETA_VALUES)),
    "paths": ("graph._member_masks", lambda a, res: len(a[1])),
}
#: the oracle's nested searches -> their counts, and its memo local
SEARCHES = {"q_dfs": "attach_calls", "trunk_dfs": "trunk_calls"}
MEMO = "memo"
#: every name the topics wrap or read in ``coarse_menger``
WRAPPED = tuple(dict.fromkeys(
    [name for names in LAYERS.values() for name in names]
    + [name for name, _ in (*COUNTED.values(), *WORK.values())]
    + ["trees._drop_dominated",
       "acceptance.exhaustive_two_disjoint_supports",
       "acceptance._RootedSupports.witness",
       "acceptance._RootedSupports.components",
       "acceptance.root_search_order"]
))


def _timed(runs: int, fn, *args):
    """The median seconds of ``runs`` calls of ``fn(*args)``, and its result.
    Garbage is collected after each call, so the oracle's peak RSS (its
    closures hold its memo in a reference cycle) is one call's."""
    seconds = []
    for _ in range(runs):
        t0 = time.perf_counter()
        result = fn(*args)
        seconds.append(time.perf_counter() - t0)
        gc.collect()
    return round(statistics.median(seconds), 4), result


def _rebind(name: str, around) -> None:
    """Rebind ``name`` to a function that calls ``around(fn, *args)`` in every
    coarse_menger module that holds the function ``fn``, or only in the named
    module when it imports ``fn`` from another (so ``covering._within`` times
    the sweep's ball-hit masks and not the far-conflict reach, which calls
    ``graph._within`` from ``packing``)."""
    module, attr = name.split(".")
    home = sys.modules[f"coarse_menger.{module}"]
    fn = getattr(home, attr)
    wrapped = functools.wraps(fn)(functools.partial(around, fn))
    if fn.__module__ != home.__name__:
        setattr(home, attr, wrapped)
        return
    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.startswith("coarse_menger") \
                and vars(mod).get(attr) is fn:
            setattr(mod, attr, wrapped)


def _timer(layer: str, seconds: dict):
    def timed(fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds[layer] += time.perf_counter() - t0
    return timed


def _counter(key: str, add, counts: dict):
    def counted(fn, *args, **kwargs):
        result = fn(*args, **kwargs)
        counts[key] += add(args, result)
        return result
    return counted


def measure_duality(runs: int, widths) -> dict:
    """A pass sweeps the hosts in the document's ``hosts`` on graphs built
    afresh, so distance caches start cold.  It times the pass, its unit and
    its weighted hosts, and the ``LAYERS``; the untimed pass counts
    ``COUNTED`` and ``WORK``; the reports' digest must match on every tree."""
    # imported here: its libraries would raise the oracle topic's peak RSS
    import hashlib

    from coarse_menger import covering, generators, graph

    specs = generators.random_instances(
        BASE_SEED, HOSTS, {"min_vertices": 8, "max_vertices": 14}
    )
    hosts = [(s.graph.vertices, s.graph.edges, None, s.x, s.y) for s in specs]
    rng = random.Random(BASE_SEED)
    for s in specs[:WEIGHTED_HOSTS]:
        weights = {e: rng.choice(WEIGHTS) for e in s.graph.edges}
        hosts.append((s.graph.vertices, s.graph.edges, weights, s.x, s.y))

    def one_pass():
        graphs = [(graph.Graph(vs, es, w), x, y) for vs, es, w, x, y in hosts]
        took, reports = {}, []
        for part, gs in (("pass_unit", graphs[:HOSTS]), ("pass_weighted", graphs[HOSTS:])):
            t0 = time.perf_counter()
            reports += [covering.duality_sweep(g, x, y, 0, R_VALUES, BETA_VALUES)
                        for g, x, y in gs]
            took[part] = time.perf_counter() - t0
        took["pass"] = took["pass_unit"] + took["pass_weighted"]
        return took, reports

    seconds = dict.fromkeys(LAYERS, 0.0)
    for layer, names in LAYERS.items():
        for name in names:
            _rebind(name, _timer(layer, seconds))
    passes = {name: [] for name in ("pass", "pass_unit", "pass_weighted", *LAYERS)}
    for _ in range(runs):
        seconds.update(dict.fromkeys(LAYERS, 0.0))
        took, reports = one_pass()
        took.update(seconds)
        for name, times in passes.items():
            times.append(took[name])

    # the counters slow a pass down, so they count one more, untimed pass
    counts, work = dict.fromkeys(COUNTED, 0), dict.fromkeys(WORK, 0)
    for table, tally in ((COUNTED, counts), (WORK, work)):
        for key, (name, add) in table.items():
            _rebind(name, _counter(key, add, tally))
    one_pass()
    digest = hashlib.sha256(json.dumps(
        [rep.to_json_dict() for rep in reports], sort_keys=True).encode()).hexdigest()
    return {
        "seconds": {name: round(statistics.median(s), 4) for name, s in passes.items()},
        "counts_per_pass": counts,
        "paths_per_pass": work.pop("paths"),
        "work_per_pass": work,
        "reports_sha256": digest[:16],
    }


def measure_rooted_grid(runs: int, widths) -> list:
    """Times the boundary DP and the blocker scan (budget 2w).  The untimed
    run sums the sizes of the layers handed to and returned by
    ``trees._drop_dominated`` (one call per vertex step of the DP: its intro
    and the forgets after it) for the states made and kept."""
    # imported here: it would raise the oracle topic's peak RSS
    import tracemalloc

    from coarse_menger import trees
    from coarse_menger.generators import rooted_p3_grid

    dp, drop = trees.two_disjoint_connected_transversals, trees._drop_dominated
    rows = []
    for w in widths:
        spec = rooted_p3_grid(w)
        g, roots = spec.graph, list(spec.roots)
        dp_s, pair = _timed(runs, dp, g, roots)
        blocker_s, z = _timed(runs, trees.min_transversal_blocker, g, roots, 2 * w)
        made, kept = [], []

        def counted(layer):
            made.append(len(layer))
            layer = drop(layer)
            kept.append(len(layer))
            return layer

        trees._drop_dominated = counted
        try:
            dp(g, roots)
        finally:
            trees._drop_dominated = drop
        tracemalloc.start()
        try:
            dp(g, roots)
            peak_mb = round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
        finally:
            tracemalloc.stop()
        rows.append({
            "w": w,
            "dp_s": dp_s,
            "blocker_s": blocker_s,
            "dp_pair_found": pair is not None,
            "dp_states_made": sum(made),
            "dp_states_kept": sum(kept),
            "dp_largest_layer": max(kept),
            "dp_peak_mb": peak_mb,
            "z": sorted(z),
            "min_hitting": len(z),
        })
    return rows


def measure_rooted_oracle(runs: int, widths) -> list:
    """Times the oracle; its root order is the positions in ``spec.roots``
    of the trunk start, the attachment and the trunk end.  The untimed run
    counts the calls of the ``SEARCHES``, the component walks (each
    ``witness`` call, and each ``components`` call made outside one) and
    the entries of the search's memo, read from its locals as it returns."""
    from coarse_menger import acceptance
    from coarse_menger.generators import rooted_p3_grid

    oracle, sup_class = acceptance.exhaustive_two_disjoint_supports, acceptance._RootedSupports
    witness, walk = sup_class.witness, sup_class.components
    rows = []
    for w in widths:
        spec = rooted_p3_grid(w)
        g, roots = spec.graph, list(spec.roots)
        oracle_s, pair = _timed(runs, oracle, g, roots)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        counts = dict.fromkeys([*SEARCHES.values(), "component_walks", "memo_entries"], 0)

        def hook(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_name in SEARCHES \
                    and code.co_filename == oracle.__code__.co_filename:
                counts[SEARCHES[code.co_name]] += 1
            elif event == "return" and code is oracle.__code__:
                counts["memo_entries"] = len(frame.f_locals[MEMO])

        # witness walks through components(): count that walk once
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
        rows.append({
            "w": w,
            "oracle_s": oracle_s,
            "result": None if pair is None else [sorted(side) for side in pair],
            "order": list(acceptance.root_search_order(g, roots)),
            "peak_rss_mb": round(peak_mb, 1),
            **counts,
        })
    return rows


#: topic -> (measure, default widths, the document's leading fields)
TOPICS = {
    "duality": (measure_duality, None, {
        "topic": "duality relations",
        "layer": "L2-L3",
        "what": "median seconds of a duality_sweep pass over the duality host "
                "family, of its unit and its Fraction-weighted hosts, and of "
                "its far-conflict, independent-set and ball-hit layers; search "
                "nodes and _member_masks calls per pass; the paths each "
                "sweep transposes and the work on them per pass, and a digest "
                "of the reports",
        "hosts": f"random_instances({BASE_SEED}, {HOSTS}), 8-14 vertices, plus "
                 f"{WEIGHTED_HOSTS} Fraction-weighted copies; l=0, "
                 f"r in {list(R_VALUES)}, beta in {list(BETA_VALUES)}",
    }),
    "rooted-grid": (measure_rooted_grid, "3,4,5,6", {
        "topic": "rooted-grid hitting branch",
        "layer": "L3",
        "what": "median seconds of the boundary DP and the blocker scan on "
                "rooted_p3_grid(w), DP states made and kept, the DP's tracemalloc "
                "peak (MiB), and the blocker found",
    }),
    "rooted-oracle": (measure_rooted_oracle, "3,4,5", {
        "topic": "rooted-grid acceptance oracle",
        "layer": "L5",
        "what": "median seconds of exhaustive_two_disjoint_supports on "
                "rooted_p3_grid(w), its result, its root order (trunk start, "
                "attachment, trunk end), the search calls, component walks "
                "and memo entries of one run, and the peak RSS",
    }),
}


def _quantities(row: dict, prefix: str = ""):
    """(dotted key, value) of every measured quantity in ``row``."""
    for key, value in row.items():
        if isinstance(value, dict):
            yield from _quantities(value, f"{prefix}{key}.")
        elif key != "w":
            yield prefix + key, value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("topic", choices=TOPICS)
    parser.add_argument("trees", nargs="*", metavar="label=src-dir")
    parser.add_argument("--widths", help="grid widths of the rooted topics, e.g. 3,4,5")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--one", help=argparse.SUPPRESS)
    args = parser.parse_args()
    measure, widths, header = TOPICS[args.topic]
    if args.widths and widths is None:
        parser.error(f"--widths does not apply to {args.topic}")
    widths = args.widths or widths
    if args.one:
        sys.path.insert(0, args.one)
        print(json.dumps(measure(args.runs, widths and [int(w) for w in widths.split(",")])))
        return 0
    if not args.trees:
        parser.error("name at least one label=src-dir")
    out = {**header, "runs": args.runs, "python": platform.python_version(),
           "machine": f"{platform.machine()}, {os.cpu_count()} cores", "trees": {}}
    for spec in args.trees:
        label, _, src = spec.partition("=")
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), args.topic,
             "--one", os.path.abspath(src), "--runs", str(args.runs)]
            + (["--widths", widths] if widths else []),
            check=True, stdout=subprocess.PIPE, text=True,
        )
        result = out["trees"][label] = json.loads(done.stdout)
        for row in result if isinstance(result, list) else [result]:
            at = f" w={row['w']}" if "w" in row else ""
            for key, value in _quantities(row):
                print(f"{label} {args.topic}{at} {key}: {value}", file=sys.stderr)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
