#!/usr/bin/env python3
"""Time the duality sweep and its relation-building layers (L2: the
far-conflict relation and the ball-hit masks; L3: the maximum independent
set) on one or more source trees, and count the search and comparison work.

    python3 scripts/bench_duality.py before=../old/src after=src > BENCH_duality.json

Each ``label=src-dir`` runs in a fresh interpreter that imports
``coarse_menger`` from ``src-dir``.  A pass runs ``covering.duality_sweep``
(l = 0, r in {1, 2, 3}, beta in {0, 1}) over the duality host family:
``random_instances(11, 80)`` with 8-14 vertices, plus Fraction-weighted
copies of the first 20.  Every pass builds its graphs afresh, so distance
caches start cold.

The script wraps functions where the library calls them, so every tree runs
unmodified.  It records the median over ``--runs`` passes of the seconds of
the pass, of its unit hosts (``pass_unit``) and of its Fraction-weighted
hosts (``pass_weighted``), and of three layers: the far-conflict rows, the
independent-set search and the ball-hit masks.  A layer is timed at the
first of its functions (``LAYERS``) that the tree defines: the private
helper that takes a shared transposition where there is one, else the
public function; and also at each of its ``ALSO`` functions that the tree
defines.  A name that its module imports from another
(``covering._within``) is wrapped in that module only.  One more pass
counts, per pass: the independent-set and set-cover search nodes, the
``graph.leq`` calls and the ``graph._member_masks`` calls.  It also records
the work per pass, read from the path family that each sweep transposes
(``graph._member_masks``, one call per host): the sum of P^2 over the r values
and of P*|V| over the beta values of each host (P paths in the family, |V|
host vertices), and the sum of P itself (``paths_per_pass``).  Last comes a
digest of the reports, which must be the same on every tree.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import random
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
#: the pass, and its unit and its Fraction-weighted hosts
PASS_PARTS = ("pass", "pass_unit", "pass_weighted")
#: layer -> the functions that build it, the innermost first
LAYERS = {
    "packing.far_conflicts": ("packing._conflicts_through", "packing.far_conflicts"),
    "packing.max_independent_set": ("packing.max_independent_set",),
    "graph._hit_masks": ("covering._within", "graph._hits_through", "graph._hit_masks"),
}
#: layer -> more functions timed into it where a tree defines them: the
#: per-vertex reach that the far-conflict rows read is built apart from them
ALSO = {"packing.far_conflicts": ("packing._reach",)}
#: count -> (function, what one call adds)
COUNTED = {
    "max_independent_set_nodes": ("packing.max_independent_set", lambda result: result[1]),
    "set_cover_nodes": ("graph._set_cover", lambda result: result[1]),
    "leq_calls": ("graph.leq", lambda result: 1),
    "member_masks_calls": ("graph._member_masks", lambda result: 1),
}
#: the function that transposes a sweep's path family, once per host
FAMILY = "graph._member_masks"


def _hosts(generators):
    """(vertices, edges, weights, x, y) of the duality host family."""
    specs = generators.random_instances(
        BASE_SEED, HOSTS, {"min_vertices": 8, "max_vertices": 14}
    )
    hosts = [(s.graph.vertices, s.graph.edges, None, s.x, s.y) for s in specs]
    rng = random.Random(BASE_SEED)
    for s in specs[:WEIGHTED_HOSTS]:
        weights = {e: rng.choice(WEIGHTS) for e in s.graph.edges}
        hosts.append((s.graph.vertices, s.graph.edges, weights, s.x, s.y))
    return hosts


def _rebind(name: str, wrapper) -> bool:
    """Rebind ``name`` to ``wrapper(fn)`` in every coarse_menger module that
    holds the function ``fn``, or only in the named module when it imports
    ``fn`` from another (so ``covering._within`` times the sweep's ball-hit
    masks and not the far-conflict reach, which calls ``graph._within`` from
    ``packing``); False when the tree has no such function."""
    module, attr = name.split(".")
    home = sys.modules[f"coarse_menger.{module}"]
    fn = getattr(home, attr, None)
    if fn is None:
        return False
    wrapped = functools.wraps(fn)(wrapper(fn))
    if fn.__module__ != home.__name__:
        setattr(home, attr, wrapped)
        return True
    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.startswith("coarse_menger") \
                and vars(mod).get(attr) is fn:
            setattr(mod, attr, wrapped)
    return True


def _timer(layer: str, seconds: dict):
    def wrapper(fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[layer] += time.perf_counter() - t0
        return timed
    return wrapper


def _counter(key: str, add, counts: dict):
    def wrapper(fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += add(result)
            return result
        return counted
    return wrapper


def _work_counter(work: dict):
    """Per transposition of a host's path family, the work of the cells that
    use it: P^2 per r, P*|V| per beta, and P."""
    def wrapper(fn):
        def counted(g, members, *args, **kwargs):
            p = len(members)
            work["far_conflicts_p2"] += p * p * len(R_VALUES)
            work["hit_masks_pv"] += p * len(g) * len(BETA_VALUES)
            work["paths"] += p
            return fn(g, members, *args, **kwargs)
        return counted
    return wrapper


def measure(src: str, runs: int) -> dict:
    sys.path.insert(0, src)
    from coarse_menger import covering, generators, graph

    hosts = _hosts(generators)

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
        next(name for name in names if _rebind(name, _timer(layer, seconds)))
        for name in ALSO.get(layer, ()):
            _rebind(name, _timer(layer, seconds))
    passes = {name: [] for name in PASS_PARTS + tuple(LAYERS)}
    for _ in range(runs):
        seconds.update(dict.fromkeys(LAYERS, 0.0))
        took, reports = one_pass()
        took.update(seconds)
        for name, times in passes.items():
            times.append(took[name])

    # the counters slow a pass down, so they count one more, untimed pass
    counts = dict.fromkeys(COUNTED, 0)
    work = {"far_conflicts_p2": 0, "hit_masks_pv": 0, "paths": 0}
    for key, (name, add) in COUNTED.items():
        _rebind(name, _counter(key, add, counts))
    _rebind(FAMILY, _work_counter(work))
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="label=src-dir")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--one", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        json.dump(measure(args.one, args.runs), sys.stdout)
        return 0
    if not args.trees:
        parser.error("name at least one label=src-dir")
    out = {
        "topic": "duality relations",
        "layer": "L2-L3",
        "what": "median seconds of a duality_sweep pass over the duality host "
                "family, of its unit and its Fraction-weighted hosts, and of "
                "its far-conflict, independent-set and ball-hit layers; search "
                "nodes, leq and _member_masks calls per pass; the paths each "
                "sweep transposes and the work on them per pass, and a digest "
                "of the reports",
        "hosts": f"random_instances({BASE_SEED}, {HOSTS}), 8-14 vertices, plus "
                 f"{WEIGHTED_HOSTS} Fraction-weighted copies; l=0, "
                 f"r in {list(R_VALUES)}, beta in {list(BETA_VALUES)}",
        "runs": args.runs,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cores",
        "trees": {},
    }
    for spec in args.trees:
        label, _, src = spec.partition("=")
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--one", os.path.abspath(src),
             "--runs", str(args.runs)],
            check=True, stdout=subprocess.PIPE, text=True,
        )
        out["trees"][label] = json.loads(done.stdout)
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
