#!/usr/bin/env python3
"""Time the duality sweep and its relation-building layers (L2: the
far-conflict relation and the ball-hit masks; L3: the maximum independent
set) on one or more source trees.

    python3 scripts/bench_duality.py before=../old/src after=src > BENCH_duality.json

Each ``label=src-dir`` runs in a fresh interpreter that imports
``coarse_menger`` from ``src-dir``.  A pass runs ``covering.duality_sweep``
(l = 0, r in {1, 2, 3}, beta in {0, 1}) over the duality host family:
``random_instances(11, 80)`` with 8-14 vertices, plus Fraction-weighted
copies of the first 20.  Every pass builds its graphs afresh, so distance
caches start cold.  The script wraps ``packing.far_conflicts``,
``packing.max_independent_set`` and ``graph._hit_masks`` where the library
calls them, so both trees run unmodified, and records the median over
``--runs`` passes of the seconds of the pass and of each wrapped function.
It also records the work per pass, which is the same on every tree: the sum
of P^2 over far-conflict calls and of P*|V| over hit-mask calls (P members,
|V| host vertices), and a digest of the reports.
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
TIMED = ("packing.far_conflicts", "packing.max_independent_set", "graph._hit_masks")


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


def _wrap(name: str, seconds: dict, work: dict):
    """Rebind ``name`` in every coarse_menger module that holds it, timing
    each call and counting its work."""
    module, attr = name.split(".")
    fn = getattr(sys.modules[f"coarse_menger.{module}"], attr)

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        if attr == "far_conflicts":
            work["far_conflicts_p2"] += len(args[1]) ** 2
        elif attr == "_hit_masks":
            work["hit_masks_pv"] += len(args[1]) * len(args[0])
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds[name] += time.perf_counter() - t0

    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.startswith("coarse_menger") \
                and vars(mod).get(attr) is fn:
            setattr(mod, attr, timed)


def measure(src: str, runs: int) -> dict:
    sys.path.insert(0, src)
    from coarse_menger import covering, generators, graph

    hosts = _hosts(generators)
    seconds = dict.fromkeys(TIMED, 0.0)
    work = {"far_conflicts_p2": 0, "hit_masks_pv": 0}
    for name in TIMED:
        _wrap(name, seconds, work)
    passes = {name: [] for name in ("pass",) + TIMED}
    for _ in range(runs):
        graphs = [(graph.Graph(vs, es, w), x, y) for vs, es, w, x, y in hosts]
        seconds.update(dict.fromkeys(TIMED, 0.0))
        work.update(far_conflicts_p2=0, hit_masks_pv=0)
        t0 = time.perf_counter()
        reports = [covering.duality_sweep(g, x, y, 0, R_VALUES, BETA_VALUES)
                   for g, x, y in graphs]
        passes["pass"].append(time.perf_counter() - t0)
        for name in TIMED:
            passes[name].append(seconds[name])
    digest = hashlib.sha256(json.dumps(
        [rep.to_json_dict() for rep in reports], sort_keys=True).encode()).hexdigest()
    return {
        "seconds": {name: round(statistics.median(s), 4) for name, s in passes.items()},
        "work_per_pass": dict(work),
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
                "family and of far_conflicts, max_independent_set and _hit_masks "
                "within it, the work per pass, and a digest of the reports",
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
