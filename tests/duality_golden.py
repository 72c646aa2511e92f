"""Inputs of the golden ``duality_sweep`` test, and the script that records
its expected output.

A speed-up leaves ``tests/data/duality_golden.json`` unchanged.  A change
that moves a witness on purpose, and names each host whose packing paths or
cover centers move, re-records it once, from a tree whose sweep output is
known good; the sweep entries and every witness count stay the same:

    PYTHONPATH=src python tests/duality_golden.py
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from coarse_menger.covering import CoverInstance, duality_sweep, min_ball_hitting
from coarse_menger.generators import random_instances
from coarse_menger.graph import Graph
from coarse_menger.packing import PackingInstance, max_far_packing

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "data", "duality_golden.json")

SEED = 11
HOSTS = 12
R_VALUES = (1, 2, 3)
BETA_VALUES = (0, 1)
FRACTION_WEIGHTS = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2))
FRACTION_COPIES = 4
#: sums such as 0.3 + 0.7 land on an integer threshold, so the float copy
#: exercises the shortest-decimal reading of its weights
FLOAT_WEIGHTS = (0.3, 0.7, 1.0)


def golden_hosts():
    """(id, graph, x, y): the unit hosts, then weighted copies of the first
    few of them."""
    specs = random_instances(SEED, HOSTS, {"min_vertices": 8, "max_vertices": 14})
    hosts = [(f"unit-{i}", s.graph, s.x, s.y) for i, s in enumerate(specs)]
    rng = random.Random(SEED)
    for i, s in enumerate(specs[:FRACTION_COPIES]):
        weights = {e: rng.choice(FRACTION_WEIGHTS) for e in s.graph.edges}
        hosts.append((f"fraction-{i}", Graph(s.graph.vertices, s.graph.edges, weights),
                      s.x, s.y))
    s = specs[FRACTION_COPIES]
    weights = {e: rng.choice(FLOAT_WEIGHTS) for e in s.graph.edges}
    hosts.append(("float-0", Graph(s.graph.vertices, s.graph.edges, weights), s.x, s.y))
    return hosts


def golden_reports() -> dict:
    """Per host: the sweep report, plus the chosen packing paths and cover
    centers, which pin every tie-break of the exact solvers."""
    out = {}
    for host_id, g, x, y in golden_hosts():
        out[host_id] = {
            "sweep": duality_sweep(g, x, y, 0, R_VALUES, BETA_VALUES).to_json_dict(),
            "packing_paths": {
                str(r): [list(p.sequence)
                         for p in max_far_packing(PackingInstance(g, x, y, 0, r)).paths]
                for r in R_VALUES
            },
            "cover_centers": {
                str(b): min_ball_hitting(CoverInstance(g, b, l=0, x=x, y=y))
                .to_json_dict()["centers"]
                for b in BETA_VALUES
            },
        }
    return out


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    reports = golden_reports()
    with open(GOLDEN_PATH, "w") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(reports[k], sort_keys=True)}"
            for k in sorted(reports)) + "\n}\n")
    print(f"wrote {GOLDEN_PATH}")
