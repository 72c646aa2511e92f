"""The benchmark's three workloads and the checks that verify their outputs.

A workload's ``build(cm, seed, outdir)`` generates the inputs from the seed
with ``coarse_menger.generators`` and returns the op list.  Each op resolves
the library function through its module attribute when it runs, so the
traced pass (see ``tracing.py``) sees every call.  Each op's ``check`` is
coded here and trusts no solver answer: it raises ``CheckFailed`` or
returns the op's canonical result, which goes into the output digest.

Nothing in this module imports ``coarse_menger`` or ``networkx`` at import
time, so the set-up probe in ``run.py`` times the program's import alone.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, List, Optional


class CheckFailed(Exception):
    """An op returned an output that the benchmark's own check rejects."""


@dataclass
class Op:
    id: str
    call: Callable[[], Any]
    check: Callable[[Any], Any]
    #: the op runs on a Fraction-weighted host (summed into ``weighted_s``)
    weighted: bool = False
    #: the host is above the library's documented exact cap, so a typed
    #: ``CapacityError`` is a refusal, not a failure
    may_refuse: bool = False
    #: figures the check reads from the output that are not part of it,
    #: such as the report's own per-criterion seconds
    notes: dict = field(default_factory=dict)


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# duality: the body of `coarse-menger run-duality`
#
# Loads graph (distances, set_distance, as_vertex_set), paths (chordless
# enumeration, five times per host) and packing (conflict graph + maximum
# independent set); covering drives them.  trees, tangles, transfer,
# acceptance and cli do no work here.  The Fraction-weighted share runs the
# Dijkstra / exact `leq` path, so a change that helps unit hosts but costs
# weighted ones shows in `weighted_s`.  The two grids are above the exact
# cap (16 vertices) and exercise the capacity-fallback contract; today they
# raise CapacityError from the greedy cover fallback (ROADMAP item 5) and
# are counted as refusals.
#
# The host family is fixed (generated from DUALITY_BASE_SEED) and the run's
# seed relabels every host's vertices.  A sweep's cost is dominated by the
# few hosts with the most chordless x-y paths, so a fresh random family per
# seed made the work of a pass vary by about 30% (interquartile range over
# median of the summed squared path counts, seeds 1-20): wider than any
# bound.  Relabelling keeps the work fixed while the seed still changes every
# input's labels, and with them the path order and every tie-break.

DUALITY_BASE_SEED = 11
DUALITY_R = (1, 2, 3)
DUALITY_BETA = (0, 1)
DUALITY_HOSTS = 80
DUALITY_WEIGHTED_HOSTS = 20
DUALITY_WEIGHTS = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
DUALITY_GRIDS = ((3, 6), (4, 5))


def vertex_disjoint_paths(g, x, y) -> int:
    """Maximum number of vertex-disjoint x-y paths (a vertex of x & y is a
    path by itself), by networkx max-flow on the vertex-split digraph.
    Coded here so that no library solver checks itself."""
    import networkx as nx

    if not x or not y:
        return 0
    d = nx.DiGraph()
    for v in g.vertices:
        d.add_edge(("in", v), ("out", v), capacity=1)
    for u, v in g.edges:
        d.add_edge(("out", u), ("in", v), capacity=1)
        d.add_edge(("out", v), ("in", u), capacity=1)
    for v in x:
        d.add_edge("source", ("in", v), capacity=1)
    for v in y:
        d.add_edge(("out", v), "sink", capacity=1)
    return nx.maximum_flow_value(d, "source", "sink")


def _check_duality(rep, g, x, y, unit: bool, within_cap: bool):
    _require(sorted(rep.packing_by_r) == list(DUALITY_R), "packing thresholds differ")
    _require(sorted(rep.cover_by_radius) == list(DUALITY_BETA), "cover radii differ")
    tables = (("packing", rep.packing_by_r), ("cover", rep.cover_by_radius))
    for kind, table in tables:
        for t, cell in table.items():
            _require((cell.flag is None) == cell.exact,
                     f"{kind}({t}): flag {cell.flag!r} with exact={cell.exact}")
            _require(cell.exact or not within_cap,
                     f"{kind}({t}) inexact on a host within the exact cap")
            _require(cell.value is not None or not cell.exact,
                     f"{kind}({t}) exact without a value")
    pack = {r: c for r, c in rep.packing_by_r.items() if c.value is not None}
    cover = {b: c for b, c in rep.cover_by_radius.items() if c.value is not None}
    exact_pack = {r: c.value for r, c in pack.items() if c.exact}
    exact_cover = {b: c.value for b, c in cover.items() if c.exact}

    # weak duality, recomputed: a radius-beta ball has diameter <= 2*beta < r,
    # so it meets at most one path of an r-far packing
    for r, p in exact_pack.items():
        for b, c in exact_cover.items():
            _require(not (r > 2 * b and c < p),
                     f"weak duality: cover({b})={c} < packing({r})={p}")
    for lo, hi in zip(DUALITY_R, DUALITY_R[1:]):
        if lo in exact_pack and hi in exact_pack:
            _require(exact_pack[lo] >= exact_pack[hi], "packing grows with r")
    for lo, hi in zip(DUALITY_BETA, DUALITY_BETA[1:]):
        if lo in exact_cover and hi in exact_cover:
            _require(exact_cover[lo] >= exact_cover[hi], "cover grows with beta")

    # Menger: far paths (r > 0) are vertex-disjoint, and radius-0 balls are
    # single vertices, so cover(0) is a minimum vertex cut on any weights
    flow = vertex_disjoint_paths(g, x, y)
    for r, c in pack.items():
        _require(c.value <= flow, f"packing({r})={c.value} > {flow} disjoint paths")
    if 0 in cover:
        if cover[0].exact:
            _require(cover[0].value == flow, f"cover(0)={cover[0].value} != flow {flow}")
        else:
            _require(cover[0].value >= flow, f"greedy cover(0) below flow {flow}")
    if unit and 1 in exact_pack:
        _require(exact_pack[1] == flow, f"packing(1)={exact_pack[1]} != flow {flow}")
    return rep.to_json_dict()


def _relabel(cm, g, x, y, rng: random.Random):
    perm = list(g.vertices)
    rng.shuffle(perm)
    to = dict(zip(g.vertices, perm))
    weights = None
    if g.weights is not None:
        weights = {(to[u], to[v]): w for (u, v), w in g.weights.items()}
    h = cm.graph.Graph(perm, [(to[u], to[v]) for u, v in g.edges], weights)
    return h, frozenset(to[v] for v in x), frozenset(to[v] for v in y)


def build_duality(cm, seed: int, outdir: str) -> List[Op]:
    gen = cm.generators
    specs = gen.random_instances(
        DUALITY_BASE_SEED, DUALITY_HOSTS, {"min_vertices": 8, "max_vertices": 14}
    )
    hosts = [(f"unit-{i}", s.graph, s.x, s.y, True) for i, s in enumerate(specs)]
    weight_rng = random.Random(DUALITY_BASE_SEED)
    for i, s in enumerate(specs[:DUALITY_WEIGHTED_HOSTS]):
        weights = {e: weight_rng.choice(DUALITY_WEIGHTS) for e in s.graph.edges}
        g = cm.graph.Graph(s.graph.vertices, s.graph.edges, weights)
        hosts.append((f"weighted-{i}", g, s.x, s.y, False))
    for rows, cols in DUALITY_GRIDS:
        hosts.append((f"grid-{rows}x{cols}", gen.grid(rows, cols),
                      gen.grid_column(rows, cols, 0),
                      gen.grid_column(rows, cols, cols - 1), True))

    rng = random.Random(seed)
    cap = cm.packing.EXACT_PACKING_VERTEX_CAP
    ops = []
    for op_id, g, x, y, unit in hosts:
        g, x, y = _relabel(cm, g, x, y, rng)
        within_cap = len(g) <= cap

        def call(g=g, x=x, y=y):
            return cm.covering.duality_sweep(g, x, y, 0, DUALITY_R, DUALITY_BETA)

        def check(rep, g=g, x=x, y=y, unit=unit, within_cap=within_cap):
            return _check_duality(rep, g, x, y, unit, within_cap)

        ops.append(Op(op_id, call, check, weighted=not unit,
                      may_refuse=not within_cap))
    return ops


# ---------------------------------------------------------------------------
# rooted-grid: the rooted fat path-minor dichotomy on the w-by-w grid
#
# Loads trees (boundary DP in two_disjoint_connected_transversals, the
# C(n, <=k) scan in min_transversal_blocker) and Graph construction (one
# induced Graph per blocker candidate).  w=3 takes the MODEL_ENUM_CAP
# enumeration branch, w=4 and w=5 the DP branch.  The acceptance oracle is
# left out so that a trees gain is not diluted by it; each w is called once,
# as a user would call it.  packing, covering's sweep, tangles and transfer
# do no work here.

ROOTED_WIDTHS = (3, 4, 5)


def _has_distinct_reps(root_sets, comp: frozenset) -> bool:
    pools = [sorted(r & comp) for r in root_sets]
    return any(len(set(t)) == len(t) for t in itertools.product(*pools))


def supporting_component(g, root_sets, removed: frozenset) -> Optional[frozenset]:
    """A component of ``g - removed`` holding distinct representatives of
    every root set, or None."""
    adj = {v: [] for v in g.vertices}
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = set(removed)
    for v in g.vertices:
        if v in seen:
            continue
        comp, stack = {v}, [v]
        seen.add(v)
        while stack:
            for n in adj[stack.pop()]:
                if n not in seen:
                    seen.add(n)
                    comp.add(n)
                    stack.append(n)
        if _has_distinct_reps(root_sets, frozenset(comp)):
            return frozenset(comp)
    return None


def _check_rooted(res, spec, w: int):
    _require(res.branch == "hitting", f"w={w}: branch {res.branch!r}")
    centered = res.centered
    _require(centered.radius == 0, f"w={w}: radius {centered.radius}")
    z = centered.centers.members
    _require(len(z) == w, f"w={w}: |z|={len(z)}, known minimum {w}")
    comp = supporting_component(spec.graph, spec.roots, z)
    _require(comp is None, f"w={w}: G - z keeps supporting component {sorted(comp or ())}")
    return {"w": w, "branch": res.branch, "z": sorted(z)}


def build_rooted_grid(cm, seed: int, outdir: str) -> List[Op]:
    # the grids are fixed; the seed only names the run
    pattern = cm.graph.Graph([1, 2, 3], [(1, 2), (2, 3)])
    ops = []
    for w in ROOTED_WIDTHS:
        spec = cm.generators.rooted_p3_grid(w)

        def call(spec=spec):
            g = spec.graph
            td = cm.trees.min_degree_decomposition(g)
            roots = dict(zip((1, 2, 3), spec.roots))
            return cm.trees.rooted_fat_minor_ep(g, td, pattern, roots, k=2, r=1)

        def check(res, spec=spec, w=w):
            return _check_rooted(res, spec, w)

        ops.append(Op(f"w={w}", call, check))
    return ops


# ---------------------------------------------------------------------------
# acceptance: `coarse-menger run-acceptance`, all twelve criteria, in-process
#
# The command users and Tier-1 wait on, and the only workload that runs
# tangles, transfer, the Gallai / Helly / easy-tree drivers, the independent
# oracles and the cli JSON path.  rooted-p3 dominates (its oracle
# exhaustive_two_disjoint_supports, ROADMAP item 2) and does not depend on
# the seed; the other eleven criteria do.

ACCEPTANCE_CRITERIA = (
    "menger", "gallai", "grid", "weak-duality", "tree-helly", "easy-tree",
    "rooted-p3", "transfer-pinning", "pullback", "scaling", "tangle",
    "determinism",
)


def _check_acceptance(code, path: str, notes: dict):
    _require(code == 0, f"exit code {code}")
    _require(os.path.exists(path), "no report written")
    with open(path) as fh:
        doc = json.load(fh)
    os.remove(path)
    keys = [c["key"] for c in doc["criteria"]]
    _require(keys == list(ACCEPTANCE_CRITERIA), f"criteria {keys}")
    failed = [c["key"] for c in doc["criteria"] if c["passed"] is not True]
    _require(not failed and doc["passed"] is True, f"criteria failed: {failed}")
    rooted = next(c for c in doc["criteria"] if c["key"] == "rooted-p3")["detail"]
    for w in ROOTED_WIDTHS:
        _require(rooted[f"w={w}"]["min_hitting"] == w,
                 f"rooted-p3 min_hitting at w={w}: {rooted[f'w={w}']}")
    doc.pop("timestamp")
    for c in doc["criteria"]:
        notes[f"acceptance.criterion.{c['key']}.s"] = c.pop("seconds")
    return doc


def build_acceptance(cm, seed: int, outdir: str) -> List[Op]:
    path = os.path.join(outdir, f"acceptance-report-{os.getpid()}.json")
    argv = ["run-acceptance", "--seed", str(seed), "--out", path]

    def call():
        return cm.cli.main(list(argv))

    op = Op("run-acceptance", call, lambda code: _check_acceptance(code, path, op.notes))
    return [op]


WORKLOADS = {
    "duality": build_duality,
    "rooted-grid": build_rooted_grid,
    "acceptance": build_acceptance,
}
