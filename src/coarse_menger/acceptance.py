"""The acceptance suite: twelve fixed-seed checks shared by the CLI and the
test harness, each returning a machine-readable verdict.

Every check pits the library against an independently coded oracle or a
hand-computed table; none of them trusts a solver's own answer.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .covering import (
    CoverInstance,
    duality_sweep,
    gallai_check,
    min_ball_hitting,
    min_separating_balls,
)
from .errors import CoarseMengerError, InputError, InternalInconsistencyError
from .generators import menger_lower_bound_instance, random_instances, rooted_p3_grid
from .graph import CenteredRefusal, Graph, certify_centered, distance, set_distance
from .packing import PackingInstance, gallai_packing, max_far_packing, menger_packing
from .paths import enumerate_chordless_paths
from .tangles import _max_far_count, easy_tangle_trichotomy, verify_tangle
from .transfer import (
    QuasiIsometry,
    constant_witness,
    pullback_hitting_set,
    scale_metric,
    transfer_chain,
    transfer_constants,
)
from .trees import (
    ExchangeableFamily,
    Location,
    easy_tree_hitting,
    min_degree_decomposition,
    rooted_fat_minor_ep,
    tree_helly,
)
from .version import REPORT_SCHEMA, __version__

DEFAULT_SEED = 20240824


@dataclass
class CriterionResult:
    key: str
    passed: bool
    detail: Dict[str, object] = field(default_factory=dict)
    seconds: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "key": self.key,
            "passed": self.passed,
            "detail": self.detail,
            "seconds": round(self.seconds, 3),
        }


# ---------------------------------------------------------------------------
# 1. classical exactness


def check_menger_exactness(seed: int) -> CriterionResult:
    instances = random_instances(seed + 1, 200, {"max_vertices": 12})
    mismatches = []
    for spec in instances:
        g, x, y = spec.graph, spec.x, spec.y
        pack = max_far_packing(PackingInstance(g, x, y, 0, 1, "exact")).size
        cover = min_ball_hitting(CoverInstance(g, 0, l=0, x=x, y=y)).count
        flow = menger_packing(g, x, y)
        if not pack == cover == flow:
            mismatches.append(
                {"index": spec.params["index"], "packing": pack,
                 "cover": cover, "flow": flow}
            )
    return CriterionResult(
        "menger", not mismatches,
        {"instances": len(instances), "mismatches": mismatches},
    )


# ---------------------------------------------------------------------------
# 2. the A-path dichotomy


def check_gallai(seed: int) -> CriterionResult:
    rng = random.Random(seed + 2)
    instances = random_instances(seed + 2, 100, {"max_vertices": 12})
    failures = []
    for spec in instances:
        g, a = spec.graph, spec.a
        k = rng.randint(1, 3)
        verdict = gallai_check(g, a, k)
        exact = gallai_packing(g, a)
        if verdict.branch == "packing":
            paths = verdict.packing.paths
            ok = len(paths) >= k and all(
                not p.vertex_set & q.vertex_set
                for p, q in itertools.combinations(paths, 2)
            )
        else:
            hit = verdict.hitting_set
            ok = len(hit) <= 2 * k - 2 and exact < k
        if not ok:
            failures.append({"index": spec.params["index"], "k": k,
                             "branch": verdict.branch})
    return CriterionResult(
        "gallai", not failures,
        {"instances": len(instances), "failures": failures},
    )


# ---------------------------------------------------------------------------
# 3. the grid lower bound


def check_grid_lower_bound(seed: int) -> CriterionResult:
    detail = {}
    ok = True
    for r, n in ((3, 9), (5, 15)):
        spec = menger_lower_bound_instance(r, n)
        g, x, y = spec.graph, spec.x, spec.y
        # packing at threshold r is exactly 1: one path exists, and any two
        # paths meet the first column whose vertices are pairwise closer
        # than r
        xs = sorted(x)
        pairwise_close = all(
            distance(g, u, v) < r
            for i, u in enumerate(xs) for v in xs[i + 1:]
        )
        has_path = any(
            distance(g, u, v) < float("inf") for u in x for v in y
        )
        packing_is_one = pairwise_close and has_path
        # cover lower bound at s = 1: hitting every x-y path with balls is
        # the same as separating x from y with their union
        s = 1
        bound = -(-r // (2 * s + 1))
        count, _ = min_separating_balls(g, x, y, s)
        # per-ball row bound, full scan
        row_ok = all(
            len({v // n for v in g.vertices if distance(g, c, v) <= s})
            <= 2 * s + 1
            for c in g.vertices
        )
        entry = {
            "packing_is_one": packing_is_one,
            "cover": count,
            "cover_bound": bound,
            "row_bound_holds": row_ok,
        }
        detail[f"{r}x{n}"] = entry
        ok = ok and packing_is_one and count >= bound and row_ok
    return CriterionResult("grid", ok, detail)


# ---------------------------------------------------------------------------
# 4. weak duality


def check_weak_duality(seed: int) -> CriterionResult:
    instances = random_instances(seed + 4, 30, {"max_vertices": 10})
    violations = []
    cells = 0
    for spec in instances:
        report = duality_sweep(spec.graph, spec.x, spec.y, 0, (1, 2, 3), (0, 1))
        cells += len(report.packing_by_r) * len(report.cover_by_radius)
        for v in report.check_weak_duality():
            violations.append({"index": spec.params["index"], "cell": v})
    return CriterionResult(
        "weak-duality", not violations,
        {"instances": len(instances), "cells": cells, "violations": violations},
    )


# ---------------------------------------------------------------------------
# 5. subtrees of a tree


def _random_tree(rng: random.Random, n: int) -> Graph:
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return Graph(range(n), edges)


def _random_connected_subset(rng: random.Random, g: Graph, max_size: int) -> frozenset:
    start = rng.choice(sorted(g.vertices))
    size = rng.randint(1, max_size)
    chosen = {start}
    frontier = set(g.neighbors(start))
    while len(chosen) < size and frontier:
        v = rng.choice(sorted(frontier))
        chosen.add(v)
        frontier |= set(g.neighbors(v)) - chosen
        frontier.discard(v)
    return frozenset(chosen)


def check_tree_helly(seed: int) -> CriterionResult:
    rng = random.Random(seed + 5)
    failures = []
    for idx in range(500):
        t = _random_tree(rng, rng.randint(2, 12))
        subtrees = [
            _random_connected_subset(rng, t, max(1, len(t) // 2))
            for _ in range(rng.randint(1, 10))
        ]
        k = rng.randint(1, 4)
        res = tree_helly(t, subtrees, k)
        if res.branch == "packing":
            chosen = [subtrees[i] for i in res.packing]
            ok = len(chosen) >= k and all(
                not a & b for a, b in itertools.combinations(chosen, 2)
            )
        else:
            ok = len(res.hitting) <= k - 1 and all(
                s & res.hitting for s in subtrees
            )
            # oracle: no k pairwise disjoint subtrees, by full scan
            if ok:
                for combo in itertools.combinations(range(len(subtrees)), k):
                    if all(
                        not subtrees[i] & subtrees[j]
                        for i, j in itertools.combinations(combo, 2)
                    ):
                        ok = False
                        break
        if not ok:
            failures.append(idx)
    return CriterionResult(
        "tree-helly", not failures, {"instances": 500, "failures": failures}
    )


# ---------------------------------------------------------------------------
# 6. centered hitting on bounded-width hosts


def check_easy_tree(seed: int) -> CriterionResult:
    rng = random.Random(seed + 6)
    instances = random_instances(
        seed + 6, 100, {"max_vertices": 9}, family="partial-2-tree"
    )
    failures = []
    for spec in instances:
        g = spec.graph
        td = spec.decomposition
        members = tuple(
            (_random_connected_subset(rng, g, 3),)
            for _ in range(rng.randint(1, 4))
        )
        fam = ExchangeableFamily(g, members, 1)
        k, r = 2, 1
        xi = td.max_bag_size
        loc = Location(g, ())
        try:
            res = easy_tree_hitting(
                g, frozenset(g.vertices), fam, loc, td, r, k, xi, 0
            )
        except CoarseMengerError as exc:
            failures.append({"index": spec.params["index"],
                             "error": type(exc).__name__, "msg": str(exc)})
            continue
        if res.branch == "hitting":
            cert = certify_centered(
                g, res.centered.z, res.center_budget, res.radius_budget,
                "exact"
            )
            budget_ok = (
                not isinstance(cert, CenteredRefusal)
                and res.centered.center_count <= res.center_budget
                and res.centered.radius <= res.radius_budget
            )
            hits = all(
                any(c & res.centered.z.members for c in m) for m in members
            )
            ok = budget_ok and hits
        else:
            sets = [frozenset().union(*m) for m in res.packing]
            ok = len(sets) >= k and all(
                set_distance(g, a, b) > 2 * r
                for a, b in itertools.combinations(sets, 2)
            )
        if not ok:
            failures.append({"index": spec.params["index"],
                             "branch": res.branch})
    return CriterionResult(
        "easy-tree", not failures,
        {"instances": len(instances), "failures": failures},
    )


# ---------------------------------------------------------------------------
# 7. the rooted grid obstruction


class _RootedSupports:
    """Mask model of ``g`` with three root sets, for the rooted-grid oracle:
    bit i is the i-th smallest vertex, neighbour masks come from
    ``g.neighbors``.  Coded apart from the library's own mask helpers.  It
    holds no cache: every query is computed afresh."""

    def __init__(self, g: Graph, roots: Sequence[frozenset]):
        if len(roots) != 3:
            raise InputError(f"oracle is specific to three root sets, got {len(roots)}")
        self.verts = sorted(g.vertices)
        self.bit = {v: 1 << i for i, v in enumerate(self.verts)}
        self.nbr = {
            self.bit[v]: sum(self.bit[n] for n in g.neighbors(v))
            for v in self.verts
        }
        try:
            self.rsets = [self.mask(r) for r in roots]
        except KeyError as exc:
            raise InputError(f"root vertex {exc.args[0]!r} is not in the graph") from None
        # every supporting component holds a vertex of each root set, so the
        # component walk starts only at those of the smallest one
        self.seeds = min(self.rsets, key=int.bit_count)
        self.everything = (1 << len(self.verts)) - 1

    def mask(self, vs) -> int:
        return sum(self.bit[v] for v in vs)

    def members(self, mask: int) -> frozenset:
        return frozenset(v for v in self.verts if mask & self.bit[v])

    def has_sdr(self, pool: int) -> bool:
        """Hall's condition for the three root sets within ``pool``."""
        r1, r2, r3 = self.rsets
        a, b, c = r1 & pool, r2 & pool, r3 & pool
        if not (a and b and c):
            return False
        return (a | b).bit_count() >= 2 and (a | c).bit_count() >= 2 \
            and (b | c).bit_count() >= 2 and (a | b | c).bit_count() >= 3

    def components(self, removed: int, seeds: Optional[int] = None):
        """Components of ``g - removed`` as masks, lowest vertex first; with
        ``seeds``, only those holding a vertex of it, lowest such vertex
        first."""
        nbr = self.nbr
        left = self.everything & ~removed
        seeds = left if seeds is None else seeds & left
        while seeds:
            comp = frontier = seeds & -seeds
            left ^= comp
            while frontier:
                low = frontier & -frontier
                new = nbr[low] & left
                left ^= new
                comp |= new
                frontier = frontier ^ low | new
            seeds &= left
            yield comp

    def witness(self, removed: int) -> int:
        """A component of ``g - removed`` that supports the roots, or 0; only
        those holding a vertex of ``seeds`` are walked."""
        for comp in self.components(removed, self.seeds):
            if self.has_sdr(comp):
                return comp
        return 0

    def survives(self, removed: int) -> bool:
        """Does some component of ``g - removed`` support the roots?  A plain
        walk over the components on every call; the exhaustive search keeps
        its own memo."""
        return self.witness(removed) != 0

    def shrink(self, support: int) -> int:
        """An inclusion-minimal connected set with distinct representatives
        inside the connected ``support``: one pass that drops each vertex in
        turn for a supporting component of the rest.  One pass is enough: if
        a smaller support could lose a vertex, the supporting component it
        leaves would lie in one of the larger support minus that vertex."""
        for i in range(support.bit_length()):
            b = 1 << i
            if support & b:
                support = self.witness(self.everything & ~support | b) or support
        return support

    def hops(self, source: int) -> List[int]:
        """Hop distance from the vertex mask ``source`` to each root set, by a
        breadth-first flood; ``len(verts)`` where no path reaches it."""
        far = len(self.verts)
        out = [far] * 3
        seen = frontier = source
        depth = 0
        while frontier:
            for i, r in enumerate(self.rsets):
                if out[i] == far and r & frontier:
                    out[i] = depth
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= self.nbr[low]
                frontier ^= low
            frontier = reach & ~seen
            seen |= frontier
            depth += 1
        return out


def root_search_order(g: Graph, roots: Sequence[frozenset]) -> Tuple[int, int, int]:
    """The order in which ``exhaustive_two_disjoint_supports`` searches the
    root sets: the positions in ``roots`` of its trunk start, its attachment
    and its trunk end (the rule is in the oracle's docstring)."""
    sup = _RootedSupports(g, roots)
    sizes = [r.bit_count() for r in sup.rsets]
    hops = [sup.hops(r) for r in sup.rsets]
    start = min(range(3), key=lambda i: (sizes[i], sum(hops[i]), i))
    end = min((i for i in range(3) if i != start),
              key=lambda i: (hops[start][i], sizes[i], i))
    return start, 3 - start - end, end


def exhaustive_two_disjoint_supports(g: Graph, roots: Sequence[frozenset]):
    """Complete search for two vertex-disjoint connected sets, each holding
    distinct representatives of three root sets.

    Every minimal such set is a tree with at most three leaves, so it splits
    into a simple path between two of the root sets (the trunk) plus at most
    one attachment path to the third; both parts are enumerated by
    depth-first search.  The partner-side check ("does some leftover
    component still support the roots?") is monotone under growth, which
    prunes hard.

    Any two of a minimal set's representatives can end its trunk, and the
    support test is symmetric in the root sets, so the search is complete in
    every order of them; ``root_search_order`` picks one.  The trunk starts
    at the root set with the fewest vertices (ties: the least total hop
    distance to the other two, then the first in ``roots``), since every
    start is a separate search; it ends at the remaining set nearest to the
    start (ties: the smaller, then the first), which keeps the trunks short;
    the last set takes the attachment.  On ``rooted_p3_grid`` that runs the
    trunk from the first row to the first column, not across the grid.

    A search state is a trunk (its end vertex, its vertex mask) or an
    attachment (its last vertex, the union mask), and what the search finds
    below a state depends on that pair alone.  The search stops at its first
    find, so a state met again found nothing the first time; skipping it
    leaves every find reachable and the first one unchanged.  Each state also
    carries a witness, a supporting component K of ``g - union``.  When the
    added vertex b lies outside K, K is still a component of
    ``g - (union | b)`` and still supports the roots, so only b in K (or no
    witness yet, at a trunk start) needs a walk over the components.  One
    memo int per surviving union holds its witness and, above it, the
    explored attachment ends and the explored trunk ends.  A failing union
    is not kept: met again, it costs one more walk, while keeping it would
    double the memo (on the 5x5 rooted grid, 53k surviving and 50k failing
    unions, for 24k walks saved).  The recursive searches are dropped as
    the call returns, which breaks their self-references, so the memo is
    freed at once and leaves no reference cycle for the garbage collector.
    The partner side returned with a find is the first supporting component
    of the rest, lowest vertex first.
    """
    roots = [roots[i] for i in root_search_order(g, roots)]
    sup = _RootedSupports(g, roots)
    bit = sup.bit
    adj = {v: sorted(g.neighbors(v)) for v in g.vertices}
    attach_shift, trunk_shift = len(sup.verts), 2 * len(sup.verts)
    memo: Dict[int, int] = {}
    found: List[int] = []

    def enter(b: int, union: int, parent: int, shift: int) -> int:
        """The witness of the state (b's vertex, union) when it is new and
        survives, marking it explored; else 0.  ``parent`` is the witness of
        ``union`` without b."""
        entry = memo.get(union)
        if entry is None:
            entry = parent if parent and not parent & b else sup.witness(union)
            if not entry:
                return 0
        elif entry & b << shift:
            return 0
        memo[union] = entry | b << shift
        return entry & sup.everything

    def attach(pmask: int, witness: int):
        def q_dfs(last: int, union: int, witness: int):
            if sup.has_sdr(union):
                found.append(union)
                return
            for n in adj[last]:
                b = bit[n]
                if not union & b:
                    below = enter(b, union | b, witness, attach_shift)
                    if below:
                        q_dfs(n, union | b, below)
                        if found:
                            return

        try:
            for p in sup.verts:
                if not pmask & bit[p]:
                    continue
                for n in adj[p]:
                    b = bit[n]
                    if not pmask & b:
                        below = enter(b, pmask | b, witness, attach_shift)
                        if below:
                            q_dfs(n, pmask | b, below)
                            if found:
                                return
        finally:
            q_dfs = None  # break its self-reference, which holds the memo

    def trunk_dfs(v: int, pmask: int, witness: int):
        # every set this branch can accept contains pmask and must survive;
        # survives is antitone in the removed mask (removing more only splits
        # components, and Hall's condition is monotone in the pool), so
        # enter() ends a branch whose trunk fails it, and the first find is
        # unchanged
        if sup.rsets[2] & bit[v]:
            if sup.has_sdr(pmask):
                found.append(pmask)
                return
            attach(pmask, witness)
            if found:
                return
        for n in adj[v]:
            b = bit[n]
            if not pmask & b:
                below = enter(b, pmask | b, witness, trunk_shift)
                if below:
                    trunk_dfs(n, pmask | b, below)
            if found:
                return

    try:
        for start in sorted(roots[0]):
            b = bit[start]
            witness = enter(b, b, 0, trunk_shift)
            if witness:
                trunk_dfs(start, b, witness)
            if found:
                break
    finally:
        trunk_dfs = None  # break its self-reference, which holds the memo
    if not found:
        return None
    s1 = found[0]
    partner = next((c for c in sup.components(s1) if sup.has_sdr(c)), 0)
    if not partner:
        raise InternalInconsistencyError("search result lost its partner side")
    return sup.members(s1), sup.members(partner)


def _none_blocks(sup: _RootedSupports, size: int) -> bool:
    """Does every ``size``-vertex set leave a supporting component?  A set
    that misses a support found earlier leaves that support whole, so it
    survives unwalked; for the others the component walk runs, and the
    supporting component it finds is shrunk (:meth:`_RootedSupports.shrink`)
    and pooled."""
    pool = []
    for combo in itertools.combinations(sup.verts, size):
        removed = sup.mask(combo)
        if any(not s & removed for s in pool):
            continue
        comp = sup.witness(removed)
        if not comp:
            return False
        pool.append(sup.shrink(comp))
    return True


def check_rooted_p3(seed: int) -> CriterionResult:
    detail = {}
    ok = True
    sizes = []
    pattern = Graph([1, 2, 3], [(1, 2), (2, 3)])
    for w in (3, 4, 5):
        spec = rooted_p3_grid(w)
        g = spec.graph
        roots = {1: spec.roots[0], 2: spec.roots[1], 3: spec.roots[2]}
        td = min_degree_decomposition(g)
        res = rooted_fat_minor_ep(g, td, pattern, roots, k=2, r=1)
        oracle = exhaustive_two_disjoint_supports(g, spec.roots)
        agree = (res.branch == "packing") == (oracle is not None)
        z = res.centered.z.members if res.branch == "hitting" else None
        blocked = False
        if z is not None:
            # the library's minimum blocker, checked by the oracle's own
            # component test: G - z keeps no supporting component, and, as
            # blocking is monotone, no set one smaller blocks
            sup = _RootedSupports(g, spec.roots)
            blocked = not sup.survives(sup.mask(z)) and (
                not z or _none_blocks(sup, len(z) - 1))
            sizes.append(len(z))
        detail[f"w={w}"] = {
            "library_branch": res.branch,
            "oracle_two_disjoint": oracle is not None,
            "min_hitting": None if z is None else len(z),
        }
        ok = ok and agree and blocked and oracle is None
    nondecreasing = all(a <= b for a, b in zip(sizes, sizes[1:]))
    detail["hitting_sizes_nondecreasing"] = nondecreasing
    return CriterionResult("rooted-p3", ok and nondecreasing, detail)


# ---------------------------------------------------------------------------
# 8. constant pinning


#: hand-computed expectations: (m, a) -> (c1, c2), plus one full chain each
_PINNED = {
    (1, 0): {
        "constants": (4, 4),
        "chain_args": {"k": 3, "r": 2, "l": 0, "count": 5, "radius": 7},
        "chain": {"r_prime": 6, "l_prime": 0, "xi1": 5, "eta1": 7,
                  "eta2": 14, "eta3": 16, "l_double_prime": 0, "eta4": 4,
                  "f_out": 7, "g_out": 16},
    },
    (2, 1): {
        "constants": (39, 24),
        "chain_args": {"k": 2, "r": 3, "l": 1, "count": 5, "radius": 7},
        "chain": {"r_prime": 45, "l_prime": 5, "xi1": 5, "eta1": 7,
                  "eta2": 34, "eta3": 44, "l_double_prime": 12, "eta4": 29,
                  "f_out": 6, "g_out": 44},
    },
    (3, 2): {
        "constants": (138, 62),
        "chain_args": {"k": 1, "r": 1, "l": 0, "count": 5, "radius": 7},
        "chain": {"r_prime": 141, "l_prime": 6, "xi1": 5, "eta1": 7,
                  "eta2": 60, "eta3": 84, "l_double_prime": 24, "eta4": 51,
                  "f_out": 5, "g_out": 84},
    },
}


def check_transfer_pinning(seed: int) -> CriterionResult:
    failures = []
    for (m, a), expect in _PINNED.items():
        if transfer_constants(m, a) != expect["constants"]:
            failures.append({"m": m, "a": a, "what": "constants"})
        args = expect["chain_args"]
        w = constant_witness(args["count"], args["radius"])
        chain = transfer_chain(m, a, w, args["k"], args["r"], args["l"])
        for key, val in expect["chain"].items():
            if chain[key] != val:
                failures.append({"m": m, "a": a, "what": key,
                                 "got": chain[key], "expected": val})
    return CriterionResult("transfer-pinning", not failures,
                           {"failures": failures})


# ---------------------------------------------------------------------------
# 9. pullback soundness


def one_subdivision(g: Graph) -> Tuple[Graph, QuasiIsometry]:
    """Subdivide every edge once; the inclusion of the original vertices is a
    (2,1)-quasi-isometry."""
    fresh = max(g.vertices, default=-1) + 1
    edges = []
    verts = list(g.vertices)
    for u, v in g.edges:
        mid = fresh
        fresh += 1
        verts.append(mid)
        edges.append((u, mid))
        edges.append((mid, v))
    tgt = Graph(verts, edges)
    return tgt, QuasiIsometry({v: v for v in g.vertices}, 2, 1)


def check_pullback(seed: int) -> CriterionResult:
    instances = random_instances(seed + 9, 50, {"max_vertices": 10})
    failures = []
    for spec in instances:
        g = spec.graph
        tgt, q = one_subdivision(g)
        ia = frozenset(q.map[v] for v in spec.x)
        ib = frozenset(q.map[v] for v in spec.y)
        _, centers = min_separating_balls(tgt, ia, ib, 0)
        for l in (0, 2):
            try:
                z = pullback_hitting_set(
                    g, tgt, q, centers, k=1, r=1, l=l,
                    a_set=spec.x, b_set=spec.y,
                )
            except CoarseMengerError as exc:
                failures.append({"index": spec.params["index"], "l": l,
                                 "error": str(exc)})
                continue
            enum = enumerate_chordless_paths(g, l, spec.x, spec.y, cap=None)
            for p in enum.paths:
                if not p.vertex_set & z.members:
                    failures.append(
                        {"index": spec.params["index"], "l": l,
                         "missed": list(p.sequence)}
                    )
                    break
    return CriterionResult(
        "pullback", not failures,
        {"instances": len(instances), "failures": failures},
    )


# ---------------------------------------------------------------------------
# 10. scaling invariance


def check_scaling(seed: int) -> CriterionResult:
    rng = random.Random(seed + 10)
    instances = random_instances(seed + 10, 50, {"max_vertices": 9})
    weights_pool = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
    failures = []
    for spec in instances:
        base = spec.graph
        w = {e: rng.choice(weights_pool) for e in base.edges}
        g = Graph(base.vertices, base.edges, w)
        r, beta, l = 1, Fraction(1, 2), 0
        ref_pack = max_far_packing(PackingInstance(g, spec.x, spec.y, l, r))
        ref_cover = min_ball_hitting(
            CoverInstance(g, beta, l=l, x=spec.x, y=spec.y)
        )
        for lam in (2, Fraction(1, 3)):
            sg = scale_metric(g, lam)
            pack = max_far_packing(
                PackingInstance(sg, spec.x, spec.y, l * lam, r * lam)
            )
            cover = min_ball_hitting(
                CoverInstance(sg, beta * lam, l=l * lam, x=spec.x, y=spec.y)
            )
            same_paths = [p.sequence for p in pack.paths] == \
                [p.sequence for p in ref_pack.paths]
            same_centers = cover.centered.centers.members == \
                ref_cover.centered.centers.members
            if not (pack.size == ref_pack.size and cover.count == ref_cover.count
                    and same_paths and same_centers):
                failures.append({"index": spec.params["index"],
                                 "lambda": str(lam)})
    return CriterionResult(
        "scaling", not failures,
        {"instances": len(instances), "failures": failures},
    )


# ---------------------------------------------------------------------------
# 11. trichotomy exhaustiveness


def check_tangle_trichotomy(seed: int) -> CriterionResult:
    rng = random.Random(seed + 11)
    failures = []
    produced = {1: 0, 2: 0, 3: 0}
    count = 0
    attempts = 0
    while count < 100 and attempts < 2000:
        attempts += 1
        instances = random_instances(seed + 11 + attempts, 1,
                                     {"max_vertices": 9, "min_vertices": 4})
        g = instances[0].graph
        lv = frozenset(
            v for v in g.vertices if rng.random() < 0.7
        ) or frozenset(g.vertices)
        z = frozenset(
            n for v in lv for n in g.neighbors(v) if n not in lv
        )
        sub = g.induced(lv)
        members = []
        for _ in range(rng.randint(1, 4)):
            if not len(sub):
                break
            m = _random_connected_subset(rng, sub, 3)
            members.append(m)
        k = rng.choice((2, 3))
        theta = rng.choice((1, 2))
        r, r_prime = 2, 1
        # thin the family until the far-packing premise holds
        while members and _max_far_count(g, members, r) >= k:
            members.pop()
        if not members:
            continue
        count += 1
        try:
            res = easy_tangle_trichotomy(
                g, lv, members, k, theta, r, r_prime, z,
                xi=max(len(z), 1), eta=0,
            )
        except InternalInconsistencyError as exc:
            failures.append({"attempt": attempts, "error": str(exc)})
            continue
        except CoarseMengerError as exc:
            failures.append({"attempt": attempts, "error": str(exc),
                             "kind": type(exc).__name__})
            continue
        produced[res.outcome] += 1
        if res.outcome == 3:
            verdict = verify_tangle(g.induced(lv), res.tangle)
            if not verdict:
                failures.append({"attempt": attempts,
                                 "tangle_axiom": verdict.axiom})
    return CriterionResult(
        "tangle", not failures and count == 100,
        {"instances": count, "outcomes": produced, "failures": failures},
    )


# ---------------------------------------------------------------------------
# 12. determinism


def check_determinism(seed: int) -> CriterionResult:
    fast = ("grid", "transfer-pinning")
    first = [run_criterion(key, seed).to_json_dict() for key in fast]
    second = [run_criterion(key, seed).to_json_dict() for key in fast]
    canon = lambda docs: json.dumps(
        [{k: v for k, v in d.items() if k != "seconds"} for d in docs],
        sort_keys=True,
    )
    same = canon(first) == canon(second)
    return CriterionResult("determinism", same, {"criteria": list(fast)})


# ---------------------------------------------------------------------------
# orchestration


CRITERIA: Dict[str, Callable[[int], CriterionResult]] = {
    "menger": check_menger_exactness,
    "gallai": check_gallai,
    "grid": check_grid_lower_bound,
    "weak-duality": check_weak_duality,
    "tree-helly": check_tree_helly,
    "easy-tree": check_easy_tree,
    "rooted-p3": check_rooted_p3,
    "transfer-pinning": check_transfer_pinning,
    "pullback": check_pullback,
    "scaling": check_scaling,
    "tangle": check_tangle_trichotomy,
    "determinism": check_determinism,
}


def run_criterion(key: str, seed: int = DEFAULT_SEED) -> CriterionResult:
    start = time.monotonic()
    result = CRITERIA[key](seed)
    result.seconds = time.monotonic() - start
    return result


@dataclass
class AcceptanceReport:
    seed: int
    results: List[CriterionResult]
    timestamp: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "version": __version__,
            "seed": self.seed,
            "timestamp": self.timestamp,
            "passed": self.passed,
            "criteria": [r.to_json_dict() for r in self.results],
        }

    def canonical(self) -> str:
        """Report serialization with volatile fields stripped, for
        determinism comparisons."""
        doc = self.to_json_dict()
        doc.pop("timestamp")
        for c in doc["criteria"]:
            c.pop("seconds")
        return json.dumps(doc, sort_keys=True)


def run_acceptance(
    only: Optional[Sequence[str]] = None, seed: int = DEFAULT_SEED
) -> AcceptanceReport:
    keys = list(CRITERIA) if only is None else list(only)
    for key in keys:
        if key not in CRITERIA:
            raise KeyError(key)
    results = [run_criterion(key, seed) for key in keys]
    return AcceptanceReport(seed, results, time.time())
