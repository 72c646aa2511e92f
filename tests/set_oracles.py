"""Set-based reference implementations of the bitmask solvers, kept as
cross-check oracles.

For ``coarse_menger.packing`` they are the straightforward formulations: one
``set_distance`` per pair of members, and a branch-and-bound over Python lists
and adjacency sets.  The relations that ``gallai_packing`` and
``easy_tree_hitting`` built with one test per pair of members, before the one
row builder ``packing._conflicts_through`` made them, are kept as
``set_sharing_conflicts`` and ``set_near_conflicts``.  For the rooted-grid path they are the frozenset versions
of the boundary DP, the blocker scan and the minimal-support scan in
``coarse_menger.trees`` and of the exhaustive oracle in
``coarse_menger.acceptance``, with the same search orders; that oracle also
keeps its earlier mask search, which revisits states, and the DP its earlier
mask version, whose blocks are ``(label, mask)`` pairs.
For the radius test ``graph._within`` it is the per-(center, vertex)
``leq`` loop ``within_through``, on distances summed by ``fraction_dijkstra``.
For the covering side they are the per-(center, member) loop of
``graph._hit_masks``, the frozenset set covers (``min_set_cover``,
the exact and greedy search of ``certify_centered`` and the search of
``covering._ball_hitting`` within a budget), the combinations scan that ``min_separating_balls``
ran before its implicit-hitting-set loop, and for path enumeration the
``seen``-set depth-first search of ``enumerate_paths``.
For ``menger_packing`` the oracle is networkx maximum flow on the vertex-split
digraph, and for ``max_independent_set(..., enough=k)`` the k-clique search
over the complementary "far" relation that ``trees`` used before.  For
``duality_sweep`` it is the sweep that solves every cell on its own, without
the bounds one cell gives the next.  For ``build_gfrtz_tangle`` it is the
orientation loop that tries both orientations of each separation, with one
shadow each.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from coarse_menger.acceptance import _RootedSupports
from coarse_menger.covering import (
    CoverInstance,
    DualityCell,
    DualityReport,
    _ball_hitting,
    graph_fingerprint,
)
from coarse_menger.errors import CapacityError, InputError, InternalInconsistencyError
from coarse_menger.graph import (
    EXACT_CENTER_CAP,
    CenteredRefusal,
    CenteredSet,
    Graph,
    VertexSet,
    INF,
    _member_masks,
    _norm_edge,
    as_vertex_set,
    distance,
    is_exact,
    leq,
    neighborhood,
    set_distance,
)
from coarse_menger.packing import (
    EXACT_PACKING_VERTEX_CAP,
    PackingInstance,
    _far_packing,
    max_far_packing,
)
from coarse_menger.paths import (
    ENUM_VERTEX_LIMIT,
    PathEnumeration,
    PathWitness,
    canonical_sequence,
    enumerate_chordless_paths,
)
from coarse_menger.tangles import enumerate_separations
from coarse_menger.trees import MODEL_ENUM_CAP, Separation


def fraction_dijkstra(g: Graph, source: int) -> dict:
    """Shortest-path lengths from ``source``, summing the weights as given
    (1 per edge on a unit host): the source at int 0, unreachable vertices
    at ``INF``.  This is the Dijkstra that ``Graph.dist_from`` ran on hosts
    with float weights, and on hosts mixing int and ``Fraction`` weights,
    before every host summed scaled ints.  It is exact on ``Fraction``
    weights; on floats each sum rounds, in the order of the path."""
    dist = {}
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in dist:
            continue
        dist[u] = d
        for n in g.neighbors(u):
            if n not in dist:
                w = 1 if g.weights is None else g.weights[_norm_edge(u, n)]
                heapq.heappush(heap, (d + w, n))
    return {v: dist.get(v, INF) for v in g.vertices}


def set_far_conflicts(g, members: Sequence[frozenset], r) -> List[set]:
    """``j in result[i]`` iff ``i != j`` and the members are closer than r."""
    conflicts: List[set] = [set() for _ in members]
    for i, j in itertools.combinations(range(len(members)), 2):
        if not leq(r, set_distance(g, members[i], members[j])):
            conflicts[i].add(j)
            conflicts[j].add(i)
    return conflicts


def pairwise_conflicts(members: Sequence, conflict) -> List[int]:
    """Adjacency masks of ``conflict(members[i], members[j])``, tested once
    per pair i < j."""
    adj = [0] * len(members)
    for i, j in itertools.combinations(range(len(members)), 2):
        if conflict(members[i], members[j]):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def set_sharing_conflicts(members: Sequence[frozenset]) -> List[int]:
    """Members conflict iff they share a vertex (vertex-disjoint packings)."""
    return pairwise_conflicts(members, lambda s, t: not s.isdisjoint(t))


def set_near_conflicts(g, members: Sequence[frozenset], radius, tolerant=False) -> List[int]:
    """Members conflict iff their set distance is at most ``radius``: exactly,
    as ``not set_distance > radius``, or with ``leq``'s float tolerance when
    ``tolerant``."""
    if tolerant:
        return pairwise_conflicts(members, lambda s, t: leq(set_distance(g, s, t), radius))
    return pairwise_conflicts(members, lambda s, t: not set_distance(g, s, t) > radius)


def set_max_independent_set(conflicts: List[set], order: Sequence[int]):
    """Maximum independent set by branch-and-bound over candidate lists in
    ``order``, pruned by a greedy clique cover.  Returns (chosen indices,
    search nodes)."""
    best: List[int] = []
    nodes = 0

    def clique_cover_bound(cands: List[int]) -> int:
        cliques: List[List[int]] = []
        for v in cands:
            for cl in cliques:
                if all(u in conflicts[v] for u in cl):
                    cl.append(v)
                    break
            else:
                cliques.append([v])
        return len(cliques)

    def expand(cands: List[int], chosen: List[int]):
        nonlocal best, nodes
        nodes += 1
        if not cands:
            if len(chosen) > len(best):
                best = list(chosen)
            return
        if len(chosen) + clique_cover_bound(cands) <= len(best):
            return
        v = cands[0]
        expand([u for u in cands[1:] if u not in conflicts[v]], chosen + [v])
        expand(cands[1:], chosen)

    expand(list(order), [])
    return best, nodes


def nx_menger_packing(g: Graph, x, y) -> int:
    """Maximum number of fully vertex-disjoint x-y paths, by vertex-capacitated
    maximum flow (each vertex split into an in/out pair of capacity one)."""
    import networkx as nx

    x = as_vertex_set(g, x)
    y = as_vertex_set(g, y)
    if not x.members or not y.members:
        return 0
    dg = nx.DiGraph()
    src, dst = "s", "t"
    for v in g.vertices:
        dg.add_edge(("in", v), ("out", v), capacity=1)
    for u, v in g.edges:
        dg.add_edge(("out", u), ("in", v), capacity=len(g.vertices))
        dg.add_edge(("out", v), ("in", u), capacity=len(g.vertices))
    for v in x:
        dg.add_edge(src, ("in", v), capacity=1)
    for v in y:
        dg.add_edge(("out", v), dst, capacity=len(g.vertices))
    value, _ = nx.maximum_flow(dg, src, dst)
    return value


def find_clique(adjacency: List[set], k: int) -> Optional[List[int]]:
    """A k-clique in the compatibility graph, or None."""
    n = len(adjacency)

    def extend(chosen: List[int], cands: List[int]) -> Optional[List[int]]:
        if len(chosen) == k:
            return chosen
        if len(chosen) + len(cands) < k:
            return None
        for idx, v in enumerate(cands):
            res = extend(chosen + [v], [u for u in cands[idx + 1:] if u in adjacency[v]])
            if res is not None:
                return res
        return None

    return extend([], list(range(n)))


def _distinct_reps(root_sets: Sequence[frozenset], pool: frozenset):
    """A system of distinct representatives for the root sets within pool,
    or None."""

    def extend(i: int, used: frozenset):
        if i == len(root_sets):
            return ()
        for v in sorted(root_sets[i] & pool - used):
            rest = extend(i + 1, used | {v})
            if rest is not None:
                return (v,) + rest
        return None

    return extend(0, frozenset())


def _is_support(g: Graph, u: frozenset, root_sets: Sequence[frozenset]) -> bool:
    """True iff ``u`` is connected and holds distinct representatives of all
    root sets — exactly the sets that carry a rooted 0-fat path-pattern
    model."""
    if not u or not g.is_connected_set(u):
        return False
    return _distinct_reps(root_sets, u) is not None


def set_minimal_supports(g: Graph, root_sets: Sequence[frozenset]) -> List[frozenset]:
    if len(g) > MODEL_ENUM_CAP:
        raise CapacityError(
            "exact model-union enumeration capped",
            cap=MODEL_ENUM_CAP,
            actual=len(g),
        )
    verts = sorted(g.vertices)
    out = []
    for bits in range(1, 1 << len(verts)):
        u = frozenset(verts[i] for i in range(len(verts)) if bits >> i & 1)
        if not _is_support(g, u, root_sets):
            continue
        if all(not _is_support(g, u - {v}, root_sets) for v in u):
            out.append(u)
    return out


def _forget_times(g: Graph, order: Sequence[int]) -> Dict[int, int]:
    pos = {v: i for i, v in enumerate(order)}
    out = {}
    for v in order:
        last = pos[v]
        for n in g.neighbors(v):
            last = max(last, pos[n])
        out[v] = last
    return out


def set_two_disjoint_connected_transversals(
    g: Graph,
    root_sets: Sequence[frozenset],
    order: Optional[Sequence[int]] = None,
    boundary_cap: int = 8,
):
    """Two vertex-disjoint connected sets, each holding distinct
    representatives of every root set — or None.

    Sweeps the vertices in ``order`` tracking only the boundary (vertices
    with unprocessed neighbors): label assignment, connectivity blocks per
    label, and which root subsets already have distinct representatives.
    Works whenever the order has small boundary (row-major on grids).
    """
    if order is None:
        order = sorted(g.vertices)
    order = list(order)
    if sorted(order) != sorted(g.vertices):
        raise InputError("order must list every vertex once")
    forget_at = _forget_times(g, order)
    boundary = 0
    alive = 0
    for i, v in enumerate(order):
        alive += 1
        boundary = max(boundary, alive)
        alive -= sum(1 for u in order[: i + 1] if forget_at[u] == i)
    if boundary > boundary_cap:
        raise CapacityError(
            "sweep boundary too wide for the disjoint-transversal search",
            cap=boundary_cap,
            actual=boundary,
        )

    # flatten the sweep into sequential phases so every transition has an
    # unambiguous predecessor layer for witness reconstruction
    phases: List[tuple] = []
    for step, v in enumerate(order):
        phases.append(("intro", v))
        for u in sorted(u for u in order[: step + 1] if forget_at[u] == step):
            phases.append(("forget", u))

    idx = range(len(root_sets))
    full = frozenset(idx)
    init = (frozenset(), frozenset([frozenset()]), frozenset([frozenset()]),
            frozenset())
    layers = [{init}]
    origin: Dict[tuple, tuple] = {}
    active: set = set()

    def used(state, label):
        blocks, _, _, closed = state
        return label in closed or any(lab == label for lab, _ in blocks)

    for p, (kind, v) in enumerate(phases):
        nxt = set()
        if kind == "intro":
            nbrs = frozenset(g.neighbors(v)) & frozenset(active)
            for state in layers[-1]:
                blocks, sdr1, sdr2, closed = state
                if state not in nxt:
                    nxt.add(state)
                    origin[(p, state)] = (state, v, 0)
                for label in (1, 2):
                    if label in closed:
                        continue
                    if label == 2 and not used(state, 1) and not used(state, 2):
                        continue  # symmetry: first labeled vertex gets label 1
                    touching = [b for lab, b in blocks
                                if lab == label and b & nbrs]
                    merged = frozenset({v}).union(*touching)
                    new_blocks = frozenset(
                        (lab, b) for lab, b in blocks
                        if not (lab == label and b & nbrs)
                    ) | {(label, merged)}
                    sdr = sdr1 if label == 1 else sdr2
                    grown = sdr | frozenset(
                        s | {i} for s in sdr for i in idx
                        if i not in s and v in root_sets[i]
                    )
                    new_state = (
                        new_blocks,
                        grown if label == 1 else sdr1,
                        grown if label == 2 else sdr2,
                        closed,
                    )
                    if new_state not in nxt:
                        nxt.add(new_state)
                        origin[(p, new_state)] = (state, v, label)
            active.add(v)
        else:
            for state in layers[-1]:
                blocks, sdr1, sdr2, closed = state
                home = [(lab, b) for lab, b in blocks if v in b]
                if not home:
                    out_state = state
                else:
                    lab, b = home[0]
                    rest = blocks - {(lab, b)}
                    shrunk = b - {v}
                    if shrunk:
                        out_state = (rest | {(lab, shrunk)}, sdr1, sdr2, closed)
                    else:
                        if any(l2 == lab for l2, _ in rest):
                            continue  # a second component would be stranded
                        if full not in (sdr1 if lab == 1 else sdr2):
                            continue  # closed component missing some root
                        out_state = (rest, sdr1, sdr2, closed | {lab})
                if out_state not in nxt:
                    nxt.add(out_state)
                    origin[(p, out_state)] = (state, v, None)
            active.discard(v)
        layers.append(nxt)

    final = next(
        (s for s in layers[-1] if s[3] == frozenset({1, 2})), None
    )
    if final is None:
        return None
    assignment: Dict[int, int] = {}
    state = final
    for p in range(len(phases) - 1, -1, -1):
        prev, v, label = origin[(p, state)]
        if label is not None:
            assignment[v] = label
        state = prev
    side1 = frozenset(v for v, lab in assignment.items() if lab == 1)
    side2 = frozenset(v for v, lab in assignment.items() if lab == 2)
    return side1, side2


# The boundary DP of ``trees.two_disjoint_connected_transversals`` as it was
# when each block was a ``(label, mask)`` pair: the one to one re-encoding
# must leave every layer, and so the result, exactly as this gives it.


def _pair_drop_dominated(layer: Dict[tuple, tuple]) -> Dict[tuple, tuple]:
    """``layer`` without the states whose ``sdr1`` and ``sdr2`` masks are
    both subsets of another state's with equal ``blocks`` and ``closed``.

    Each group is scanned by falling total mask size, so a state can only be
    dominated by one scanned before it; the kept ones form an antichain."""
    groups: Dict[tuple, List[tuple]] = {}
    for state in layer:
        groups.setdefault((state[0], state[3]), []).append(state)
    for group in groups.values():
        if len(group) < 2:
            continue
        group.sort(key=lambda s: -(s[1].bit_count() + s[2].bit_count()))
        kept: List[Tuple[int, int]] = []
        for state in group:
            _, sdr1, sdr2, _ = state
            if any(not sdr1 & ~k1 and not sdr2 & ~k2 for k1, k2 in kept):
                del layer[state]
            else:
                kept.append((sdr1, sdr2))
    return layer


def pair_two_disjoint_connected_transversals(
    g: Graph,
    root_sets: Sequence[frozenset],
    order: Optional[Sequence[int]] = None,
    boundary_cap: int = 8,
):
    """Two vertex-disjoint connected sets, each holding distinct
    representatives of every root set — or None.

    Sweeps the vertices in ``order`` tracking only the boundary (vertices
    with unprocessed neighbors): label assignment, connectivity blocks per
    label, and which root subsets already have distinct representatives.
    Works whenever the order has small boundary (row-major on grids).

    A state is ``(blocks, sdr1, sdr2, closed)`` on vertex masks
    (:meth:`Graph.vertex_bits`): ``blocks`` is the sorted tuple of
    ``(label, block mask)``; bit ``s`` of ``sdr1``/``sdr2`` is set once the
    root sets with indices in the mask ``s`` have distinct representatives
    among that label's vertices; bit ``label`` of ``closed`` is set once that
    label's component is complete.

    After each phase, a state whose ``sdr1`` and ``sdr2`` are both subsets of
    another state's with the same ``(blocks, closed)`` is dropped
    (:func:`_pair_drop_dominated`).  That is exact: the transitions on ``blocks``
    and ``closed`` never read the ``sdr`` masks, ``grown`` is monotone in
    them, and the only test on them (the full set, when a component closes)
    is monotone too, so whatever the dropped state reaches, the state that
    dominates it reaches with larger masks.
    """
    if order is None:
        order = sorted(g.vertices)
    order = list(order)
    if sorted(order) != sorted(g.vertices):
        raise InputError("order must list every vertex once")
    forget_at = _forget_times(g, order)
    boundary = 0
    alive = 0
    for i, v in enumerate(order):
        alive += 1
        boundary = max(boundary, alive)
        alive -= sum(1 for u in order[: i + 1] if forget_at[u] == i)
    if boundary > boundary_cap:
        raise CapacityError(
            "sweep boundary too wide for the disjoint-transversal search",
            cap=boundary_cap,
            actual=boundary,
        )

    # flatten the sweep into sequential phases so every transition has an
    # unambiguous predecessor layer for witness reconstruction
    phases: List[tuple] = []
    for step, v in enumerate(order):
        phases.append(("intro", v))
        for u in sorted(u for u in order[: step + 1] if forget_at[u] == step):
            phases.append(("forget", u))

    bit = g.vertex_bits()
    closed_nbhd = g.closed_neighborhood_masks()
    roots_at = _member_masks(g, root_sets)
    full = (1 << len(root_sets)) - 1
    grown_cache: Dict[tuple, int] = {}

    def grown(sdr: int, at: int) -> int:
        """``sdr`` plus every subset in it extended by one root index in
        ``at`` (the root sets holding the new vertex)."""
        key = (at, sdr)
        out = grown_cache.get(key)
        if out is None:
            out = sdr
            subsets = sdr
            while subsets:
                low = subsets & -subsets
                subsets ^= low
                s = low.bit_length() - 1
                free = at & ~s
                while free:
                    root = free & -free
                    free ^= root
                    out |= 1 << (s | root)
            grown_cache[key] = out
        return out

    def used(state, label):
        blocks, _, _, closed = state
        return closed >> label & 1 or any(lab == label for lab, _ in blocks)

    # one dict per layer: state -> (predecessor state, vertex, label given)
    layers: List[Dict[tuple, Optional[tuple]]] = [{((), 1, 1, 0): None}]
    active = 0
    for kind, v in phases:
        nxt: Dict[tuple, tuple] = {}
        vb = bit[v]
        if kind == "intro":
            nbrs = closed_nbhd[v] & active  # v itself is not active yet
            at = roots_at.get(v, 0)
            for state in layers[-1]:
                blocks, sdr1, sdr2, closed = state
                if state not in nxt:
                    nxt[state] = (state, v, 0)
                for label in (1, 2):
                    if closed >> label & 1:
                        continue
                    if label == 2 and not used(state, 1) and not used(state, 2):
                        continue  # symmetry: first labeled vertex gets label 1
                    merged = vb
                    kept = []
                    for lab, b in blocks:
                        if lab == label and b & nbrs:
                            merged |= b
                        else:
                            kept.append((lab, b))
                    kept.append((label, merged))
                    new_blocks = tuple(sorted(kept))
                    if label == 1:
                        new_state = (new_blocks, grown(sdr1, at), sdr2, closed)
                    else:
                        new_state = (new_blocks, sdr1, grown(sdr2, at), closed)
                    if new_state not in nxt:
                        nxt[new_state] = (state, v, label)
            active |= vb
        else:
            for state in layers[-1]:
                blocks, sdr1, sdr2, closed = state
                home = next((j for j, (_, b) in enumerate(blocks) if b & vb), None)
                if home is None:
                    out_state = state
                else:
                    lab, b = blocks[home]
                    rest = blocks[:home] + blocks[home + 1:]
                    shrunk = b & ~vb
                    if shrunk:
                        out_state = (tuple(sorted(rest + ((lab, shrunk),))),
                                     sdr1, sdr2, closed)
                    else:
                        if any(l2 == lab for l2, _ in rest):
                            continue  # a second component would be stranded
                        if not (sdr1 if lab == 1 else sdr2) >> full & 1:
                            continue  # closed component missing some root
                        out_state = (rest, sdr1, sdr2, closed | 1 << lab)
                if out_state not in nxt:
                    nxt[out_state] = (state, v, 0)
            active &= ~vb
        layers.append(_pair_drop_dominated(nxt))

    final = next((s for s in layers[-1] if s[3] == 0b110), None)
    if final is None:
        return None
    assignment: Dict[int, int] = {}
    state = final
    for layer in reversed(layers[1:]):
        state, v, label = layer[state]
        if label:
            assignment[v] = label
    side1 = frozenset(v for v, lab in assignment.items() if lab == 1)
    side2 = frozenset(v for v, lab in assignment.items() if lab == 2)
    return side1, side2


def set_min_transversal_blocker(
    g: Graph, root_sets: Sequence[frozenset], size_cap: int
) -> frozenset:
    """Smallest vertex set whose removal leaves no connected component with
    distinct representatives of every root set."""

    def survives(z: frozenset) -> bool:
        rest = g.induced(frozenset(g.vertices) - z)
        return any(
            _distinct_reps(root_sets, frozenset(comp)) is not None
            for comp in rest.components()
            if g.is_connected_set(comp)
        )

    if not survives(frozenset()):
        return frozenset()
    verts = sorted(g.vertices)
    for size in range(1, size_cap + 1):
        for combo in itertools.combinations(verts, size):
            z = frozenset(combo)
            if not survives(z):
                return z
    raise CapacityError(
        "no blocker within the budget", cap=size_cap, actual=None
    )


def set_exhaustive_two_disjoint_supports(g: Graph, roots: Sequence[frozenset]):
    """Complete search for two vertex-disjoint connected sets, each holding
    distinct representatives of three root sets.

    Every minimal such set is a tree with at most three leaves, so it splits
    into a simple path between the first and third root sets plus at most one
    attachment path to the second; both parts are enumerated by depth-first
    search.  The partner-side check ("does some leftover component still
    support the roots?") is monotone under growth, which prunes hard.
    """
    if len(roots) != 3:
        raise ValueError("oracle is specific to three root sets")
    adj = {v: sorted(g.neighbors(v)) for v in g.vertices}
    rsets = [frozenset(r) for r in roots]
    allv = sorted(g.vertices)

    def has_sdr(pool: frozenset) -> bool:
        def match(i, used):
            if i == 3:
                return True
            return any(
                match(i + 1, used | {v})
                for v in sorted(rsets[i] & pool) if v not in used
            )
        return match(0, frozenset())

    def survives(removed) -> bool:
        seen = set()
        for v in allv:
            if v in removed or v in seen:
                continue
            comp = {v}
            stack = [v]
            seen.add(v)
            while stack:
                u = stack.pop()
                for n in adj[u]:
                    if n not in removed and n not in seen:
                        seen.add(n)
                        comp.add(n)
                        stack.append(n)
            if has_sdr(frozenset(comp)):
                return True
        return False

    found: List[frozenset] = []

    def attach(pset: set):
        def q_dfs(q: List[int], qset: set):
            union = pset | qset
            if not survives(union):
                return
            if has_sdr(frozenset(union)):
                found.append(frozenset(union))
                return
            for n in adj[q[-1]]:
                if n not in union:
                    q.append(n)
                    qset.add(n)
                    q_dfs(q, qset)
                    qset.discard(n)
                    q.pop()
                    if found:
                        return

        for p in sorted(pset):
            for n in adj[p]:
                if n not in pset:
                    q_dfs([p, n], {n})
                    if found:
                        return

    def trunk_dfs(path: List[int], pset: set):
        if found:
            return
        v = path[-1]
        if v in rsets[2]:
            s = frozenset(pset)
            if survives(s):
                if has_sdr(s):
                    found.append(s)
                    return
                attach(set(pset))
                if found:
                    return
        for n in adj[v]:
            if n not in pset:
                path.append(n)
                pset.add(n)
                trunk_dfs(path, pset)
                pset.discard(n)
                path.pop()
            if found:
                return

    for start in sorted(rsets[0]):
        trunk_dfs([start], {start})
        if found:
            break
    if not found:
        return None
    s1 = found[0]
    rest = g.induced(frozenset(g.vertices) - s1)
    for comp in rest.components():
        if has_sdr(frozenset(comp)):
            return s1, frozenset(comp)
    raise InternalInconsistencyError("search result lost its partner side")


def memo_exhaustive_two_disjoint_supports(g: Graph, roots: Sequence[frozenset]):
    """The mask search of ``acceptance.exhaustive_two_disjoint_supports``
    before it explored each state once: it revisits every state it meets
    again, and memoises only the partner-side check, on the removed mask.

    Every minimal such set is a tree with at most three leaves, so it splits
    into a simple path between the first and third root sets plus at most one
    attachment path to the second; both parts are enumerated by depth-first
    search.  The partner-side check ("does some leftover component still
    support the roots?") is monotone under growth, which prunes hard; it is
    a function of the removed vertex mask alone, so it is memoised on it.
    """
    sup = _RootedSupports(g, roots)
    bit = sup.bit
    adj = {v: sorted(g.neighbors(v)) for v in g.vertices}
    found: List[int] = []
    memo: Dict[int, bool] = {}

    def survives(removed: int) -> bool:
        hit = memo.get(removed)
        if hit is None:
            hit = any(sup.has_sdr(c) for c in sup.components(removed))
            memo[removed] = hit
        return hit

    def attach(path: List[int], pmask: int):
        def q_dfs(last: int, union: int):
            if not survives(union):
                return
            if sup.has_sdr(union):
                found.append(union)
                return
            for n in adj[last]:
                if not union & bit[n]:
                    q_dfs(n, union | bit[n])
                    if found:
                        return

        for p in sorted(path):
            for n in adj[p]:
                if not pmask & bit[n]:
                    q_dfs(n, pmask | bit[n])
                    if found:
                        return

    def trunk_dfs(path: List[int], pmask: int):
        # every set this branch can accept contains pmask and must survive;
        # survives is antitone in the removed mask (removing more only splits
        # components, and Hall's condition is monotone in the pool), so a
        # trunk that fails it ends the branch and the first find is unchanged
        if found or not survives(pmask):
            return
        v = path[-1]
        if sup.rsets[2] & bit[v]:
            if sup.has_sdr(pmask):
                found.append(pmask)
                return
            attach(path, pmask)
            if found:
                return
        for n in adj[v]:
            if not pmask & bit[n]:
                path.append(n)
                trunk_dfs(path, pmask | bit[n])
                path.pop()
            if found:
                return

    for start in sorted(roots[0]):
        trunk_dfs([start], bit[start])
        if found:
            break
    if not found:
        return None
    s1 = found[0]
    for comp in sup.components(s1):
        if sup.has_sdr(comp):
            return sup.members(s1), sup.members(comp)
    raise InternalInconsistencyError("search result lost its partner side")


# ---------------------------------------------------------------------------
# set covers


def _ball(g: Graph, center: int, r) -> frozenset:
    du = g.dist_from(center)
    return frozenset(v for v, d in du.items() if leq(d, r))


def _ball_mask(g: Graph, center: int, r) -> int:
    """:func:`_ball` as a mask over ``Graph.vertex_bits``, one ``leq`` per
    vertex."""
    bit = g.vertex_bits()
    mask = 0
    for v, d in g.dist_from(center).items():
        if leq(d, r):
            mask |= bit[v]
    return mask


def within_through(g: Graph, through: dict, r, strict: bool = False,
                   centers=None) -> List[int]:
    """Per center (every vertex in vertex order by default), the OR of
    ``through[v]`` over the vertices ``v`` within ``r`` of it (``leq(d,
    r)``), or closer than ``r`` (``not leq(r, d)``) when ``strict``: one
    ``leq`` per (center, vertex), the loop of ``graph._within`` before it
    compared scaled int rows, and its reference.  The distances come from
    :func:`fraction_dijkstra`, not from ``dist_from``: on float hosts they
    are the sums as given, so a mask that moves against the old summation
    shows.  There every length is made a float, as ``dist_from`` hands it
    out, so that each comparison takes the tolerance."""
    exact = g.weights is None or all(is_exact(w) for w in g.weights.values())
    masks = []
    for c in g.vertices if centers is None else centers:
        dc = fraction_dijkstra(g, c)
        if not exact:
            dc = {v: float(d) for v, d in dc.items()}
        mask = 0
        for v, holders in through.items():
            if not leq(r, dc[v]) if strict else leq(dc[v], r):
                mask |= holders
        masks.append(mask)
    return masks


def set_min_set_cover(universe: Sequence[int], sets: Dict[int, frozenset]):
    """Exact minimum set cover by branch-and-bound.

    ``sets`` maps candidate ids to covered element sets.  Branches on the
    element covered by fewest candidates; deterministic tie-break by id.
    Returns (chosen ids sorted, nodes explored).
    """
    universe = frozenset(universe)
    for el in universe:
        if not any(el in s for s in sets.values()):
            raise InternalInconsistencyError(f"element {el} is uncoverable")
    candidates = sorted(c for c in sets if sets[c] & universe)

    # greedy upper bound
    best: Optional[List[int]] = None
    uncovered = set(universe)
    greedy: List[int] = []
    while uncovered:
        c = max(candidates, key=lambda c: (len(sets[c] & uncovered), -c))
        greedy.append(c)
        uncovered -= sets[c]
    best = greedy

    max_size = max((len(sets[c] & universe) for c in candidates), default=1) or 1
    nodes = 0

    def search(uncovered: frozenset, chosen: List[int]):
        nonlocal best, nodes
        nodes += 1
        if not uncovered:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        if len(chosen) + math.ceil(len(uncovered) / max_size) >= len(best):
            return
        pivot = min(
            uncovered,
            key=lambda el: (sum(1 for c in candidates if el in sets[c]), el),
        )
        covers = [c for c in candidates if pivot in sets[c]]
        covers.sort(key=lambda c: (-len(sets[c] & uncovered), c))
        for c in covers:
            chosen.append(c)
            search(uncovered - sets[c], chosen)
            chosen.pop()

    search(universe, [])
    return sorted(best), nodes


def set_hit_masks(g: Graph, family: Sequence[frozenset], r) -> List[int]:
    """Per vertex ``c`` in vertex order, the mask of the ``family`` members
    (bit i: ``family[i]``) that the radius-``r`` ball around ``c`` meets, by
    one test per (center, member)."""
    bit = g.vertex_bits()
    members = [sum(bit[v] for v in f) for f in family]
    hits = []
    for c in g.vertices:
        ball = _ball_mask(g, c, r)
        hits.append(sum(1 << i for i, m in enumerate(members) if ball & m))
    return hits


def set_certify_centered(g: Graph, z, k: int, r, mode: str = "exact"):
    """Search for at most ``k`` vertex centers whose radius-``r`` balls cover
    ``z``.  Returns a :class:`CenteredSet` on success, else a
    :class:`CenteredRefusal`."""
    z = as_vertex_set(g, z)
    if k < 0 or r < 0:
        raise InputError("negative center count or radius")
    if not z.members:
        return CenteredSet(z, VertexSet(frozenset(), g), r)
    if mode not in ("exact", "greedy"):
        raise InputError(f"unknown mode {mode!r}")
    if mode == "exact" and len(g) > EXACT_CENTER_CAP:
        raise CapacityError(
            f"exact centered-set search capped at {EXACT_CENTER_CAP} vertices",
            cap=EXACT_CENTER_CAP,
            actual=len(g),
        )

    balls = {c: _ball(g, c, r) & z.members for c in g.vertices}
    candidates = [c for c in g.vertices if balls[c]]

    if mode == "greedy":
        chosen = []
        uncovered = set(z.members)
        while uncovered and len(chosen) < k:
            best = max(candidates, key=lambda c: (len(balls[c] & uncovered), -c))
            if not balls[best] & uncovered:
                break
            chosen.append(best)
            uncovered -= balls[best]
        if uncovered:
            return CenteredRefusal("greedy-cover-exhausted", "greedy", k, r)
        return CenteredSet(z, VertexSet(frozenset(chosen), g), r)

    target = set(z.members)

    def search(uncovered: frozenset, chosen: tuple):
        if not uncovered:
            return chosen
        if len(chosen) >= k:
            return None
        # branch on the uncovered vertex with fewest covering candidates
        pivot = min(
            uncovered,
            key=lambda u: (sum(1 for c in candidates if u in balls[c]), u),
        )
        covers = [c for c in candidates if pivot in balls[c]]
        if not covers:
            return None
        covers.sort(key=lambda c: (-len(balls[c] & uncovered), c))
        for c in covers:
            res = search(uncovered - balls[c], chosen + (c,))
            if res is not None:
                return res
        return None

    res = search(frozenset(target), ())
    if res is None:
        return CenteredRefusal("exhaustive-center-search-failed", "exact", k, r)
    return CenteredSet(z, VertexSet(frozenset(res), g), r)


def set_hitting_center_search(
    g: Graph, l: VertexSet, far: Sequence[frozenset], budget: int, radius
):
    """Centers (at most ``budget``) whose radius balls, cut to the subgraph,
    hit every listed member — or None.  Exhaustive set-cover search."""
    if not far:
        return frozenset()
    if budget <= 0:
        return None
    balls = {c: _ball(g, c, radius) & l.members for c in g.vertices}
    hit = {
        c: frozenset(i for i, f in enumerate(far) if balls[c] & f)
        for c in g.vertices
    }
    candidates = [c for c in g.vertices if hit[c]]

    def search(uncovered: frozenset, chosen: tuple):
        if not uncovered:
            return chosen
        if len(chosen) >= budget:
            return None
        pivot = min(
            uncovered,
            key=lambda i: (sum(1 for c in candidates if i in hit[c]), i),
        )
        covers = sorted(
            (c for c in candidates if pivot in hit[c]),
            key=lambda c: (-len(hit[c] & uncovered), c),
        )
        for c in covers:
            res = search(uncovered - hit[c], chosen + (c,))
            if res is not None:
                return res
        return None

    return_value = search(frozenset(range(len(far))), ())
    return frozenset(return_value) if return_value is not None else None


# ---------------------------------------------------------------------------
# path enumeration


def set_enumerate_paths(g: Graph, l, x, y, cap: Optional[int] = None) -> PathEnumeration:
    """All simple paths from ``x`` to ``y`` with endpoint distance >= ``l``,
    deduplicated up to reversal, in canonical lexicographic order; with a
    finite ``cap``, the first ``cap`` distinct ones that the depth-first
    search finds, and whether it finds more."""
    x = as_vertex_set(g, x)
    y = as_vertex_set(g, y)
    if cap is None and len(g) > ENUM_VERTEX_LIMIT:
        raise CapacityError(
            f"uncapped path enumeration limited to {ENUM_VERTEX_LIMIT} vertices",
            cap=ENUM_VERTEX_LIMIT,
            actual=len(g),
        )
    if not x.members or not y.members:
        return PathEnumeration((), False)

    found = {}  # canonical sequences, in the order the search finds them

    def extend(seq: list, seen: set):
        tail = seq[-1]
        if tail in y.members and leq(l, distance(g, seq[0], tail)):
            found.setdefault(canonical_sequence(seq))
        for n in g.neighbors(tail):
            if n not in seen:
                seen.add(n)
                seq.append(n)
                extend(seq, seen)
                seq.pop()
                seen.remove(n)

    for start in sorted(x.members | y.members):
        if start in x.members:
            extend([start], {start})

    found = list(found)
    truncated = cap is not None and len(found) > cap
    ordered = sorted(found[:cap])
    paths = tuple(PathWitness(s, distance(g, s[0], s[-1])) for s in ordered)
    return PathEnumeration(paths, truncated)


def plain_duality_sweep(
    g: Graph, x, y, l, r_values: Sequence, beta_values: Sequence
) -> DualityReport:
    """``covering.duality_sweep`` without shared bounds: every packing cell a
    full maximum independent set search, every cover cell a full set-cover
    search with its certificate, each on its own transposition of the
    chordless family."""
    x = as_vertex_set(g, x)
    y = as_vertex_set(g, y)
    report = DualityReport(graph_fingerprint(g, sorted(x.members), sorted(y.members), l))
    try:
        paths = enumerate_chordless_paths(g, l, x.members, y.members, cap=None).paths
    except CapacityError:
        paths = None
    for r in r_values:
        # the instances validate l, r and beta even when the family is shared
        inst = PackingInstance(g, x.members, y.members, l, r, "exact")
        if paths is not None and len(g) <= EXACT_PACKING_VERTEX_CAP:
            sol = _far_packing(g, paths, r)
            report.packing_by_r[r] = DualityCell(sol.size, True)
        else:
            sol = max_far_packing(replace(inst, mode="greedy"))
            report.packing_by_r[r] = DualityCell(sol.size, False, "capacity:greedy")
    family = None if paths is None else tuple(p.vertex_set for p in paths)
    for beta in beta_values:
        CoverInstance(g, beta, l=l, x=x.members, y=y.members)
        if family is not None:
            sol = _ball_hitting(g, family, beta)
            report.cover_by_radius[beta] = DualityCell(sol.count, True)
        elif l == 0:
            # at l = 0 the balls hit every x-y path iff they separate x from y
            count, _ = scan_separating_balls(g, x.members, y.members, beta)
            report.cover_by_radius[beta] = DualityCell(count, True)
        else:
            report.cover_by_radius[beta] = DualityCell(None, False, "capacity:refused")
    return report


def separated(g: Graph, x: frozenset, y: frozenset, removed: frozenset) -> bool:
    """Whether ``g - removed`` has no x-y path, by a flood fill from x."""
    seen = set(x - removed)
    stack = list(seen)
    while stack:
        u = stack.pop()
        if u in y:
            return False
        for n in g.neighbors(u):
            if n not in removed and n not in seen:
                seen.add(n)
                stack.append(n)
    return True


def scan_separating_balls(g: Graph, x, y, radius):
    """Fewest radius-``radius`` balls whose union separates x from y, by a
    scan of the center subsets size by size in ``itertools.combinations``
    order: the first separating subset.  Returns (count, centers)."""
    x = as_vertex_set(g, x).members
    y = as_vertex_set(g, y).members
    balls = {c: _ball(g, c, radius) for c in g.vertices}
    for size in range(len(x) + 1):
        for centers in itertools.combinations(g.vertices, size):
            union = frozenset().union(*(balls[c] for c in centers))
            if separated(g, x, y, union):
                return size, frozenset(centers)
    raise InternalInconsistencyError("the balls around x do not separate")


def gfrtz_orientation(g: Graph, l, fam, r_prime, theta: int, z) -> List[Separation]:
    """The separations of the subgraph on ``l`` of order below ``theta``,
    each pointed at the side that alone holds a member avoiding the
    r'-fattened ``z``, beyond the r'-shadow of the separator; a separation
    with no such side is left out.  Each orientation is tried in turn."""
    fat_z = neighborhood(g, z, r_prime).members
    far = [frozenset(f) for f in fam if not frozenset(f) & fat_z]
    chosen = []
    for s in enumerate_separations(g.induced(l), theta):
        for cand in (s, s.flip()):
            shadow = neighborhood(g, cand.separator, r_prime).members
            in_a = [f for f in far if f <= cand.a - shadow]
            in_b = [f for f in far if f <= cand.b - shadow]
            if not in_a and in_b:
                chosen.append(cand)
                break
    return chosen
