"""Packings of pairwise-far paths: the packing side of the coarse duality.

Exact mode reads the path family of :func:`paths._path_family` (at l = 0
the inclusion-minimal chordless x-y paths), builds the conflict relation
"set-distance < r" and extracts a maximum independent set of the conflict
graph by branch-and-bound with greedy clique-cover bounds.

Both steps work on masks over the paths (bit i: path i).  :func:`far_conflicts`
transposes the path x vertex incidence once (:func:`graph._member_masks`: per
vertex, the mask of the paths through it).  A vertex's reach is the OR of those
masks over the vertices closer than r, and a path's conflict row the OR of its
vertices' reaches.  :func:`max_independent_set` takes the adjacency masks and
branches in index order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from .errors import CapacityError, InputError
from .graph import (Graph, Number, _bfs, _member_masks, _walk, _within, as_vertex_set,
                    set_distance)
from .paths import PathWitness, _enumerate, _path_family, make_path

EXACT_PACKING_VERTEX_CAP = 16
GALLAI_EXHAUSTIVE_CAP = 14


@dataclass(frozen=True)
class PackingInstance:
    host: Graph
    x: frozenset
    y: frozenset
    l: Number = 0
    r: Number = 1
    mode: str = "exact"

    def __post_init__(self):
        as_vertex_set(self.host, self.x)
        as_vertex_set(self.host, self.y)
        if not self.l >= 0 or not self.r > 0:
            raise InputError("need l >= 0 and r > 0")
        if self.mode not in ("exact", "greedy"):
            raise InputError(f"unknown mode {self.mode!r}")


@dataclass
class PackingSolution:
    paths: Tuple[PathWitness, ...]
    certified_min_pairwise_distance: Optional[Number]
    optimal: bool
    nodes_explored: int = 0

    @property
    def size(self) -> int:
        return len(self.paths)

    def to_json_dict(self) -> dict:
        return {
            "size": self.size,
            "paths": [p.to_json_dict() for p in self.paths],
            "optimal": self.optimal,
            "stats": {"nodes_explored": self.nodes_explored},
        }


def _min_pairwise_distance(g: Graph, members: Sequence[frozenset]):
    return min((set_distance(g, s, t) for s, t in combinations(members, 2)), default=None)


class Adjacency(int):
    """An adjacency mask (bit j: neighbour j) whose ``len`` is its degree, as
    for an adjacency set: ``sum(map(len, rows)) // 2`` counts edges either way."""

    __len__ = int.bit_count


def far_conflicts(g: Graph, members: Sequence, r: Number) -> List[Adjacency]:
    """Conflict relation of an ``r``-far packing as adjacency masks: bit j of
    ``result[i]`` is set iff ``i != j`` and ``set_distance(g, members[i],
    members[j]) < r``.

    The radius test :func:`graph._within` decides each vertex pair, exactly:
    no pair is closer than ``r`` iff the set distance is not.
    """
    if not all(members):
        raise InputError("far conflicts over an empty set")
    if not r >= 0:  # NaN too
        raise InputError("negative radius")
    return _conflicts_through(members, _reach(g, _member_masks(g, members), r, strict=True))


def _reach(g: Graph, through: dict, r: Number, strict: bool) -> dict:
    """Per vertex ``v`` of ``through``, the OR of ``through`` over the
    vertices within ``r`` of ``v`` (closer than ``r`` when ``strict``):
    :func:`graph._within` with ``through``'s vertices as centers."""
    return dict(zip(through, _within(g, through, r, strict, centers=through)))


def _conflicts_through(members: Sequence, reach: dict) -> List[Adjacency]:
    """The library's one builder of conflict relations: member i's row is
    the OR of ``reach[v]`` over its vertices ``v``, less bit i.  With
    :func:`_reach` over the members' :func:`graph._member_masks` that is a
    radius relation; with the masks themselves, sharing a vertex."""
    rows: List[Adjacency] = []
    for i, member in enumerate(members):
        row = 0
        for v in member:
            row |= reach[v]
        rows.append(Adjacency(row & ~(1 << i)))
    return rows


def max_independent_set(adj: Sequence[int], enough: Optional[int] = None):
    """Maximum independent set of a conflict graph given as adjacency masks
    (bit j of ``adj[i]``: i and j conflict; bit i clear).

    The search branches on candidates in index order: the lowest set bit is
    the next one to branch on.  Returns the chosen indices (ascending list)
    and the number of search nodes explored.

    With ``enough``, the search stops at the first independent set of that
    size: the lexicographically first one, since "take" is tried before
    "skip" and the bound only prunes branches that cannot beat a smaller set
    already found.  A shorter result means there is none: it is then a
    maximum independent set, so ``enough`` may be any upper bound on the
    maximum.
    """
    best: List[int] = []
    nodes = 0

    def clique_cover_exceeds(cands: int, limit: int) -> bool:
        # Greedy clique cover, each candidate in order joining the first
        # clique it is adjacent to entirely: its size bounds the independent
        # set above.  First fit builds the cliques one at a time, so each
        # clique takes the lowest candidate adjacent to all its members until
        # none is left.  Counting stops once the cover has more than
        # ``limit`` cliques.
        count = 0
        while cands:
            if count >= limit:
                return True
            count += 1
            common = cands
            while common:
                low = common & -common
                cands ^= low
                common = (common ^ low) & adj[low.bit_length() - 1]
        return False

    def expand(cands: int, chosen: List[int]) -> bool:
        # the "skip" branch is the loop, the "take" branch the recursion;
        # True once ``enough`` is reached, which ends the search
        nonlocal best, nodes
        while True:
            nodes += 1
            if len(chosen) == enough:
                best = chosen
                return True
            if not cands:
                if len(chosen) > len(best):
                    best = list(chosen)
                return False
            if not clique_cover_exceeds(cands, len(best) - len(chosen)):
                return False
            low = cands & -cands
            cands ^= low
            k = low.bit_length() - 1
            if expand(cands & ~adj[k], chosen + [k]):
                return True

    expand((1 << len(adj)) - 1, [])
    return best, nodes


def max_far_packing(inst: PackingInstance) -> PackingSolution:
    """Maximum collection of simple (l,x,y)-paths pairwise at set-distance at
    least r (exact mode, its paths drawn from :func:`paths._path_family`), or
    a maximal greedy collection."""
    g = inst.host
    if inst.mode == "greedy":
        return _greedy_far_packing(inst)
    if len(g) > EXACT_PACKING_VERTEX_CAP:
        raise CapacityError(
            "exact packing capped by path enumeration",
            cap=EXACT_PACKING_VERTEX_CAP,
            actual=len(g),
        )
    family = _path_family(g, inst.l, inst.x, inst.y)
    chosen, nodes = max_independent_set(far_conflicts(g, family, inst.r))
    paths = tuple(make_path(g, family[i]) for i in chosen)
    mind = _min_pairwise_distance(g, [p.vertex_set for p in paths])
    return PackingSolution(paths, mind, optimal=True, nodes_explored=nodes)


def _greedy_far_packing(inst: PackingInstance) -> PackingSolution:
    """Repeatedly insert a shortest valid path, then exclude every vertex at
    distance < r from it; paths in the remainder are r-far."""
    g = inst.host
    x = as_vertex_set(g, inst.x)
    y = as_vertex_set(g, inst.y)
    allowed = set(g.vertices)
    bit = g.vertex_bits()
    chosen_paths: List[PathWitness] = []
    while True:
        p = _shortest_lxy_path(g, allowed, x.members, y.members, inst.l)
        if p is None:
            break
        chosen_paths.append(p)
        near = 0
        for mask in _within(g, bit, inst.r, strict=True, centers=p.sequence):
            near |= mask
        allowed = {v for v in allowed if not near & bit[v]}
    mind = _min_pairwise_distance(g, [p.vertex_set for p in chosen_paths])
    return PackingSolution(tuple(chosen_paths), mind, optimal=False)


def _shortest_lxy_path(g: Graph, allowed: set, x: frozenset, y: frozenset, l):
    """Shortest simple (l,x,y)-path inside ``allowed``, canonical tie-break.

    Endpoint distance is measured in the full host graph.
    """
    best = None
    bit = g.vertex_bits()
    for s in sorted(x & allowed):
        # BFS tree inside allowed (unweighted hop count is fine for greedy
        # ordering even on weighted hosts)
        parent, _ = _bfs(g, [s], allowed)
        # the vertices closer than l (none at l = 0, where no row is read)
        near = 0 if l == 0 else _within(g, bit, l, strict=True, centers=[s])[0]
        for t in sorted(y):
            if t not in parent or near & bit[t]:
                continue
            cand = make_path(g, _walk(parent, t)[::-1])
            key = (cand.length, cand.sequence)
            if best is None or key < (best.length, best.sequence):
                best = cand
    return best


def menger_packing(g: Graph, x, y) -> int:
    """Maximum number of fully vertex-disjoint x-y paths (a vertex of both
    sides is a path by itself), by breadth-first augmenting paths on the
    vertex-split graph (Even and Tarjan 1975): ``vertices[i]`` becomes the
    unit arc ``2i -> 2i+1``, each edge joins the outs to the ins, the source
    feeds the ins of x and the outs of y drain to the sink.  All capacities
    are one, so each augmentation adds one path.
    """
    x = as_vertex_set(g, x).members
    y = as_vertex_set(g, y).members
    pos = {v: i for i, v in enumerate(g.vertices)}
    source, sink = 2 * len(pos), 2 * len(pos) + 1
    residual = [{} for _ in range(sink + 1)]  # node -> {node: capacity left}

    def arc(u: int, v: int):
        residual[u][v] = 1
        residual[v][u] = 0

    for i in pos.values():
        arc(2 * i, 2 * i + 1)
    for u, v in g.edges:
        arc(2 * pos[u] + 1, 2 * pos[v])
        arc(2 * pos[v] + 1, 2 * pos[u])
    for v in x:
        arc(source, 2 * pos[v])
    for v in y:
        arc(2 * pos[v] + 1, sink)

    flow = 0
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, left in residual[u].items():
                if left and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        v = sink
        while v != source:
            u = parent[v]
            residual[u][v] -= 1
            residual[v][u] += 1
            v = u
        flow += 1


def _enumerate_a_paths(g: Graph, a) -> Tuple[PathWitness, ...]:
    """Chordless A-paths without internal A-vertices (the minimal mode of the
    path search at x = y = A, less its one-vertex paths): every A-path
    contains one as a vertex subset, so packing maxima and hitting sets agree
    with the full family."""
    enum = _enumerate(g, 0, a, a, None, g.closed_neighborhood_masks(), minimal=True)
    return tuple(p for p in enum.paths if p.end_a != p.end_b)


@dataclass
class GallaiResult:
    count: int
    paths: Tuple[PathWitness, ...]
    mode: str


def gallai_packing(g: Graph, a, with_witness: bool = False):
    """Maximum number of vertex-disjoint A-paths (exhaustive, desk scale)."""
    if len(g) > GALLAI_EXHAUSTIVE_CAP:
        raise CapacityError(
            "exhaustive A-path packing capped",
            cap=GALLAI_EXHAUSTIVE_CAP,
            actual=len(g),
        )
    paths = _enumerate_a_paths(g, a)
    sets = [p.vertex_set for p in paths]
    conflicts = _conflicts_through(sets, _member_masks(g, sets))
    chosen, _ = max_independent_set(conflicts)
    result = GallaiResult(
        len(chosen), tuple(paths[i] for i in sorted(chosen)), "exhaustive"
    )
    return result if with_witness else result.count
