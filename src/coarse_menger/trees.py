"""Tree machinery: separations, locations, tree-decompositions, subtree
Helly/selection theorems, and the centered hitting construction they power.

The hitting construction extends a tree-decomposition of a location by one
leaf per separation, traces each fattened member component onto the tree, and
reduces to the subtree Helly problem; the packing branch recombines labeled
components across members.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import index
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .covering import _ball_hitting
from .errors import (
    CapacityError,
    InputError,
    InternalInconsistencyError,
    PreconditionError,
)
from .graph import (
    INF,
    CenteredRefusal,
    CenteredSet,
    Graph,
    Number,
    VertexSet,
    _bfs,
    _implicit_hitting_set,
    _member_masks,
    _walk,
    as_vertex_set,
    certify_centered,
    leq,
    neighborhood,
    set_distance,
)
from .packing import _conflicts_through, _reach, far_conflicts, max_independent_set
from .paths import FatMinorModel

#: exact model-union enumeration bound
MODEL_ENUM_CAP = 12


# ---------------------------------------------------------------------------
# separations and locations


@dataclass(frozen=True)
class Separation:
    """A separation given by its side vertex sets; separator-internal edges
    canonically belong to side A, so edge data is derived, not stored."""

    host: Graph
    a: frozenset
    b: frozenset

    def __post_init__(self):
        for v in self.a | self.b:
            self.host._require_vertex(v)
        if self.a | self.b != frozenset(self.host.vertices):
            raise InputError("separation sides must cover the host")
        only_a = self.a - self.b
        only_b = self.b - self.a
        for u in only_a:
            for n in self.host.neighbors(u):
                if n in only_b:
                    raise InputError(
                        f"edge {u}-{n} crosses the separation strictly"
                    )

    @property
    def separator(self) -> frozenset:
        return self.a & self.b

    @property
    def order(self) -> int:
        return len(self.a & self.b)

    def flip(self) -> "Separation":
        return Separation(self.host, self.b, self.a)

    def to_json_dict(self) -> dict:
        return {
            "a": sorted(self.a),
            "b": sorted(self.b),
            "separator": sorted(self.separator),
        }


@dataclass(frozen=True)
class Location:
    host: Graph
    separations: Tuple[Separation, ...]

    def __post_init__(self):
        seps = self.separations
        for s in seps:
            if s.host is not self.host and s.host != self.host:
                raise InputError("location separations must share one host")
        for s, t in itertools.combinations(seps, 2):
            if not (s.a <= t.b and t.a <= s.b):
                raise InputError(
                    "location invariant violated: small sides not mutually "
                    "nested into big sides"
                )

    @property
    def core(self) -> frozenset:
        """Vertices on every big side (the part the decomposition covers)."""
        out = frozenset(self.host.vertices)
        for s in self.separations:
            out &= s.b
        return out

    def to_json_dict(self) -> dict:
        return {"separations": [s.to_json_dict() for s in self.separations]}


# ---------------------------------------------------------------------------
# tree-decompositions


@dataclass
class TreeDecomposition:
    tree: Graph
    bags: Dict[int, frozenset]

    def __post_init__(self):
        if not self.tree.is_tree():
            raise InputError("decomposition tree is not a tree")
        if set(self.bags) != set(self.tree.vertices):
            raise InputError("bags must be indexed by the tree nodes")
        self.bags = {t: frozenset(bag) for t, bag in self.bags.items()}

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags.values()) - 1

    @property
    def max_bag_size(self) -> int:
        return max(len(b) for b in self.bags.values())

    def validate(self, host: Graph) -> List[str]:
        """All violated decomposition axioms for ``host`` (empty = valid)."""
        problems = []
        covered = frozenset().union(*self.bags.values()) if self.bags else frozenset()
        missing = frozenset(host.vertices) - covered
        if missing:
            problems.append(f"vertices not in any bag: {sorted(missing)}")
        for u, v in host.edges:
            if not any(u in b and v in b for b in self.bags.values()):
                problems.append(f"edge {u}-{v} in no bag")
        for v in host.vertices:
            trace = [t for t, b in self.bags.items() if v in b]
            if trace and not self.tree.is_connected_set(trace):
                problems.append(f"trace of vertex {v} is disconnected")
        return problems

    def to_json_dict(self) -> dict:
        return {
            "tree": {
                "vertices": list(self.tree.vertices),
                "edges": [list(e) for e in self.tree.edges],
            },
            "bags": {str(t): sorted(b) for t, b in self.bags.items()},
        }


def decomposition_from_json_dict(doc: dict) -> TreeDecomposition:
    """Inverse of :meth:`TreeDecomposition.to_json_dict`; bag keys are tree
    nodes, as ints or their decimal strings."""
    try:
        t = Graph(doc["tree"]["vertices"], [tuple(e) for e in doc["tree"]["edges"]])
        bags = {int(k) if isinstance(k, str) else index(k): frozenset(v)
                for k, v in doc["bags"].items()}
    except KeyError as exc:
        raise InputError(f"decomposition document lacks {exc}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"bad decomposition document: {exc}") from None
    return TreeDecomposition(t, bags)


def min_degree_decomposition(g: Graph) -> TreeDecomposition:
    """Heuristic tree-decomposition from a minimum-degree elimination
    ordering.  The width is whatever it is — callers must read it, the
    routine never claims optimality."""
    if not len(g):
        raise InputError("empty graph has no decomposition")
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    order: List[int] = []
    bags: Dict[int, frozenset] = {}
    elim_index: Dict[int, int] = {}
    remaining = set(g.vertices)
    while remaining:
        v = min(remaining, key=lambda u: (len(adj[u] & remaining), u))
        nbrs = adj[v] & remaining - {v}
        node = len(order)
        bags[node] = frozenset({v} | nbrs)
        elim_index[v] = node
        order.append(v)
        for a in nbrs:
            adj[a].update(nbrs - {a})
        remaining.discard(v)
    edges = []
    for node, v in enumerate(order):
        later = [u for u in bags[node] if u != v and elim_index[u] > node]
        if later:
            parent_vertex = min(later, key=lambda u: elim_index[u])
            edges.append((node, elim_index[parent_vertex]))
    tree = Graph(range(len(order)), edges)
    if not tree.is_tree():  # isolated pieces: chain the roots together
        comps = tree.components()
        extra = [
            (sorted(comps[i])[0], sorted(comps[i + 1])[0])
            for i in range(len(comps) - 1)
        ]
        tree = Graph(range(len(order)), edges + extra)
    return TreeDecomposition(tree, bags)


# ---------------------------------------------------------------------------
# subtree theorems


@dataclass
class TreeHellyResult:
    branch: str  # "packing" | "hitting"
    packing: Tuple[int, ...] = ()
    hitting: frozenset = frozenset()


def _check_subtrees(t: Graph, subtrees: Sequence[frozenset]):
    if not t.is_tree():
        raise InputError("host is not a tree")
    for i, s in enumerate(subtrees):
        if not s:
            raise InputError(f"subtree {i} is empty")
        if not t.is_connected_set(as_vertex_set(t, s).members):
            raise InputError(f"subtree {i} is disconnected")


def tree_helly(t: Graph, subtrees: Sequence[frozenset], k: int) -> TreeHellyResult:
    """Either ``k`` pairwise disjoint subtrees, or at most ``k-1`` tree nodes
    hitting every subtree.

    Greedy and exact: root at the lowest id; repeatedly take the subtree whose
    top (shallowest) node is deepest — that top hits every subtree meeting the
    taken one, so the greedy packing size is the true maximum.
    """
    subtrees = [frozenset(s) for s in subtrees]
    _check_subtrees(t, subtrees)
    if k < 0:
        raise InputError("negative k")
    if not subtrees:
        if k == 0:
            return TreeHellyResult("packing")
        return TreeHellyResult("hitting", hitting=frozenset())

    depth = {}
    for v, p in _bfs(t, [min(t.vertices)], t._vset)[0].items():  # parents first
        depth[v] = 0 if p is None else depth[p] + 1

    def top(s: frozenset) -> int:
        return min(s, key=lambda v: (depth[v], v))

    remaining = list(range(len(subtrees)))
    picks: List[int] = []
    tops: List[int] = []
    while remaining:
        i = max(remaining, key=lambda j: (depth[top(subtrees[j])], -top(subtrees[j]), -j))
        picks.append(i)
        tops.append(top(subtrees[i]))
        remaining = [j for j in remaining if not (subtrees[j] & subtrees[i])]
    if len(picks) >= k:
        return TreeHellyResult("packing", packing=tuple(picks[:k]))
    return TreeHellyResult("hitting", hitting=frozenset(tops))


def multi_family_select(
    t: Graph, families: Sequence[Sequence[frozenset]], quotas: Sequence[int]
) -> List[List[int]]:
    """Pick ``quotas[i]`` members from family ``i`` so that all picked
    subtrees are pairwise disjoint.

    Requires each family to contain ``sum(quotas)`` pairwise disjoint members
    (re-verified); existence is then guaranteed, so a failed search reports a
    precondition violation.
    """
    if len(families) != len(quotas):
        raise InputError("one quota per family required")
    if any(q < 0 for q in quotas):
        raise InputError("negative quota")
    k = sum(quotas)
    clean = [[frozenset(s) for s in fam] for fam in families]
    for i, fam in enumerate(clean):
        _check_subtrees(t, fam)
        if quotas[i] > len(fam):
            raise InputError(f"quota {quotas[i]} exceeds family {i} size")
        res = tree_helly(t, fam, k)
        if res.branch != "packing":
            raise PreconditionError(
                f"family {i} lacks {k} pairwise disjoint members", detail=i
            )

    selection: List[List[int]] = [[] for _ in clean]

    def extend(fam_idx: int, start: int, used: frozenset) -> bool:
        if fam_idx == len(clean):
            return True
        if len(selection[fam_idx]) == quotas[fam_idx]:
            return extend(fam_idx + 1, 0, used)
        fam = clean[fam_idx]
        for j in range(start, len(fam)):
            if fam[j] & used:
                continue
            selection[fam_idx].append(j)
            if extend(fam_idx, j + 1, used | fam[j]):
                return True
            selection[fam_idx].pop()
        return False

    if not extend(0, 0, frozenset()):
        raise PreconditionError(
            "certified selection does not exist; some family's disjointness "
            "certificate must be wrong",
            detail=None,
        )
    return selection


# ---------------------------------------------------------------------------
# component-exchangeable families

Member = Tuple[frozenset, ...]  # ordered labeled components


@dataclass
class ExchangeableFamily:
    host: Graph
    members: Tuple[Member, ...]
    component_count: int

    def __post_init__(self):
        self.members = tuple(
            tuple(frozenset(c) for c in m) for m in self.members
        )
        for m in self.members:
            if len(m) != self.component_count:
                raise InputError(
                    f"member has {len(m)} labeled components, "
                    f"expected {self.component_count}"
                )
            for c in m:
                if not c:
                    raise InputError("empty labeled component")
                if not self.host.is_connected_set(as_vertex_set(self.host, c).members):
                    raise InputError(f"component {sorted(c)} is disconnected")
            for c1, c2 in itertools.combinations(m, 2):
                if c1 & c2:
                    raise InputError("labeled components of a member overlap")

    def union(self, m: Member) -> frozenset:
        return frozenset().union(*m)


# ---------------------------------------------------------------------------
# the centered hitting lemma


@dataclass
class EasyTreeResult:
    branch: str  # "packing" | "hitting"
    packing: Tuple[Member, ...] = ()
    centered: Optional[CenteredSet] = None
    center_budget: int = 0
    radius_budget: Number = 0


def _fattened(g: Graph, component: frozenset, l_vertices: frozenset, r: Number):
    return frozenset(neighborhood(g, component, r).members) & l_vertices


def easy_tree_hitting(
    g: Graph,
    l,
    fam: ExchangeableFamily,
    loc: Location,
    td: TreeDecomposition,
    r: Number,
    k: int,
    xi: int,
    eta: Number,
) -> EasyTreeResult:
    """Either ``k`` members pairwise at distance > 2r, or a centered set —
    at most (c·k−1)·xi centers, radius at most eta+r — hitting every member.

    All hypotheses are verified up front and violations are reported with the
    offending object.
    """
    l = as_vertex_set(g, l)
    if k < 1:
        raise InputError("k must be positive")
    c = fam.component_count
    for m in fam.members:
        if not fam.union(m) <= l.members:
            raise PreconditionError("family member leaves the ambient subgraph",
                                    detail=m)

    # hypothesis: td decomposes the location core and holds every separator
    core = loc.core
    problems = td.validate(g.induced(core))
    if problems:
        raise PreconditionError("not a tree-decomposition of the location core",
                                detail=problems)
    anchor: Dict[int, int] = {}
    for idx, sep in enumerate(loc.separations):
        home = [t for t, b in td.bags.items() if sep.separator <= b]
        if not home:
            raise PreconditionError("separator not inside any bag",
                                    detail=sep.to_json_dict())
        anchor[idx] = min(home)

    # hypothesis: every bag is (xi, eta)-centered
    bag_certs: Dict[int, CenteredSet] = {}
    for t, bag in td.bags.items():
        cert = certify_centered(g, bag, xi, eta, "exact")
        if isinstance(cert, CenteredRefusal):
            raise PreconditionError(f"bag at node {t} is not ({xi},{eta})-centered",
                                    detail=sorted(bag))
        bag_certs[t] = cert

    # hypothesis: fattened components connected inside l; none buried in a
    # small side away from its separator
    for m in fam.members:
        for comp in m:
            fat = _fattened(g, comp, l.members, r)
            if not g.is_connected_set(fat):
                raise PreconditionError(
                    "fattened component disconnected in the ambient subgraph",
                    detail=sorted(comp),
                )
            for sep in loc.separations:
                away = sep.a - neighborhood(g, sep.separator, r).members
                if comp <= away:
                    raise PreconditionError(
                        "member component buried inside a small side",
                        detail={"component": sorted(comp),
                                "separation": sep.to_json_dict()},
                    )

    if not fam.members:
        empty = VertexSet(frozenset(), g)
        return EasyTreeResult(
            "hitting",
            centered=CenteredSet(empty, empty, eta + r),
            center_budget=(c * k - 1) * xi,
            radius_budget=eta + r,
        )

    # direct packing attempt: members pairwise farther than 2r
    unions = [fam.union(m) for m in fam.members]
    near = _reach(g, _member_masks(g, unions), 2 * r, strict=False)
    packing, _ = max_independent_set(_conflicts_through(unions, near), enough=k)
    if len(packing) >= k:
        return EasyTreeResult("packing",
                              packing=tuple(fam.members[i] for i in packing))

    # extended tree: one fresh leaf per separation, bag = the small side
    next_id = max(td.tree.vertices) + 1
    leaf_of: Dict[int, int] = {}
    edges = list(td.tree.edges)
    nodes = list(td.tree.vertices)
    ext_bags = dict(td.bags)
    for idx in range(len(loc.separations)):
        leaf = next_id + idx
        leaf_of[idx] = leaf
        nodes.append(leaf)
        edges.append((anchor[idx], leaf))
        ext_bags[leaf] = loc.separations[idx].a
    ext_tree = Graph(nodes, edges)
    leaf_nodes = set(leaf_of.values())

    traces: List[List[frozenset]] = []
    for j in range(c):
        fam_traces = []
        for m in fam.members:
            fat = _fattened(g, m[j], l.members, r)
            tr = frozenset(t for t in ext_tree.vertices if ext_bags[t] & fat)
            if not tr & (frozenset(td.tree.vertices)):
                raise InternalInconsistencyError(
                    "component trace confined to a separation leaf; the "
                    "burial hypothesis should have ruled this out"
                )
            if not ext_tree.is_connected_set(tr):
                raise InternalInconsistencyError(
                    "disconnected trace of a connected fattened component"
                )
            fam_traces.append(tr)
        traces.append(fam_traces)

    for j in range(c):
        res = tree_helly(ext_tree, traces[j], c * k)
        if res.branch == "hitting":
            nodes_hit = {
                anchor[next(i for i, lf in leaf_of.items() if lf == t)]
                if t in leaf_nodes else t
                for t in res.hitting
            }
            z = neighborhood(
                g, frozenset().union(*(td.bags[t] for t in nodes_hit)), r
            ).members
            centers = frozenset().union(
                *(bag_certs[t].centers.members for t in nodes_hit)
            )
            cert = CenteredSet(VertexSet(z, g), VertexSet(centers, g), eta + r)
            for m in fam.members:
                if not (z & fam.union(m)):
                    raise InternalInconsistencyError(
                        "constructed hitting set misses a member"
                    )
            if cert.center_count > (c * k - 1) * xi:
                raise InternalInconsistencyError("center budget exceeded")
            return EasyTreeResult(
                "hitting",
                centered=cert,
                center_budget=(c * k - 1) * xi,
                radius_budget=eta + r,
            )

    # every component index admits c·k disjoint traces: recombine
    selection = multi_family_select(ext_tree, traces, [k] * c)
    recombined: List[Member] = []
    for beta in range(k):
        recombined.append(tuple(fam.members[selection[j][beta]][j] for j in range(c)))
    for m1, m2 in itertools.combinations(recombined, 2):
        d = set_distance(g, frozenset().union(*m1), frozenset().union(*m2))
        if not d > 2 * r:
            raise InternalInconsistencyError(
                "recombined members are not pairwise far"
            )
    return EasyTreeResult("packing", packing=tuple(recombined))


# ---------------------------------------------------------------------------
# rooted fat minors of path patterns


def _path_order(pattern: Graph) -> List[int]:
    """Vertices of a path-shaped pattern in chain order (lowest end first)."""
    if len(pattern) == 1:
        return list(pattern.vertices)
    ends = [v for v in pattern.vertices if len(pattern.neighbors(v)) == 1]
    if len(ends) != 2 or len(pattern.edges) != len(pattern) - 1 \
            or not pattern.is_tree():
        raise InputError("pattern is not a path")
    order = [min(ends)]
    while len(order) < len(pattern):
        nxt = [n for n in pattern.neighbors(order[-1]) if n not in order]
        order.append(nxt[0])
    return order


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


class _SupportMasks:
    """Support tests on vertex masks (:meth:`Graph.vertex_bits`): a support
    is a connected vertex set holding distinct representatives of every root
    set, decided by Hall's condition.  These are exactly the sets that carry
    a rooted 0-fat path-pattern model (see :func:`_extract_path_model`)."""

    def __init__(self, g: Graph, root_sets: Sequence[frozenset]):
        self.bit = g.vertex_bits()
        closed = g.closed_neighborhood_masks()
        self.reach = {self.bit[v]: closed[v] for v in g.vertices}
        roots = [sum(self.bit[v] for v in r) for r in root_sets]
        # Hall: every nonempty subset of the root sets covers as many vertices
        self.hall = []
        for size in range(1, len(roots) + 1):
            for subset in itertools.combinations(roots, size):
                union = 0
                for mask in subset:
                    union |= mask
                self.hall.append((union, size))
        self.everything = sum(self.bit.values())

    def has_reps(self, pool: int) -> bool:
        for union, size in self.hall:
            if (union & pool).bit_count() < size:
                return False
        return True

    def component(self, left: int) -> int:
        """The component of the vertices in ``left`` holding its lowest one."""
        comp = frontier = left & -left
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = self.reach[low] & left & ~comp
            comp |= new
            frontier |= new
        return comp

    def is_support(self, mask: int) -> bool:
        return bool(mask) and self.has_reps(mask) and self.component(mask) == mask

    def supporting_component(self, left: int) -> int:
        """A component of the vertices in ``left`` with distinct
        representatives (the one with the lowest vertex), or 0."""
        if not left or not self.has_reps(left):
            return 0
        while left:
            comp = self.component(left)
            if self.has_reps(comp):
                return comp
            left &= ~comp
        return 0

    def minimal_support(self, comp: int) -> int:
        """An inclusion-minimal support inside the support ``comp``.

        First a BFS spanning tree of ``comp`` (from its lowest vertex) loses
        its leaves in reverse BFS order while Hall's condition holds: a tree
        minus a leaf stays a connected tree, so no flood fill is needed, and
        a vertex's children all come before it.  Then one deletion pass over
        the small remainder: a vertex that cannot go stays put once the
        support shrinks further, since a supporting component of the smaller
        rest would lie in one of the larger rest.
        """
        seen = comp & -comp
        order, parent, children = [seen], {}, {seen: 0}
        for u in order:  # grows as it is read: BFS over masks
            new = self.reach[u] & comp & ~seen
            seen |= new
            while new:
                b = new & -new
                new ^= b
                parent[b], children[b] = u, 0
                children[u] += 1
                order.append(b)
        for b in reversed(order[1:]):
            if not children[b] and self.has_reps(comp & ~b):
                comp &= ~b
                children[parent[b]] -= 1
        for b in _bits(comp):
            if comp & b:
                comp = self.supporting_component(comp & ~b) or comp
        return comp


def _bits(mask: int) -> List[int]:
    """The set bits of ``mask``, lowest first."""
    return [1 << i for i in range(mask.bit_length()) if mask >> i & 1]


def _minimal_supports(model: _SupportMasks) -> List[frozenset]:
    """Every support with no support one vertex smaller, scanning all
    2^n vertex subsets in binary order."""
    out = []
    for mask in range(1, model.everything + 1):
        if model.is_support(mask) and not any(
            model.is_support(mask & ~b) for b in _bits(mask)
        ):
            out.append(frozenset(v for v, b in model.bit.items() if mask & b))
    return out


def _extract_path_model(
    g: Graph,
    support: frozenset,
    pattern: Graph,
    roots: Mapping[int, frozenset],
) -> FatMinorModel:
    """A rooted 0-fat model of a ≤3-vertex path pattern whose union stays
    inside ``support``.

    The construction splits a connecting tree: for three roots, the middle
    branch set is the arm from the middle representative to the x1–x3 path,
    with a corner case when the arm lands on an endpoint representative.
    """
    order = _path_order(pattern)
    root_sets = [roots[h] for h in order]
    reps = _distinct_reps(root_sets, support)
    if reps is None:
        raise InputError("support has no distinct root representatives")

    if len(order) == 1:
        return FatMinorModel(pattern, {order[0]: (reps[0],)}, {}, 0,
                             roots=dict(roots))

    if len(order) == 2:
        x1, x2 = reps
        comp = _bfs(g, [x2], support - {x1})[0]
        step = min(v for v in g.neighbors(x1) if v in comp)
        return FatMinorModel(
            pattern,
            {order[0]: (x1,), order[1]: tuple(sorted(comp))},
            {(order[0], order[1]): (x1, step)},
            0,
            roots=dict(roots),
        )

    def bfs_path(source: int, targets) -> List[int]:
        # the BFS path inside the support from ``source`` to the first
        # target reached
        parent, hit = _bfs(g, [source], support, targets)
        if hit is None:
            raise InternalInconsistencyError("support not connected")
        return _walk(parent, hit)[::-1]

    x1, x2, x3 = reps
    p13 = bfs_path(x1, {x3})
    # the arm from the middle representative avoids the x1-x3 path except
    # at the touch point y
    arm = bfs_path(x2, frozenset(p13))  # x2 ... y
    y = arm[-1]
    i = p13.index(y)

    h1, h2, h3 = order
    if 0 < i < len(p13) - 1:
        s1 = tuple(p13[:i])
        s2 = tuple(arm)
        s3 = tuple(p13[i + 1:])
        e12 = (p13[i - 1], y)
        e23 = (y, p13[i + 1])
    elif i == 0:  # the arm lands on x1: keep {x1} as the first branch set
        s1 = (x1,)
        s2 = tuple(arm[:-1])  # arm minus y = x1; nonempty since x2 != x1
        s3 = tuple(p13[1:])
        e12 = (arm[-2], x1)
        e23 = (arm[-2], x1, p13[1])  # through x1, legal at fatness 0
    else:  # lands on x3
        s3 = (x3,)
        s2 = tuple(arm[:-1])
        s1 = tuple(p13[:-1])
        e23 = (arm[-2], x3)
        e12 = (p13[-2], x3, arm[-2])
    return FatMinorModel(
        pattern,
        {h1: s1, h2: s2, h3: s3},
        {(h1, h2): tuple(e12), (h2, h3): tuple(e23)},
        0,
        roots=dict(roots),
    )


# ---------------------------------------------------------------------------
# two disjoint rooted connected sets, by boundary dynamic programming


def _forget_times(g: Graph, order: Sequence[int]) -> Dict[int, int]:
    pos = {v: i for i, v in enumerate(order)}
    out = {}
    for v in order:
        last = pos[v]
        for n in g.neighbors(v):
            last = max(last, pos[n])
        out[v] = last
    return out


def _drop_dominated(layer: Dict[tuple, tuple]) -> Dict[tuple, tuple]:
    """``layer`` without the states whose ``sdr1`` and ``sdr2`` masks are
    both subsets of another state's with equal ``blocks`` and ``closed``.

    One pass records, per ``closed`` and then per ``blocks``, the first state
    of each key; a key met again maps to a list of its states instead, in
    insertion order.  Each such group is scanned by falling total mask size
    (a stable sort), so a state can only be dominated by one scanned before
    it; the kept ones form an antichain.  Which states are dropped depends on
    the groups and their order alone, not on how a block is encoded."""
    seen = ({}, {}, {}, {})  # by ``closed`` (bits 1 and 2), then by ``blocks``
    groups: List[List[tuple]] = []
    for state in layer:
        by_blocks = seen[state[3] >> 1]
        head = by_blocks.setdefault(state[0], state)
        if head is not state:
            if head.__class__ is list:
                head.append(state)
            else:
                group = by_blocks[state[0]] = [head, state]
                groups.append(group)
    for group in groups:
        if len(group) == 2:
            # the sort and scan below, unrolled for the most common group
            a, b = group
            if (b[1].bit_count() + b[2].bit_count()
                    > a[1].bit_count() + a[2].bit_count()):
                a, b = b, a
            if not b[1] & ~a[1] and not b[2] & ~a[2]:
                del layer[b]
            continue
        group.sort(key=lambda s: -(s[1].bit_count() + s[2].bit_count()))
        kept: List[Tuple[int, int]] = []
        for state in group:
            _, sdr1, sdr2, _ = state
            for k1, k2 in kept:
                if not sdr1 & ~k1 and not sdr2 & ~k2:
                    del layer[state]
                    break
            else:
                kept.append((sdr1, sdr2))
    return layer


def _forget(layer: Dict[tuple, tuple], ue: int, full: int) -> Dict[tuple, tuple]:
    """``layer`` after forgetting the vertex whose bit within a block entry
    is ``ue``: its block shrinks, or, if that leaves it empty, the label's
    component closes — provided no other block holds the label and the
    label's ``sdr`` mask holds the full root set ``full``.  States keep
    their chains, and their first maker's order."""
    out: Dict[tuple, tuple] = {}
    for state, chain in layer.items():
        blocks = state[0]
        for home, e in enumerate(blocks):
            if e & ue:
                break
        else:
            out.setdefault(state, chain)  # the vertex is in no block
            continue
        _, sdr1, sdr2, closed = state
        shrunk = e ^ ue
        if shrunk >> 1:
            # ``shrunk`` < ``e``, so it sorts at or before ``home``
            at = bisect_left(blocks, shrunk, 0, home)
            out.setdefault((blocks[:at] + (shrunk,) + blocks[at:home] + blocks[home + 1:],
                            sdr1, sdr2, closed), chain)
            continue
        tag = e & 1
        for f in blocks:
            if f & 1 == tag and f != e:
                break  # a second component would be stranded
        else:
            if (sdr2 if tag else sdr1) >> full & 1:  # else a root is missing
                out.setdefault((blocks[:home] + blocks[home + 1:],
                                sdr1, sdr2, closed | 2 << tag), chain)
    return out


def two_disjoint_connected_transversals(
    g: Graph,
    root_sets: Sequence[frozenset],
    boundary_cap: int = 8,
):
    """Two vertex-disjoint connected sets, each holding distinct
    representatives of every root set — or None: :func:`_transversal_sweep`
    over the vertices in id order."""
    return _transversal_sweep(g, root_sets, g.vertices, boundary_cap)


def _transversal_sweep(g: Graph, root_sets: Sequence[frozenset],
                       order: Sequence[int], boundary_cap: int):
    """:func:`two_disjoint_connected_transversals` in a sweep ``order``,
    which lists every vertex once.

    Sweeps the vertices in ``order`` tracking only the boundary (vertices
    with unprocessed neighbors): label assignment, connectivity blocks per
    label, and which root subsets already have distinct representatives.
    Works whenever the order has small boundary (row-major on grids).

    A state is ``(blocks, sdr1, sdr2, closed)`` on vertex masks
    (:meth:`Graph.vertex_bits`).  ``blocks`` is the sorted tuple of block
    entries, one int each: ``mask << 1 | (label == 2)``, so bit 0 holds the
    label and the vertices sit one place up.  Bit ``s`` of ``sdr1``/``sdr2``
    is set once the root sets with indices in the mask ``s`` have distinct
    representatives among that label's vertices; bit ``label`` of ``closed``
    is set once that label's component is complete.  An entry maps one to
    one to its ``(label, mask)`` pair and blocks are disjoint, so the
    encoding decides neither which states a layer holds, nor their insertion
    order, nor their predecessors (:func:`_drop_dominated` groups states by
    key and orders a group by mask sizes and insertion alone): the first
    final state, and so the pair returned, is the one the pair encoding gives.

    The sweep runs in steps: introduce a vertex, then forget (:func:`_forget`)
    each vertex whose last neighbor it is.  At the end of each step, a state
    whose ``sdr1`` and ``sdr2`` are both subsets of another state's with the
    same ``(blocks, closed)`` is dropped (:func:`_drop_dominated`).  That is
    exact: the transitions on ``blocks`` and ``closed`` never read the
    ``sdr`` masks, ``grown`` is monotone in them, and the only test on them
    (the full set, when a component closes) is monotone too, so whatever the
    dropped state reaches, the state that dominates it reaches with larger
    masks.  Dropping once per step, not after the intro and after each
    forget, keeps the same states: a forget keeps a state's ``sdr`` masks,
    so the image of a state that the intro's drop would have removed is
    dominated by its dominator's image, which the step's drop removes, along
    with anything it dominates.  So each state a step keeps has only makers
    that the earlier drop keeps, in the same order: it keeps its first maker
    and its chain, and the pair returned is the same.

    As a vertex is introduced, a state is made only if both of its labels
    can still collect every root set: a root index is *spent* once no later
    vertex of ``order`` lies in that root set, and each label must hold some
    subset ``s`` in its ``sdr`` mask that contains every spent index.  The
    test reads the new state alone, so it runs as the skip and each label
    make their state, not on the layer afterwards.  A closed label holds the
    full set and so always passes; an unused label holds only the empty set
    and fails once any index is spent.  If a step leaves no state, the
    search returns None at once.  This is exact too.  The test is necessary
    for finishing, since ``grown`` adds only indices of later vertices and a
    label closes only with the full set, so no final state is lost.  It
    stays failed going forward: the vertex introduced next adds only indices
    that were not spent before it.  And it is monotone in the ``sdr`` masks,
    so a dropped state never dominates a kept one.  The kept states thus keep
    their insertion order and first predecessors, and the pair returned is
    the same.

    Only the current layer is kept.  It maps each state to a predecessor
    chain: None at the start, ``(v, label, chain)`` for a state made by
    giving ``v`` a label, and the predecessor's own chain object for a skip
    or a forget.  The chain of the first final state lists the labeled
    vertices, so it is the pair; no earlier layer is read, and the chains of
    dropped states are freed as the sweep moves on.  A state keeps the chain
    of the first transition that made it, as the pair encoding keeps its
    first predecessor, so the pair returned is the one it gives.
    """
    forgotten_at: Dict[int, List[int]] = {}
    for u, i in _forget_times(g, order).items():
        forgotten_at.setdefault(i, []).append(u)
    # the sweep as steps: introduce ``v``, then forget the vertices whose
    # last neighbor it is
    steps: List[Tuple[int, List[int]]] = []
    boundary = 0
    alive = 0
    for i, v in enumerate(order):
        forgets = sorted(forgotten_at.get(i, ()))
        steps.append((v, forgets))
        alive += 1
        boundary = max(boundary, alive)
        alive -= len(forgets)
    if boundary > boundary_cap:
        raise CapacityError(
            "sweep boundary too wide for the disjoint-transversal search",
            cap=boundary_cap,
            actual=boundary,
        )

    bit = g.vertex_bits()
    closed_nbhd = g.closed_neighborhood_masks()
    roots_at = _member_masks(g, root_sets)
    full = (1 << len(root_sets)) - 1
    # per vertex, the ``sdr`` bits of the root subsets that contain every
    # index spent once it is introduced (every subset while none is spent)
    finishing: Dict[int, int] = {}
    remaining = 0
    for v in reversed(order):
        spent = full & ~remaining
        finishing[v] = sum(1 << s for s in range(full + 1) if s & spent == spent)
        remaining |= roots_at.get(v, 0)
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

    # the one layer kept: state -> predecessor chain, None at the start and
    # ``(vertex, label, chain)`` once a transition gives a vertex a label
    current: Dict[tuple, Optional[tuple]] = {((), 1, 1, 0): None}
    active = 0
    for v, forgets in steps:
        nxt: Dict[tuple, Optional[tuple]] = {}
        vb = bit[v]
        ve = vb << 1  # v's bit within a block entry
        nbrs = (closed_nbhd[v] & active) << 1  # v itself is not active yet
        at = roots_at.get(v, 0)
        can_finish = finishing[v]
        for state, chain in current.items():
            blocks, sdr1, sdr2, closed = state
            ok1 = sdr1 & can_finish
            ok2 = sdr2 & can_finish
            if ok1 and ok2:
                nxt.setdefault(state, chain)
            # label 1, unless it closed
            if ok2 and not closed & 2:
                grown1 = grown(sdr1, at) if at else sdr1
                if grown1 & can_finish:
                    entry = ve
                    kept = []
                    for e in blocks:
                        if e & nbrs and not e & 1:
                            entry |= e
                        else:
                            kept.append(e)
                    kept.append(entry)
                    kept.sort()
                    nxt.setdefault((tuple(kept), grown1, sdr2, closed), (v, 1, chain))
            # label 2, unless it closed; by symmetry the first labeled
            # vertex gets label 1 (a label is in use once a block holds
            # it or it closed)
            if ok1 and not closed & 4 and (blocks or closed):
                grown2 = grown(sdr2, at) if at else sdr2
                if grown2 & can_finish:
                    entry = ve | 1
                    kept = []
                    for e in blocks:
                        if e & nbrs and e & 1:
                            entry |= e
                        else:
                            kept.append(e)
                    kept.append(entry)
                    kept.sort()
                    nxt.setdefault((tuple(kept), sdr1, grown2, closed), (v, 2, chain))
        active |= vb
        for u in forgets:
            nxt = _forget(nxt, bit[u] << 1, full)
            active &= ~bit[u]
        current = _drop_dominated(nxt)
        if not current:
            return None

    final = next((s for s in current if s[3] == 0b110), None)
    if final is None:
        return None
    sides: Dict[int, List[int]] = {1: [], 2: []}
    chain = current[final]
    while chain is not None:
        v, label, chain = chain
        sides[label].append(v)
    return frozenset(sides[1]), frozenset(sides[2])


def min_transversal_blocker(
    g: Graph, root_sets: Sequence[frozenset], size_cap: int
) -> frozenset:
    """Smallest vertex set whose removal leaves no connected component with
    distinct representatives of every root set.

    Candidates are scanned by size, then lexicographically, so the first
    blocker in that order is returned.  Each is tested by flood fills over
    vertex masks (:meth:`Graph.vertex_bits`), with distinct representatives
    decided by Hall's condition.

    The scan starts at the minimum size, found first by the implicit hitting
    set loop :func:`graph._implicit_hitting_set`: every blocker hits every
    minimal support (connected, with distinct representatives), so a
    minimum hitting set of the supports found so far is a lower bound; its
    cover either blocks, and the bound is the minimum, or leaves a component
    from which more supports are cut.  The supports are cut by
    :meth:`_SupportMasks.minimal_support` from pruned BFS trees; which
    minimal supports are found changes the work, not the answer, since the
    final scan at the proven minimum picks the blocker.
    """
    model = _SupportMasks(g, [as_vertex_set(g, r).members for r in root_sets])
    supports: List[int] = []

    def missed(z: List[int]) -> List[int]:
        # a minimal support missed by z, plus one avoiding each of its
        # vertices in turn: each is missed by z, and they differ
        left = model.everything & ~sum(1 << i for i in z)
        comp = model.supporting_component(left)
        if not comp:
            return []
        first = model.minimal_support(comp)
        cuts = [first]
        for b in _bits(first):
            comp = model.supporting_component(left & ~b)
            if comp:
                support = model.minimal_support(comp)
                if support not in cuts:
                    cuts.append(support)
        supports.extend(cuts)
        return cuts

    z = _implicit_hitting_set(len(g), missed, size_cap)
    # no blocker is smaller than |z|; a candidate missing a found support
    # leaves it whole, so it cannot block
    for combo in itertools.combinations(sorted(g.vertices), len(z)):
        mask = sum(model.bit[v] for v in combo)
        if all(s & mask for s in supports) and not model.supporting_component(
                model.everything & ~mask):
            return frozenset(combo)
    raise InternalInconsistencyError("no blocker at the proven minimum size")


# ---------------------------------------------------------------------------
# rooted fat-minor packing/covering dichotomy


@dataclass
class RootedMinorResult:
    branch: str  # "packing" | "hitting"
    models: Tuple[FatMinorModel, ...] = ()
    centered: Optional[CenteredSet] = None
    center_budget: int = 0
    radius_budget: Number = 0


def rooted_fat_minor_ep(
    g: Graph,
    td: TreeDecomposition,
    pattern: Graph,
    roots: Mapping[int, frozenset],
    k: int,
    r: Number,
    l: Number = 0,
) -> RootedMinorResult:
    """Either ``k`` rooted fat pattern models pairwise at distance >= r, or a
    centered set — at most ``max_bag_size * k`` centers, radius at most
    max(ceil((r-1)/2), l/2) — hitting every rooted model.

    Exact scope: path patterns on at most three vertices at fatness zero.
    Up to ``MODEL_ENUM_CAP`` vertices the minimal supports are enumerated;
    an r-far packing of them is searched on :func:`packing.far_conflicts`,
    and the hitting side is the fewest radius-ρ balls
    (:func:`covering._ball_hitting`).  Larger hosts are handled only for
    k = 2 and r at most the shortest edge weight (r <= 1 on unit hosts),
    where two disjoint supports are r-far, by a boundary sweep over the
    vertex order (exact for grid-like hosts) and the minimum blocker.
    """
    if k < 1 or not r > 0:
        raise InputError("need k >= 1 and r > 0")
    order = _path_order(pattern)
    if len(order) > 3:
        raise CapacityError(
            "patterns beyond three vertices are outside the exact desk scope",
            cap=3,
            actual=len(order),
        )
    if l != 0:
        raise CapacityError(
            "positive fatness is outside the exact desk scope", cap=0, actual=l
        )
    root_sets = []
    for h in order:
        if h not in roots or not roots[h]:
            raise InputError(f"pattern vertex {h} has no usable root set")
        root_sets.append(as_vertex_set(g, roots[h]).members)
    problems = td.validate(g)
    if problems:
        raise InputError(f"invalid tree-decomposition: {problems}")

    rho = max(math.ceil((r - 1) / 2), 0)  # cover radius, l = 0
    budget = td.max_bag_size * k

    if len(g) <= MODEL_ENUM_CAP:
        supports = _minimal_supports(_SupportMasks(g, root_sets))
        chosen, _ = max_independent_set(far_conflicts(g, supports, r), enough=k)
        if len(chosen) >= k:
            models = tuple(
                _extract_path_model(g, supports[i], pattern, roots)
                for i in chosen
            )
            _check_model_packing(g, models, r)
            return RootedMinorResult("packing", models=models)
        cover = _ball_hitting(g, supports, rho)
        if cover.count > budget:
            raise InternalInconsistencyError("hitting budget exceeded")
        return RootedMinorResult(
            "hitting",
            centered=cover.centered,
            center_budget=budget,
            radius_budget=rho,
        )

    # large host: boundary sweep, where disjoint supports are r-far
    shortest = min((g.edge_weight(u, v) for u, v in g.edges), default=INF)
    if k != 2 or not leq(r, shortest):
        raise CapacityError(
            "large hosts are supported only for k=2 and r at most the "
            "shortest edge weight (r <= 1 on unit hosts)",
            cap=MODEL_ENUM_CAP,
            actual=len(g),
        )
    witness = two_disjoint_connected_transversals(g, root_sets)
    if witness is not None:
        models = tuple(
            _extract_path_model(g, side, pattern, roots) for side in witness
        )
        _check_model_packing(g, models, r)
        return RootedMinorResult("packing", models=models)
    z = min_transversal_blocker(g, root_sets, budget)
    zc = VertexSet(z, g)
    return RootedMinorResult(
        "hitting",
        centered=CenteredSet(zc, zc, rho),
        center_budget=budget,
        radius_budget=rho,
    )


def _check_model_packing(g: Graph, models: Sequence[FatMinorModel], r: Number):
    from .paths import check_fat_minor

    for m in models:
        report = check_fat_minor(g, m)
        if not report:
            raise InternalInconsistencyError(
                f"constructed model invalid: {report.violations}"
            )
    for m1, m2 in itertools.combinations(models, 2):
        d = set_distance(g, m1.union_vertices(), m2.union_vertices())
        if not leq(r, d):
            raise InternalInconsistencyError("packed models too close")
