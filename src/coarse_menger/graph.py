"""Finite graphs, shortest-path metrics, neighborhoods and centered-set
certificates.

A :class:`Graph` is immutable after construction.  Every weight is an exact
ratio (a float is m * 2**e), so distances are summed exactly, as ints scaled
by the LCM of the denominators.  They are handed out as ints on unweighted
and int-weighted graphs, as ``Fraction``s when some weight is one, and as the
correctly rounded floats of the exact sums when some weight is a float; a
float distance or radius is compared with an absolute tolerance of ``TOL``.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import CapacityError, InputError

TOL = 1e-9

#: hard cap for the exhaustive centered-set search
EXACT_CENTER_CAP = 20

Number = Union[int, float, Fraction]
INF = math.inf


def is_exact(x: Number) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def leq(a: Number, b: Number) -> bool:
    """``a <= b`` with float tolerance; exact when both sides are exact.
    Every infinite float is ``INF``, however it was made (an exact value is
    finite)."""
    if is_exact(a) and is_exact(b):
        return a <= b
    if a == INF:
        return b == INF
    if b == INF:
        return True
    return a <= b + TOL


def _norm_edge(u: int, v: int) -> tuple:
    return (u, v) if u <= v else (v, u)


class Graph:
    """A finite simple graph with optional strictly positive edge weights."""

    __slots__ = (
        "vertices", "edges", "weights", "_vset", "_adj", "_dist_cache", "_bits", "_closed",
        "_scaled", "_exact", "_int_rows", "_lengths",
    )

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[tuple],
        weights: Optional[Mapping[tuple, Number]] = None,
    ):
        try:
            vs = sorted(set(map(index, vertices)))
        except TypeError as exc:
            raise InputError(f"bad vertex id: {exc}") from None
        self.vertices = tuple(vs)
        self._vset = frozenset(vs)
        es = set()
        try:
            for u, v in edges:
                u, v = index(u), index(v)
                if u == v:
                    raise InputError(f"self-loop at vertex {u}")
                if u not in self._vset or v not in self._vset:
                    raise InputError(f"edge ({u},{v}) uses an undeclared vertex")
                es.add(_norm_edge(u, v))
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad edge: {exc}") from None
        self.edges = tuple(sorted(es))
        self._exact = True  # every distance is an int, a Fraction or INF
        if weights is not None:
            w = {}
            try:
                for e, val in weights.items():
                    e = _norm_edge(*e)
                    if e not in es:
                        raise InputError(f"weight given for non-edge {e}")
                    # an int is its own numerator, and a Fraction's has its
                    # sign: no ``Fraction._richcmp`` per weight
                    if not getattr(val, "numerator", val) > 0:
                        raise InputError(f"non-positive weight {val} on edge {e}")
                    if not is_exact(val):
                        # bool passes ``> 0`` and ``math.isfinite``; an int
                        # or a Fraction is always finite
                        if isinstance(val, bool) or not math.isfinite(val):
                            raise InputError(f"weight {val!r} on edge {e} is not a finite number")
                        self._exact = False
                    w[e] = val
            except (TypeError, ValueError) as exc:
                raise InputError(f"bad edge weight: {exc}") from None
            missing = es - set(w)
            if missing:
                raise InputError(f"edges without weight: {sorted(missing)[:3]}")
            self.weights = w
        else:
            self.weights = None
        adj = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}
        self._dist_cache = {}
        self._int_rows = {}
        self._lengths = {}
        self._bits = None
        self._closed = None
        self._scaled = None

    # -- basic accessors ---------------------------------------------------

    @property
    def weighted(self) -> bool:
        return self.weights is not None

    def __len__(self) -> int:
        return len(self.vertices)

    def has_vertex(self, v: int) -> bool:
        return v in self._vset

    def neighbors(self, v: int) -> tuple:
        self._require_vertex(v)
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def edge_weight(self, u: int, v: int) -> Number:
        if not self.has_edge(u, v):
            raise InputError(f"({u},{v}) is not an edge")
        return 1 if self.weights is None else self.weights[_norm_edge(u, v)]

    def _require_vertex(self, v: int):
        if v not in self._vset:
            raise InputError(f"unknown vertex id {v}")

    def __repr__(self):
        kind = "weighted " if self.weighted else ""
        return f"<{kind}Graph |V|={len(self.vertices)} |E|={len(self.edges)}>"

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self.edges == other.edges
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    # -- structure helpers -------------------------------------------------

    def induced(self, vs: Iterable[int]) -> "Graph":
        vs = set(vs)
        for v in vs:
            self._require_vertex(v)
        edges = [e for e in self.edges if e[0] in vs and e[1] in vs]
        weights = None
        if self.weights is not None:
            weights = {e: self.weights[e] for e in edges}
        return Graph(vs, edges, weights)

    def components(self) -> list:
        """Connected components as sorted vertex lists, in id order."""
        return _components(self, self._vset)

    def is_connected_set(self, vs: Iterable[int]) -> bool:
        """Whether ``vs`` is nonempty and induces a connected subgraph."""
        vs = set(vs)
        if not vs:
            return False
        if not vs <= self._vset:
            raise InputError(f"unknown vertex id {min(vs - self._vset)}")
        return len(_bfs(self, [next(iter(vs))], vs)[0]) == len(vs)

    def is_tree(self) -> bool:
        return (
            len(self.edges) == len(self.vertices) - 1
            and len(self.components()) == 1
        )

    # -- bitmask encoding --------------------------------------------------

    def vertex_bits(self) -> dict:
        """Bitmask encoding of vertex sets: ``vertices[i]`` is ``1 << i``."""
        if self._bits is None:
            self._bits = {v: 1 << i for i, v in enumerate(self.vertices)}
        return self._bits

    def closed_neighborhood_masks(self) -> dict:
        """Mask of ``v`` and its neighbours, per vertex ``v``."""
        if self._closed is None:
            bit = self.vertex_bits()
            self._closed = {
                v: bit[v] | sum(bit[n] for n in ns) for v, ns in self._adj.items()
            }
        return self._closed

    # -- metrics -----------------------------------------------------------

    def dist_from(self, source: int) -> dict:
        """Single-source shortest-path lengths (cached per graph).

        Every row is read from the int row (:meth:`_int_row`, the exact
        lengths times the scale of :meth:`_scaled_adjacency`) and divided
        back by that scale into the host's kind of length: an int on unit
        and int hosts, ``Fraction(d, scale)`` when some weight is a
        ``Fraction`` and none a float, and the correctly rounded float of
        the exact sum when some weight is a float (``inf`` past the float
        maximum).  One object is built per length, for all the rows of the
        host.  The source is at int ``0`` and an unreachable vertex at
        ``INF``.  An exact sum does not depend on the order of its terms, so
        d(u, v) == d(v, u) on every host, to the last bit.
        """
        self._require_vertex(source)
        cached = self._dist_cache.get(source)
        if cached is not None:
            return cached
        row = self._int_row(source)
        if self._scaled_adjacency()[2] is not int:
            lengths = self._lengths
            row = {v: d if d == 0 or d is INF
                   else lengths.get(d) or lengths.setdefault(d, self._length(d))
                   for v, d in row.items()}
        self._dist_cache[source] = row
        return row

    def _length(self, d: int) -> Number:
        """The int row entry ``d`` as a length of the host's kind."""
        scale, _, kind = self._scaled_adjacency()
        if kind is Fraction:
            return Fraction(d, scale)
        try:
            return d / scale  # int true division rounds correctly
        except OverflowError:
            return INF

    def _int_row(self, source: int) -> dict:
        """The lengths from ``source`` times the scale of
        :meth:`_scaled_adjacency`, as ints (``INF`` where unreachable).
        Cached per source; :meth:`dist_from` and the radius test read these
        rows."""
        rows = self._int_rows
        row = rows.get(source)
        if row is None:
            self._require_vertex(source)
            row = rows[source] = self._row(source)
        return row

    def _row(self, source: int) -> dict:
        """Uncached int lengths from ``source``: BFS on a unit host, else
        Dijkstra on the scaled int weights of :meth:`_scaled_adjacency`,
        where a vertex is pushed only when its length beats the best one
        pushed so far."""
        if self.weights is None:
            dist = {source: 0}
            frontier = [source]
            d = 0
            while frontier:
                d += 1
                nxt = []
                for u in frontier:
                    for n in self._adj[u]:
                        if n not in dist:
                            dist[n] = d
                            nxt.append(n)
                frontier = nxt
        else:
            adj = self._scaled_adjacency()[1]
            dist = {}
            best = {source: 0}
            heap = [(0, source)]
            while heap:
                d, u = heapq.heappop(heap)
                if u in dist:
                    continue
                dist[u] = d
                for n, w in adj[u]:
                    if n not in dist:
                        nd = d + w
                        old = best.get(n)
                        if old is None or nd < old:
                            best[n] = nd
                            heapq.heappush(heap, (nd, n))
        return {v: dist.get(v, INF) for v in self.vertices}

    def _scaled_adjacency(self):
        """``(scale, adjacency, kind)``, computed once per graph.  Every
        weight is an exact ratio (``as_integer_ratio``; a float is m * 2**e),
        and ``scale`` is the LCM of their denominators: 1 on unit and int
        hosts, a power of two when every weight is a float.
        ``adjacency[u]`` lists ``(n, weight(u, n) * scale)`` with int weights
        (None on a unit host).  ``kind`` is the type of a length: float if
        some weight is a float, else ``Fraction`` if some weight is one,
        else int."""
        if self._scaled is None:
            ws = self.weights
            if ws is None:
                self._scaled = (1, None, int)
            else:
                ratios = {e: w.as_integer_ratio() for e, w in ws.items()}
                scale = math.lcm(*(q for _, q in ratios.values()))
                ints = {e: p * (scale // q) for e, (p, q) in ratios.items()}
                kind = (float if not self._exact else
                        Fraction if any(isinstance(w, Fraction) for w in ws.values()) else int)
                self._scaled = (scale, {
                    u: tuple((n, ints[_norm_edge(u, n)]) for n in ns)
                    for u, ns in self._adj.items()
                }, kind)
        return self._scaled


# ---------------------------------------------------------------------------
# breadth-first search inside a vertex set


def _bfs(g: Graph, sources: Iterable[int], allowed, targets=frozenset()):
    """Breadth-first search from ``sources``, in the order given, through
    the vertices of the set ``allowed`` (a set, not a tuple: it is tested
    per neighbour), reading neighbours in id order.

    Returns ``(parent, hit)``.  ``parent`` maps each vertex reached, in the
    order reached, to the vertex it came from, or to None for a source.
    ``hit`` is the first vertex reached that is in ``targets`` (a source
    first), where the search stops, or None if no target is reached.
    """
    parent = dict.fromkeys(sources)
    queue = list(parent)
    for s in queue:
        if s in targets:
            return parent, s
    adj = g._adj
    for u in queue:  # grows as it is read: first in, first out
        for n in adj[u]:
            if n in allowed and n not in parent:
                parent[n] = u
                if n in targets:
                    return parent, n
                queue.append(n)
    return parent, None


def _walk(parent: dict, v: int) -> list:
    """The path from ``v`` back to its source in a :func:`_bfs` parent map."""
    path = []
    while v is not None:
        path.append(v)
        v = parent[v]
    return path


def _components(g: Graph, vs) -> list:
    """The components of ``g[vs]`` (``vs`` a set) as sorted vertex lists, in
    id order, without building the induced graph."""
    seen: set = set()
    comps = []
    for v in sorted(vs):
        if v not in seen:
            comp = _bfs(g, [v], vs)[0]
            seen.update(comp)
            comps.append(sorted(comp))
    return comps


# ---------------------------------------------------------------------------
# vertex sets and centered sets


@dataclass(frozen=True)
class VertexSet:
    """A subset of the vertices of a fixed host graph."""

    members: frozenset
    host: Graph

    def __post_init__(self):
        for v in self.members:
            if not self.host.has_vertex(v):
                raise InputError(f"vertex {v} not in host graph")

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self):
        return len(self.members)

    def __contains__(self, v):
        return v in self.members


def as_vertex_set(g: Graph, s) -> VertexSet:
    if isinstance(s, VertexSet):
        if s.host is not g and s.host != g:
            raise InputError("vertex set belongs to a different graph")
        return s
    try:
        members = frozenset(map(index, s))
    except TypeError as exc:
        raise InputError(f"bad vertex id: {exc}") from None
    return VertexSet(members, g)


@dataclass(frozen=True)
class CenteredSet:
    """Certificate that ``z`` lies in at most ``len(centers)`` balls of
    radius ``radius`` around ``centers``."""

    z: VertexSet
    centers: VertexSet
    radius: Number

    def __post_init__(self):
        g = self.z.host
        if self.z.members:
            ball = neighborhood(g, self.centers, self.radius)
            uncovered = self.z.members - ball.members
            if uncovered:
                raise InputError(
                    f"centered-set invariant violated: {sorted(uncovered)} "
                    f"outside radius {self.radius} of centers"
                )

    @property
    def center_count(self) -> int:
        return len(self.centers)


@dataclass(frozen=True)
class CenteredRefusal:
    """Typed refusal: no center set within the requested budget exists
    (``mode='exact'``) or was found (``mode='greedy'``)."""

    obligation: str
    mode: str
    k: int
    radius: Number


# ---------------------------------------------------------------------------
# operations


def distance(g: Graph, u: int, v: int) -> Number:
    """Shortest-path distance; ``inf`` across components."""
    g._require_vertex(v)
    return g.dist_from(u)[v]


def set_distance(g: Graph, s, t) -> Number:
    s = as_vertex_set(g, s)
    t = as_vertex_set(g, t)
    if not s.members or not t.members:
        raise InputError("set_distance over an empty set")
    if s.members & t.members:
        return 0
    small, large = (s, t) if len(s) <= len(t) else (t, s)
    best = INF
    for u in small:
        du = g.dist_from(u)
        for v in large:
            d = du[v]
            if d < best:
                best = d
    return best


def neighborhood(g: Graph, s, r: Number) -> VertexSet:
    """``{v : dist(v, s) <= r}`` (:func:`_within` around the members of
    ``s``); equals ``s`` when ``r == 0`` and is empty when ``s`` is."""
    s = as_vertex_set(g, s)
    if not r >= 0:  # NaN too
        raise InputError("negative radius")
    bit = g.vertex_bits()
    ball = 0
    for mask in _within(g, bit, r, centers=s.members):
        ball |= mask
    return VertexSet(frozenset(v for v in g.vertices if ball & bit[v]), g)


def _member_masks(g: Graph, members: Sequence) -> dict:
    """The member x vertex incidence, transposed: per vertex ``v`` in some
    member, the mask of the members that contain it (bit i: ``members[i]``)."""
    through = {}
    for i, member in enumerate(members):
        bit = 1 << i
        for v in member:
            through[v] = through.get(v, 0) | bit
    if not through.keys() <= g._vset:
        raise InputError(f"vertex {next(iter(through.keys() - g._vset))} not in host graph")
    return through


def _exact_against(g: Graph, r: Number) -> bool:
    """Whether ``r`` and the distances of ``g`` are exact, so that ``leq``
    between them is plain ``<=`` (``inf`` too: it exceeds every exact ``r``)."""
    return g._exact and is_exact(r)


def _within(g: Graph, through: dict, r: Number, strict: bool = False,
            centers: Optional[Iterable[int]] = None) -> list:
    """The library's one test of a distance against a radius.

    Per center ``c`` (every vertex in vertex order by default), the OR of
    ``through[v]`` over the vertices ``v`` with ``leq(dist(c, v), r)``, or
    with ``not leq(r, dist(c, v))`` (closer than ``r``) when ``strict``.
    With ``through = g.vertex_bits()`` that is the ball mask of each center;
    with a family's :func:`_member_masks`, the mask of the members the ball
    meets.  The call takes one int threshold ``t`` and compares the int rows
    (:meth:`Graph._int_row`, the exact distances times ``scale``) with it:
    ``d * scale <= t``.  On an exact host with an exact ``r``, ``t`` is
    ``floor(r * scale)``, or ``ceil(r * scale) - 1`` when ``strict``;
    otherwise the tolerance moves ``r`` first, to ``r + TOL``, or to
    ``r - TOL`` when ``strict``.  An infinite ``r`` takes every vertex, or
    when ``strict`` every vertex at a finite distance.
    """
    scale, adj, _ = g._scaled_adjacency()
    if _exact_against(g, r):
        t = math.ceil(r * scale) - 1 if strict else math.floor(r * scale)
    elif r == INF:
        # the total scaled weight is past every finite distance
        t = INF if not strict else (
            len(g.edges) if adj is None else sum(w for ns in adj.values() for _, w in ns))
    else:
        t = (math.ceil(Fraction(r - TOL) * scale) - 1 if strict
             else math.floor(Fraction(r + TOL) * scale))
    masks = []
    for c in g.vertices if centers is None else centers:
        dc = g._int_row(c)
        mask = 0
        for v, holders in through.items():
            if dc[v] <= t:
                mask |= holders
        masks.append(mask)
    return masks


def _hit_masks(g: Graph, family: Sequence[frozenset], r: Number) -> list:
    """Per vertex ``c`` in vertex order, the mask of the ``family`` members
    (bit i: ``family[i]``) that the radius-``r`` ball around ``c`` meets."""
    return _within(g, _member_masks(g, family), r)


# ---------------------------------------------------------------------------
# set cover over bitmasks
#
# ``masks`` lists the candidates in ascending id order; element bits are in
# ascending element order.  Both routines return candidate positions.


def _greedy_cover(target: int, masks: Sequence[int], limit: Optional[int] = None):
    """Repeatedly take the candidate covering the most uncovered elements,
    the first on ties, until ``target`` is covered, ``limit`` candidates are
    taken or nothing more is covered.  Returns (positions, uncovered mask)."""
    chosen = []
    uncovered = target
    while uncovered and (limit is None or len(chosen) < limit):
        i = max(range(len(masks)), key=lambda i: ((masks[i] & uncovered).bit_count(), -i))
        if not masks[i] & uncovered:
            break
        chosen.append(i)
        uncovered &= ~masks[i]
    return chosen, uncovered


def _set_cover(target: int, masks: Sequence[int], budget: Optional[int] = None):
    """Branch-and-bound set cover of ``target``.  Returns (positions or None,
    search nodes).

    Without ``budget`` it minimises, starting from the greedy cover; with one
    it returns the first cover of at most ``budget`` candidates.  Each node
    branches on the uncovered element with the fewest covering candidates
    (lowest element on ties), trying candidates by most new coverage, then
    position, and prunes on ``ceil(uncovered / largest candidate)``.

    A candidate tried at a node is banned in the subtrees of its later
    siblings, so each cover is reached once, not once per order of its
    members.  The ban is exact and returns the same positions: a cover
    through a banned candidate lies in that candidate's own subtree, which
    was searched first and under a limit no smaller, so the cover was found
    there (and lowered the limit below its size) or ruled out.  Every pivot
    before a node's own is covered in its subtree, so its children resume the
    pivot scan after it.
    """
    elements = [1 << j for j in range(target.bit_length()) if target >> j & 1]
    covering = {b: [i for i, m in enumerate(masks) if m & b] for b in elements}
    pivots = sorted(covering, key=lambda b: (len(covering[b]), b))
    max_size = max(((m & target).bit_count() for m in masks), default=0) or 1
    if budget is None:
        best, _ = _greedy_cover(target, masks)
        limit = len(best) - 1
    else:
        best, limit = None, budget
    chosen = []
    nodes = 0

    def search(uncovered: int, banned: int, start: int) -> bool:
        # True stops the search: the first cover within a budget was found;
        # ``banned`` holds the positions this subtree may not take, and
        # ``pivots[:start]`` are covered
        nonlocal best, limit, nodes
        nodes += 1
        if not uncovered:
            if len(chosen) <= limit:
                best, limit = list(chosen), len(chosen) - 1
                return budget is not None
            return False
        if len(chosen) - (-uncovered.bit_count() // max_size) > limit:
            return False
        while not pivots[start] & uncovered:
            start += 1
        pivot = pivots[start]
        for i in sorted(covering[pivot], key=lambda i: (-(masks[i] & uncovered).bit_count(), i)):
            if banned >> i & 1:
                continue
            chosen.append(i)
            if search(uncovered & ~masks[i], banned, start + 1):
                return True
            chosen.pop()
            banned |= 1 << i
        return False

    search(target, 0, 0)
    return best, nodes


def _implicit_hitting_set(n: int, missed: Callable[[list], Sequence[int]],
                          size_cap: Optional[int] = None) -> list:
    """Fewest positions in ``range(n)`` that hit every set of a family known
    only through ``missed``, by the implicit-hitting-set loop (Chandrasekaran,
    Karp, Moreno-Centeno and Vempala, SODA 2011).

    ``missed(chosen)`` returns sets of the family (masks over positions)
    that ``chosen`` misses, and nothing once it hits them all.  The sets
    found so far are a lower bound: each round takes their greedy cover and
    asks ``missed`` about it.  Once that cover hits everything, the exact
    cover (:func:`_set_cover`) is deepened from the last bound, so the first
    cover that ``missed`` accepts is a minimum.  Past ``size_cap`` positions
    it raises :class:`CapacityError`.  Returns the positions in cover order.
    """
    hits = [0] * n  # per position, the found sets it is in
    count = 0  # sets found
    lb = 0  # a lower bound on the answer
    chosen: list = []
    found = missed(chosen)
    while found:
        for s in found:
            while s:
                low = s & -s
                hits[low.bit_length() - 1] |= 1 << count
                s ^= low
            count += 1
        target = (1 << count) - 1
        chosen, _ = _greedy_cover(target, hits)
        if len(chosen) > lb:
            found = missed(chosen)
            if found:
                continue
            # the greedy cover hits everything but may be too large
            while True:
                if size_cap is not None and lb > size_cap:
                    raise CapacityError("no hitting set within the size cap",
                                        cap=size_cap, actual=None)
                chosen, _ = _set_cover(target, hits, lb)
                if chosen is not None:
                    break
                lb += 1
        found = missed(chosen)
    return chosen


def certify_centered(g: Graph, z, k: int, r: Number, mode: str = "exact"):
    """Search for at most ``k`` vertex centers whose radius-``r`` balls cover
    ``z``.  Returns a :class:`CenteredSet` on success, else a
    :class:`CenteredRefusal`.

    Exact mode is a set-cover branch-and-bound over all vertices as candidate
    centers and is refused above :data:`EXACT_CENTER_CAP` host vertices.
    """
    z = as_vertex_set(g, z)
    if k < 0 or not r >= 0:
        raise InputError("negative center count or radius")
    if mode not in ("exact", "greedy"):
        raise InputError(f"unknown mode {mode!r}")
    if not z.members:
        return CenteredSet(z, VertexSet(frozenset(), g), r)
    if mode == "exact" and len(g) > EXACT_CENTER_CAP:
        raise CapacityError(
            f"exact centered-set search capped at {EXACT_CENTER_CAP} vertices",
            cap=EXACT_CENTER_CAP,
            actual=len(g),
        )

    bit = g.vertex_bits()
    target = sum(bit[v] for v in z.members)
    masks = _within(g, {v: bit[v] for v in z.members}, r)

    if mode == "greedy":
        chosen, uncovered = _greedy_cover(target, masks, k)
        if uncovered:
            return CenteredRefusal("greedy-cover-exhausted", "greedy", k, r)
    else:
        chosen, _ = _set_cover(target, masks, k)
        if chosen is None:
            return CenteredRefusal("exhaustive-center-search-failed", "exact", k, r)
    return CenteredSet(z, VertexSet(frozenset(g.vertices[i] for i in chosen), g), r)


# ---------------------------------------------------------------------------
# ingestion / serialization


def _weight_from_text(tok: str) -> Number:
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return Fraction(tok) if "/" in tok else float(tok)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"not a number: {tok!r}") from None


def from_edge_list(text: str) -> Graph:
    """Parse whitespace edge-list text: one ``u v [weight]`` per line."""
    vertices = set()
    edges = []
    weights = {}
    any_weight = False
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) not in (2, 3):
            raise InputError(f"line {lineno}: expected 'u v [weight]'")
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError as exc:
            raise InputError(f"line {lineno}: bad vertex id") from exc
        if u < 0 or v < 0:
            raise InputError(f"line {lineno}: vertex ids must be nonnegative")
        vertices.update((u, v))
        edges.append((u, v))
        if len(toks) == 3:
            any_weight = True
            weights[_norm_edge(u, v)] = _weight_from_text(toks[2])
    if any_weight:
        for e in edges:
            if _norm_edge(*e) not in weights:
                weights[_norm_edge(*e)] = 1
        return Graph(vertices, edges, weights)
    return Graph(vertices, edges)


def to_edge_list(g: Graph) -> str:
    lines = []
    for u, v in g.edges:
        if g.weighted:
            lines.append(f"{u} {v} {g.weights[(u, v)]}")
        else:
            lines.append(f"{u} {v}")
    return "\n".join(lines) + ("\n" if lines else "")


def _json_num(x: Number):
    """A number as JSON: a ``Fraction`` as its string, anything else as is."""
    return str(x) if isinstance(x, Fraction) else x


def to_json_dict(g: Graph) -> dict:
    doc = {
        "vertices": list(g.vertices),
        "edges": [list(e) for e in g.edges],
    }
    if g.weighted:
        doc["weights"] = [_json_num(g.weights[e]) for e in g.edges]
    return doc


def from_json_dict(doc: dict) -> Graph:
    try:
        vertices = doc["vertices"]
        edges = [tuple(e) for e in doc["edges"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad graph document: {exc}") from exc
    weights = None
    if "weights" in doc:
        raw = doc["weights"]
        if not isinstance(raw, list) or len(raw) != len(edges):
            raise InputError("weights must be an array parallel to the edges array")
        weights = {}
        try:
            for e, w in zip(edges, raw):
                if isinstance(w, str):
                    w = _weight_from_text(w)
                weights[_norm_edge(*e)] = w
        except TypeError as exc:
            raise InputError(f"bad edge: {exc}") from None
    return Graph(vertices, edges, weights)


def from_json(text: str) -> Graph:
    return from_json_dict(json.loads(text))


def to_json(g: Graph) -> str:
    return json.dumps(to_json_dict(g), sort_keys=True)
