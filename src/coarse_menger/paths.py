"""Path objects: X-Y paths with far endpoints, A-paths, and fat minor models.

Paths are canonicalized up to reversal (a path equals its reversal as a
subgraph); the stored orientation is the lexicographically smaller one.

Path enumeration keeps the path's vertices, minus its tail, as a vertex
bitmask (:meth:`Graph.vertex_bits`).  A neighbour of the tail extends the path
when one AND with its blocking mask is empty: its own bit for simple paths,
its closed neighbourhood for chordless ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import CapacityError, InputError
from .graph import INF, Graph, Number, as_vertex_set, distance, leq, set_distance

#: default vertex-count limit for uncapped path enumeration
ENUM_VERTEX_LIMIT = 16


@dataclass(frozen=True)
class PathWitness:
    """A simple path plus its certified endpoint distance in the host graph."""

    sequence: Tuple[int, ...]
    endpoint_distance: Number

    @property
    def end_a(self) -> int:
        return self.sequence[0]

    @property
    def end_b(self) -> int:
        return self.sequence[-1]

    @property
    def vertex_set(self) -> frozenset:
        return frozenset(self.sequence)

    @property
    def length(self) -> int:
        return len(self.sequence) - 1

    def to_json_dict(self) -> dict:
        return {"vertices": list(self.sequence)}


def canonical_sequence(seq: Sequence[int]) -> Tuple[int, ...]:
    seq = tuple(seq)
    rev = tuple(reversed(seq))
    return seq if seq <= rev else rev


def make_path(g: Graph, sequence: Sequence[int]) -> PathWitness:
    """Validate ``sequence`` as a simple path in ``g`` and certify its
    endpoint distance.  A single vertex is a valid length-0 path."""
    seq = tuple(int(v) for v in sequence)
    if not seq:
        raise InputError("empty vertex sequence is not a path")
    if len(set(seq)) != len(seq):
        raise InputError("path vertices must be distinct")
    for v in seq:
        g._require_vertex(v)
    for u, v in zip(seq, seq[1:]):
        if not g.has_edge(u, v):
            raise InputError(f"consecutive vertices {u},{v} are not adjacent")
    seq = canonical_sequence(seq)
    return PathWitness(seq, distance(g, seq[0], seq[-1]))


def is_lxy_path(g: Graph, p: PathWitness, l: Number, x, y) -> bool:
    """True iff ``p`` runs between ``x`` and ``y`` with endpoint distance at
    least ``l``.  Internal vertices may revisit ``x`` or ``y``."""
    x = as_vertex_set(g, x)
    y = as_vertex_set(g, y)
    a, b = p.end_a, p.end_b
    ends_ok = (a in x and b in y) or (a in y and b in x)
    if not ends_ok:
        return False
    return leq(l, p.endpoint_distance)


def is_a_path(g: Graph, p: PathWitness, a) -> bool:
    """True iff both ends lie in ``a`` and are distinct."""
    a = as_vertex_set(g, a)
    return p.end_a != p.end_b and p.end_a in a and p.end_b in a


@dataclass(frozen=True)
class PathEnumeration:
    paths: Tuple[PathWitness, ...]
    truncated: bool


def enumerate_paths(
    g: Graph, l: Number, x, y, cap: Optional[int] = None
) -> PathEnumeration:
    """All simple paths from ``x`` to ``y`` with endpoint distance >= ``l``,
    deduplicated up to reversal, in canonical lexicographic order.

    Uncapped enumeration is refused above :data:`ENUM_VERTEX_LIMIT` host
    vertices.  With a finite ``cap`` the search stops once it has found
    ``cap + 1`` distinct paths: the first ``cap`` it found are returned, in
    canonical order, and ``truncated`` says that more exist.
    """
    return _enumerate(g, l, x, y, cap, g.vertex_bits())


def _enumerate(
    g: Graph, l: Number, x, y, cap: Optional[int], blocking: Mapping[int, int],
    minimal: bool = False,
) -> PathEnumeration:
    """:func:`_sequences` as path witnesses, the first ``cap`` found."""
    found = _sequences(g, l, x, y, cap, blocking, minimal)
    truncated = cap is not None and len(found) > cap
    ordered = sorted(found[:cap])
    paths = tuple(PathWitness(s, distance(g, s[0], s[-1])) for s in ordered)
    return PathEnumeration(paths, truncated)


def _sequences(
    g: Graph, l: Number, x, y, cap: Optional[int], blocking: Mapping[int, int],
    minimal: bool = False,
) -> List[Tuple[int, ...]]:
    """Depth-first path search shared by :func:`enumerate_paths` and
    :func:`enumerate_chordless_paths`, as canonical sequences in the order
    found: a neighbour ``n`` of the tail extends the path iff ``blocking[n]``
    misses every path vertex but the tail.  With a finite ``cap`` the search
    stops at the ``cap + 1``-st distinct sequence.

    With ``minimal``, only the paths with no interior vertex in ``x | y``:
    the search never enters a vertex of ``x - y``, and a path ends at its
    first vertex of ``y`` after its start.  At l = 0 every path of the full
    search contains one of them as a vertex subset: its stretch from its
    last vertex in ``x`` to the next vertex in ``y``.
    """
    x = as_vertex_set(g, x)
    y = as_vertex_set(g, y)
    if cap is None and len(g) > ENUM_VERTEX_LIMIT:
        raise CapacityError(
            f"uncapped path enumeration limited to {ENUM_VERTEX_LIMIT} vertices",
            cap=ENUM_VERTEX_LIMIT,
            actual=len(g),
        )
    if not x.members or not y.members:
        return []

    found: Dict[Tuple[int, ...], None] = {}  # insertion-ordered set
    stop = INF if cap is None else cap + 1
    bit = g.vertex_bits()
    ends = y.members
    barred = x.members - ends if minimal else frozenset()
    # distances are >= 0, so at l = 0 every end passes without a test, and
    # no distance row is read
    any_end = l == 0

    def extend(seq: list, body: int, dist_start: Optional[dict]) -> bool:
        # ``body`` is the mask of seq[:-1]; True once ``stop`` paths are found
        tail = seq[-1]
        if tail in ends:
            if any_end or leq(l, dist_start[tail]):
                found[canonical_sequence(seq)] = None
                if len(found) >= stop:
                    return True
            if minimal and body:
                return False
        grown = body | bit[tail]
        for n in g.neighbors(tail):
            if blocking[n] & body or n in barred:
                continue
            seq.append(n)
            done = extend(seq, grown, dist_start)
            seq.pop()
            if done:
                return True
        return False

    for start in sorted(x.members):
        if extend([start], 0, None if any_end else g.dist_from(start)):
            break
    return list(found)


def _chordless_sequences(g: Graph, l: Number, x, y, minimal: bool = False):
    """The uncapped :func:`enumerate_chordless_paths` family (with
    ``minimal``, its members with no interior vertex in ``x | y``) as
    canonical vertex sequences, for callers that need only vertex sets."""
    return sorted(_sequences(g, l, x, y, None, g.closed_neighborhood_masks(), minimal))


# ---------------------------------------------------------------------------
# fat minor models


@dataclass(frozen=True)
class FatMinorModel:
    """An ``l``-fat model of a small pattern graph inside a host graph.

    ``branch_sets`` maps pattern vertices to host vertex tuples inducing the
    branch subgraphs; ``edge_paths`` maps pattern edges to host paths.
    ``roots``, when present, prescribes a root set per pattern vertex.
    """

    pattern: Graph
    branch_sets: Mapping[int, Tuple[int, ...]]
    edge_paths: Mapping[Tuple[int, int], Tuple[int, ...]]
    fatness: Number
    roots: Optional[Mapping[int, frozenset]] = None

    def union_vertices(self) -> frozenset:
        out = set()
        for vs in self.branch_sets.values():
            out.update(vs)
        for seq in self.edge_paths.values():
            out.update(seq)
        return frozenset(out)

    def to_json_dict(self) -> dict:
        doc = {
            "pattern": {"vertices": list(self.pattern.vertices),
                        "edges": [list(e) for e in self.pattern.edges]},
            "branch_sets": {str(h): sorted(vs) for h, vs in self.branch_sets.items()},
            "edge_paths": {f"{e[0]}-{e[1]}": list(p) for e, p in self.edge_paths.items()},
            "fatness": self.fatness,
        }
        if self.roots is not None:
            doc["roots"] = {str(h): sorted(r) for h, r in self.roots.items()}
        return doc


@dataclass
class ModelReport:
    valid: bool
    violations: List[str] = field(default_factory=list)

    def __bool__(self):
        return self.valid


def check_fat_minor(g: Graph, m: FatMinorModel) -> ModelReport:
    """Verify every invariant of a (rooted) fat minor model; the report lists
    each violated condition."""
    violations = []
    pat = m.pattern
    if len(pat.edges) != len(set(pat.edges)):
        raise InputError("pattern has parallel edges")

    branch = {}
    for h in pat.vertices:
        vs = m.branch_sets.get(h)
        if not vs:
            violations.append(f"branch set missing or empty for pattern vertex {h}")
            continue
        for v in vs:
            g._require_vertex(v)
        branch[h] = frozenset(vs)
        if not g.is_connected_set(branch[h]):
            violations.append(f"branch set of {h} is not connected")

    for h1 in pat.vertices:
        for h2 in pat.vertices:
            if h1 < h2 and h1 in branch and h2 in branch:
                if branch[h1] & branch[h2]:
                    violations.append(f"disjointness: branch sets {h1},{h2} overlap")

    paths = {}
    for e in pat.edges:
        seq = m.edge_paths.get(e) or m.edge_paths.get((e[1], e[0]))
        if seq is None:
            violations.append(f"edge path missing for pattern edge {e}")
            continue
        try:
            pw = make_path(g, seq)
        except InputError as exc:
            violations.append(f"edge path for {e} invalid: {exc}")
            continue
        paths[e] = frozenset(seq)
        u, v = e
        if u in branch and v in branch:
            seq = tuple(seq)
            ok = (seq[0] in branch[u] and seq[-1] in branch[v]) or (
                seq[0] in branch[v] and seq[-1] in branch[u]
            )
            if not ok:
                violations.append(f"edge path for {e} does not join its branch sets")

    # pairwise fatness between non-incident pieces
    pieces = [(h, branch[h]) for h in pat.vertices if h in branch]
    pieces += [(e, paths[e]) for e in pat.edges if e in paths]

    def incident(x, y) -> bool:
        xe, ye = isinstance(x, tuple), isinstance(y, tuple)
        if xe == ye:
            return False
        v, e = (y, x) if xe else (x, y)
        return v in e

    if m.fatness > 0:
        for i, (xi, si) in enumerate(pieces):
            for xj, sj in pieces[i + 1:]:
                if incident(xi, xj):
                    continue
                d = set_distance(g, si, sj) if si and sj else None
                if d is not None and not leq(m.fatness, d):
                    violations.append(
                        f"fatness: dist({xi},{xj}) = {d} < {m.fatness}"
                    )

    if m.roots is not None:
        for h in pat.vertices:
            r = m.roots.get(h)
            if r is None:
                violations.append(f"root set missing for pattern vertex {h}")
            elif h in branch and not (branch[h] & frozenset(r)):
                violations.append(f"root condition: branch set of {h} misses its roots")

    return ModelReport(not violations, violations)


def enumerate_chordless_paths(
    g: Graph, l: Number, x, y, cap: Optional[int] = None
) -> PathEnumeration:
    """Like :func:`enumerate_paths`, restricted to chordless (induced) paths.

    The same search as :func:`enumerate_paths`, blocking each neighbour of
    the path's body as well (:meth:`Graph.closed_neighborhood_masks`).

    Sufficient for packing and covering computations: shortcutting along a
    chord keeps the endpoints, never increases the vertex set, and so never
    decreases distances to other paths — optima over chordless paths equal
    optima over all simple paths, and a set hitting every chordless path hits
    every path.
    """
    return _enumerate(g, l, x, y, cap, g.closed_neighborhood_masks())
