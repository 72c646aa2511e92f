"""Minimum ball covers hitting path families, plus duality reports.

The cover side is a set-cover over vertex-centered balls of a fixed radius;
exact solving branches on the family member with fewest covering candidates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import CapacityError, InputError, InternalInconsistencyError
from .graph import (
    CenteredSet,
    Graph,
    Number,
    VertexSet,
    _bfs,
    _exact_against,
    _greedy_cover,
    _hit_masks,
    _implicit_hitting_set,
    _json_num,
    _member_masks,
    _set_cover,
    _walk,
    _within,
    as_vertex_set,
    is_exact,
    leq,
    neighborhood,
)
from .packing import (
    EXACT_PACKING_VERTEX_CAP,
    GallaiResult,
    PackingInstance,
    _conflicts_through,
    _enumerate_a_paths,
    _reach,
    gallai_packing,
    max_far_packing,
    max_independent_set,
    menger_packing,
)
from .paths import _chordless_sequences


@dataclass(frozen=True)
class CoverInstance:
    host: Graph
    radius: Number
    #: implicit path family (l, x, y) ...
    l: Optional[Number] = None
    x: Optional[frozenset] = None
    y: Optional[frozenset] = None
    #: ... or an explicit list of member vertex sets
    explicit_family: Optional[Tuple[frozenset, ...]] = None

    def __post_init__(self):
        if not self.radius >= 0:  # NaN too
            raise InputError("negative cover radius")
        if self.l is not None and not self.l >= 0:
            raise InputError("need l >= 0")
        implicit = self.l is not None and self.x is not None and self.y is not None
        if implicit == (self.explicit_family is not None):
            raise InputError("give either (l, x, y) or explicit_family")

    def family(self) -> Tuple[frozenset, ...]:
        if self.explicit_family is not None:
            for member in self.explicit_family:
                if not member:
                    raise InputError("empty family member cannot be hit")
                as_vertex_set(self.host, member)
            return self.explicit_family
        # a set hits every path iff it hits every chordless path
        return tuple(map(frozenset, _chordless_sequences(self.host, self.l, self.x, self.y)))


@dataclass
class CoverSolution:
    centered: CenteredSet
    count: int
    nodes_explored: int = 0

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "centers": sorted(self.centered.centers.members),
            "radius": _json_num(self.centered.radius),
        }


def min_set_cover(universe: Sequence[int], sets: Dict[int, frozenset]):
    """Exact minimum set cover by branch-and-bound (:func:`graph._set_cover`).

    ``sets`` maps candidate ids to covered element sets.  Branches on the
    element covered by fewest candidates; deterministic tie-break by id.
    Returns (chosen ids sorted, nodes explored).
    """
    elements = sorted(set(universe))
    bit = {el: 1 << i for i, el in enumerate(elements)}
    target = (1 << len(elements)) - 1
    ids = sorted(sets)
    masks = [sum(bit[el] for el in sets[c] if el in bit) for c in ids]
    uncoverable = target
    for m in masks:
        uncoverable &= ~m
    if uncoverable:
        el = elements[(uncoverable & -uncoverable).bit_length() - 1]
        raise InternalInconsistencyError(f"element {el} is uncoverable")
    chosen, nodes = _set_cover(target, masks)
    return sorted(ids[i] for i in chosen), nodes


def min_ball_hitting(inst: CoverInstance) -> CoverSolution:
    """Minimum number of radius-``inst.radius`` vertex-centered balls whose
    union intersects every family member."""
    return _ball_hitting(inst.host, inst.family(), inst.radius)


def _ball_hitting(g: Graph, family: Sequence[frozenset], radius: Number,
                  budget: Optional[int] = None) -> Optional[CoverSolution]:
    """The library's one ball-cover search: fewest radius-``radius`` balls
    meeting every ``family`` member (:func:`graph._set_cover` over
    :func:`graph._hit_masks`), or with ``budget`` the first cover of at most
    ``budget`` balls, or None.  An empty family takes no ball."""
    if not family:
        empty = VertexSet(frozenset(), g)
        return CoverSolution(CenteredSet(empty, empty, radius), 0)

    chosen, nodes = _set_cover((1 << len(family)) - 1, _hit_masks(g, family, radius), budget)
    if chosen is None:
        return None
    centers = [g.vertices[i] for i in chosen]
    z = neighborhood(g, centers, radius).members & frozenset().union(*family)
    centered = CenteredSet(
        VertexSet(z, g), VertexSet(frozenset(centers), g), radius
    )
    return CoverSolution(centered, len(centers), nodes)


# ---------------------------------------------------------------------------
# duality report


@dataclass
class DualityCell:
    value: Optional[int]
    exact: bool
    flag: Optional[str] = None


@dataclass
class DualityReport:
    fingerprint: str
    packing_by_r: Dict[Number, DualityCell] = field(default_factory=dict)
    cover_by_radius: Dict[Number, DualityCell] = field(default_factory=dict)

    def check_weak_duality(self) -> List[str]:
        """Weak duality: r > 2*beta forces cover(beta) >= packing(r).
        Returns the list of violated (r, beta) pairs (empty = all good)."""
        bad = []
        for r, pc in self.packing_by_r.items():
            for beta, cc in self.cover_by_radius.items():
                if pc.value is None or cc.value is None:
                    continue
                if not pc.exact or not cc.exact:
                    continue
                if r > 2 * beta and cc.value < pc.value:
                    bad.append(f"r={r} beta={beta}: cover {cc.value} < packing {pc.value}")
        return bad

    def to_json_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "packing": {
                str(r): {"value": c.value, "exact": c.exact, "flag": c.flag}
                for r, c in self.packing_by_r.items()
            },
            "cover": {
                str(b): {"value": c.value, "exact": c.exact, "flag": c.flag}
                for b, c in self.cover_by_radius.items()
            },
        }

    def to_csv(self) -> str:
        lines = ["kind,threshold,value,exact,flag"]
        for r, c in sorted(self.packing_by_r.items()):
            lines.append(f"packing,{r},{c.value},{c.exact},{c.flag or ''}")
        for b, c in sorted(self.cover_by_radius.items()):
            lines.append(f"cover,{b},{c.value},{c.exact},{c.flag or ''}")
        return "\n".join(lines) + "\n"


def graph_fingerprint(g: Graph, *extra) -> str:
    import hashlib

    payload = repr((g.vertices, g.edges, sorted(g.weights.items()) if g.weights else None, extra))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _minimal_family(g: Graph, x: frozenset, y: frozenset) -> list:
    """The inclusion-minimal chordless x-y paths, as canonical sequences: the
    paths with no interior vertex in ``x | y``, less the longer ones with an
    end in ``x & y`` (they hold that end's one-vertex path).  Every x-y path
    holds one as a vertex subset: shortcut it along its chords, then keep the
    stretch from its last vertex in x to the next vertex in y."""
    both = x & y
    return [p for p in _chordless_sequences(g, 0, x, y, minimal=True)
            if len(p) == 1 or not (p[0] in both or p[-1] in both)]


def duality_sweep(
    g: Graph, x, y, l: Number, r_values: Sequence[Number], beta_values: Sequence[Number]
) -> DualityReport:
    """Fill packing and cover tables; exact where caps permit, greedy with a
    per-cell flag otherwise.

    Every exact cell works on one family of paths, as vertex sequences,
    transposed once (:func:`graph._member_masks`), and finds only its count.

    - At l = 0 the family is :func:`_minimal_family`: the inclusion-minimal
      chordless x-y paths, which meet x only at their start and y only at
      their end (Menger's X-Y paths).  Every x-y path holds one as a vertex
      subset, so a set of balls hits them all iff it hits every path.  For a
      packing cell with ``not leq(r, 0)``, replacing each path of an r-far
      packing by a minimal path inside it only grows distances, and two paths
      that hold the same minimal path are 0 apart, so not r-far: the maxima
      agree.
    - A cell with ``leq(r, 0)`` has no conflicts: every chordless path is
      r-far from every other, and its value is their count.  The full family
      is enumerated for that count only when such an r is given.
    - At l > 0 the family is every chordless (l,x,y)-path: the minimal path
      inside a path may have its ends closer than l, and then it is not in
      the family, so the replacement above fails.

    Two bounds cut the searches; neither changes a value:

    - Packing cells run by ascending r.  Once paths through a common vertex
      conflict (``not leq(r, 0)``), an r-far packing is vertex-disjoint, so
      :func:`menger_packing` bounds it.  So does the value at the previous r
      of the same kind, exact or float (``leq`` adds its tolerance to a float
      r only): the conflict relation grows with r.
      ``max_independent_set(..., enough=bound)`` stops at the first set of
      that size, and returns the maximum when there is none.
    - Weak duality: a radius-beta ball has diameter at most 2*beta, so for
      r > 2*beta it meets at most one path of an r-far packing.  A greedy
      cover of packing(r) balls is then optimal, and the branch-and-bound is
      skipped.  This needs exact weights, r and beta: under the float
      tolerance one ball can meet two paths that count as r-far.

    When the enumeration is refused, each packing cell falls back to the
    flagged greedy packing of :func:`max_far_packing`.  A cover cell at l = 0
    stays exact: a set of balls hits every x-y path iff it separates x from
    y, and :func:`min_separating_balls` finds the fewest without enumerating
    paths.  At l > 0 it has no value.

    The tables are keyed by threshold, so two ``r_values``, or two
    ``beta_values``, that compare equal (``1`` and ``1.0`` included) are an
    :class:`InputError`: they would share one cell.
    """
    for name, values in (("r_values", r_values), ("beta_values", beta_values)):
        for a, b in itertools.combinations(values, 2):
            if a == b:
                raise InputError(f"{name} lists equal thresholds {a} and {b}")
    x = as_vertex_set(g, x)
    y = as_vertex_set(g, y)
    report = DualityReport(graph_fingerprint(g, sorted(x.members), sorted(y.members), l))
    # the instances validate l, r and beta even when the family is shared
    packs = [PackingInstance(g, x.members, y.members, l, r, "exact") for r in r_values]
    conflict_free = [leq(inst.r, 0) for inst in packs]
    try:
        if l == 0:
            family = _minimal_family(g, x.members, y.members)
            if any(conflict_free):
                everything = len(_chordless_sequences(g, l, x.members, y.members))
        else:
            family = _chordless_sequences(g, l, x.members, y.members)
            everything = len(family)
    except CapacityError:
        family = None
    through = None if family is None else _member_masks(g, family)
    value = {}  # position in packs -> exact packing value
    if family is not None and len(g) <= EXACT_PACKING_VERTEX_CAP:
        flow = menger_packing(g, x.members, y.members)
        last = {}  # is_exact(r) -> the value at the previous r of that kind
        for i in sorted(range(len(packs)), key=lambda i: packs[i].r):
            r = packs[i].r
            if conflict_free[i]:
                value[i] = last[is_exact(r)] = everything
                continue
            bounds = [flow] + ([last[is_exact(r)]] if is_exact(r) in last else [])
            rows = _conflicts_through(family, _reach(g, through, r, strict=True))
            chosen, _ = max_independent_set(rows, enough=min(bounds))
            value[i] = last[is_exact(r)] = len(chosen)
    for i, inst in enumerate(packs):
        if i in value:
            report.packing_by_r[inst.r] = DualityCell(value[i], True)
        else:
            sol = max_far_packing(replace(inst, mode="greedy"))
            report.packing_by_r[inst.r] = DualityCell(sol.size, False, "capacity:greedy")
    for beta in beta_values:
        CoverInstance(g, beta, l=l, x=x.members, y=y.members)
        if family:
            hits = _within(g, through, beta)
            target = (1 << len(family)) - 1
            floor = max((v for i, v in value.items()
                         if is_exact(packs[i].r) and packs[i].r > 2 * beta), default=0)
            chosen, _ = _greedy_cover(target, hits)
            if len(chosen) > (floor if _exact_against(g, beta) else 0):
                chosen, _ = _set_cover(target, hits)
            report.cover_by_radius[beta] = DualityCell(len(chosen), True)
        elif family is not None:
            report.cover_by_radius[beta] = DualityCell(0, True)
        elif l == 0:
            count, _ = min_separating_balls(g, x.members, y.members, beta)
            report.cover_by_radius[beta] = DualityCell(count, True)
        else:
            report.cover_by_radius[beta] = DualityCell(None, False, "capacity:refused")
    return report


# ---------------------------------------------------------------------------
# Gallai dichotomy


@dataclass
class GallaiVerdict:
    branch: str  # "packing" | "hitting"
    k: int
    packing: Optional[GallaiResult] = None
    hitting_set: Optional[frozenset] = None

    def to_json_dict(self) -> dict:
        doc = {"branch": self.branch, "k": self.k}
        if self.packing is not None:
            doc["packing"] = [list(p.sequence) for p in self.packing.paths]
        if self.hitting_set is not None:
            doc["hitting_set"] = sorted(self.hitting_set)
        return doc


def gallai_check(g: Graph, a, k: int) -> GallaiVerdict:
    """Either k disjoint A-paths, or a vertex set of size <= 2k-2 hitting all
    A-paths (the classical dichotomy, verified exhaustively)."""
    if k < 1:
        raise InputError("k must be positive")
    a = as_vertex_set(g, a)
    result = gallai_packing(g, a.members, with_witness=True)
    if result.count >= k:
        return GallaiVerdict("packing", k, packing=result)
    # the fewest vertices meeting every A-path: a set cover of the path
    # indices by the paths through each vertex, free of distances
    paths = _enumerate_a_paths(g, a.members)
    through = _member_masks(g, [p.vertex_set for p in paths])
    chosen, _ = _set_cover((1 << len(paths)) - 1, [through.get(v, 0) for v in g.vertices])
    if len(chosen) > 2 * k - 2:
        raise InternalInconsistencyError(
            f"Gallai bound violated: hitting set {len(chosen)} > {2 * k - 2}"
        )
    return GallaiVerdict("hitting", k, hitting_set=frozenset(g.vertices[i] for i in chosen))


def min_separating_balls(g: Graph, x, y, radius: Number):
    """Fewest radius-balls whose union meets every x-y path.

    A ball union meets every x-y path exactly when deleting it leaves no x-y
    path, so no path family is enumerated.  The implicit-hitting-set loop
    (:func:`graph._implicit_hitting_set`) asks a breadth-first search from x
    for a shortest x-y path in G minus the chosen balls, which meets x only
    at its start; the centers whose balls meet that path are the OR of its
    vertices' ball masks (distances are symmetric).  The balls around x
    always separate, so the loop ends without a cap.  Returns (count, chosen
    centers).
    """
    x = as_vertex_set(g, x).members
    y = as_vertex_set(g, y).members
    if not radius >= 0:  # NaN too
        raise InputError("negative radius")
    bit = g.vertex_bits()
    balls = _within(g, bit, radius)
    ball_of = dict(zip(g.vertices, balls))

    def missed(chosen: List[int]) -> List[int]:
        removed = 0
        for i in chosen:
            removed |= balls[i]
        left = {v for v, b in bit.items() if not removed & b}
        parent, hit = _bfs(g, sorted(x & left), left, y)
        if hit is None:
            return []
        balls_met = 0
        for v in _walk(parent, hit):
            balls_met |= ball_of[v]
        return [balls_met]

    chosen = _implicit_hitting_set(len(g), missed)
    return len(chosen), frozenset(g.vertices[i] for i in chosen)
