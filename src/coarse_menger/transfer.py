"""Moving witnesses and hitting sets across quasi-isometries and metric
scalings, with the exact constants spelled out as pure arithmetic.

Witness functions travel as closures paired with a human-readable formula so
reports can display the composed bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import index
from typing import Callable, Dict, Mapping, Optional, Tuple

from .errors import CapacityError, InputError, PreconditionError
from .graph import (
    INF,
    Graph,
    Number,
    VertexSet,
    _exact_distance,
    _json_num,
    _ratio,
    as_vertex_set,
    leq,
    neighborhood,
)
from .paths import ENUM_VERTEX_LIMIT, enumerate_chordless_paths

VERIFY_PAIRS_CAP = 32


@dataclass(frozen=True)
class QuasiIsometry:
    """A vertex map with multiplicative stretch m and additive slack a."""

    map: Mapping[int, int]
    m: Number
    a: Number

    def __post_init__(self):
        if not (self.m >= 1 and self.a >= 0):  # NaN too
            raise InputError("need m >= 1 and a >= 0")

    def to_json_dict(self) -> dict:
        return {
            "map": [[s, t] for s, t in sorted(self.map.items())],
            "m": _json_num(self.m),
            "a": _json_num(self.a),
        }


def quasi_isometry_from_json_dict(doc: dict) -> QuasiIsometry:
    try:
        return QuasiIsometry({index(s): index(t) for s, t in doc["map"]},
                             _parse_num(doc["m"]), _parse_num(doc["a"]))
    except KeyError as exc:
        raise InputError(f"quasi-isometry document lacks {exc}") from None
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad quasi-isometry document: {exc}") from None


def _parse_num(x):
    return Fraction(x) if isinstance(x, str) else x


@dataclass
class QuasiIsometryVerdict:
    ok: bool
    upper_ok: bool
    lower_ok: bool
    coverage_ok: bool
    #: smallest additive slack making the map an (m, a)-quasi-isometry for
    #: the declared m; None when no finite slack works
    tightest_a: Optional[Number]
    worst_pair: Optional[Tuple[int, int]] = None

    def __bool__(self):
        return self.ok


def _check_total(src: Graph, tgt: Graph, q: QuasiIsometry):
    """Every source vertex has an image, and every image is a target vertex."""
    for v in src.vertices:
        if v not in q.map:
            raise InputError(f"map is not total: {v} has no image")
        tgt._require_vertex(q.map[v])


def verify_quasi_isometry(src: Graph, tgt: Graph, q: QuasiIsometry) -> QuasiIsometryVerdict:
    """Exhaustive check of both distance bounds and target coverage.  The
    distances (:func:`graph._exact_distance`) and the slacks, the tightest
    one too, are exact."""
    if len(src) > VERIFY_PAIRS_CAP or len(tgt) > VERIFY_PAIRS_CAP:
        raise CapacityError(
            "all-pairs verification capped",
            cap=VERIFY_PAIRS_CAP,
            actual=max(len(src), len(tgt)),
        )
    _check_total(src, tgt, q)

    m = _ratio(q.m)
    needed_a = 0
    worst = None
    upper_ok = lower_ok = True
    verts = sorted(src.vertices)
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            ds = _exact_distance(src, [u], [v])
            dt = _exact_distance(tgt, [q.map[u]], [q.map[v]])
            if (ds == INF) != (dt == INF):
                return QuasiIsometryVerdict(False, False, False, False, None, (u, v))
            if ds == INF:
                continue
            over = dt - m * ds                # upper bound slack needed
            under = Fraction(ds) / m - dt     # lower bound slack needed
            gap = max(over, under)
            if gap > needed_a:
                needed_a, worst = gap, (u, v)
            if not leq(over, q.a):
                upper_ok = False
            if not leq(under, q.a):
                lower_ok = False

    image = frozenset(q.map[v] for v in src.vertices)
    coverage_ok = True
    for y in tgt.vertices:
        d = _exact_distance(tgt, [y], image)
        if d > needed_a:
            needed_a, worst = d, (y, y)
        if not leq(d, q.a):
            coverage_ok = False

    ok = upper_ok and lower_ok and coverage_ok
    return QuasiIsometryVerdict(ok, upper_ok, lower_ok, coverage_ok,
                                needed_a, worst)


# ---------------------------------------------------------------------------
# witness calculus


@dataclass(frozen=True)
class WitnessFunctions:
    """Count bound f(k, r, l) and radius bound g(k, r, l) as closures plus a
    display formula."""

    f: Callable[..., Number]
    g: Callable[..., Number]
    provenance: str = ""


def constant_witness(count: Number, radius: Number) -> WitnessFunctions:
    return WitnessFunctions(
        lambda k, r, l=0: count,
        lambda k, r, l=0: radius,
        f"f≡{count}, g≡{radius}",
    )


def transfer_constants(m: Number, a: Number) -> Tuple[Number, Number]:
    """The two additive constants of the quasi-isometry transfer."""
    if not (m >= 1 and a >= 0):  # NaN too
        raise InputError("need m >= 1 and a >= 0")
    c1 = 2 * m * m * (3 * a + 1) + 2 * m + 3 * a
    c2 = (m + 8 * a + 1) * m + 2
    return c1, c2


def transfer_chain(m: Number, a: Number, w: WitnessFunctions,
                   k: int, r: Number, l: Number) -> Dict[str, Number]:
    """Every intermediate of the transferred remote witness, by name."""
    r1 = 2 * m * m * (3 * a + 1) + (2 + r) * m + 3 * a
    l1 = m * l + 3 * a
    xi1 = w.f(k, r1, l1)
    eta1 = w.g(k, r1, l1)
    eta2 = m * (2 * eta1 + 3 * a)
    eta3 = eta2 + m * (m + 2 * a + 1)
    l2 = (l1 + a) * m
    eta4 = 2 * l2 + 2 + r
    return {
        "r_prime": r1,
        "l_prime": l1,
        "xi1": xi1,
        "eta1": eta1,
        "eta2": eta2,
        "eta3": eta3,
        "l_double_prime": l2,
        "eta4": eta4,
        "f_out": xi1 + k - 1,
        "g_out": max(eta3, eta4),
    }


def transfer_witness(m: Number, a: Number, w: WitnessFunctions,
                     variant: str = "remote") -> WitnessFunctions:
    """Compose a witness through an (m, a)-quasi-isometry.

    ``remote`` runs the full chain; ``menger`` is the same with the endpoint
    separation pinned to zero; ``gallai`` uses the simpler two-parameter
    composition.
    """
    if not (m >= 1 and a >= 0):  # NaN too
        raise InputError("need m >= 1 and a >= 0")
    c1, c2 = transfer_constants(m, a)
    if variant == "remote":
        return WitnessFunctions(
            lambda k, r, l=0: transfer_chain(m, a, w, k, r, l)["f_out"],
            lambda k, r, l=0: transfer_chain(m, a, w, k, r, l)["g_out"],
            f"remote transfer (m={m}, a={a}) of [{w.provenance}]",
        )
    if variant == "menger":
        return WitnessFunctions(
            lambda k, r, l=0: transfer_chain(m, a, w, k, r, 0)["f_out"],
            lambda k, r, l=0: transfer_chain(m, a, w, k, r, 0)["g_out"],
            f"menger transfer (m={m}, a={a}) of [{w.provenance}]",
        )
    if variant == "gallai":
        return WitnessFunctions(
            lambda k, r, l=0: w.f(k, m * r + c1, 0),
            lambda k, r, l=0: 2 * m * w.g(k, m * r + c1, 0) + c2,
            f"gallai transfer (m={m}, a={a}) of [{w.provenance}]",
        )
    raise InputError(f"unknown variant {variant!r}")


def scale_witness(w: WitnessFunctions) -> WitnessFunctions:
    """Witness for a scaling-closed family: normalize the far threshold to 1
    and scale the radius back up."""
    return WitnessFunctions(
        lambda k, r, l=0: w.f(k, 1, Fraction(l) / Fraction(r)
                              if isinstance(l, (int, Fraction)) and isinstance(r, (int, Fraction))
                              else l / r),
        lambda k, r, l=0: w.g(k, 1, Fraction(l) / Fraction(r)
                              if isinstance(l, (int, Fraction)) and isinstance(r, (int, Fraction))
                              else l / r) * r,
        f"scaled [{w.provenance}]",
    )


# ---------------------------------------------------------------------------
# hitting-set pullback


def pullback_hitting_set(
    src: Graph,
    tgt: Graph,
    q: QuasiIsometry,
    z_target,
    k: int,
    r: Number,
    l: Number,
    a_set,
    b_set,
) -> VertexSet:
    """Pull a target hitting set back through the quasi-isometry.

    The result is the fattened set of preimage representatives together with
    a guard zone around a maximal far collection of short source paths; it
    hits every source path of the family (re-verified whenever the source is
    small enough to enumerate).
    """
    _check_total(src, tgt, q)
    z_target = as_vertex_set(tgt, z_target)
    a_vs = as_vertex_set(src, a_set)
    b_vs = as_vertex_set(src, b_set)
    m, a, l, r = _ratio(q.m), _ratio(q.a), _ratio(l), _ratio(r)  # exact from here on

    l1 = m * l + 3 * a
    ia = frozenset(q.map[v] for v in a_vs.members)
    ib = frozenset(q.map[v] for v in b_vs.members)
    if len(tgt) <= ENUM_VERTEX_LIMIT:
        tgt_paths = enumerate_chordless_paths(tgt, l1, ia, ib, cap=None)
        for p in tgt_paths.paths:
            if not p.vertex_set & z_target.members:
                raise PreconditionError(
                    "target set misses a target path",
                    detail=list(p.sequence),
                )

    # preimage representatives: lowest id among those mapping closest
    reps = set()
    src_verts = sorted(src.vertices)
    for y in sorted(z_target.members):
        best = None
        for x in src_verts:
            d = _exact_distance(tgt, [q.map[x]], [y])
            if leq(d, a) and (best is None or d < best[1]):
                best = (x, d)
        if best is not None:
            reps.add(best[0])
    z3 = neighborhood(src, frozenset(reps), m * (m + 2 * a + 1)).members \
        if reps else frozenset()

    # maximal pairwise-far collection of short near-geodesic paths
    l2 = (l1 + a) * m
    chosen = []
    enum = enumerate_chordless_paths(src, l, a_vs, b_vs, cap=None)
    for p in enum.paths:
        d = _exact_distance(src, [p.end_a], [p.end_b])
        if not (leq(l, d) and d < l2 and p.length <= d + 1):
            continue
        if all(leq(r, _exact_distance(src, p.vertex_set, c.vertex_set)) for c in chosen):
            chosen.append(p)
    union = frozenset().union(*(p.vertex_set for p in chosen)) \
        if chosen else frozenset()
    z4 = neighborhood(src, union, r + l2 + 1).members if union else frozenset()

    out = VertexSet(z3 | z4, src)
    for p in enum.paths:
        if not p.vertex_set & out.members:
            raise PreconditionError(
                "pulled-back set misses a source path",
                detail=list(p.sequence),
            )
    return out


# ---------------------------------------------------------------------------
# metric surgery


def scale_metric(g: Graph, lam: Number) -> Graph:
    """Multiply every edge weight by ``lam``; all distances scale exactly."""
    if not lam > 0:
        raise InputError("scale factor must be positive")
    weights = {e: g.edge_weight(*e) * lam for e in g.edges}
    return Graph(g.vertices, g.edges, weights)


def subdivide_to_unit(g: Graph) -> Graph:
    """Replace each edge of weight w by ceil(w) edges of weight w/ceil(w),
    preserving all distances between original vertices."""
    vertices = list(g.vertices)
    edges = []
    weights = {}
    fresh = max(g.vertices, default=-1) + 1
    for e in g.edges:
        w = g.edge_weight(*e)
        if not w > 0:
            raise InputError("weights must be positive")
        n = math.ceil(w)
        if n <= 1:
            edges.append(e)
            weights[e] = w
            continue
        piece = Fraction(w) / n if isinstance(w, (int, Fraction)) else w / n
        chain = [e[0]] + [fresh + i for i in range(n - 1)] + [e[1]]
        fresh += n - 1
        vertices.extend(chain[1:-1])
        for u, v in zip(chain, chain[1:]):
            edges.append((u, v))
            weights[(u, v)] = piece
    return Graph(vertices, edges, weights)


# ---------------------------------------------------------------------------
# the coefficient ledger


@dataclass(frozen=True)
class CHBound:
    coefficient: Optional[Number]
    #: the planar case improves the cover radius itself instead of the
    #: coefficient
    radius_halved: bool = False

    def to_json_dict(self) -> dict:
        return {"coefficient": self.coefficient,
                "radius_halved": self.radius_halved}


def c_h_ledger(descriptor: Mapping[str, object]) -> CHBound:
    """Promised radius-coefficient bounds by excluded-pattern class."""
    finite = bool(descriptor.get("finite", True))
    planar = bool(descriptor.get("planar", False))
    apex = bool(descriptor.get("apex", False))
    special = descriptor.get("special")
    genus = descriptor.get("genus_bound")

    if special is not None:
        if planar or apex or genus is not None:
            raise InputError("special class excludes other descriptors")
        if special == "linkless":
            return CHBound(22 if finite else 60)
        if special == "knotless":
            return CHBound(30 if finite else 68)
        raise InputError(f"unknown special class {special!r}")
    if planar:
        if genus not in (None, 0):
            raise InputError("planar pattern has genus 0")
        if apex:
            raise InputError("choose one of planar or apex")
        if finite:
            return CHBound(None, radius_halved=True)
        return CHBound(8 * 0 + 44)
    if apex:
        if not finite:
            raise InputError("apex bound stated for finite patterns only")
        return CHBound(14)
    if genus is None or genus < 0:
        raise InputError("need a nonnegative genus bound")
    if finite:
        return CHBound(4 * genus + 22)
    return CHBound(8 * genus + 44)
