"""Separation enumeration, tangle axioms, and the trichotomy that either
hits a path family with few balls, splits the graph, or orients it.

Everything here is desk-scale and exhaustive: separations are generated by
choosing a separator and a bipartition of the leftover components, and every
returned tangle re-verifies its axioms against the full enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .covering import _ball_hitting
from .errors import (
    CapacityError,
    InputError,
    InternalInconsistencyError,
    PreconditionError,
)
from .graph import (
    CenteredRefusal,
    CenteredSet,
    Graph,
    Number,
    VertexSet,
    _components,
    _ratio,
    as_vertex_set,
    certify_centered,
    leq,
    neighborhood,
)
from .packing import far_conflicts, max_independent_set
from .trees import Separation

SEPARATION_VERTEX_CAP = 10
SEPARATION_ORDER_CAP = 4
DECOMPOSE_VERTEX_CAP = 10
DECOMPOSE_K_CAP = 3
DECOMPOSE_THETA_CAP = 3


def enumerate_separations(g: Graph, theta: int) -> List[Separation]:
    """All separations of order < theta, one canonical orientation per
    unordered pair, sorted deterministically.

    Generated by picking the separator and splitting the leftover components;
    separator-internal edges always sit on side A.
    """
    if theta < 0:
        raise InputError("negative order bound")
    if theta == 0:
        return []
    if len(g) > SEPARATION_VERTEX_CAP or theta > SEPARATION_ORDER_CAP:
        raise CapacityError(
            "separation enumeration is exponential; capped",
            cap=(SEPARATION_VERTEX_CAP, SEPARATION_ORDER_CAP),
            actual=(len(g), theta),
        )
    verts = sorted(g.vertices)
    seen = set()
    out = []
    for size in range(min(theta, len(verts) + 1)):
        for sep in itertools.combinations(verts, size):
            s = frozenset(sep)
            comps = [frozenset(c) for c in _components(g, g._vset - s)]
            for bits in range(1 << len(comps)):
                a = s.union(*(comps[i] for i in range(len(comps)) if bits >> i & 1)) \
                    if bits else s
                b = s.union(*(comps[i] for i in range(len(comps)) if not bits >> i & 1)) \
                    if bits != (1 << len(comps)) - 1 else s
                key = frozenset((a, b))
                if key in seen:
                    continue
                seen.add(key)
                ca, cb = sorted((a, b), key=lambda x: (len(x), sorted(x)))
                out.append(Separation(g, ca, cb))
    out.sort(key=lambda s: (s.order, len(s.a), sorted(s.a), sorted(s.b)))
    return out


# ---------------------------------------------------------------------------
# tangles


@dataclass(frozen=True)
class Tangle:
    host: Graph
    order: int
    members: Tuple[Separation, ...]

    def __post_init__(self):
        if self.order < 1:
            raise InputError("tangle order must be positive")
        for s in self.members:
            if s.order >= self.order:
                raise InputError("member separation order too high")

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "members": [[sorted(s.a), sorted(s.b)] for s in self.members],
        }


@dataclass
class TangleVerdict:
    ok: bool
    axiom: Optional[str] = None
    detail: Optional[object] = None

    def __bool__(self):
        return self.ok


def verify_tangle(g: Graph, t: Tangle) -> TangleVerdict:
    """Full axiom check against the complete separation enumeration."""
    vs = frozenset(g.vertices)
    for s in t.members:
        if s.a | s.b != vs:
            return TangleVerdict(False, "T1", "member is not a separation of the host")
    return _verify(g, t, enumerate_separations(g, t.order))


def _verify(g: Graph, t: Tangle, seps: Sequence[Separation]) -> TangleVerdict:
    """The axioms of ``t``, whose members are separations of ``g``, with
    ``seps`` the separations of ``g`` of order below ``t.order``."""
    keys = {(s.a, s.b) for s in t.members}
    for s in seps:
        fwd = (s.a, s.b) in keys
        bwd = (s.b, s.a) in keys
        if fwd == bwd:
            return TangleVerdict(
                False, "T1",
                {"separation": s.to_json_dict(),
                 "oriented": "both" if fwd else "neither"},
            )
    vs = frozenset(g.vertices)
    for trio in itertools.combinations_with_replacement(t.members, 3):
        sides = [s.a for s in trio]
        if frozenset().union(*sides) != vs:
            continue
        if all(any(u in a and v in a for a in sides) for u, v in g.edges):
            return TangleVerdict(
                False, "T2", [sorted(a) for a in sides]
            )
    for s in t.members:
        if s.a == vs:
            return TangleVerdict(False, "T3", s.to_json_dict())
    return TangleVerdict(True)


# ---------------------------------------------------------------------------
# the family-driven tangle


@dataclass(frozen=True)
class TangleRefusal:
    reason: str
    detail: Optional[object] = None


def _far_members(fam: Sequence[frozenset], avoid: frozenset):
    """Members whose vertex sets avoid ``avoid`` (the family minus a set)."""
    return [f for f in fam if not (f & avoid)]


def _sides(g: Graph, seps: Sequence[Separation], far: Sequence[frozenset],
           r_prime: Number):
    """Per separation ``s``, ``(s, in_a, in_b)``: the far members inside each
    side, less the separator's r'-shadow."""
    for s in seps:
        shadow = neighborhood(g, s.separator, r_prime).members
        a, b = s.a - shadow, s.b - shadow
        yield s, [f for f in far if f <= a], [f for f in far if f <= b]


def _max_far_count(g: Graph, members: Sequence[frozenset], r: Number) -> int:
    """Maximum number of members pairwise at distance at least r in g."""
    return len(max_independent_set(far_conflicts(g, members, r))[0])


def _check_family(sub: Graph, l: VertexSet, fam) -> List[frozenset]:
    """The family's members as sets, each nonempty and connected in ``sub``,
    the subgraph induced on ``l``."""
    clean = []
    for f in fam:
        f = frozenset(f)
        if not f or not f <= l.members:
            raise InputError("family member empty or outside the subgraph")
        if not sub.is_connected_set(f):
            raise InputError(f"family member {sorted(f)} is disconnected")
        clean.append(f)
    return clean


def build_gfrtz_tangle(
    g: Graph, l, fam, r_prime: Number, theta: int, z
):
    """The family-defined orientation: point each small-order separation of
    the subgraph at the side whose fattening-free part still holds a far
    member.  Returns the verified tangle, or a refusal naming the failed
    axiom (meaning one of the other trichotomy outcomes applies)."""
    l = as_vertex_set(g, l)
    z = as_vertex_set(g, z)
    sub = g.induced(l.members)
    members = _check_family(sub, l, fam)
    return _orient(g, sub, members, r_prime, theta, z,
                   enumerate_separations(sub, theta))


def _orient(g: Graph, sub: Graph, members: Sequence[frozenset],
            r_prime: Number, theta: int, z, seps: Sequence[Separation]):
    """:func:`build_gfrtz_tangle` on checked members, with ``seps`` the
    separations of ``sub`` of order below ``theta``."""
    far = _far_members(members, neighborhood(g, z, r_prime).members)
    chosen = []
    for s, in_a, in_b in _sides(g, seps, far, r_prime):
        if not in_a and in_b:
            chosen.append(s)
        elif not in_b and in_a:
            chosen.append(s.flip())
    t = Tangle(sub, theta, tuple(chosen))
    verdict = _verify(sub, t, seps)
    if not verdict:
        return TangleRefusal(f"axiom {verdict.axiom} fails", verdict.detail)
    return t


# ---------------------------------------------------------------------------
# the trichotomy


@dataclass
class TrichotomyResult:
    outcome: int  # 1 | 2 | 3
    z_star: Optional[frozenset] = None
    centered: Optional[CenteredSet] = None
    separation: Optional[Separation] = None
    tangle: Optional[Tangle] = None


def _check_premises(g: Graph, l: VertexSet, fam, k: int, r: Number,
                    r_prime: Number, z: VertexSet, xi: int, eta: Number):
    """The premises that the trichotomy and the decomposition share: r' >=
    r/2, the subgraph's boundary inside z, z (xi, eta)-centered, a valid
    family, and fewer than k members pairwise r-far.  Returns z's
    certificate, the subgraph induced on l and the checked members."""
    if not leq(r, 2 * r_prime):  # r' >= r/2
        raise PreconditionError("need r' >= r/2",
                                detail={"r": r, "r_prime": r_prime})
    boundary = frozenset(
        n for v in l.members for n in g.neighbors(v) if n not in l.members
    )
    if not boundary <= z.members:
        raise PreconditionError(
            "boundary of the subgraph not inside z",
            detail=sorted(boundary - z.members),
        )
    z_cert = certify_centered(g, z, xi, eta, "exact")
    if isinstance(z_cert, CenteredRefusal):
        raise PreconditionError(f"z is not ({xi},{eta})-centered")
    sub = g.induced(l.members)
    members = _check_family(sub, l, fam)
    if _max_far_count(g, members, r) >= k:
        raise PreconditionError(
            f"{k} members pairwise {r}-far exist; the dichotomy premise fails"
        )
    return z_cert, sub, members


def easy_tangle_trichotomy(
    g: Graph,
    l,
    fam,
    k: int,
    theta: int,
    r: Number,
    r_prime: Number,
    z,
    xi: int,
    eta: Number,
) -> TrichotomyResult:
    """Exactly one of: a centered hitting set within the stated budgets, a
    balanced small-order separation, or the family-defined tangle.

    All hypotheses are re-verified; if no outcome validates, an internal
    inconsistency is raised — that case is mathematically impossible and is
    treated as an implementation bug, never absorbed.
    """
    l = as_vertex_set(g, l)
    z = as_vertex_set(g, z)
    if k < 1 or theta < 1:
        raise InputError("need k >= 1 and theta >= 1")
    r, r_prime, eta = _ratio(r), _ratio(r_prime), _ratio(eta)  # exact from here on
    z_cert, sub, members = _check_premises(g, l, fam, k, r, r_prime, z, xi, eta)

    fat_z = neighborhood(g, z, r_prime).members
    far = _far_members(members, fat_z)

    # outcome 1: few extra balls hit every far member
    cover = _ball_hitting(g, far, r_prime, 3 * theta - 3)
    if cover is not None:
        centers = cover.centered.centers.members
        extra = neighborhood(g, centers, r_prime).members & l.members
        z_star = fat_z | extra
        all_centers = frozenset(z_cert.centers.members) | centers
        cert = CenteredSet(
            VertexSet(z_star, g), VertexSet(all_centers, g), eta + r_prime
        )
        for f in members:
            if not z_star & f:
                raise InternalInconsistencyError(
                    "outcome-1 set misses a member"
                )
        if cert.center_count > xi + 3 * theta - 3:
            raise InternalInconsistencyError("outcome-1 budget exceeded")
        return TrichotomyResult(1, z_star=z_star, centered=cert)

    # outcome 2: a separation with both fattened sides short of k-1 far members
    seps = enumerate_separations(sub, theta)
    for s, in_a, in_b in _sides(g, seps, far, r_prime):
        if _max_far_count(g, in_a, r) < k - 1 and _max_far_count(g, in_b, r) < k - 1:
            return TrichotomyResult(2, separation=s)

    # outcome 3: the family-defined tangle
    t = _orient(g, sub, members, r_prime, theta, z, seps)
    if isinstance(t, TangleRefusal):
        raise InternalInconsistencyError(
            f"no trichotomy outcome validates: {t.reason}"
        )
    return TrichotomyResult(3, tangle=t)


# ---------------------------------------------------------------------------
# recursive decomposition


@dataclass(frozen=True)
class HPiece:
    """One residual subgraph: small-order separations cannot split it away
    from its far members, witnessed by a tangle of the stated order."""

    vertices: frozenset
    i_h: int
    z_h: frozenset
    tangle: Optional[Tangle] = None

    def to_json_dict(self) -> dict:
        doc = {
            "vertices": sorted(self.vertices),
            "theta_index": self.i_h,
            "z_h": sorted(self.z_h),
        }
        if self.tangle is not None:
            doc["tangle"] = self.tangle.to_json_dict()
        return doc


@dataclass
class TangleDecomposition:
    z_star: frozenset
    centered: CenteredSet
    #: certificate for the part of z_star beyond the doubly-fattened input set
    fresh_centered: Optional[CenteredSet]
    pieces: Tuple[HPiece, ...]

    def to_json_dict(self) -> dict:
        return {
            "z_star": sorted(self.z_star),
            "center_count": self.centered.center_count,
            "radius": self.centered.radius,
            "pieces": [p.to_json_dict() for p in self.pieces],
        }


def _theta_budget(thetas: Sequence[int], upto: int) -> int:
    """3*t1 - 3 + 2 * sum over t2..t_upto of (3*t - 3)."""
    b = 3 * thetas[0] - 3
    for i in range(1, min(upto, len(thetas))):
        b += 2 * (3 * thetas[i] - 3)
    return b


def _certify_or_raise(g: Graph, z: frozenset, k: int, radius: Number,
                      what: str) -> CenteredSet:
    cert = certify_centered(g, z, k, radius, "exact")
    if isinstance(cert, CenteredRefusal):
        raise InternalInconsistencyError(
            f"{what}: claimed ({k},{radius})-centeredness fails"
        )
    return cert


def tangle_decompose(
    g: Graph,
    l,
    fam,
    k: int,
    thetas: Sequence[int],
    r: Number,
    r_prime: Number,
    z,
    xi: int,
    eta: Number,
) -> TangleDecomposition:
    """Split off at most k-1 tangle-bearing residual subgraphs while growing a
    centered set that hits every family member outside them.

    The recursion alternates: either a few extra balls already hit every far
    member, or the family orients the subgraph (one residual piece or a
    shrinking step), or a balanced separation splits the problem in two with
    a shortened order sequence on each side.  Every conclusion — centeredness
    budgets, hitting, per-piece tangles and component absorption — is
    re-verified before returning.
    """
    l = as_vertex_set(g, l)
    z = as_vertex_set(g, z)
    if k < 1:
        raise InputError("k must be positive")
    if len(thetas) != k:
        raise InputError(f"need exactly k={k} order parameters")
    if any(t < 1 for t in thetas) or list(thetas) != sorted(thetas):
        raise InputError("orders must be a nondecreasing positive sequence")
    if len(l) > DECOMPOSE_VERTEX_CAP or k > DECOMPOSE_K_CAP \
            or max(thetas) > DECOMPOSE_THETA_CAP:
        raise CapacityError(
            "decomposition is exhaustive at every level; capped",
            cap=(DECOMPOSE_VERTEX_CAP, DECOMPOSE_K_CAP, DECOMPOSE_THETA_CAP),
            actual=(len(l), k, max(thetas)),
        )
    r, r_prime, eta = _ratio(r), _ratio(r_prime), _ratio(eta)  # exact from here on
    z_cert, sub_l, members = _check_premises(g, l, fam, k, r, r_prime, z, xi, eta)
    r2 = 2 * r_prime

    def fatten(s: frozenset, radius: Number) -> frozenset:
        return neighborhood(g, s, radius).members

    def recurse(lv: frozenset, mem: List[frozenset], kk: int,
                ths: Sequence[int], zv: frozenset):
        """Returns (z_star, pieces) for the subproblem; indices in the
        returned pieces refer to the *local* order sequence ``ths``."""
        fat_z = fatten(zv, r_prime)
        if kk == 1:
            if mem:
                raise InternalInconsistencyError(
                    "single-order subproblem received a nonempty family"
                )
            return fat_z, []
        theta1 = ths[0]
        far = _far_members(mem, fat_z)

        # few extra balls hit every far member
        cover = _ball_hitting(g, far, r_prime, 3 * theta1 - 3)
        if cover is not None:
            extra = neighborhood(g, cover.centered.centers.members, r_prime).members & lv
            return fat_z | extra, []

        sub = sub_l if lv == l.members else g.induced(lv)
        seps = enumerate_separations(sub, theta1)
        t = _orient(g, sub, mem, r_prime, theta1, zv, seps)
        if isinstance(t, Tangle):
            t2 = _orient(g, sub, mem, r_prime, theta1, fat_z, seps)
            if isinstance(t2, Tangle):
                # residual piece: the one component every far member lives in
                homes = [
                    frozenset(c) for c in sub.components()
                    if any(f <= frozenset(c) for f in far)
                ]
                if len(homes) != 1:
                    raise InternalInconsistencyError(
                        "tangle exists but far members are not confined to a"
                        " single component"
                    )
                return fat_z, [HPiece(homes[0], 0, fat_z)]
            # shrink: some oriented separation has no doubly-far member on
            # its big side; its fattened separator then meets every member
            far2 = _far_members(mem, fatten(zv, r2))
            for s in t.members:
                shadow = fatten(s.separator, r_prime)
                if not any(f <= s.b - shadow for f in far2):
                    z_star = ((fatten(zv, r2) | shadow) & lv) | fat_z
                    return z_star, []
            raise InternalInconsistencyError(
                "orientation exists for the input set but not its fattening,"
                " yet no shrinking separation was found"
            )

        # split: both fattened sides fall short of the packing number
        nu = _max_far_count(g, mem, r)
        split = next((s for s, in_a, in_b in _sides(g, seps, far, r_prime)
                      if _max_far_count(g, in_a, r) < nu
                      and _max_far_count(g, in_b, r) < nu), None)
        if split is None:
            raise InternalInconsistencyError(
                "no hitting set, no tangle, and no balanced separation"
            )

        z_prime = zv | split.separator
        fat_zp = fatten(z_prime, r_prime)
        pieces: List[HPiece] = []
        z_star = frozenset()
        counts = []
        for side in (split.a, split.b):
            side_l = side - split.separator
            side_mem = [f for f in mem if f <= side_l and not f & fat_zp]
            cnt = _max_far_count(g, side_mem, r)
            counts.append(cnt)
            if cnt > kk - 2:
                raise InternalInconsistencyError(
                    "split side still packs too many far members"
                )
            if cnt == 0:
                z_side = fat_zp
                side_pieces: List[HPiece] = []
            else:
                z_side, side_pieces = recurse(
                    side_l, side_mem, cnt + 1, ths[1:cnt + 2], z_prime
                )
            z_star |= z_side
            pieces.extend(
                HPiece(p.vertices, p.i_h + 1, p.z_h, p.tangle)
                for p in side_pieces
            )
        if sum(counts) > nu - 1:
            raise InternalInconsistencyError(
                "split sides jointly pack too many far members"
            )
        return z_star, pieces

    z_star, raw_pieces = recurse(l.members, members, k, list(thetas), z.members)

    # --- re-verify every conclusion ---
    fat_z = fatten(z.members, r_prime)
    fat2_z = fatten(z.members, r2)
    if not (fat_z <= z_star and z_star <= fat_z | l.members):
        raise InternalInconsistencyError("z_star escapes its sandwich bounds")
    if len(raw_pieces) > k - 1:
        raise InternalInconsistencyError("too many residual pieces")
    for p, q in itertools.combinations(raw_pieces, 2):
        if p.vertices & q.vertices:
            raise InternalInconsistencyError("residual pieces overlap")

    fresh_budget = _theta_budget(thetas, k - 1)
    fresh_cert = _certify_or_raise(
        g, z_star - fat2_z, fresh_budget, r2, "fresh part of z_star"
    )
    full_cert = CenteredSet(
        VertexSet(z_star, g),
        VertexSet(z_cert.centers.members | fresh_cert.centers.members, g),
        eta + r2,
    )
    if full_cert.center_count > xi + fresh_budget:
        raise InternalInconsistencyError("z_star center budget exceeded")

    piece_union = frozenset().union(*(p.vertices for p in raw_pieces)) \
        if raw_pieces else frozenset()
    for f in members:
        if not f & z_star and not f <= piece_union:
            raise InternalInconsistencyError(
                "a member escapes both z_star and the residual pieces"
            )

    leftover = [frozenset(c) for c in _components(g, l.members - z_star)]
    final_pieces = []
    for p in raw_pieces:
        if not sub_l.is_connected_set(p.vertices):
            raise InternalInconsistencyError("residual piece is disconnected")
        inside = [f for f in members if f <= p.vertices]
        nu_h = _max_far_count(g, inside, r)
        if not 0 <= p.i_h <= max(nu_h, 0):
            raise InternalInconsistencyError("piece order index out of range")
        # the centered set attached to the piece
        need = frozenset(
            n for v in p.vertices for n in g.neighbors(v)
            if n not in p.vertices
        ) | ((z_star & p.vertices) - fat_z)
        if not need <= p.z_h or not p.z_h <= z_star:
            raise InternalInconsistencyError("piece boundary set out of bounds")
        if p.i_h == 0:
            if p.z_h - fat2_z:
                raise InternalInconsistencyError(
                    "index-0 piece has fresh boundary vertices"
                )
        else:
            _certify_or_raise(
                g, p.z_h - fat2_z, _theta_budget(thetas, p.i_h),
                r2, "piece boundary"
            )
        # component absorption
        for c in leftover:
            if p.vertices & c and not c <= p.vertices:
                raise InternalInconsistencyError(
                    "piece cuts through a leftover component"
                )
        # the tangle survives relative to the final set
        t = build_gfrtz_tangle(g, p.vertices, inside, r_prime,
                               thetas[min(p.i_h, k - 1)], z_star)
        if isinstance(t, TangleRefusal):
            raise InternalInconsistencyError(
                f"piece tangle fails relative to z_star: {t.reason}"
            )
        final_pieces.append(HPiece(p.vertices, p.i_h, p.z_h, t))

    return TangleDecomposition(z_star, full_cert, fresh_cert,
                               tuple(final_pieces))
