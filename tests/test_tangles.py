import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_menger.errors import (
    CapacityError,
    InputError,
    InternalInconsistencyError,
    PreconditionError,
)
from coarse_menger.graph import Graph, certify_centered, neighborhood, set_distance
from coarse_menger.graph import CenteredSet
from coarse_menger import tangles
from coarse_menger.tangles import (
    Tangle,
    TangleRefusal,
    build_gfrtz_tangle,
    easy_tangle_trichotomy,
    enumerate_separations,
    tangle_decompose,
    verify_tangle,
)
from coarse_menger.trees import Separation

from conftest import path_graph, random_connected
from set_oracles import gfrtz_orientation


def two_cliques(bridge_len=3):
    """Two K4's joined by a path — the classic two-tangle host."""
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(i, j) for i in range(10, 14) for j in range(i + 1, 14) if i != j]
    # bridge 3 - 4 - ... - 10
    prev = 3
    for v in range(4, 4 + bridge_len):
        edges.append((prev, v))
        prev = v
    edges.append((prev, 10))
    verts = list(range(4)) + list(range(4, 4 + bridge_len)) + list(range(10, 14))
    return Graph(verts, edges)


def test_enumerate_separations_on_p4():
    g = path_graph(4)
    seps = enumerate_separations(g, 2)
    # every separation has order < 2 and is canonically oriented once
    assert all(s.order < 2 for s in seps)
    keys = {(s.a, s.b) for s in seps}
    assert len(keys) == len(seps)
    for s in seps:
        assert (s.b, s.a) not in keys or s.a == s.b


def test_enumerate_separations_capacity():
    g = path_graph(12)
    with pytest.raises(CapacityError):
        enumerate_separations(g, 2)


def test_tangle_orders_members():
    g = path_graph(3)
    with pytest.raises(InputError):
        Tangle(g, 1, (Separation(g, frozenset([0, 1]), frozenset([1, 2])),))


def test_verify_tangle_on_two_clique_host():
    g = two_cliques(1)
    # orient every small separation towards the K4 on vertices 10..13
    members = []
    for s in enumerate_separations(g, 2):
        if frozenset(range(10, 14)) <= s.b:
            members.append(s)
        else:
            members.append(s.flip())
    t = Tangle(g, 2, tuple(members))
    assert verify_tangle(g, t)


def test_verify_tangle_detects_unoriented_separation():
    g = path_graph(4)
    t = Tangle(g, 2, ())
    verdict = verify_tangle(g, t)
    assert not verdict and verdict.axiom == "T1"


def test_verify_tangle_detects_big_side_everything():
    g = Graph([0, 1], [(0, 1)])
    whole = frozenset([0, 1])
    members = tuple(
        s if s.a == whole else s.flip() if s.b == whole else s
        for s in enumerate_separations(g, 2)
    )
    # orienting the trivial separation with A = V violates T3 (or T1 first)
    t = Tangle(g, 2, tuple(m for m in members if m.a == whole))
    verdict = verify_tangle(g, t)
    assert not verdict


def family_around(g, vertices):
    return [frozenset([v]) for v in vertices]


def test_build_family_tangle_on_two_cliques():
    g = two_cliques(1)
    fam = family_around(g, range(10, 14))
    t = build_gfrtz_tangle(g, frozenset(g.vertices), fam, r_prime=0, theta=2,
                           z=frozenset())
    assert isinstance(t, Tangle)
    assert verify_tangle(g, t)
    # every member keeps the clique-side family on its big side
    for s in t.members:
        assert any(m <= s.b for m in fam)


def test_build_family_tangle_refusal_when_family_splits():
    g = two_cliques(1)
    fam = family_around(g, [0, 13])  # one member in each clique
    t = build_gfrtz_tangle(g, frozenset(g.vertices), fam, r_prime=0, theta=2,
                           z=frozenset())
    assert isinstance(t, TangleRefusal)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.sampled_from([0.3, 0.7]),
       st.sampled_from([1, 2, 3]), st.sampled_from([0, 1]),
       st.integers(min_value=0, max_value=10**6))
def test_gfrtz_members_match_the_two_orientation_oracle(n, p, theta, r_prime, seed):
    rng = random.Random(seed)
    g = random_connected(rng, n, p)
    vs = sorted(g.vertices)
    l = frozenset(g.induced(rng.sample(vs, rng.randint(max(1, n - 2), n))).components()[0])
    z = frozenset(rng.sample(vs, rng.randint(0, 1)))
    fam = [frozenset([v]) for v in rng.sample(sorted(l), rng.randint(1, len(l)))]
    fam += [frozenset(e) for e in g.induced(l).edges[:rng.randint(0, 2)]]
    t = build_gfrtz_tangle(g, l, fam, r_prime, theta, z)
    oracle = Tangle(g.induced(l), theta, tuple(gfrtz_orientation(g, l, fam, r_prime, theta, z)))
    if isinstance(t, Tangle):
        assert t == oracle
    else:
        verdict = verify_tangle(oracle.host, oracle)
        assert not verdict and t.reason == f"axiom {verdict.axiom} fails"
        assert t.detail == verdict.detail


# ---------------------------------------------------------------------------
# trichotomy


def test_trichotomy_precondition_r_prime():
    g = path_graph(4)
    with pytest.raises(PreconditionError):
        easy_tangle_trichotomy(g, frozenset(g.vertices), [], k=1, theta=1,
                               r=4, r_prime=1, z=frozenset(), xi=1, eta=0)


#: keyword arguments that break one premise of a valid instance on P7
#: (l = {1..5}, z = {0, 6} its boundary, one member, k = 2, r = 2, r' = 1)
BROKEN_PREMISES = {
    "r_prime": {"r_prime": 0.5},
    "boundary": {"z": frozenset([0])},
    "centered": {"xi": 1},
    "far_members": {"fam": [frozenset([1]), frozenset([5])]},
}


@pytest.mark.parametrize("premise", sorted(BROKEN_PREMISES))
def test_both_tangle_entry_points_check_the_same_premises(premise):
    g = path_graph(7)
    kwargs = dict(l=frozenset(range(1, 6)), fam=[frozenset([2, 3])], k=2, r=2,
                  r_prime=1, z=frozenset([0, 6]), xi=2, eta=0)
    easy_tangle_trichotomy(g, theta=1, **kwargs)
    tangle_decompose(g, thetas=[1, 1], **kwargs)
    kwargs.update(BROKEN_PREMISES[premise])
    with pytest.raises(PreconditionError) as tri:
        easy_tangle_trichotomy(g, theta=1, **kwargs)
    with pytest.raises(PreconditionError) as dec:
        tangle_decompose(g, thetas=[1, 1], **kwargs)
    assert str(tri.value) == str(dec.value)


def test_one_trichotomy_or_decomposition_step_induces_and_enumerates_once(monkeypatch):
    # the valid P7 instance above: with theta = 1 no ball fits the budget and
    # no order-0 separation splits the member off, so the trichotomy ends in
    # outcome 3, and the decomposition shrinks z in one step
    g = path_graph(7)
    kwargs = dict(l=frozenset(range(1, 6)), fam=[frozenset([2, 3])], k=2, r=2,
                  r_prime=1, z=frozenset([0, 6]), xi=2, eta=0)
    calls = {"induced": 0, "enumerate": 0}
    induced, enumerate_ = Graph.induced, tangles.enumerate_separations

    def counted_induced(self, vs):
        calls["induced"] += self is g
        return induced(self, vs)

    def counted_enumerate(sub, theta):
        calls["enumerate"] += 1
        return enumerate_(sub, theta)

    monkeypatch.setattr(Graph, "induced", counted_induced)
    monkeypatch.setattr(tangles, "enumerate_separations", counted_enumerate)
    assert easy_tangle_trichotomy(g, theta=1, **kwargs).outcome == 3
    assert calls == {"induced": 1, "enumerate": 1}
    calls.update(induced=0, enumerate=0)
    assert tangle_decompose(g, thetas=[1, 1], **kwargs).pieces == ()
    assert calls == {"induced": 1, "enumerate": 1}


def test_decompose_certifies_an_empty_z():
    # a negative center count is an input error even with nothing to certify
    g = path_graph(4)
    with pytest.raises(InputError):
        tangle_decompose(g, frozenset(g.vertices), [], k=1, thetas=[1], r=2,
                         r_prime=1, z=frozenset(), xi=-1, eta=0)


def test_trichotomy_hitting_outcome():
    g = path_graph(7)
    fam = [frozenset([2, 3]), frozenset([3, 4])]
    res = easy_tangle_trichotomy(g, frozenset(g.vertices), fam, k=2, theta=2,
                                 r=2, r_prime=1, z=frozenset(), xi=1, eta=0)
    assert res.outcome == 1
    assert isinstance(res.centered, CenteredSet)
    for m in fam:
        assert res.z_star & m


def test_trichotomy_never_silently_fails():
    rng = random.Random(99)
    outcomes = set()
    done = 0
    while done < 60:
        g = random_connected(rng, rng.randint(4, 8))
        l_verts = frozenset(rng.sample(g.vertices, max(2, len(g.vertices) - 2)))
        comps = [c for c in g.induced(l_verts).components()]
        if not comps:
            continue
        l_verts = frozenset(comps[0])
        z = neighborhood(g, l_verts, 1).members - l_verts | frozenset()
        z = frozenset(v for v in g.vertices if v not in l_verts
                      and any(n in l_verts for n in g.neighbors(v)))
        fam = [frozenset([v]) for v in sorted(l_verts)[:3]]
        k, theta, r, rp = 2, 2, 2, 1
        xi = max(1, len(z))
        # drop instances whose hypotheses fail; the rest must resolve
        try:
            res = easy_tangle_trichotomy(g, l_verts, fam, k, theta, r, rp, z,
                                         xi, 0)
        except (PreconditionError, CapacityError):
            continue
        assert res.outcome in (1, 2, 3)
        if res.outcome == 3:
            assert verify_tangle(g, res.tangle)
        outcomes.add(res.outcome)
        done += 1
    assert 1 in outcomes


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_validates_theta_sequence():
    g = path_graph(4)
    with pytest.raises(InputError):
        tangle_decompose(g, frozenset(g.vertices), [], k=2, thetas=[2],
                         r=2, r_prime=1, z=frozenset(), xi=1, eta=0)
    with pytest.raises(InputError):
        tangle_decompose(g, frozenset(g.vertices), [], k=2, thetas=[3, 2],
                         r=2, r_prime=1, z=frozenset(), xi=1, eta=0)


def test_decompose_base_case_k1():
    g = path_graph(5)
    l = frozenset([1, 2, 3])
    z = frozenset([0, 4])
    res = tangle_decompose(g, l, [], k=1, thetas=[1], r=2, r_prime=1, z=z,
                           xi=2, eta=0)
    assert res.pieces == ()
    assert neighborhood(g, z, 1).members >= res.z_star >= z


def test_decompose_hits_every_unabsorbed_member():
    rng = random.Random(5)
    checked = 0
    while checked < 25:
        g = random_connected(rng, rng.randint(4, 8))
        l_comp = sorted(g.vertices)
        l = frozenset(l_comp)
        z = frozenset()
        fam = [frozenset([v]) for v in rng.sample(g.vertices,
                                                  min(3, len(g.vertices)))]
        try:
            res = tangle_decompose(g, l, fam, k=2, thetas=[2, 2], r=2,
                                   r_prime=1, z=z, xi=1, eta=0)
        except (PreconditionError, CapacityError):
            continue
        checked += 1
        for m in fam:
            hit = bool(res.z_star & m)
            inside = any(m <= p.vertices for p in res.pieces)
            assert hit or inside
        for p in res.pieces:
            assert g.is_connected_set(p.vertices)
            assert p.z_h <= res.z_star
