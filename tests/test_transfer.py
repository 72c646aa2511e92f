import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_menger.errors import InputError, PreconditionError
from coarse_menger.graph import Graph, distance
from coarse_menger.paths import enumerate_chordless_paths
from coarse_menger.transfer import (
    QuasiIsometry,
    c_h_ledger,
    constant_witness,
    pullback_hitting_set,
    quasi_isometry_from_json_dict,
    scale_metric,
    scale_witness,
    subdivide_to_unit,
    transfer_chain,
    transfer_constants,
    transfer_witness,
    verify_quasi_isometry,
)

from conftest import cycle_graph, path_graph, random_connected


def identity_qi(g):
    return QuasiIsometry({v: v for v in g.vertices}, 1, 0)


def one_subdivision(g):
    fresh = max(g.vertices) + 1
    verts = list(g.vertices)
    edges = []
    for u, v in g.edges:
        verts.append(fresh)
        edges += [(u, fresh), (fresh, v)]
        fresh += 1
    return Graph(verts, edges), QuasiIsometry({v: v for v in g.vertices}, 2, 1)


def test_constants_validate_inputs():
    with pytest.raises(InputError):
        transfer_constants(0, 1)
    with pytest.raises(InputError):
        transfer_constants(1, -1)


def test_pinned_constants():
    assert transfer_constants(1, 0) == (4, 4)
    assert transfer_constants(2, 1) == (39, 24)
    assert transfer_constants(3, 2) == (138, 62)


def test_pinned_chain_identity_parameters():
    w = constant_witness(5, 7)
    chain = transfer_chain(1, 0, w, 3, 2, 0)
    assert chain["r_prime"] == 6
    assert chain["f_out"] == 7
    assert chain["g_out"] == 16


def test_pinned_chain_two_one():
    w = constant_witness(5, 7)
    chain = transfer_chain(2, 1, w, 2, 3, 1)
    assert chain["l_prime"] == 5
    assert chain["eta2"] == 34
    assert chain["eta3"] == 44
    assert chain["l_double_prime"] == 12
    assert chain["eta4"] == 29
    assert chain["f_out"] == 6
    assert chain["g_out"] == 44


def test_variants():
    w = constant_witness(5, 7)
    remote = transfer_witness(2, 1, w, "remote")
    menger = transfer_witness(2, 1, w, "menger")
    # the menger form is the remote form with endpoint separation zeroed
    assert menger.f(2, 3, 1) == remote.f(2, 3, 0)
    assert menger.g(2, 3, 1) == remote.g(2, 3, 0)
    gallai = transfer_witness(2, 1, w, "gallai")
    c1, c2 = transfer_constants(2, 1)
    assert gallai.f(2, 3) == w.f(2, 2 * 3 + c1, 0)
    assert gallai.g(2, 3) == 2 * 2 * w.g(2, 2 * 3 + c1, 0) + c2
    with pytest.raises(InputError):
        transfer_witness(2, 1, w, "bogus")


def test_scale_witness_normalizes_threshold():
    calls = []

    def f(k, r, l=0):
        calls.append(("f", k, r, l))
        return 4

    def g(k, r, l=0):
        return 10

    from coarse_menger.transfer import WitnessFunctions

    w = scale_witness(WitnessFunctions(f, g, "base"))
    assert w.f(2, 3, 6) == 4
    assert calls[-1] == ("f", 2, 1, Fraction(2))
    assert w.g(2, 3, 6) == 30


def test_verify_identity_quasi_isometry():
    g = cycle_graph(6)
    verdict = verify_quasi_isometry(g, g, identity_qi(g))
    assert verdict.ok and verdict.tightest_a == 0


def test_verify_subdivision_inclusion():
    g = path_graph(4)
    tgt, q = one_subdivision(g)
    verdict = verify_quasi_isometry(g, tgt, q)
    assert verdict.ok
    # with a = 0 the coverage of the midpoints fails
    bad = QuasiIsometry(q.map, 2, 0)
    assert not verify_quasi_isometry(g, tgt, bad).ok


def test_verify_detects_distance_distortion():
    src = path_graph(3)
    tgt = Graph([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    q = QuasiIsometry({v: v for v in src.vertices}, 1, 0)
    verdict = verify_quasi_isometry(src, tgt, q)
    assert not verdict.ok
    assert verdict.worst_pair is not None


def test_quasi_isometry_json_round_trip():
    q = QuasiIsometry({0: 1, 1: 2}, 2, Fraction(1, 2))
    q2 = quasi_isometry_from_json_dict(q.to_json_dict())
    assert q2.map == q.map and q2.m == q.m and q2.a == q.a


@pytest.mark.parametrize("doc", [
    {"map": [[0, 1.5], ["2", 2.9]], "m": 1, "a": 0},
    {"map": [[0, 1.0]], "m": 1, "a": 0},
    {"map": [[0, 1, 2]], "m": 1, "a": 0},
    {"m": 1, "a": 0},
    {"map": [[0, 1]], "m": "x", "a": 0},
    {"map": [[0, 1]], "m": 1},
], ids=["non-int entries", "float target", "triple", "no map", "bad m", "no a"])
def test_quasi_isometry_from_json_dict_refuses_malformed_documents(doc):
    with pytest.raises(InputError):
        quasi_isometry_from_json_dict(doc)


def test_scale_metric_scales_distances_exactly():
    g = path_graph(5)
    scaled = scale_metric(g, Fraction(3, 2))
    assert distance(scaled, 0, 4) == Fraction(6)
    with pytest.raises(InputError):
        scale_metric(g, 0)


def test_subdivide_to_unit_preserves_original_distances():
    g = Graph([0, 1, 2], [(0, 1), (1, 2)],
              {(0, 1): Fraction(5, 2), (1, 2): 3})
    h = subdivide_to_unit(g)
    assert distance(h, 0, 2) == distance(g, 0, 2) == Fraction(11, 2)
    assert all(h.edge_weight(*e) <= 1 for e in h.edges)


def test_pullback_hits_every_source_path():
    rng = random.Random(31)
    checked = 0
    while checked < 20:
        g = random_connected(rng, rng.randint(4, 8))
        a = frozenset([min(g.vertices)])
        b = frozenset([max(g.vertices)])
        tgt, q = one_subdivision(g)
        # a target hitting set: one middle vertex of some a-b geodesic
        from coarse_menger.covering import min_separating_balls

        size, centers = min_separating_balls(tgt, frozenset(q.map[v] for v in a),
                                             frozenset(q.map[v] for v in b), 0)
        z = pullback_hitting_set(g, tgt, q, centers, k=2, r=1, l=0,
                                 a_set=a, b_set=b)
        for p in enumerate_chordless_paths(g, 0, a, b).paths:
            assert z.members & p.vertex_set
        checked += 1


@pytest.mark.parametrize("image,message", [
    ({0: 0, 1: 1}, "map is not total"),
    ({0: 0, 1: 1, 2: 2, 3: 9}, "unknown vertex id 9"),
])
def test_pullback_refuses_a_map_that_is_not_total(image, message):
    g = path_graph(4)
    q = QuasiIsometry(image, 1, 0)
    with pytest.raises(InputError, match=message):
        pullback_hitting_set(g, g, q, frozenset([1]), k=2, r=1, l=0,
                             a_set=frozenset([0]), b_set=frozenset([3]))


def test_ledger_values():
    assert c_h_ledger({"finite": True, "genus_bound": 0}).coefficient == 22
    assert c_h_ledger({"finite": True, "genus_bound": 2}).coefficient == 30
    assert c_h_ledger({"finite": False, "genus_bound": 0}).coefficient == 44
    assert c_h_ledger({"finite": True, "apex": True}).coefficient == 14
    assert c_h_ledger({"special": "linkless"}).coefficient == 22
    assert c_h_ledger({"special": "knotless", "finite": False}).coefficient == 68
    planar = c_h_ledger({"finite": True, "planar": True})
    assert planar.radius_halved and planar.coefficient is None


def test_ledger_rejects_contradictions():
    with pytest.raises(InputError):
        c_h_ledger({"special": "linkless", "planar": True})
    with pytest.raises(InputError):
        c_h_ledger({"apex": True, "planar": True})
    with pytest.raises(InputError):
        c_h_ledger({})  # no genus bound given
