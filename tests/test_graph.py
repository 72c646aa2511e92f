import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_menger.errors import CapacityError, InputError
from coarse_menger.graph import (
    CenteredRefusal,
    CenteredSet,
    Graph,
    VertexSet,
    certify_centered,
    distance,
    from_edge_list,
    from_json,
    from_json_dict,
    neighborhood,
    set_distance,
    to_edge_list,
    to_json,
)

from conftest import cycle_graph, path_graph, random_connected, small_connected_graphs
from set_oracles import fraction_dijkstra


def test_rejects_self_loop():
    with pytest.raises(InputError):
        Graph([0, 1], [(0, 0)])


def test_rejects_undeclared_endpoint():
    with pytest.raises(InputError):
        Graph([0, 1], [(0, 2)])


def test_rejects_nonpositive_weight():
    with pytest.raises(InputError):
        Graph([0, 1], [(0, 1)], {(0, 1): 0})


@pytest.mark.parametrize("val,accepted", [
    (0, False), (-1, False), (1, True),
    (Fraction(0), False), (Fraction(-1, 3), False), (Fraction(1, 3), True),
    (0.0, False), (-0.5, False), (0.5, True),
    (math.nan, False), (math.inf, False),
    (True, False), (False, False), ("1", False),
])
def test_weight_verdicts(val, accepted):
    if accepted:
        assert Graph([0, 1], [(0, 1)], {(0, 1): val}).weights == {(0, 1): val}
    else:
        with pytest.raises(InputError):
            Graph([0, 1], [(0, 1)], {(0, 1): val})


def test_path_distances():
    g = path_graph(6)
    assert distance(g, 0, 5) == 5
    assert distance(g, 2, 2) == 0


def test_disconnected_distance_is_infinite():
    g = Graph([0, 1], [])
    assert distance(g, 0, 1) == math.inf


def test_weighted_distance_uses_fractions_exactly():
    g = Graph([0, 1, 2], [(0, 1), (1, 2)],
              {(0, 1): Fraction(1, 2), (1, 2): Fraction(1, 3)})
    assert distance(g, 0, 2) == Fraction(5, 6)


#: edge weights per kind of exact host; "mixed" puts int and Fraction weights
#: on one host
EXACT_WEIGHTS = {
    "unit": None,
    "int": (1, 2, 3, 5),
    "fraction": (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(5, 7)),
    "mixed": (1, 2, Fraction(1, 3), Fraction(1, 2), Fraction(3, 2), Fraction(5, 7)),
}


def _same_distances(g, order=None):
    for s in g.vertices if order is None else order:
        got, expected = g.dist_from(s), fraction_dijkstra(g, s)
        assert got == expected
        assert [type(d) for d in got.values()] == [type(d) for d in expected.values()]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10**6),
       st.booleans(), st.sampled_from(sorted(EXACT_WEIGHTS)))
def test_fraction_distances_match_fraction_dijkstra(n, seed, split, kind):
    # rows read from the int rows (scaled by the LCM of the denominators on
    # weighted hosts), divided back into Fractions on all-Fraction hosts;
    # value by value and type by type, asked for in a random order, with and
    # without the radius test reading the int rows first
    rng = random.Random(seed)
    g = random_connected(rng, n)
    edges = [e for e in g.edges if not split or rng.random() < 0.6]
    weights = EXACT_WEIGHTS[kind]
    g = Graph(g.vertices, edges,
              None if weights is None else {e: rng.choice(weights) for e in edges})
    if rng.random() < 0.5:
        neighborhood(g, frozenset(rng.sample(g.vertices, rng.randint(1, n))), Fraction(1, 2))
    _same_distances(g, rng.sample(g.vertices, n))


def test_fraction_distances_keep_their_type_on_unit_fractions_and_split_hosts():
    # Fraction(1) weights give Fraction distances, not ints; the source is int
    # 0 and vertices of another component are at INF
    g = Graph(range(5), [(0, 1), (1, 2), (3, 4)], {(0, 1): Fraction(1), (1, 2): Fraction(1),
                                                 (3, 4): Fraction(2, 3)})
    _same_distances(g)
    assert g.dist_from(0) == {0: 0, 1: 1, 2: 2, 3: math.inf, 4: math.inf}
    assert [type(d) for d in g.dist_from(0).values()] == [int, Fraction, Fraction, float, float]
    _same_distances(Graph([0, 1], [], {}))


FLOAT_WEIGHTS = (0.1, 0.2, 0.3, 0.7, 1.0, 1.3)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10**6),
       st.booleans())
def test_float_distances_are_symmetric(n, seed, backwards):
    # summed along a path in two directions, floats can differ by an ulp; the
    # rows are read from the smaller end, in whatever order they are asked for
    rng = random.Random(seed)
    g = random_connected(rng, n)
    g = Graph(g.vertices, g.edges, {e: rng.choice(FLOAT_WEIGHTS) for e in g.edges})
    order = sorted(g.vertices, reverse=backwards)
    for u in order:
        for v in order:
            assert distance(g, u, v) == distance(g, v, u)


def test_float_distance_on_a_path_does_not_depend_on_argument_order():
    # 0.7 + 0.2 + 0.1 is 0.9999999999999999 and 0.1 + 0.2 + 0.7 is 1.0
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)], {(0, 1): 0.7, (1, 2): 0.2, (2, 3): 0.1})
    assert distance(g, 3, 0) == distance(g, 0, 3) == 0.7 + 0.2 + 0.1


def test_set_distance_empty_set_is_an_error():
    g = path_graph(3)
    with pytest.raises(InputError):
        set_distance(g, frozenset(), frozenset([0]))


def test_set_distance_intersecting_sets_is_zero():
    g = path_graph(5)
    assert set_distance(g, frozenset([0, 1]), frozenset([1, 4])) == 0


def test_neighborhood_ball():
    g = cycle_graph(8)
    ball = neighborhood(g, frozenset([0]), 2)
    assert ball.members == frozenset([0, 1, 2, 6, 7])


def test_vertex_set_validates_host():
    g = path_graph(3)
    with pytest.raises(InputError):
        VertexSet(frozenset([7]), g)


def test_centered_set_invariant_enforced():
    g = path_graph(10)
    with pytest.raises(InputError):
        CenteredSet(VertexSet(frozenset([0, 9]), g),
                    VertexSet(frozenset([0]), g), 1)


def test_certify_centered_exact_finds_cover():
    g = path_graph(9)
    cert = certify_centered(g, frozenset(g.vertices), 2, 2)
    assert isinstance(cert, CenteredSet)
    assert cert.center_count <= 2


def test_certify_centered_exact_refuses_impossible_budget():
    # P9 needs at least two radius-1 balls for its endpoints alone
    g = path_graph(9)
    cert = certify_centered(g, frozenset(g.vertices), 1, 1)
    assert isinstance(cert, CenteredRefusal)
    assert cert.mode == "exact"


def test_certify_centered_cap():
    g = path_graph(25)
    with pytest.raises(CapacityError):
        certify_centered(g, frozenset(g.vertices), 3, 5)
    # greedy mode still works past the cap
    cert = certify_centered(g, frozenset(g.vertices), 5, 3, "greedy")
    assert isinstance(cert, CenteredSet)


def test_certify_centered_rejects_bad_mode_even_for_empty_z():
    g = path_graph(3)
    for z in (frozenset(), frozenset([0])):
        with pytest.raises(InputError):
            certify_centered(g, z, 1, 1, "bogus")


def test_edge_list_round_trip():
    g = Graph([0, 1, 2], [(0, 1), (1, 2)],
              {(0, 1): 1, (1, 2): Fraction(3, 2)})
    g2 = from_edge_list(to_edge_list(g))
    assert g2 == g
    # a mixed int and Fraction host: the same distances, of the same types
    _same_distances(g2)
    assert [type(d) for d in g2.dist_from(0).values()] == [int, int, Fraction]


def test_json_round_trip():
    g = Graph([0, 1, 2, 5], [(0, 1), (1, 2)],
              {(0, 1): Fraction(1, 3), (1, 2): 2})
    g2 = from_json(to_json(g))
    assert g2 == g
    assert distance(g2, 0, 1) == Fraction(1, 3)
    _same_distances(g2)
    assert g2.dist_from(0) == {0: 0, 1: Fraction(1, 3), 2: Fraction(7, 3), 5: math.inf}


MALFORMED_GRAPH_DOCUMENTS = {
    "three-vertex edge": {"vertices": [0, 1, 2], "edges": [[0, 1, 2]]},
    "one-vertex edge": {"vertices": [0, 1], "edges": [[0]]},
    "vertices as a string": {"vertices": "ab", "edges": []},
    "non-integer vertex": {"vertices": ["a"], "edges": []},
    "null vertex": {"vertices": [None], "edges": []},
    "weights as an object": {"vertices": [0, 1], "edges": [[0, 1]], "weights": {"0-1": 2}},
    "null weights": {"vertices": [0, 1], "edges": [[0, 1]], "weights": None},
    "weight not a number": {"vertices": [0, 1], "edges": [[0, 1]], "weights": ["abc"]},
    "weight divides by zero": {"vertices": [0, 1], "edges": [[0, 1]], "weights": ["1/0"]},
    "boolean weight": {"vertices": [0, 1], "edges": [[0, 1]], "weights": [True]},
    "infinite weight": {"vertices": [0, 1], "edges": [[0, 1]], "weights": ["inf"]},
    "infinite float weight": {"vertices": [0, 1], "edges": [[0, 1]], "weights": [math.inf]},
    "null weight": {"vertices": [0, 1], "edges": [[0, 1]], "weights": [None]},
    "three-vertex weighted edge": {"vertices": [0, 1, 2], "edges": [[0, 1, 2]], "weights": [1]},
    "nested weighted edge": {"vertices": [0, 1], "edges": [[[0], 1]], "weights": [1]},
    "fractional vertex": {"vertices": [0, 1.5], "edges": [[0, 1.5]]},
    "integral float vertex": {"vertices": [0, 1.0], "edges": []},
    "digit-string vertex": {"vertices": [0, "1"], "edges": []},
    "edge as a digit string": {"vertices": [0, 1], "edges": ["01"]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_GRAPH_DOCUMENTS))
def test_malformed_graph_documents_are_input_errors(name):
    with pytest.raises(InputError):
        from_json_dict(MALFORMED_GRAPH_DOCUMENTS[name])


@pytest.mark.parametrize("members", [[0, 1.5], [1.0], ["1"]])
def test_vertex_sets_refuse_non_integer_ids(members):
    # 1.5 is not truncated to 1, nor is "1" parsed: an id must be an int
    with pytest.raises(InputError, match="bad vertex id"):
        set_distance(path_graph(3), members, [0])


@pytest.mark.parametrize("text", ["0 1 1/0", "0 1 abc", "0 1 inf", "0 1 -inf"])
def test_malformed_edge_list_weights_are_input_errors(text):
    with pytest.raises(InputError):
        from_edge_list(text)


def test_float_and_fraction_weights_are_still_accepted():
    g = from_json_dict({"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2]],
                        "weights": [0.5, "3/2"]})
    assert g.weights == {(0, 1): 0.5, (1, 2): Fraction(3, 2)}


@settings(max_examples=60, deadline=None)
@given(small_connected_graphs())
def test_distance_triangle_inequality(g):
    vs = g.vertices
    for u in vs:
        for v in vs:
            for w in vs:
                assert distance(g, u, w) <= distance(g, u, v) + distance(g, v, w)


@settings(max_examples=40, deadline=None)
@given(small_connected_graphs(), st.integers(min_value=0, max_value=3))
def test_neighborhood_monotone_in_radius(g, r):
    s = frozenset([g.vertices[0]])
    assert neighborhood(g, s, r).members <= neighborhood(g, s, r + 1).members
