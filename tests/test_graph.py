import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_menger.covering import CoverInstance, min_separating_balls
from coarse_menger.errors import CapacityError, InputError
from coarse_menger.generators import grid
from coarse_menger.graph import (
    INF,
    CenteredRefusal,
    CenteredSet,
    Graph,
    VertexSet,
    _within,
    certify_centered,
    distance,
    from_edge_list,
    from_json,
    from_json_dict,
    leq,
    neighborhood,
    set_distance,
    to_edge_list,
    to_json,
)
from coarse_menger.packing import PackingInstance
from coarse_menger.trees import min_degree_decomposition, rooted_fat_minor_ep

from conftest import cycle_graph, path_graph, random_connected, small_connected_graphs
from set_oracles import fraction_dijkstra, within_through


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


def _length_type(g):
    """The type of a nonzero finite length of ``g``: float if some weight is
    a float, else Fraction if some weight is one, else int."""
    ws = () if g.weights is None else g.weights.values()
    return (float if any(isinstance(w, float) for w in ws)
            else Fraction if any(isinstance(w, Fraction) for w in ws) else int)


def _types(g, row):
    # the source is at int 0 and an unreachable vertex at INF
    kind = _length_type(g)
    return [int if d == 0 else float if d == math.inf else kind for d in row.values()]


def _same_distances(g, order=None):
    for s in g.vertices if order is None else order:
        got, expected = g.dist_from(s), fraction_dijkstra(g, s)
        assert got == expected
        assert [type(d) for d in got.values()] == _types(g, expected)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10**6),
       st.booleans(), st.sampled_from(sorted(EXACT_WEIGHTS)))
def test_fraction_distances_match_fraction_dijkstra(n, seed, split, kind):
    # rows read from the int rows (scaled by the LCM of the denominators on
    # weighted hosts), divided back into Fractions on Fraction and mixed hosts;
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
    # 0.7 + 0.2 + 0.1 is 0.9999999999999999 and 0.1 + 0.2 + 0.7 is 1.0; the
    # exact sum of the three floats rounds to 1.0
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)], {(0, 1): 0.7, (1, 2): 0.2, (2, 3): 0.1})
    assert distance(g, 3, 0) == distance(g, 0, 3) == 1.0
    assert distance(g, 0, 3) == float(Fraction(0.7) + Fraction(0.2) + Fraction(0.1))


#: edge weights of the float-distance hosts; "mixed" puts int, Fraction and
#: float weights on one host, "huge" weights near the float maximum
FLOAT_HOST_WEIGHTS = {
    "float": FLOAT_WEIGHTS + (1e-300, 2.5e-7, 12345.678),
    "mixed": (1, 2, Fraction(1, 3), Fraction(5, 7), 0.1, 0.3, 1.3),
    "huge": (1e308, 1.7e308, 0.5, 1),
}


def _rounded(d):
    # the float nearest the exact length, inf past the float maximum
    try:
        return float(d)
    except OverflowError:
        return math.inf


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10**6),
       st.booleans(), st.sampled_from(sorted(FLOAT_HOST_WEIGHTS)))
def test_float_distances_are_the_rounded_exact_sums(n, seed, split, kind):
    # value by value against the exact Fraction sums, type by type, in a
    # random request order, with and without the radius test first
    rng = random.Random(seed)
    g = random_connected(rng, n)
    edges = [e for e in g.edges if not split or rng.random() < 0.6]
    g = Graph(g.vertices, edges, {e: rng.choice(FLOAT_HOST_WEIGHTS[kind]) for e in edges})
    exact = Graph(g.vertices, edges, {e: Fraction(w) for e, w in g.weights.items()})
    if rng.random() < 0.5:
        neighborhood(g, frozenset(rng.sample(g.vertices, rng.randint(1, n))), 0.5)
    rounded = _rounded if _length_type(g) is float else Fraction
    for s in rng.sample(g.vertices, n):
        got, expected = g.dist_from(s), fraction_dijkstra(exact, s)
        assert got == {v: d if d == 0 or d == math.inf else rounded(d) for v, d in expected.items()}
        assert [type(d) for d in got.values()] == _types(g, expected)


def test_float_distances_past_the_float_maximum_are_infinite():
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)], {(0, 1): 1e308, (1, 2): 1e308, (2, 3): 0.5})
    assert g.dist_from(0) == {0: 0, 1: 1e308, 2: math.inf, 3: math.inf}
    assert distance(g, 3, 1) == 1e308 + 0.5
    assert neighborhood(g, [0], 1e308).members == frozenset([0, 1])


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


@pytest.mark.parametrize("weights", [
    None, {(0, 1): 2, (1, 2): Fraction(1, 2)}, {(0, 1): 0.3, (1, 2): 1e308},
], ids=["unit", "mixed", "float"])
def test_an_infinite_radius_takes_every_vertex_or_every_reachable_one(weights):
    # vertex 3 is unreachable: within an infinite radius of every vertex, but
    # closer than it only to itself
    g = Graph(range(4), [(0, 1), (1, 2)], weights)
    bit = g.vertex_bits()
    assert _within(g, bit, math.inf) == within_through(g, bit, math.inf) == [0b1111] * 4
    assert (_within(g, bit, math.inf, strict=True) == within_through(g, bit, math.inf, True)
            == [0b0111] * 3 + [0b1000])
    assert neighborhood(g, [3], math.inf).members == frozenset(range(4))


GRID = grid(3, 3)

#: one call per public entry point that takes a radius or a path length
NAN_CALLS = {
    "neighborhood": lambda: neighborhood(GRID, [0], math.nan),
    "certify_centered": lambda: certify_centered(GRID, [0, 8], 1, math.nan),
    "CoverInstance": lambda: CoverInstance(GRID, math.nan, l=0, x=frozenset([0]),
                                           y=frozenset([8])),
    "CoverInstance.l": lambda: CoverInstance(GRID, 1, l=math.nan, x=frozenset([0]),
                                             y=frozenset([8])),
    "min_separating_balls": lambda: min_separating_balls(GRID, {0}, {8}, math.nan),
    "PackingInstance.l": lambda: PackingInstance(GRID, frozenset([0]), frozenset([8]),
                                                 l=math.nan),
    "rooted_fat_minor_ep": lambda: rooted_fat_minor_ep(
        GRID, min_degree_decomposition(GRID), Graph([1, 2, 3], [(1, 2), (2, 3)]),
        {1: frozenset([0]), 2: frozenset([4]), 3: frozenset([8])}, k=2, r=math.nan),
}


@pytest.mark.parametrize("name", sorted(NAN_CALLS))
def test_a_nan_radius_or_length_is_an_input_error(name):
    # NaN fails every comparison, so ``r < 0`` would let it through
    with pytest.raises(InputError):
        NAN_CALLS[name]()


def test_a_negative_length_is_an_input_error():
    for make in (PackingInstance, lambda g, x, y, l: CoverInstance(g, 1, l=l, x=x, y=y)):
        with pytest.raises(InputError):
            make(GRID, frozenset([0]), frozenset([8]), l=-1)


INFINITIES = (INF, float("inf"), float("1e999"))


@pytest.mark.parametrize("a", INFINITIES + (3,))
@pytest.mark.parametrize("b", INFINITIES + (3,))
def test_leq_takes_every_infinity_as_inf(a, b):
    # an infinity made by float() or by overflow is not the object INF
    assert leq(a, b) == (b in INFINITIES or a not in INFINITIES)


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
    # a mixed int and Fraction host: the same distances, each a Fraction
    _same_distances(g2)
    assert [type(d) for d in g2.dist_from(0).values()] == [int, Fraction, Fraction]


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
