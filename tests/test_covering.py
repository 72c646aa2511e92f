import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_menger.covering import (
    CoverInstance,
    duality_sweep,
    gallai_check,
    graph_fingerprint,
    min_ball_hitting,
    min_separating_balls,
    min_set_cover,
)
from coarse_menger.errors import InputError, InternalInconsistencyError
from coarse_menger.generators import grid, grid_column, random_instances
from coarse_menger.graph import Graph
from coarse_menger.packing import _enumerate_a_paths, gallai_packing

from conftest import cycle_graph, path_graph, small_connected_graphs


def test_instance_requires_exactly_one_family_source():
    g = path_graph(3)
    with pytest.raises(InputError):
        CoverInstance(g, 0)
    with pytest.raises(InputError):
        CoverInstance(g, 0, l=0, x=frozenset([0]), y=frozenset([2]),
                      explicit_family=(frozenset([1]),))


def test_min_set_cover_exact():
    sets = {0: frozenset([1, 2]), 1: frozenset([2, 3]), 2: frozenset([1, 3]),
            3: frozenset([1, 2, 3])}
    chosen, _ = min_set_cover([1, 2, 3], sets)
    assert chosen == [3]


def test_min_set_cover_uncoverable():
    with pytest.raises(InternalInconsistencyError):
        min_set_cover([1, 9], {0: frozenset([1])})


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_min_set_cover_matches_subset_scan(seed):
    rng = random.Random(seed)
    universe = list(range(rng.randint(1, 7)))
    sets = {i: frozenset(rng.sample(universe, rng.randint(1, len(universe))))
            for i in range(rng.randint(1, 6))}
    if not frozenset(universe) <= frozenset().union(*sets.values()):
        return
    chosen, _ = min_set_cover(universe, sets)
    brute = min(
        (len(c) for n in range(len(sets) + 1)
         for c in itertools.combinations(sets, n)
         if frozenset(universe) <= frozenset().union(frozenset(), *(sets[i] for i in c))),
    )
    assert len(chosen) == brute


def test_cover_on_path_middle_vertex():
    g = path_graph(5)
    sol = min_ball_hitting(CoverInstance(g, 0, l=0, x=frozenset([0]), y=frozenset([4])))
    assert sol.count == 1


def test_cover_radius_one_on_grid():
    g = grid(3, 5)
    sol = min_ball_hitting(
        CoverInstance(g, 1, l=0, x=grid_column(3, 5, 0), y=grid_column(3, 5, 4))
    )
    # one radius-1 ball spans a full column of a 3-row grid
    assert sol.count == 1


def test_cover_radius_zero_on_grid_needs_a_column():
    g = grid(3, 5)
    sol = min_ball_hitting(
        CoverInstance(g, 0, l=0, x=grid_column(3, 5, 0), y=grid_column(3, 5, 4))
    )
    assert sol.count == 3


def test_explicit_family_rejects_empty_member():
    g = path_graph(3)
    with pytest.raises(InputError):
        min_ball_hitting(CoverInstance(g, 0, explicit_family=(frozenset(),)))


def test_empty_family_has_empty_cover():
    g = path_graph(4)
    sol = min_ball_hitting(
        CoverInstance(g, 0, l=10, x=frozenset([0]), y=frozenset([1]))
    )
    assert sol.count == 0


@settings(max_examples=25, deadline=None)
@given(small_connected_graphs(max_n=7), st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=1))
def test_separating_balls_agree_with_path_cover(g, seed, beta):
    """Independent route to the same number: hitting every chordless path
    equals separating x from y by the ball union."""
    rng = random.Random(seed)
    x = frozenset(rng.sample(g.vertices, min(2, len(g.vertices))))
    y = frozenset(rng.sample(g.vertices, min(2, len(g.vertices))))
    cover = min_ball_hitting(CoverInstance(g, beta, l=0, x=x, y=y))
    size, _ = min_separating_balls(g, x, y, beta)
    assert size == cover.count


def test_separating_balls_scales_past_enumeration_cap():
    g = grid(3, 9)
    size, centers = min_separating_balls(g, grid_column(3, 9, 0), grid_column(3, 9, 8), 1)
    assert size == 1


def test_separating_balls_refuse_a_negative_radius():
    with pytest.raises(InputError):
        min_separating_balls(grid(3, 3), {0}, {8}, -1)


def test_separating_balls_are_fewer_than_the_first_greedy_separator():
    # the found paths' greedy cover separates with 4 vertices before the
    # exact cover finds the cut {2, 3, 5}
    g = Graph(range(7), [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (2, 4), (2, 5), (5, 6)])
    assert min_separating_balls(g, {0, 1, 4, 5}, {2, 3, 5}, 0)[0] == 3


def test_separating_balls_with_an_empty_side_take_none():
    g = path_graph(5)
    assert min_separating_balls(g, set(), {4}, 0) == (0, frozenset())
    assert min_separating_balls(g, {0}, set(), 1) == (0, frozenset())


def test_separating_balls_remove_a_shared_vertex():
    # a vertex of x & y is an x-y path by itself: a ball must hold it
    g = path_graph(5)
    assert min_separating_balls(g, {2}, {2, 4}, 0) == (1, frozenset([2]))
    count, centers = min_separating_balls(g, {0, 2}, {2, 4}, 1)
    assert count == 1 and centers <= {1, 2, 3}


def test_duality_sweep_weak_duality_clean():
    g = grid(3, 4)
    rep = duality_sweep(g, grid_column(3, 4, 0), grid_column(3, 4, 3), 0,
                        [1, 2, 3], [0, 1])
    assert rep.check_weak_duality() == []
    assert rep.packing_by_r[1].exact
    csv = rep.to_csv()
    assert csv.startswith("kind,threshold,value,exact,flag")


@pytest.mark.parametrize("r_values,beta_values", [
    ([1, 1.0], [0]),
    ([2, 1, 2], [0]),
    ([1], [0, Fraction(0)]),
])
def test_duality_sweep_refuses_equal_thresholds(r_values, beta_values):
    # cells are keyed by threshold: 1 == 1.0 would merge into one cell
    g = grid(2, 3)
    with pytest.raises(InputError):
        duality_sweep(g, grid_column(2, 3, 0), grid_column(2, 3, 2), 0,
                      r_values, beta_values)


def test_fingerprint_depends_on_graph():
    assert graph_fingerprint(path_graph(4)) != graph_fingerprint(path_graph(5))
    assert graph_fingerprint(path_graph(4)) == graph_fingerprint(path_graph(4))


def test_gallai_check_packing_branch():
    g = Graph(range(4), [(0, 1), (2, 3)])
    verdict = gallai_check(g, frozenset(range(4)), 2)
    assert verdict.branch == "packing"


def test_gallai_check_hitting_branch_respects_bound():
    # star: every A-path crosses the center, so one vertex hits all
    g = Graph(range(5), [(0, i) for i in range(1, 5)])
    verdict = gallai_check(g, frozenset([1, 2, 3, 4]), 3)
    assert verdict.branch == "hitting"
    assert len(verdict.hitting_set) <= 2 * 3 - 2


def _gallai_hosts():
    for seed in range(6):
        for spec in random_instances(seed, 150, {"max_vertices": 12}):
            yield spec.graph, spec.a
    # A-paths 0-1-2 and 3-4-5 joined by an edge of weight 1e-12: no distance
    # may let vertex 4 stand in for vertex 1
    edges = [(0, 1), (1, 2), (3, 4), (4, 5), (1, 4)]
    weights = {e: 1.0 for e in edges}
    weights[1, 4] = 1e-12
    yield Graph(range(6), edges, weights), frozenset([0, 2, 3, 5])


def test_gallai_hitting_set_is_the_vertex_set_cover_of_the_a_paths():
    # oracle: min_set_cover over each vertex's set of path indices; a host
    # with no A-path takes no vertex
    for g, a in _gallai_hosts():
        paths = _enumerate_a_paths(g, a)
        sets = {v: frozenset(i for i, p in enumerate(paths) if v in p.vertex_set)
                for v in g.vertices}
        expected = frozenset(min_set_cover(range(len(paths)), sets)[0])
        verdict = gallai_check(g, a, gallai_packing(g, a) + 1)
        assert verdict.branch == "hitting"
        assert verdict.hitting_set == expected


@settings(max_examples=25, deadline=None)
@given(small_connected_graphs(max_n=7), st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=1, max_value=3))
def test_gallai_dichotomy_always_resolves(g, seed, k):
    rng = random.Random(seed)
    a = frozenset(rng.sample(g.vertices, min(3, len(g.vertices))))
    verdict = gallai_check(g, a, k)
    if verdict.branch == "packing":
        assert verdict.packing.count >= k
    else:
        assert len(verdict.hitting_set) <= 2 * k - 2
