import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_menger.errors import CapacityError, InputError
from coarse_menger.graph import Graph, set_distance
from coarse_menger.packing import (
    PackingInstance,
    gallai_packing,
    max_far_packing,
    max_independent_set,
    menger_packing,
)

from conftest import cycle_graph, path_graph, small_connected_graphs
from set_oracles import set_enumerate_paths
from coarse_menger.generators import grid, grid_column


def brute_max_far_packing(g, x, y, l, r):
    """Oracle over *all* simple paths: plain take/skip recursion, no pruning
    tricks shared with the implementation under test."""
    paths = set_enumerate_paths(g, l, x, y).paths
    vsets = [p.vertex_set for p in paths]
    best = 0

    def rec(i, chosen):
        nonlocal best
        best = max(best, len(chosen))
        if i == len(paths) or len(chosen) + len(paths) - i <= best:
            return
        if all(set_distance(g, vsets[i], c) >= r for c in chosen):
            chosen.append(vsets[i])
            rec(i + 1, chosen)
            chosen.pop()
        rec(i + 1, chosen)

    rec(0, [])
    return best


def test_instance_validation():
    g = path_graph(3)
    with pytest.raises(InputError):
        PackingInstance(g, frozenset([0]), frozenset([2]), r=0)
    with pytest.raises(InputError):
        PackingInstance(g, frozenset([9]), frozenset([2]))


def test_two_far_paths_on_a_cycle():
    # the arcs 1-2-3 and 7-6-5 sit at distance 2 across C8
    g = cycle_graph(8)
    sol = max_far_packing(
        PackingInstance(g, frozenset([1, 7]), frozenset([3, 5]), 0, 2)
    )
    assert sol.size == 2 and sol.optimal
    assert sol.certified_min_pairwise_distance >= 2


def test_far_threshold_cuts_packing():
    g = cycle_graph(8)
    sol = max_far_packing(
        PackingInstance(g, frozenset([1, 7]), frozenset([3, 5]), 0, 3)
    )
    assert sol.size == 1


def test_shared_endpoint_forces_single_path():
    # both arcs of C8 contain vertex 0, so no two paths are even disjoint
    g = cycle_graph(8)
    sol = max_far_packing(
        PackingInstance(g, frozenset([0]), frozenset([4]), 0, 1)
    )
    assert sol.size == 1


def test_grid_rows_pack():
    g = grid(3, 4)
    x, y = grid_column(3, 4, 0), grid_column(3, 4, 3)
    sol = max_far_packing(PackingInstance(g, x, y, 0, 1))
    assert sol.size == 3


def test_exact_mode_capacity():
    g = path_graph(17)
    with pytest.raises(CapacityError):
        max_far_packing(PackingInstance(g, frozenset([0]), frozenset([16])))


def test_greedy_is_a_valid_packing():
    g = grid(3, 4)
    x, y = grid_column(3, 4, 0), grid_column(3, 4, 3)
    sol = max_far_packing(PackingInstance(g, x, y, 0, 2, "greedy"))
    assert not sol.optimal
    if sol.size >= 2:
        assert sol.certified_min_pairwise_distance >= 2


@settings(max_examples=40, deadline=None)
@given(small_connected_graphs(max_n=7),
       st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=1, max_value=3))
def test_exact_packing_matches_brute_force(g, seed, r):
    rng = random.Random(seed)
    x = frozenset(rng.sample(g.vertices, min(2, len(g.vertices))))
    y = frozenset(rng.sample(g.vertices, min(2, len(g.vertices))))
    sol = max_far_packing(PackingInstance(g, x, y, 0, r))
    assert sol.size == brute_max_far_packing(g, x, y, 0, r)


@settings(max_examples=40, deadline=None)
@given(small_connected_graphs(max_n=7), st.integers(min_value=0, max_value=10**6))
def test_greedy_never_beats_exact(g, seed):
    rng = random.Random(seed)
    x = frozenset(rng.sample(g.vertices, min(2, len(g.vertices))))
    y = frozenset(rng.sample(g.vertices, min(2, len(g.vertices))))
    exact = max_far_packing(PackingInstance(g, x, y, 0, 2))
    greedy = max_far_packing(PackingInstance(g, x, y, 0, 2, "greedy"))
    assert greedy.size <= exact.size


def test_max_independent_set_on_c5_conflicts():
    conflicts = [{1, 4}, {0, 2}, {1, 3}, {2, 4}, {3, 0}]
    chosen, _ = max_independent_set([sum(1 << j for j in row) for row in conflicts])
    assert len(chosen) == 2
    for i, j in itertools.combinations(chosen, 2):
        assert j not in conflicts[i]


def test_menger_on_grid_equals_rows():
    g = grid(3, 5)
    assert menger_packing(g, grid_column(3, 5, 0), grid_column(3, 5, 4)) == 3


def test_menger_cut_vertex():
    # two triangles sharing vertex 2: only one disjoint path
    g = Graph(range(5), [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert menger_packing(g, frozenset([0]), frozenset([4])) == 1


def test_menger_empty_sides():
    g = path_graph(3)
    assert menger_packing(g, frozenset(), frozenset([2])) == 0


def brute_min_xy_separator(g, x, y):
    """Smallest vertex set (terminals allowed) meeting every x-y path."""
    verts = sorted(g.vertices)

    def separated(z):
        seen = set(x - z)
        stack = list(seen)
        while stack:
            u = stack.pop()
            if u in y:
                return False
            for n in g.neighbors(u):
                if n not in z and n not in seen:
                    seen.add(n)
                    stack.append(n)
        return not (x & y - z)

    for size in range(len(verts) + 1):
        for combo in itertools.combinations(verts, size):
            if separated(frozenset(combo)):
                return size
    raise AssertionError("unreachable")


@settings(max_examples=30, deadline=None)
@given(small_connected_graphs(max_n=8), st.integers(min_value=0, max_value=10**6))
def test_menger_duality_with_brute_separator(g, seed):
    rng = random.Random(seed)
    x = frozenset(rng.sample(g.vertices, min(3, len(g.vertices))))
    y = frozenset(rng.sample(g.vertices, min(3, len(g.vertices))))
    assert menger_packing(g, x, y) == brute_min_xy_separator(g, x, y)


def test_gallai_on_path_endpoints():
    g = path_graph(4)
    assert gallai_packing(g, frozenset([0, 3])) == 1


def test_gallai_counts_disjoint_a_paths():
    # two disjoint edges between A-vertices
    g = Graph(range(4), [(0, 1), (2, 3)])
    assert gallai_packing(g, frozenset(range(4))) == 2
    res = gallai_packing(g, frozenset(range(4)), with_witness=True)
    assert not (res.paths[0].vertex_set & res.paths[1].vertex_set)
