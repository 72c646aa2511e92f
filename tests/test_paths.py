"""Path enumeration, and the chordless-path reduction it rests on."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_menger.errors import CapacityError, InputError
from coarse_menger.generators import grid
from coarse_menger.graph import Graph, distance, set_distance
from coarse_menger.packing import PackingInstance, max_far_packing
from coarse_menger.paths import (
    FatMinorModel,
    check_fat_minor,
    enumerate_chordless_paths,
    enumerate_paths,
    is_a_path,
    is_lxy_path,
    make_path,
)

from conftest import complete_graph, cycle_graph, path_graph, small_connected_graphs


def test_make_path_rejects_non_edges():
    g = path_graph(4)
    with pytest.raises(InputError):
        make_path(g, [0, 2])


def test_make_path_rejects_repeats():
    g = cycle_graph(4)
    with pytest.raises(InputError):
        make_path(g, [0, 1, 0])


def test_path_counts_on_cycle():
    # two x-y paths around C6, both chordless
    g = cycle_graph(6)
    x, y = frozenset([0]), frozenset([3])
    assert len(enumerate_paths(g, 0, x, y).paths) == 2
    assert len(enumerate_chordless_paths(g, 0, x, y).paths) == 2


def test_endpoint_distance_filter():
    g = path_graph(5)
    x = frozenset([0, 1])
    y = frozenset([3, 4])
    long_enough = enumerate_paths(g, 3, x, y).paths
    assert all(p.length >= 3 for p in long_enough)
    assert {p.sequence for p in long_enough} == {(0, 1, 2, 3), (0, 1, 2, 3, 4), (1, 2, 3, 4)}


def test_dedup_up_to_reversal():
    g = path_graph(3)
    a = frozenset([0, 2])
    paths = enumerate_paths(g, 0, a, a).paths
    # 0-1-2 appears once, not also as 2-1-0; singletons count too
    assert sorted(p.sequence for p in paths) == [(0,), (0, 1, 2), (2,)]


def test_uncapped_enumeration_refused_on_large_hosts():
    g = path_graph(20)
    with pytest.raises(CapacityError):
        enumerate_paths(g, 0, frozenset([0]), frozenset([19]))
    capped = enumerate_paths(g, 0, frozenset([0]), frozenset([19]), cap=5)
    assert len(capped.paths) == 1 and not capped.truncated


def test_capped_enumeration_stops_at_the_cap():
    # the 6x6 grid has over a million corner-to-corner paths: the search must
    # stop after the second, not enumerate them all and truncate
    g = grid(6, 6)
    neighbors = Graph.neighbors
    calls = []

    def counted(self, v):
        calls.append(v)
        if len(calls) > 10_000:
            raise AssertionError("capped search kept going")
        return neighbors(self, v)

    with mock.patch.object(Graph, "neighbors", counted):
        capped = enumerate_paths(g, 0, frozenset([0]), frozenset([35]), cap=1)
    assert len(capped.paths) == 1 and capped.truncated
    assert is_lxy_path(g, capped.paths[0], 0, frozenset([0]), frozenset([35]))


def test_chordless_excludes_chorded_paths():
    # K4: the only chordless x-y paths are the single edges... plus nothing
    g = complete_graph(4)
    paths = enumerate_chordless_paths(g, 0, frozenset([0]), frozenset([3])).paths
    assert [p.sequence for p in paths] == [(0, 3)]


def test_is_lxy_and_a_path():
    g = path_graph(5)
    p = make_path(g, [0, 1, 2, 3, 4])
    assert is_lxy_path(g, p, 4, frozenset([0]), frozenset([4]))
    assert not is_lxy_path(g, p, 5, frozenset([0]), frozenset([4]))
    a = frozenset([0, 4])
    assert is_a_path(g, p, a)
    assert not is_a_path(g, make_path(g, [0, 1]), a)


@settings(max_examples=50, deadline=None)
@given(small_connected_graphs(max_n=7), st.integers(min_value=0, max_value=10**6))
def test_chordless_paths_are_a_subset(g, seed):
    rng = random.Random(seed)
    x = frozenset(rng.sample(g.vertices, 2))
    y = frozenset(rng.sample(g.vertices, 2))
    full = {p.sequence for p in enumerate_paths(g, 0, x, y).paths}
    chordless = {p.sequence for p in enumerate_chordless_paths(g, 0, x, y).paths}
    assert chordless <= full


@settings(max_examples=50, deadline=None)
@given(small_connected_graphs(max_n=7), st.integers(min_value=0, max_value=10**6))
def test_every_path_contains_a_chordless_path_as_subset(g, seed):
    """The reduction behind every exact family computation: each simple
    x-y path has a chordless x-y path inside its vertex set with the same
    endpoints, so hitting sets and far packings may restrict to chordless
    paths."""
    rng = random.Random(seed)
    x = frozenset(rng.sample(g.vertices, 2))
    y = frozenset(rng.sample(g.vertices, 2))
    chordless = enumerate_chordless_paths(g, 0, x, y).paths
    for p in enumerate_paths(g, 0, x, y).paths:
        ends = {p.sequence[0], p.sequence[-1]}
        assert any(
            c.vertex_set <= p.vertex_set
            and {c.sequence[0], c.sequence[-1]} == ends
            for c in chordless
        ), p.sequence


def test_an_endpoint_distance_equal_to_l_passes_on_long_decimal_weights():
    # d(0, 2) is exactly the 17-digit decimal 0.7854138572100987 +
    # 0.5253608691488931, and the float handed out for it reads below it:
    # at l = d the path 0-1-2 still counts, in the enumeration and in the
    # greedy packing's shortest-path search
    a, b = 0.7854138572100987, 0.5253608691488931
    g = Graph(range(3), [(0, 1), (1, 2)], {(0, 1): a, (1, 2): b})
    d = Fraction(repr(a)) + Fraction(repr(b))
    assert Fraction(repr(distance(g, 0, 2))) < d
    assert [p.sequence for p in enumerate_chordless_paths(g, d, {0}, {2}).paths] == [(0, 1, 2)]
    greedy = max_far_packing(PackingInstance(g, frozenset([0]), frozenset([2]), l=d, mode="greedy"))
    assert [p.sequence for p in greedy.paths] == [(0, 1, 2)]


def test_the_path_checks_read_the_exact_distance_on_long_decimal_weights():
    # the host above: d(0, 2) is exactly d, and the float handed out reads
    # below it; is_lxy_path and the fatness check compare with d itself
    a, b = 0.7854138572100987, 0.5253608691488931
    g = Graph(range(3), [(0, 1), (1, 2)], {(0, 1): a, (1, 2): b})
    d = Fraction(repr(a)) + Fraction(repr(b))
    (p,) = enumerate_chordless_paths(g, d, {0}, {2}).paths
    assert is_lxy_path(g, p, d, {0}, {2})
    assert not is_lxy_path(g, p, d + Fraction(1, 10**20), {0}, {2})
    two = Graph([0, 1], [])
    model = FatMinorModel(two, {0: (0,), 1: (2,)}, {}, d)
    assert check_fat_minor(g, model).valid
    thicker = FatMinorModel(two, {0: (0,), 1: (2,)}, {}, d + Fraction(1, 10**20))
    assert not check_fat_minor(g, thicker).valid
