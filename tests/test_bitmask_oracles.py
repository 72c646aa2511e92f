"""The bitmask solvers against their set-based oracles (``set_oracles``), on
unit, Fraction- and float-weighted random hosts."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_menger.errors import InputError
from coarse_menger.graph import Graph
from coarse_menger.packing import far_conflicts, max_independent_set
from coarse_menger.paths import enumerate_chordless_paths, enumerate_paths

from conftest import random_connected
from set_oracles import set_far_conflicts, set_max_independent_set

RADII = (0.3, Fraction(1, 2), 1, Fraction(3, 2), 2, 3)
WEIGHT_KINDS = {
    "unit": None,
    "fraction": (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2)),
    # 0.1 + 0.2 and 0.3 + 0.7 land next to the thresholds above
    "float": (0.1, 0.2, 0.3, 0.7, 1.0),
}


@st.composite
def weighted_hosts(draw, max_n: int = 9):
    n = draw(st.integers(min_value=2, max_value=max_n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    g = random_connected(rng, n, p=draw(st.sampled_from((0.15, 0.3, 0.5))))
    choices = WEIGHT_KINDS[draw(st.sampled_from(sorted(WEIGHT_KINDS)))]
    if choices is not None:
        g = Graph(g.vertices, g.edges, {e: rng.choice(choices) for e in g.edges})
    return g, rng


def _endpoints(g, rng):
    x = frozenset(rng.sample(g.vertices, rng.randint(1, 2)))
    y = frozenset(rng.sample(g.vertices, rng.randint(1, 2)))
    return x, y


def _members(g, rng):
    """Chordless path vertex sets of the host plus a few random subsets."""
    x, y = _endpoints(g, rng)
    members = [p.vertex_set for p in enumerate_chordless_paths(g, 0, x, y).paths]
    for _ in range(rng.randint(0, 6)):
        members.append(frozenset(rng.sample(g.vertices, rng.randint(1, len(g)))))
    return members


@settings(max_examples=150, deadline=None)
@given(weighted_hosts(), st.sampled_from(RADII))
def test_far_conflicts_match_set_distance_loop(host, r):
    g, rng = host
    members = _members(g, rng)
    assert far_conflicts(g, members, r) == set_far_conflicts(g, members, r)


@settings(max_examples=100, deadline=None)
@given(weighted_hosts(), st.sampled_from(RADII))
def test_mis_on_far_conflicts_matches_oracle(host, r):
    g, rng = host
    members = _members(g, rng)
    conflicts = far_conflicts(g, members, r)
    order = list(range(len(members)))
    assert max_independent_set(conflicts, order) == set_max_independent_set(conflicts, order)
    rng.shuffle(order)
    assert max_independent_set(conflicts, order) == set_max_independent_set(conflicts, order)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=24),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=10**6))
def test_mis_matches_oracle_on_random_relations(n, p, seed):
    rng = random.Random(seed)
    conflicts = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                conflicts[i].add(j)
                conflicts[j].add(i)
    order = list(range(n))
    rng.shuffle(order)
    # a branching order over part of the indices ignores the others
    order = order[:rng.randint(0, n)]
    assert max_independent_set(conflicts, order) == set_max_independent_set(conflicts, order)


def _induced(g, seq) -> bool:
    return all(not g.has_edge(seq[i], seq[j])
               for i in range(len(seq)) for j in range(i + 2, len(seq)))


@settings(max_examples=150, deadline=None)
@given(weighted_hosts(max_n=8), st.sampled_from((0, 1, Fraction(3, 2), 2, 2.5)))
def test_chordless_enumeration_is_induced_filter(host, l):
    g, rng = host
    x, y = _endpoints(g, rng)
    chordless = enumerate_chordless_paths(g, l, x, y).paths
    expected = tuple(p for p in enumerate_paths(g, l, x, y).paths if _induced(g, p.sequence))
    assert chordless == expected


def test_far_conflicts_reject_bad_members():
    g = Graph(range(3), [(0, 1), (1, 2)])
    with pytest.raises(InputError):
        far_conflicts(g, [frozenset([0]), frozenset()], 1)
    with pytest.raises(InputError):
        far_conflicts(g, [frozenset([0]), frozenset([7])], 1)



def test_far_conflicts_use_float_tolerance():
    # 0.7 + 0.2 + 0.1 sums to just below 1: within TOL of r = 1, so not closer
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)], {(0, 1): 0.7, (1, 2): 0.2, (2, 3): 0.1})
    members = [frozenset([0]), frozenset([3])]
    assert set_far_conflicts(g, members, 1) == [set(), set()]
    assert far_conflicts(g, members, 1) == [set(), set()]
    assert far_conflicts(g, members, 1.5) == [{1}, {0}]
