"""The mask-based rooted-grid solvers against their frozenset versions
(``set_oracles``): the exhaustive acceptance oracle, the boundary DP and the
blocker scan, on grids up to 4x5 and on connected random graphs of at most
12 vertices, each with three random root sets; the dominance-pruned DP on
hosts with two planted disjoint supports; and the 6x6 rooted grid.  The
exhaustive oracle, which explores each search state once, is also checked
against its earlier mask search, which revisits them, on both host families
and a pinned path, and finds no pair on the 5x5 rooted grid.  The DP, whose
blocks are flat int entries, is checked against its earlier ``(label,
mask)`` encoding on both host families, for the very pair it returns, in
the default sweep order and in random ones, and on a planted 5x5 rooted
grid whose pair is found late; every state it hands to its dominance
pruning must hold ascending block entries with disjoint masks, in any sweep
order; one DP call on the 6x6 rooted grid must peak below 4 MiB of traced
memory.  The blocker is also checked
against the brute-force first smallest blocker on hosts, connected or not,
with one to three root sets, and each support it cuts for being a support
that no single vertex can leave.  The minimal-support scan of the rooted
dichotomy is checked against its frozenset version, and the dichotomy's
certificates on small unit and Fraction-weighted hosts against the set
oracles."""

import gc
import itertools
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_menger import acceptance, trees
from coarse_menger.acceptance import (
    _RootedSupports,
    exhaustive_two_disjoint_supports,
    root_search_order,
)
from coarse_menger.errors import CapacityError, InputError
from coarse_menger.generators import grid, grid_column, grid_row, rooted_p3_grid
from coarse_menger.graph import Graph, leq, set_distance
from coarse_menger.trees import (
    _minimal_supports,
    _SupportMasks,
    min_degree_decomposition,
    min_transversal_blocker,
    rooted_fat_minor_ep,
    two_disjoint_connected_transversals,
)

from conftest import random_connected
from set_oracles import (
    memo_exhaustive_two_disjoint_supports,
    pair_two_disjoint_connected_transversals,
    set_exhaustive_two_disjoint_supports,
    set_min_transversal_blocker,
    set_minimal_supports,
    set_two_disjoint_connected_transversals,
)


@st.composite
def rooted_hosts(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    if draw(st.booleans()):
        g = grid(draw(st.integers(min_value=1, max_value=4)),
                 draw(st.integers(min_value=2, max_value=5)))
    else:
        g = random_connected(rng, draw(st.integers(min_value=3, max_value=12)),
                             p=draw(st.sampled_from((0.1, 0.2, 0.35))))
    # two disjoint supports need two vertices in each root set: mostly draw more
    most = max(2, len(g) // 2)
    roots = [frozenset(rng.sample(g.vertices, min(len(g), rng.randint(1, most))))
             for _ in range(3)]
    return g, roots


@st.composite
def planted_hosts(draw):
    """Connected hosts of 6-8 vertices (so the sweep boundary stays within
    the DP's cap) holding two disjoint random trees, each with its own
    distinct representatives of three root sets, plus stray vertices and
    random extra edges."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    n = draw(st.integers(min_value=6, max_value=8))
    verts = list(range(n))
    rng.shuffle(verts)
    a = rng.randint(3, n - 3)
    b = rng.randint(3, n - a)
    sides = (verts[:a], verts[a:a + b])
    edges = set()
    for side in sides:
        for i in range(1, len(side)):
            edges.add(frozenset((side[i], rng.choice(side[:i]))))
    for i in range(a + b, n):
        edges.add(frozenset((verts[i], rng.choice(verts[:i]))))
    edges.add(frozenset((sides[0][0], sides[1][0])))  # one host component
    p = draw(st.sampled_from((0.0, 0.1, 0.25)))
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            edges.add(frozenset((u, v)))
    g = Graph(range(n), [tuple(sorted(e)) for e in edges])
    reps = [rng.sample(side, 3) for side in sides]
    roots = [frozenset({reps[0][i], reps[1][i]} | set(rng.sample(range(n), rng.randint(0, 2))))
             for i in range(3)]
    return g, roots


def _outcome(solver, *args):
    """The solver's answer, or the type of the capacity refusal."""
    try:
        return solver(*args)
    except CapacityError:
        return CapacityError


def _has_distinct_reps(roots, side) -> bool:
    pools = [sorted(r & side) for r in roots]
    return any(len(set(t)) == len(t) for t in itertools.product(*pools))


def _in_search_order(g, roots):
    """The root sets in the order the oracle searches them, for the
    references, which search them in the order given."""
    return [roots[i] for i in root_search_order(g, roots)]


@settings(max_examples=120, deadline=None)
@given(rooted_hosts())
def test_exhaustive_oracle_returns_the_same_pair(host):
    g, roots = host
    assert exhaustive_two_disjoint_supports(g, roots) == \
        set_exhaustive_two_disjoint_supports(g, _in_search_order(g, roots))


@settings(max_examples=150, deadline=None)
@given(rooted_hosts())
def test_exhaustive_oracle_agrees_with_the_revisiting_search(host):
    g, roots = host
    assert exhaustive_two_disjoint_supports(g, roots) == \
        memo_exhaustive_two_disjoint_supports(g, _in_search_order(g, roots))


@settings(max_examples=150, deadline=None)
@given(planted_hosts())
def test_exhaustive_oracle_first_find_on_planted_hosts(host):
    # planted hosts always hold a pair, so the first find itself is compared
    g, roots = host
    got = exhaustive_two_disjoint_supports(g, roots)
    assert got is not None
    assert got == memo_exhaustive_two_disjoint_supports(g, _in_search_order(g, roots))
    _assert_valid_witness(g, roots, got)


@settings(max_examples=100, deadline=None)
@given(st.one_of(rooted_hosts(), planted_hosts()))
def test_exhaustive_oracle_verdict_is_free_of_the_root_order(host):
    # the search is complete in every order of the root sets, which is what
    # lets the oracle choose its own: each of the six orders is forced on it,
    # and each order of the input is given to it
    g, roots = host
    verdicts = set()
    for order in itertools.permutations(range(3)):
        with mock.patch.object(acceptance, "root_search_order", lambda g, roots: order):
            forced = exhaustive_two_disjoint_supports(g, roots)
        given_order = exhaustive_two_disjoint_supports(g, [roots[i] for i in order])
        for got in (forced, given_order):
            verdicts.add(got is not None)
            if got is not None:
                _assert_valid_witness(g, roots, got)
    assert len(verdicts) == 1


@pytest.mark.parametrize("w", [3, 4, 5, 6])
def test_exhaustive_oracle_starts_its_trunk_in_the_first_row(w):
    # all three root sets have w vertices; the first row meets both columns,
    # so it is the start, and its nearest set, the first column, the end
    spec = rooted_p3_grid(w)
    assert spec.roots[1] == grid_row(w, w, 0)
    assert root_search_order(spec.graph, spec.roots) == (1, 2, 0)


def test_root_search_order_puts_the_smallest_set_first():
    # (start, attachment, end) positions on the path 0-1-...-6
    g = grid(1, 7)

    def order(*sets):
        return root_search_order(g, [frozenset(r) for r in sets])

    # size first: {0, 1} is nearest to both others but has two vertices
    assert order({0, 1}, {6}, {3}) == (2, 1, 0)
    # equal sizes: the least total distance starts, the nearest set ends
    assert order({0}, {5}, {6}) == (1, 0, 2)
    # equal sizes and totals: the first in the input starts
    assert order({0}, {6}, {2, 3, 4}) == (0, 1, 2)
    # two sets at equal distance from the start: the smaller one ends
    assert order({3}, {0, 1}, {5}) == (0, 1, 2)


def test_exhaustive_oracle_refuses_a_root_outside_the_graph():
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(InputError, match="9"):
        exhaustive_two_disjoint_supports(g, [frozenset({9}), frozenset({1}), frozenset({2})])


@pytest.mark.parametrize("count", [2, 4])
@pytest.mark.parametrize("search", [exhaustive_two_disjoint_supports, root_search_order])
def test_exhaustive_oracle_refuses_other_than_three_root_sets(search, count):
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(InputError, match=f"three root sets, got {count}"):
        search(g, [frozenset({i}) for i in range(count)])


def test_exhaustive_oracle_keys_a_state_by_its_end_vertex():
    # the trunk {1, 2} is met first ending at 2 (from the start 1), then
    # ending at 1, a root of the third set, from the start 2; only the second
    # attaches, and its attachment 0 is the first find.  The isolated vertex
    # 6 is no part of any search; it makes the first set the smallest and the
    # third smaller than the second, so the oracle keeps this order
    g = Graph(range(7), [(0, 1), (1, 2), (2, 3), (3, 5), (4, 5)])
    roots = [frozenset({1, 2, 5}), frozenset({0, 2, 3, 6}), frozenset({1, 4, 6})]
    assert root_search_order(g, roots) == (0, 1, 2)
    expect = (frozenset({0, 1, 2}), frozenset({3, 4, 5}))
    assert memo_exhaustive_two_disjoint_supports(g, roots) == expect
    assert exhaustive_two_disjoint_supports(g, roots) == expect


def test_exhaustive_oracle_leaves_no_reference_cycle():
    # its recursive searches refer to themselves and hold the memo; with the
    # collector off, a cycle left behind would keep that memo alive
    spec = rooted_p3_grid(4)
    g, roots = spec.graph, list(spec.roots)
    gc.collect()
    gc.disable()
    try:
        assert exhaustive_two_disjoint_supports(g, roots) is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def _assert_valid_witness(g, roots, witness):
    side1, side2 = witness
    assert not side1 & side2
    for side in (side1, side2):
        assert g.is_connected_set(side)
        assert _has_distinct_reps(roots, side)


@settings(max_examples=80, deadline=None)
@given(rooted_hosts())
def test_boundary_dp_agrees_and_its_witness_is_valid(host):
    g, roots = host
    got = _outcome(two_disjoint_connected_transversals, g, roots)
    expect = _outcome(set_two_disjoint_connected_transversals, g, roots)
    if expect is CapacityError or expect is None:
        assert got is expect
        return
    assert got is not None and got is not CapacityError
    _assert_valid_witness(g, roots, got)


@settings(max_examples=150, deadline=None)
@given(planted_hosts())
def test_pruned_dp_finds_a_valid_pair_on_planted_hosts(host):
    g, roots = host
    assert set_two_disjoint_connected_transversals(g, roots) is not None
    witness = two_disjoint_connected_transversals(g, roots)
    assert witness is not None
    _assert_valid_witness(g, roots, witness)


@settings(max_examples=150, deadline=None)
@given(rooted_hosts())
def test_boundary_dp_returns_the_pair_encoding_result(host):
    # the same pair, None or capacity refusal as the (label, mask) encoding
    g, roots = host
    assert _outcome(two_disjoint_connected_transversals, g, roots) == \
        _outcome(pair_two_disjoint_connected_transversals, g, roots)


@settings(max_examples=150, deadline=None)
@given(planted_hosts())
def test_boundary_dp_first_find_on_planted_hosts(host):
    # planted hosts always hold a pair, so the first final state is compared
    g, roots = host
    got = two_disjoint_connected_transversals(g, roots)
    assert got is not None
    assert got == pair_two_disjoint_connected_transversals(g, roots)


@st.composite
def ordered_hosts(draw):
    """A rooted or planted host with a random sweep order of its vertices."""
    g, roots = draw(st.one_of(rooted_hosts(), planted_hosts()))
    return g, roots, draw(st.permutations(g.vertices))


@settings(max_examples=300, deadline=None)
@given(ordered_hosts())
def test_boundary_dp_returns_the_pair_encoding_result_in_any_order(host):
    # in a random order the root sets run out at different phases, which is
    # when the DP drops the states that can no longer finish
    g, roots, order = host
    assert _outcome(two_disjoint_connected_transversals, g, roots, order) == \
        _outcome(pair_two_disjoint_connected_transversals, g, roots, order)


@settings(max_examples=200, deadline=None)
@given(ordered_hosts())
def test_boundary_dp_states_hold_ascending_disjoint_blocks(host):
    # a forget inserts the shrunk entry by bisection, trusting that the
    # entries of a state are sorted and their masks disjoint; every state
    # of every step (with no, one or several forgets) must keep that
    g, roots, order = host
    drop = trees._drop_dominated

    def checked(layer):
        for blocks, _, _, _ in layer:
            assert all(a < b for a, b in zip(blocks, blocks[1:]))
            seen = 0
            for e in blocks:
                assert not seen & e >> 1
                seen |= e >> 1
        return drop(layer)

    with mock.patch.object(trees, "_drop_dominated", checked):
        _outcome(two_disjoint_connected_transversals, g, roots, order)


def test_boundary_dp_returns_the_pair_encoding_result_on_a_planted_5x5_grid():
    # bottom-row vertices added to two root sets: the pair is a long chain of
    # labels, first found only near the end of the sweep
    spec = rooted_p3_grid(5)
    g, roots = spec.graph, list(spec.roots)
    roots = [roots[0] | {23}, roots[1] | {24}, roots[2]]
    got = two_disjoint_connected_transversals(g, roots)
    assert got is not None
    _assert_valid_witness(g, roots, got)
    assert got == pair_two_disjoint_connected_transversals(g, roots)


def test_boundary_dp_keeps_one_layer_on_the_6x6_rooted_grid():
    # one layer of states with shared predecessor chains: an 18 MiB peak
    # when every layer is kept until the DP returns
    spec = rooted_p3_grid(6)
    g, roots = spec.graph, list(spec.roots)
    tracemalloc.start()
    try:
        assert two_disjoint_connected_transversals(g, roots) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("rows,cols", [(2, 3), (2, 5), (3, 4), (4, 5)])
def test_boundary_dp_witness_on_column_rooted_grids(rows, cols):
    # any two rows are disjoint supports for the first, middle and last column
    g = grid(rows, cols)
    roots = [grid_column(rows, cols, c) for c in (0, cols // 2, cols - 1)]
    witness = two_disjoint_connected_transversals(g, roots)
    assert set_two_disjoint_connected_transversals(g, roots) is not None
    _assert_valid_witness(g, roots, witness)


@settings(max_examples=120, deadline=None)
@given(rooted_hosts(), st.integers(min_value=0, max_value=6))
def test_blocker_returns_the_same_set(host, size_cap):
    g, roots = host
    assert _outcome(min_transversal_blocker, g, roots, size_cap) == \
        _outcome(set_min_transversal_blocker, g, roots, size_cap)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_blocker_is_the_first_smallest_blocker_for_one_to_three_root_sets(seed):
    # hosts connected or not, each with 1-3 root sets; the brute force scans
    # every vertex set by size, then lexicographically
    rng = random.Random(seed)
    g, roots = _random_rooted_host(rng, rng.randint(1, 10))
    assert _outcome(min_transversal_blocker, g, roots, len(g)) == \
        _outcome(set_min_transversal_blocker, g, roots, len(g))


@settings(max_examples=200, deadline=None)
@given(rooted_hosts(), st.integers(min_value=0, max_value=10**6),
       st.sampled_from((0.6, 0.85, 1.0)))
def test_minimal_support_is_a_support_that_no_vertex_can_leave(host, seed, keep):
    g, roots = host
    model = _SupportMasks(g, roots)
    rng = random.Random(seed)
    comp = model.supporting_component(
        sum(b for b in model.bit.values() if rng.random() < keep))
    if not comp:
        return
    support = model.minimal_support(comp)
    assert support & ~comp == 0
    side = frozenset(v for v, b in model.bit.items() if support & b)
    assert g.is_connected_set(side) and _has_distinct_reps(roots, side)
    for v in side:
        rest = side - {v}
        assert not (rest and g.is_connected_set(rest) and _has_distinct_reps(roots, rest))


@pytest.mark.parametrize("w", [3, 4])
def test_rooted_grid_answers_match(w):
    spec = rooted_p3_grid(w)
    g, roots = spec.graph, list(spec.roots)
    assert exhaustive_two_disjoint_supports(g, roots) is None
    assert set_exhaustive_two_disjoint_supports(g, roots) is None
    assert two_disjoint_connected_transversals(g, roots) is None
    assert set_two_disjoint_connected_transversals(g, roots) is None
    z = min_transversal_blocker(g, roots, 2 * w)
    assert len(z) == w
    assert z == set_min_transversal_blocker(g, roots, 2 * w)


def test_exhaustive_oracle_finds_no_pair_on_the_5x5_rooted_grid():
    spec = rooted_p3_grid(5)
    assert exhaustive_two_disjoint_supports(spec.graph, list(spec.roots)) is None


def test_rooted_grid_6_has_no_pair_and_the_first_row_blocks():
    spec = rooted_p3_grid(6)
    g, roots = spec.graph, list(spec.roots)
    assert two_disjoint_connected_transversals(g, roots) is None
    z = min_transversal_blocker(g, roots, 12)
    assert z == grid_row(6, 6, 0)
    sup = _RootedSupports(g, roots)
    assert sup.survives(0)
    assert not sup.survives(sup.mask(z))


# ---------------------------------------------------------------------------
# the rooted dichotomy on small hosts

PATH_PATTERNS = {
    1: Graph([1], []),
    2: Graph([1, 2], [(1, 2)]),
    3: Graph([1, 2, 3], [(1, 2), (2, 3)]),
}


def _random_rooted_host(rng, n: int, weighted: bool = False):
    """A host of ``n`` vertices, connected or not, with 1-3 random root sets;
    with ``weighted``, Fraction weights from 1/2 to 2."""
    if rng.random() < 0.7:
        g = random_connected(rng, n, p=rng.choice((0.1, 0.2, 0.35)))
    else:
        g = Graph(range(n), [e for e in itertools.combinations(range(n), 2)
                             if rng.random() < 0.3])
    if weighted:
        g = Graph(g.vertices, g.edges, {e: Fraction(rng.randint(1, 4), 2) for e in g.edges})
    roots = [frozenset(rng.sample(range(n), rng.randint(1, max(1, n // 2))))
             for _ in range(rng.randint(1, 3))]
    return g, roots


NO_SUPPORT_HOSTS = [
    (Graph(range(4), [(0, 1), (1, 2), (2, 3)]), [frozenset([0]), frozenset([0])]),
    (Graph(range(4), [(0, 1), (2, 3)]), [frozenset([0]), frozenset([2])]),
    (Graph(range(3), []), [frozenset([0, 1]), frozenset([1, 2])]),
]


def _seeded_host(seed: int):
    rng = random.Random(seed)
    return _random_rooted_host(rng, rng.randint(1, 12))


@pytest.mark.parametrize("host", NO_SUPPORT_HOSTS + [_seeded_host(seed) for seed in range(30)])
def test_minimal_support_scan_returns_the_same_list(host):
    g, roots = host
    assert _minimal_supports(_SupportMasks(g, roots)) == set_minimal_supports(g, roots)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.booleans(),
       st.integers(min_value=1, max_value=3),
       st.sampled_from((1, Fraction(3, 2), 2, 3)))
def test_rooted_dichotomy_certificates_hold(seed, weighted, k, r):
    rng = random.Random(seed)
    g, roots = _random_rooted_host(rng, rng.randint(2, 9), weighted)
    pattern = PATH_PATTERNS[len(roots)]
    res = rooted_fat_minor_ep(g, min_degree_decomposition(g), pattern,
                              dict(zip((1, 2, 3), roots)), k, r)
    if res.branch == "packing":
        assert len(res.models) == k
        for a, b in itertools.combinations(res.models, 2):
            assert leq(r, set_distance(g, a.union_vertices(), b.union_vertices()))
        return
    z = res.centered.z.members
    assert res.centered.center_count <= res.center_budget
    assert res.centered.radius == res.radius_budget
    assert all(z & support for support in set_minimal_supports(g, roots))
    if not weighted and r <= 1:
        assert len(z) == len(set_min_transversal_blocker(g, roots, len(g)))
