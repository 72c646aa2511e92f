"""The bitmask solvers against their set-based oracles (``set_oracles``), on
unit, Fraction- and float-weighted random hosts and random set systems."""

import random
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_menger.covering import (
    CoverInstance,
    _ball_hitting,
    duality_sweep,
    min_ball_hitting,
    min_separating_balls,
    min_set_cover,
)
from coarse_menger.errors import InputError, InternalInconsistencyError
from coarse_menger.generators import grid, grid_column
from coarse_menger.graph import (
    INF,
    Graph,
    VertexSet,
    _greedy_cover,
    _hit_masks,
    _member_masks,
    _within,
    certify_centered,
)
from coarse_menger import packing, trees
from coarse_menger.packing import (
    Adjacency,
    PackingInstance,
    _enumerate_a_paths,
    far_conflicts,
    gallai_packing,
    max_far_packing,
    max_independent_set,
    menger_packing,
)
from coarse_menger.paths import (_enumerate, _path_family, enumerate_chordless_paths,
                                 enumerate_paths, is_lxy_path)

from conftest import random_connected
from set_oracles import (
    _ball,
    decimal,
    exact_set_distance,
    find_clique,
    nx_menger_packing,
    plain_duality_sweep,
    scan_separating_balls,
    separated,
    set_ball_cover,
    set_certify_centered,
    set_enumerate_paths,
    set_far_conflicts,
    set_far_packing,
    set_hit_masks,
    set_hitting_center_search,
    set_max_independent_set,
    set_min_set_cover,
    set_near_conflicts,
    set_sharing_conflicts,
    within_through,
)

RADII = (0.3, Fraction(1, 2), 1, Fraction(3, 2), 2, 3)
WEIGHT_KINDS = {
    "unit": None,
    "fraction": (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2)),
    # 0.1 + 0.2 and 0.3 + 0.7 land next to the thresholds above
    "float": (0.1, 0.2, 0.3, 0.7, 1.0),
}


@st.composite
def weighted_hosts(draw, max_n: int = 9, kinds: dict = WEIGHT_KINDS):
    n = draw(st.integers(min_value=2, max_value=max_n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    g = random_connected(rng, n, p=draw(st.sampled_from((0.15, 0.3, 0.5))))
    choices = kinds[draw(st.sampled_from(sorted(kinds)))]
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


def _masks(conflicts):
    """Adjacency sets as adjacency masks."""
    return [sum(1 << j for j in row) for row in conflicts]


def _mis_in_order(conflicts, order):
    """``max_independent_set`` branching in ``order``: the relation (adjacency
    sets), restricted to ``order``'s indices and relabelled by position in it,
    with the chosen positions mapped back."""
    pos = {v: k for k, v in enumerate(order)}
    adj = [sum(1 << pos[u] for u in conflicts[v] if u in pos) for v in order]
    chosen, nodes = max_independent_set(adj)
    return [order[k] for k in chosen], nodes


@settings(max_examples=150, deadline=None)
@given(weighted_hosts(), st.sampled_from(RADII))
def test_far_conflicts_match_set_distance_loop(host, r):
    g, rng = host
    members = _members(g, rng)
    conflicts = set_far_conflicts(g, members, r)
    rows = far_conflicts(g, members, r)
    assert rows == _masks(conflicts)
    # a row's len is its degree, as for the adjacency set
    assert list(map(len, rows)) == list(map(len, conflicts))


@settings(max_examples=100, deadline=None)
@given(weighted_hosts(), st.sampled_from(RADII))
def test_mis_on_far_conflicts_matches_oracle(host, r):
    g, rng = host
    members = _members(g, rng)
    conflicts = set_far_conflicts(g, members, r)
    order = list(range(len(members)))
    expected = set_max_independent_set(conflicts, order)
    assert max_independent_set(far_conflicts(g, members, r)) == expected
    assert _mis_in_order(conflicts, order) == expected
    rng.shuffle(order)
    assert _mis_in_order(conflicts, order) == set_max_independent_set(conflicts, order)


#: edge weights of the conflict-row hosts: every kind, ints included
ROW_WEIGHTS = dict(WEIGHT_KINDS, int=(1, 2, 3))


class _Captured(Exception):
    pass


def _first_rows(module, call):
    """The conflict rows that ``call()`` hands to its first
    ``max_independent_set``, which ``module`` imports."""
    seen = []

    def capture(adj, enough=None):
        seen.append(list(adj))
        raise _Captured

    with mock.patch.object(module, "max_independent_set", capture):
        with pytest.raises(_Captured):
            call()
    return seen[0]


def _row_host(seed, kind):
    rng = random.Random(seed)
    g = random_connected(rng, rng.randint(2, 9), p=rng.choice((0.15, 0.3, 0.5)))
    if ROW_WEIGHTS[kind] is not None:
        g = Graph(g.vertices, g.edges, {e: rng.choice(ROW_WEIGHTS[kind]) for e in g.edges})
    return g, rng


def _connected_set(g, rng):
    """A connected vertex set grown from a random vertex."""
    grown = {rng.choice(g.vertices)}
    for _ in range(rng.randint(0, len(g) - 1)):
        rim = sorted({n for v in grown for n in g.neighbors(v)} - grown)
        grown.add(rng.choice(rim))
    return frozenset(grown)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(sorted(ROW_WEIGHTS)))
def test_gallai_rows_match_the_disjointness_oracle(seed, kind):
    g, rng = _row_host(seed, kind)
    a = frozenset(rng.sample(g.vertices, rng.randint(1, len(g))))
    rows = _first_rows(packing, lambda: gallai_packing(g, a))
    sets = [p.vertex_set for p in _enumerate_a_paths(g, a)]
    assert rows == set_sharing_conflicts(sets)
    # perfbench's tracer sizes the relation with len() on each row
    assert all(type(row) is Adjacency for row in rows)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(sorted(ROW_WEIGHTS)),
       st.sampled_from(RADII))
def test_easy_tree_rows_match_the_per_pair_oracle(seed, kind, r):
    # members conflict iff they are within 2r, a float r read as its
    # shortest decimal, like every other radius
    g, rng = _row_host(seed, kind)
    fam = trees.ExchangeableFamily(
        g, [(_connected_set(g, rng),) for _ in range(rng.randint(1, 6))], 1)
    td = trees.min_degree_decomposition(g)
    rows = _first_rows(trees, lambda: trees.easy_tree_hitting(
        g, frozenset(g.vertices), fam, trees.Location(g, ()), td, r=r, k=2,
        xi=td.max_bag_size, eta=0))
    unions = [fam.union(m) for m in fam.members]
    assert rows == set_near_conflicts(g, unions, 2 * decimal(r))
    assert all(type(row) is Adjacency for row in rows)


def test_easy_tree_members_conflict_at_2r_and_not_just_below():
    # the members are 1/2 apart; 2r falls short of that by 2e-10 or by 2e-8,
    # so they are farther than 2r on every host, and within 2r at r = 1/4
    def rows(weights, r):
        g = Graph([0, 1], [(0, 1)], weights)
        fam = trees.ExchangeableFamily(g, [(frozenset([0]),), (frozenset([1]),)], 1)
        td = trees.min_degree_decomposition(g)
        return _first_rows(trees, lambda: trees.easy_tree_hitting(
            g, frozenset(g.vertices), fam, trees.Location(g, ()), td, r=r, k=2,
            xi=td.max_bag_size, eta=0))

    assert rows({(0, 1): 0.5}, 0.25 - 1e-10) == [0, 0]
    assert rows({(0, 1): 0.5}, 0.25 - 1e-8) == [0, 0]
    assert rows({(0, 1): Fraction(1, 2)}, 0.25 - 1e-10) == [0, 0]
    assert rows({(0, 1): Fraction(1, 2)}, Fraction(1, 4) - Fraction(1, 10**10)) == [0, 0]
    assert rows({(0, 1): 0.5}, 0.25) == rows({(0, 1): Fraction(1, 2)}, 0.25) == [0b10, 0b01]


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
    assert _mis_in_order(conflicts, order) == set_max_independent_set(conflicts, order)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=14),
       st.integers(min_value=0, max_value=6),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=10**6))
def test_mis_enough_finds_the_first_k_set(n, k, p, seed):
    # the first k-clique of the complementary "far" relation, or none
    rng = random.Random(seed)
    conflicts = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                conflicts[i].add(j)
                conflicts[j].add(i)
    far = [set(range(n)) - conflicts[i] - {i} for i in range(n)]
    chosen, _ = max_independent_set(_masks(conflicts), enough=k)
    assert len(chosen) <= k
    assert (chosen if len(chosen) == k else None) == find_clique(far, k)
    # short of ``enough``, the result is a maximum independent set
    if len(chosen) < k:
        assert len(chosen) == len(max_independent_set(_masks(conflicts))[0])


def _induced(g, seq) -> bool:
    return all(not g.has_edge(seq[i], seq[j])
               for i in range(len(seq)) for j in range(i + 2, len(seq)))


@settings(max_examples=150, deadline=None)
@given(weighted_hosts(max_n=8), st.sampled_from((0, 1, Fraction(3, 2), 2, 2.5)))
def test_chordless_enumeration_is_induced_filter(host, l):
    g, rng = host
    x, y = _endpoints(g, rng)
    chordless = enumerate_chordless_paths(g, l, x, y).paths
    expected = tuple(p for p in set_enumerate_paths(g, l, x, y).paths if _induced(g, p.sequence))
    assert chordless == expected


@settings(max_examples=200, deadline=None)
@given(weighted_hosts(max_n=8), st.sampled_from((0, 0, 1, Fraction(3, 2), 2)), st.booleans())
def test_minimal_mode_keeps_the_chordless_paths_with_a_clean_interior(host, l, a_paths):
    # l = 0 is drawn twice as often: it is the sweep's case; x = y is how the
    # Gallai side enumerates A-paths
    g, rng = host
    x, y = _endpoints(g, rng)
    if a_paths:
        y = x
    full = enumerate_chordless_paths(g, l, x, y).paths
    minimal = _enumerate(g, l, x, y, None, g.closed_neighborhood_masks(), minimal=True).paths
    assert minimal == tuple(p for p in full if not set(p.sequence[1:-1]) & (x | y))
    for p in minimal:
        assert {p.end_a, p.end_b} & x and {p.end_a, p.end_b} & y and _induced(g, p.sequence)
        assert (p.end_a in x and p.end_b in y) or (p.end_a in y and p.end_b in x)
    if l == 0:
        # the solvers' family: inclusion-minimal, and below every path
        sweep = [frozenset(p) for p in _path_family(g, 0, x, y)]
        assert set(sweep) <= {p.vertex_set for p in minimal}
        assert not any(s < t for s in sweep for t in sweep)
        for p in full:
            assert any(q.vertex_set <= p.vertex_set for q in minimal)
            assert any(s <= p.vertex_set for s in sweep)


def test_far_conflicts_reject_bad_members():
    g = Graph(range(3), [(0, 1), (1, 2)])
    with pytest.raises(InputError):
        far_conflicts(g, [frozenset([0]), frozenset()], 1)
    with pytest.raises(InputError):
        far_conflicts(g, [frozenset([0]), frozenset([7])], 1)



def test_far_conflicts_read_float_weights_as_decimals():
    # 0.7 + 0.2 + 0.1 is exactly 1 as decimals: not closer than r = 1
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)], {(0, 1): 0.7, (1, 2): 0.2, (2, 3): 0.1})
    members = [frozenset([0]), frozenset([3])]
    assert set_far_conflicts(g, members, 1) == [set(), set()]
    assert far_conflicts(g, members, 1) == [0, 0]
    assert far_conflicts(g, members, 1.5) == [0b10, 0b01]


@settings(max_examples=150, deadline=None)
@given(weighted_hosts(max_n=8), st.sampled_from((0, 1, Fraction(3, 2), 2)),
       st.sampled_from((None, 3)))
def test_path_enumeration_matches_seen_set_search(host, l, cap):
    g, rng = host
    x, y = _endpoints(g, rng)
    assert enumerate_paths(g, l, x, y, cap) == set_enumerate_paths(g, l, x, y, cap)


# -- set cover ----------------------------------------------------------------


def _set_system(rng):
    """Unsorted universe, candidates with unsorted ids; some sets empty or
    reaching outside the universe."""
    universe = rng.sample(range(40), rng.randint(0, 12))
    sets = {}
    for c in rng.sample(range(60), rng.randint(1, 16)):
        pool = universe + [rng.randrange(40, 50)]
        sets[c] = frozenset(rng.sample(pool, rng.randint(0, min(len(pool), 4))))
    return universe, sets


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_min_set_cover_matches_oracle(seed):
    # the oracle lets a later sibling take a candidate an earlier one took;
    # the solver bans it, so it returns the same cover in no more nodes
    universe, sets = _set_system(random.Random(seed))
    try:
        expected, oracle_nodes = set_min_set_cover(universe, sets)
    except InternalInconsistencyError:
        with pytest.raises(InternalInconsistencyError):
            min_set_cover(universe, sets)
        return
    chosen, nodes = min_set_cover(universe, sets)
    assert chosen == expected
    assert nodes <= oracle_nodes


def test_min_set_cover_keeps_the_first_smallest_leaf():
    # after [33, 37] lowers the bound, the sibling leaf [33, 58] of the same
    # size must not replace it
    universe = [14, 30, 21, 22, 13, 39, 36, 11, 0]
    sets = {
        37: {11, 14, 30, 36, 39}, 10: {21}, 42: set(), 16: set(),
        33: {0, 13, 21, 22, 30, 36}, 13: set(), 25: {0, 21, 36},
        6: {0, 14, 21, 22, 30, 36, 39}, 58: {0, 11, 14, 22, 30, 36, 39},
        55: {36}, 38: set(),
    }
    sets = {c: frozenset(s) for c, s in sets.items()}
    assert set_min_set_cover(universe, sets) == ([33, 37], 4)
    assert min_set_cover(universe, sets) == ([33, 37], 4)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_greedy_cover_picks_like_the_set_loop(seed):
    rng = random.Random(seed)
    universe, sets = _set_system(rng)
    ids = sorted(sets)
    masks = [sum(1 << universe.index(e) for e in sets[c] if e in universe) for c in ids]
    limit = rng.choice((None, 0, 1, 2, 3))
    # the greedy loop of ``certify_centered`` (``min_set_cover``'s without a
    # limit), over the set-based sets
    picks, uncovered = [], set(universe)
    while uncovered and (limit is None or len(picks) < limit):
        best = max(ids, key=lambda c: (len(sets[c] & uncovered), -c))
        if not sets[best] & uncovered:
            break
        picks.append(best)
        uncovered -= sets[best]
    chosen, rest = _greedy_cover((1 << len(universe)) - 1, masks, limit)
    assert [ids[i] for i in chosen] == picks
    assert rest == sum(1 << universe.index(e) for e in uncovered)


@settings(max_examples=300, deadline=None)
@given(weighted_hosts(), st.sampled_from(RADII), st.integers(min_value=0, max_value=9),
       st.sampled_from(("exact", "greedy")))
def test_certify_centered_matches_oracle(host, r, k, mode):
    g, rng = host
    z = frozenset(rng.sample(g.vertices, rng.randint(0, len(g))))
    got = certify_centered(g, z, k, r, mode)
    expected = set_certify_centered(g, z, k, r, mode)
    assert type(got) is type(expected)
    if hasattr(expected, "centers"):
        assert got.centers.members == expected.centers.members
    else:
        assert got == expected


def _budget_centers(g, far, budget, radius):
    """The centers of ``_ball_hitting``'s first cover within ``budget``, or
    None."""
    cover = _ball_hitting(g, far, radius, budget)
    return None if cover is None else cover.centered.centers.members


@settings(max_examples=300, deadline=None)
@given(weighted_hosts(), st.sampled_from(RADII), st.integers(min_value=0, max_value=4))
def test_hitting_center_search_matches_oracle(host, radius, budget):
    g, rng = host
    inside = frozenset(rng.sample(g.vertices, rng.randint(1, len(g))))
    far = [frozenset(rng.sample(sorted(inside), rng.randint(1, len(inside))))
           for _ in range(rng.randint(0, 6))]
    l = VertexSet(inside, g)
    assert (_budget_centers(g, far, budget, radius)
            == set_hitting_center_search(g, l, far, budget, radius))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_hitting_center_search_matches_oracle_on_pair_systems(seed):
    # radius-0 balls on an edgeless host are single vertices, so the members
    # are the sets to hit; members of two vertices tie every pivot count
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    g = Graph(range(n), [])
    far = [frozenset(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 12))]
    l = VertexSet(frozenset(g.vertices), g)
    budget = rng.randint(0, n)
    assert (_budget_centers(g, far, budget, 0)
            == set_hitting_center_search(g, l, far, budget, 0))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from((1, 2)))
def test_certify_centered_search_order_on_whole_vertex_sets(seed, r):
    # with the budget at |V| the search returns its first leaf, which depends
    # on the pivot and branch order
    rng = random.Random(seed)
    g = random_connected(rng, rng.randint(2, 12), p=0.2)
    z = frozenset(g.vertices)
    got = certify_centered(g, z, len(g), r)
    assert got.centers.members == set_certify_centered(g, z, len(g), r).centers.members


@settings(max_examples=300, deadline=None)
@given(weighted_hosts(), st.sampled_from(RADII))
def test_hit_masks_match_the_per_member_loop(host, r):
    # overlapping members, and repeats of the same member
    g, rng = host
    family = _members(g, rng)
    family += rng.choices(family, k=rng.randint(0, 3))
    rng.shuffle(family)
    assert _hit_masks(g, family, r) == set_hit_masks(g, family, r)


#: edge weights of the radius-test hosts; "mixed" puts int and Fraction
#: weights on one host, "mixed_float" int, Fraction and float weights
WITHIN_WEIGHTS = dict(WEIGHT_KINDS, int=(1, 2, 3), mixed=(1, 2, Fraction(1, 2), Fraction(2, 3)),
                      mixed_float=(1, Fraction(1, 2), 0.3, 0.7))


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(sorted(WITHIN_WEIGHTS)),
       st.booleans(), st.booleans())
def test_within_matches_the_per_pair_reference(seed, kind, connected, strict):
    # disconnected hosts put INF in the rows; the radii are 0, exact and float
    # values on every kind of host, every distance as given and as a Fraction
    # (r * scale on a distance), a sixth either side of one (r * scale off
    # the int lattice), and distances moved by 5e-10 either way, down to an
    # exact r
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    if connected:
        g = random_connected(rng, n, p=0.2)
    else:
        g = Graph(range(n), [(u, v) for u in range(n) for v in range(u + 1, n)
                             if rng.random() < 0.2])
    if WITHIN_WEIGHTS[kind] is not None:
        g = Graph(g.vertices, g.edges, {e: rng.choice(WITHIN_WEIGHTS[kind]) for e in g.edges})
    dists = sorted({d for c in g.vertices for d in g.dist_from(c).values() if d != INF}, key=float)
    d = rng.choice(dists)
    r = rng.choice((0, 1, Fraction(3, 2), 2, 0.3, 1.0, 2.5, d, float(d), Fraction(d),
                    Fraction(d) + Fraction(1, 6), max(Fraction(d) - Fraction(1, 6), 0),
                    d + 5e-10, float(d) - 5e-10, max(Fraction(d) - Fraction(5, 10**10), 0)))
    through = rng.choice((
        g.vertex_bits(),
        _member_masks(g, _members(g, rng)),
        {v: rng.getrandbits(4) for v in rng.sample(g.vertices, rng.randint(0, n))},
    ))
    centers = rng.choice((None, rng.sample(g.vertices, rng.randint(0, n))))
    got = _within(g, through, r, strict, centers)
    assert got == within_through(g, through, r, strict, centers)


def test_within_at_a_radius_equal_to_a_distance():
    # distances from 0 are 0, 1/2, 5/6 and 1 (scale 6: int rows 0, 3, 5, 6);
    # a vertex at exactly r is within r but not closer than r
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)],
              {(0, 1): Fraction(1, 2), (1, 2): Fraction(1, 3), (2, 3): Fraction(1, 6)})
    bit = g.vertex_bits()
    for r, within, closer in ((Fraction(5, 6), 0b0111, 0b0011), (1, 0b1111, 0b0111),
                              (Fraction(1, 2), 0b0011, 0b0001), (0, 0b0001, 0)):
        assert _within(g, bit, r, centers=[0]) == [within]
        assert _within(g, bit, r, strict=True, centers=[0]) == [closer]
    family = [frozenset([2]), frozenset([3]), frozenset([1, 3])]
    assert _within(g, _member_masks(g, family), Fraction(5, 6), centers=[0, 3]) == [0b101, 0b111]


# -- Menger flow ----------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=14),
       st.sampled_from((0.0, 0.1, 0.25, 0.5)),
       st.booleans(),
       st.integers(min_value=0, max_value=10**6))
def test_menger_packing_matches_networkx_flow(n, p, connected, seed):
    # disconnected hosts when not ``connected``; x and y may overlap or be empty
    rng = random.Random(seed)
    if connected and n:
        g = random_connected(rng, n, p)
    else:
        g = Graph(range(n), [(u, v) for u in range(n) for v in range(u + 1, n)
                             if rng.random() < p])
    x = frozenset(rng.sample(range(n), rng.randint(0, n)))
    y = frozenset(rng.sample(range(n), rng.randint(0, n)))
    assert menger_packing(g, x, y) == nx_menger_packing(g, x, y)


# -- duality sweep --------------------------------------------------------------

#: 1e-10 is a positive radius: paths through a common vertex are not
#: 1e-10-far
SWEEP_R = RADII + (1e-10, 1.0, 4)
SWEEP_BETA = (0, 0.25, Fraction(1, 2), 1, 1.5)


def _same_sweep(g, x, y, l, r_values, beta_values):
    report = duality_sweep(g, x, y, l, r_values, beta_values)
    assert report.to_json_dict() == plain_duality_sweep(
        g, x, y, l, r_values, beta_values).to_json_dict()
    return report


@settings(max_examples=200, deadline=None)
@given(weighted_hosts(), st.sampled_from((0, 1, 2)),
       st.lists(st.sampled_from(SWEEP_R), max_size=5),
       st.lists(st.sampled_from(SWEEP_BETA), max_size=4))
def test_duality_sweep_matches_the_plain_sweep(host, l, r_values, beta_values):
    # unsorted thresholds; repeats, and keys equal across types (1 and 1.0),
    # would share a cell and are refused
    g, rng = host
    x, y = _endpoints(g, rng)
    if any(len(set(values)) < len(values) for values in (r_values, beta_values)):
        with pytest.raises(InputError):
            duality_sweep(g, x, y, l, r_values, beta_values)
        return
    _same_sweep(g, x, y, l, r_values, beta_values)


@settings(max_examples=150, deadline=None)
@given(weighted_hosts(max_n=8, kinds=ROW_WEIGHTS), st.sampled_from((0, 1, Fraction(3, 2))),
       st.sampled_from((Fraction(1, 2), 1, 2)), st.sampled_from((0, Fraction(1, 2), 1)))
def test_the_public_solvers_match_the_full_chordless_route(host, l, r, beta):
    # the exact solvers read the minimal paths at l = 0: their sizes are those
    # over every chordless path, and their witnesses hold for every path
    g, rng = host
    x, y = _endpoints(g, rng)
    packing = max_far_packing(PackingInstance(g, x, y, l, r))
    cover = min_ball_hitting(CoverInstance(g, beta, l=l, x=x, y=y))
    chordless = enumerate_chordless_paths(g, l, x, y).paths
    assert packing.size == len(set_far_packing(g, chordless, r))
    assert cover.count == len(cover.centered.centers.members) \
        == len(set_ball_cover(g, chordless, beta))
    for p in packing.paths:
        assert is_lxy_path(g, p, l, x, y)
        if l == 0:  # a Menger path: it meets x at one end only, y at the other
            at_x, at_y = p.vertex_set & x, p.vertex_set & y
            assert len(at_x) == len(at_y) == 1 and at_x | at_y == {p.end_a, p.end_b}
    sets = [p.vertex_set for p in packing.paths]
    dist = exact_set_distance(g, sets)
    assert all(dist(s, t) >= decimal(r) for s, t in combinations(sets, 2))
    balls = frozenset().union(*(_ball(g, c, beta) for c in cover.centered.centers.members))
    assert all(balls & p.vertex_set for p in set_enumerate_paths(g, l, x, y).paths)


def test_duality_sweep_caps_a_tiny_positive_float_r_by_the_flow():
    # two paths through x = {0}: r = 1e-10 is positive, so they conflict and
    # the flow's one disjoint path caps the cell, as at r = 1
    g = Graph(range(4), [(0, 1), (0, 2), (1, 3), (2, 3)])
    report = _same_sweep(g, {0}, {3}, 0, [1, 1e-10], [])
    assert menger_packing(g, {0}, {3}) == 1
    assert report.packing_by_r[1e-10].value == 1


def test_duality_sweep_at_a_tiny_float_r_packs_one_path_through_x_and_y():
    # x & y = {1}: the minimal family is the one-vertex path (1,); the four
    # chordless paths (0,1), (0,1,2), (1,), (1,2) all hold vertex 1, so none
    # two are 1e-10-far and every cell is 1
    g = Graph(range(3), [(0, 1), (1, 2)])
    report = _same_sweep(g, {0, 1}, {1, 2}, 0, [1, 1e-10, 0.5], [0, 1])
    assert [c.value for c in report.packing_by_r.values()] == [1, 1, 1]
    assert [c.value for c in report.cover_by_radius.values()] == [1, 1]


@pytest.mark.parametrize("g,x,y,l", [
    # in both hosts the minimal paths alone need one ball of radius 1/2, and
    # the full family two
    (Graph(range(6), [(0, 1), (0, 2), (0, 4), (0, 5), (1, 3), (2, 3), (3, 4), (3, 5)]),
     {3, 4}, {0, 2}, 2),
    (Graph(range(6), [(0, 1), (0, 2), (1, 3), (2, 5), (3, 4), (3, 5), (4, 5)],
           {(0, 1): Fraction(1, 2), (0, 2): Fraction(1), (1, 3): Fraction(1),
            (2, 5): Fraction(1, 3), (3, 4): Fraction(1, 2), (3, 5): Fraction(3, 2),
            (4, 5): Fraction(1)}), {4, 5}, {1, 2}, 1),
])
def test_duality_sweep_keeps_the_full_family_at_positive_l(g, x, y, l):
    report = _same_sweep(g, x, y, l, [1e-10, 1, 2], [0, Fraction(1, 2), 1])
    assert report.cover_by_radius[Fraction(1, 2)].value == 2


def test_duality_sweep_at_positive_l_covers_paths_that_hold_a_short_minimal_one():
    # 1-2 is the only minimal path, and its ends are 1 apart: at l = 2 the
    # family is the path 0-1-2 alone
    g = Graph(range(3), [(0, 1), (1, 2)])
    report = _same_sweep(g, {0, 1}, {2}, 2, [1e-10, 1], [0, 1])
    assert [c.value for c in report.packing_by_r.values()] == [1, 1]
    assert [c.value for c in report.cover_by_radius.values()] == [1, 1]


def test_duality_sweep_has_no_cover_floor_at_r_equal_to_two_beta():
    # packing(2) = 3, but one radius-1 ball meets two of those paths: the
    # cover takes 2 balls, and the greedy cover 3
    g = Graph(range(8), [(0, 1), (0, 2), (0, 5), (0, 7), (1, 2), (1, 4), (2, 3),
                         (3, 5), (3, 6), (3, 7)])
    report = _same_sweep(g, {4, 6, 7}, {0, 4, 6}, 0, [2], [1])
    assert (report.packing_by_r[2].value, report.cover_by_radius[1].value) == (3, 2)


def test_duality_sweep_bounds_r_by_a_smaller_r_of_any_kind():
    # the paths {0, 2} and {1, 3} are d = 1 - 2e-10 apart: closer than the
    # exact r = 1 and the float r = 1.0000000005, and far at the float r =
    # 0.9999999997, whose cell bounds the others whatever their kind
    d = Fraction(4999999999, 5000000000)
    g = Graph(range(4), [(0, 1), (0, 2), (1, 3)], {(0, 1): d, (0, 2): 1, (1, 3): 1})
    report = _same_sweep(g, {0, 1}, {2, 3}, 0, [1.0000000005, 1, 0.9999999997], [])
    assert [c.value for c in report.packing_by_r.values()] == [1, 1, 2]


@pytest.mark.parametrize("r_values", [[Fraction("0.299999999999999995"), 0.3],
                                      [0.3, Fraction("0.299999999999999995")]])
def test_duality_sweep_orders_r_by_its_decimal(r_values):
    # the float 0.3 is below the Fraction by its binary value and above it as
    # the decimal 0.3; the paths lie between them, far at the Fraction only,
    # so a sweep in binary order would cap the Fraction's cell at 0.3's value
    d = Fraction("0.2999999999999999975")
    g = Graph(range(4), [(0, 1), (0, 2), (1, 3)], {(0, 1): d, (0, 2): 1, (1, 3): 1})
    report = _same_sweep(g, {0, 1}, {2, 3}, 0, r_values, [])
    for r in r_values:
        alone = duality_sweep(g, {0, 1}, {2, 3}, 0, [r], []).packing_by_r[r].value
        assert report.packing_by_r[r].value == alone == (1 if isinstance(r, float) else 2)


#: float weights with short and with 17-digit decimals, the smallest
#: subnormal and a large value, for the float host and its decimal twin
TWIN_WEIGHTS = (0.1, 0.2, 0.3, 0.7, 1.3, 0.30000000000000004, 0.1234567890123456,
                5e-324, 2.5e-7, 12345.678)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_a_float_host_and_its_decimal_twin_agree(seed):
    # the twin holds Fraction(repr(w)) for each float weight w, and its radii
    # are the decimals of the float radii: every mask and every cell is equal
    rng = random.Random(seed)
    g = random_connected(rng, rng.randint(2, 9), p=0.3)
    g = Graph(g.vertices, g.edges, {e: rng.choice(TWIN_WEIGHTS) for e in g.edges})
    twin = Graph(g.vertices, g.edges, {e: decimal(w) for e, w in g.weights.items()})
    dists = sorted({d for c in g.vertices for d in g.dist_from(c).values()} - {0})
    radii = sorted(set(rng.sample(dists, min(3, len(dists))) + [0.3, 0.6, 1.0]))
    through = _member_masks(g, _members(g, rng))
    for r in radii:
        for strict in (False, True):
            assert _within(g, through, r, strict) == _within(twin, through, decimal(r), strict)
    x, y = _endpoints(g, rng)

    def cells(report):
        return ([c.value for c in report.packing_by_r.values()],
                [c.value for c in report.cover_by_radius.values()])

    decimals = [decimal(r) for r in radii]
    assert cells(duality_sweep(g, x, y, 0, radii, radii[:2])) \
        == cells(duality_sweep(twin, x, y, 0, decimals, decimals[:2]))


# -- ball separator -------------------------------------------------------------

SEPARATOR_RADII = (0, 0.3, Fraction(1, 2), 1, Fraction(3, 2))


@settings(max_examples=300, deadline=None)
@given(weighted_hosts(max_n=10), st.sampled_from(SEPARATOR_RADII))
def test_separating_balls_match_the_scan(host, radius):
    # x and y may be empty or overlap; the centers are checked by a flood
    # fill, and at radius 0 the count is a minimum vertex cut (Menger)
    g, rng = host
    x = frozenset(rng.sample(g.vertices, rng.randint(0, min(4, len(g)))))
    y = frozenset(rng.sample(g.vertices, rng.randint(0, min(4, len(g)))))
    count, centers = min_separating_balls(g, x, y, radius)
    assert count == len(centers) == scan_separating_balls(g, x, y, radius)[0]
    union = frozenset().union(frozenset(), *(_ball(g, c, radius) for c in centers))
    assert separated(g, x, y, union)
    if radius == 0:
        assert count == menger_packing(g, x, y)


@pytest.mark.parametrize("rows, cols, cover", [(3, 6, {0: 3, 1: 1}), (4, 5, {0: 4, 1: 2})])
def test_duality_sweep_above_the_cap_matches_the_plain_sweep(rows, cols, cover):
    # past the enumeration cap the packing cells are flagged greedy and the
    # cover cells exact: the plain sweep scans the center subsets
    report = _same_sweep(grid(rows, cols), grid_column(rows, cols, 0),
                         grid_column(rows, cols, cols - 1), 0, [1, 2, 3], [0, 1])
    assert all(c.flag == "capacity:greedy" for c in report.packing_by_r.values())
    assert {b: (c.value, c.exact) for b, c in report.cover_by_radius.items()} == {
        b: (v, True) for b, v in cover.items()}
