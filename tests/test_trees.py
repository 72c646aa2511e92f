import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarse_menger.errors import CapacityError, InputError
from coarse_menger.generators import grid, grid_column, grid_row
from coarse_menger.graph import Graph, CenteredSet, certify_centered, set_distance
from coarse_menger.paths import check_fat_minor
from coarse_menger.trees import (
    ExchangeableFamily,
    _extract_path_model,
    _minimal_supports,
    _SupportMasks,
    Location,
    Separation,
    TreeDecomposition,
    decomposition_from_json_dict,
    easy_tree_hitting,
    min_degree_decomposition,
    min_transversal_blocker,
    multi_family_select,
    rooted_fat_minor_ep,
    tree_helly,
    two_disjoint_connected_transversals,
)

from conftest import path_graph, random_connected, small_connected_graphs

P2 = Graph([1, 2], [(1, 2)])
P3 = Graph([1, 2, 3], [(1, 2), (2, 3)])


# ---------------------------------------------------------------------------
# separations / locations / decompositions


def test_separation_rejects_crossing_edge():
    g = path_graph(3)
    with pytest.raises(InputError):
        Separation(g, frozenset([0, 1]), frozenset([2]))


def test_separation_order_and_flip():
    g = path_graph(3)
    s = Separation(g, frozenset([0, 1]), frozenset([1, 2]))
    assert s.order == 1 and s.separator == frozenset([1])
    assert s.flip().a == s.b


def test_location_core():
    g = path_graph(5)
    s = Separation(g, frozenset([0, 1]), frozenset([1, 2, 3, 4]))
    loc = Location(g, (s,))
    assert loc.core == frozenset([1, 2, 3, 4])
    assert Location(g, ()).core == frozenset(g.vertices)


def test_decomposition_validate_catches_missing_edge():
    g = path_graph(3)
    t = Graph([0, 1], [(0, 1)])
    td = TreeDecomposition(t, {0: frozenset([0, 1]), 1: frozenset([2])})
    assert any("edge" in p for p in td.validate(g))


def test_min_degree_decomposition_is_valid():
    rng = random.Random(7)
    for _ in range(20):
        g = random_connected(rng, rng.randint(2, 9))
        td = min_degree_decomposition(g)
        assert td.validate(g) == []


def test_min_degree_decomposition_width_on_tree():
    g = path_graph(6)
    assert min_degree_decomposition(g).width == 1


def test_decomposition_json_round_trip():
    td = min_degree_decomposition(grid(2, 3))
    td2 = decomposition_from_json_dict(td.to_json_dict())
    assert td2.bags == td.bags and td2.tree == td.tree


@pytest.mark.parametrize("doc", [
    {"tree": {"vertices": [0], "edges": []}, "bags": {"0.5": [0]}},
    {"tree": {"vertices": [0], "edges": []}, "bags": {0.5: [0]}},
    {"bags": {"0": [0]}},
    {"tree": {"vertices": [0], "edges": []}},
    {"tree": {"vertices": [0], "edges": []}, "bags": [[0]]},
    {"tree": {"vertices": [0], "edges": []}, "bags": {"0": 7}},
], ids=["fractional key", "float key", "no tree", "no bags", "bag list", "bag not a set"])
def test_decomposition_from_json_dict_refuses_malformed_documents(doc):
    with pytest.raises(InputError):
        decomposition_from_json_dict(doc)


# ---------------------------------------------------------------------------
# tree Helly


def brute_max_disjoint_subtrees(subtrees):
    best = 0
    for size in range(len(subtrees), 0, -1):
        if size <= best:
            break
        for combo in itertools.combinations(subtrees, size):
            if all(not (a & b) for a, b in itertools.combinations(combo, 2)):
                return size
    return 0


def random_tree(rng, n):
    return Graph(range(n), [(rng.randrange(v), v) for v in range(1, n)])


def random_subtree(rng, t):
    start = rng.choice(t.vertices)
    out = {start}
    for _ in range(rng.randint(0, len(t.vertices) - 1)):
        fringe = sorted(
            n for v in out for n in t.neighbors(v) if n not in out
        )
        if not fringe:
            break
        out.add(rng.choice(fringe))
    return frozenset(out)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_tree_helly_dichotomy_against_brute_force(seed):
    rng = random.Random(seed)
    t = random_tree(rng, rng.randint(2, 8))
    subtrees = [random_subtree(rng, t) for _ in range(rng.randint(1, 6))]
    k = rng.randint(1, 4)
    res = tree_helly(t, subtrees, k)
    opt = brute_max_disjoint_subtrees(subtrees)
    if res.branch == "packing":
        assert opt >= k
        chosen = [subtrees[i] for i in res.packing]
        assert all(not (a & b) for a, b in itertools.combinations(chosen, 2))
    else:
        assert opt < k
        assert len(res.hitting) <= k - 1
        assert all(res.hitting & s for s in subtrees)


def test_tree_helly_rejects_disconnected_subtree():
    t = path_graph(4)
    with pytest.raises(InputError):
        tree_helly(t, [frozenset([0, 3])], 1)


# ---------------------------------------------------------------------------
# two disjoint connected transversals


def brute_two_disjoint_transversals(g, root_sets):
    """3^n labeling scan, an oracle with no shared machinery."""

    def has_sdr(comp):
        reps = []

        def assign(i, used):
            if i == len(root_sets):
                return True
            for v in sorted((root_sets[i] & comp) - used):
                if assign(i + 1, used | {v}):
                    return True
            return False

        return assign(0, frozenset())

    verts = sorted(g.vertices)
    for labels in itertools.product((0, 1, 2), repeat=len(verts)):
        side1 = frozenset(v for v, c in zip(verts, labels) if c == 1)
        side2 = frozenset(v for v, c in zip(verts, labels) if c == 2)
        if not side1 or not side2:
            continue
        if not (g.is_connected_set(side1) and g.is_connected_set(side2)):
            continue
        if has_sdr(side1) and has_sdr(side2):
            return True
    return False


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_disjoint_transversals_match_labeling_scan(seed):
    rng = random.Random(seed)
    g = random_connected(rng, rng.randint(3, 7))
    root_sets = [
        frozenset(rng.sample(g.vertices, rng.randint(1, min(3, len(g.vertices)))))
        for _ in range(rng.randint(1, 3))
    ]
    res = two_disjoint_connected_transversals(g, root_sets)
    expect = brute_two_disjoint_transversals(g, root_sets)
    assert (res is not None) == expect
    if res is not None:
        u1, u2 = res
        assert not (u1 & u2)
        assert g.is_connected_set(u1) and g.is_connected_set(u2)


def test_disjoint_transversals_positive_on_grid():
    g = grid(2, 3)
    roots = [grid_column(2, 3, 0), grid_column(2, 3, 2)]
    res = two_disjoint_connected_transversals(g, roots)
    assert res is not None


def test_disjoint_transversals_boundary_cap():
    g = grid(4, 4)
    with pytest.raises(CapacityError):
        two_disjoint_connected_transversals(
            g, [grid_column(4, 4, 0)], boundary_cap=2
        )


def test_disjoint_transversals_reject_a_root_outside_the_host():
    with pytest.raises(InputError):
        two_disjoint_connected_transversals(path_graph(4), [frozenset([0]), frozenset([9])])


#: entry points given a vertex outside path_graph(5)
OUTSIDE_VERTEX = {
    "tree_helly": lambda t: tree_helly(t, [frozenset([7])], 1),
    "tree_helly_partly": lambda t: tree_helly(t, [frozenset([0, 7])], 1),
    "multi_family_select": lambda t: multi_family_select(t, [[frozenset([9])]], [1]),
    "exchangeable_family": lambda t: ExchangeableFamily(t, ((frozenset([9]),),), 1),
    "blocker": lambda t: min_transversal_blocker(t, [{0}, {9}], 3),
}


@pytest.mark.parametrize("call", sorted(OUTSIDE_VERTEX))
def test_a_vertex_outside_the_host_is_an_input_error(call):
    with pytest.raises(InputError, match="not in host graph"):
        OUTSIDE_VERTEX[call](path_graph(5))


def test_min_transversal_blocker_on_path():
    g = path_graph(5)
    roots = [frozenset([0]), frozenset([4])]
    z = min_transversal_blocker(g, roots, size_cap=2)
    assert len(z) == 1


def test_min_transversal_blocker_empty_when_already_blocked():
    g = Graph([0, 1], [])
    z = min_transversal_blocker(g, [frozenset([0]), frozenset([1])], size_cap=2)
    assert z == frozenset()


# ---------------------------------------------------------------------------
# rooted fat minors


def test_path_models_on_minimal_supports_stay_inside_them():
    # the three-root model is split at the point y where the arm from the
    # middle representative meets the x1-x3 path: inside it, or on an end,
    # where the edge path through that end has three vertices
    rng = random.Random(7)
    cases = set()
    for _ in range(60):
        g = random_connected(rng, rng.randint(3, 8), rng.choice([0.1, 0.3]))
        for k in (2, 3):
            roots = {h: frozenset(rng.sample(g.vertices, rng.randint(1, 2)))
                     for h in range(k)}
            pattern = Graph(range(k), [(h, h + 1) for h in range(k - 1)])
            for support in _minimal_supports(_SupportMasks(g, list(roots.values()))):
                m = _extract_path_model(g, support, pattern, roots)
                assert check_fat_minor(g, m)
                assert frozenset().union(*m.branch_sets.values(),
                                         *m.edge_paths.values()) <= support
                if k == 3:
                    cases.add((len(m.edge_paths[(0, 1)]), len(m.edge_paths[(1, 2)])))
    assert cases == {(2, 2), (2, 3), (3, 2)}


def test_rooted_p3_packing_on_disjoint_paths():
    g = Graph(range(6), [(0, 1), (1, 2), (3, 4), (4, 5)])
    td = min_degree_decomposition(g)
    roots = {1: frozenset([0, 3]), 2: frozenset([1, 4]), 3: frozenset([2, 5])}
    res = rooted_fat_minor_ep(g, td, P3, roots, k=2, r=1)
    assert res.branch == "packing"
    assert len(res.models) == 2
    vs = [m.union_vertices() for m in res.models]
    assert set_distance(g, vs[0], vs[1]) >= 1


def test_rooted_p3_hitting_on_star():
    # every rooted model crosses the star center
    g = Graph(range(5), [(0, i) for i in range(1, 5)])
    td = min_degree_decomposition(g)
    roots = {1: frozenset([1]), 2: frozenset([0]), 3: frozenset([2])}
    res = rooted_fat_minor_ep(g, td, P3, roots, k=2, r=1)
    assert res.branch == "hitting"
    assert isinstance(res.centered, CenteredSet)


def test_rooted_minor_scope_limits():
    g = path_graph(4)
    td = min_degree_decomposition(g)
    p4 = Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
    with pytest.raises(CapacityError):
        rooted_fat_minor_ep(g, td, p4, {i: frozenset([0]) for i in p4.vertices},
                            k=1, r=1)


def _halved(g: Graph) -> Graph:
    return Graph(g.vertices, g.edges, {e: Fraction(1, 2) for e in g.edges})


def test_rooted_p2_does_not_pack_supports_closer_than_r():
    # {0,1} and {2,3} are disjoint supports, but only 1/2 apart
    g = _halved(path_graph(4))
    roots = {1: frozenset([0, 2]), 2: frozenset([1, 3])}
    res = rooted_fat_minor_ep(g, min_degree_decomposition(g), P2, roots, k=2, r=1)
    assert res.branch == "hitting"
    assert res.centered.center_count <= res.center_budget
    for support in ({0, 1}, {1, 2}, {2, 3}):
        assert res.centered.z.members & support


def _ladder(n: int) -> Graph:
    rails = [(i, i + 1) for i in range(n - 1)] + [(i + n, i + n + 1) for i in range(n - 1)]
    return Graph(range(2 * n), rails + [(i, i + n) for i in range(n)])


LADDER_ROOTS = {1: frozenset([0, 7]), 2: frozenset([3, 10]), 3: frozenset([6, 13])}


def test_rooted_p3_large_host_refuses_r_above_the_shortest_edge():
    # disjoint supports of a 1/2-weighted host can be closer than r = 1
    g = _halved(_ladder(7))
    with pytest.raises(CapacityError):
        rooted_fat_minor_ep(g, min_degree_decomposition(g), P3, LADDER_ROOTS, k=2, r=1)


def test_rooted_p3_large_unit_host_packs_the_two_rails():
    g = _ladder(7)
    res = rooted_fat_minor_ep(g, min_degree_decomposition(g), P3, LADDER_ROOTS, k=2, r=1)
    assert res.branch == "packing"
    a, b = (m.union_vertices() for m in res.models)
    assert set_distance(g, a, b) >= 1


SPIDER = Graph(range(11), [(0, i) for i in range(1, 6)] + [(i, i + 5) for i in range(1, 6)])
SPIDER_ROOTS = {1: frozenset(range(1, 6)), 2: frozenset(range(6, 11))}


def test_rooted_p2_spider_packs_legs_two_apart_at_r_2():
    td = min_degree_decomposition(SPIDER)
    res = rooted_fat_minor_ep(SPIDER, td, P2, SPIDER_ROOTS, k=2, r=2)
    assert res.branch == "packing"
    a, b = (m.union_vertices() for m in res.models)
    assert set_distance(SPIDER, a, b) == 2


def test_rooted_p2_spider_is_hit_by_one_radius_1_ball_at_r_3():
    td = min_degree_decomposition(SPIDER)
    res = rooted_fat_minor_ep(SPIDER, td, P2, SPIDER_ROOTS, k=2, r=3)
    assert res.branch == "hitting"
    assert res.centered.centers.members == {0}
    assert res.centered.radius == res.radius_budget == 1


# ---------------------------------------------------------------------------
# the centered hitting lemma on tree-decomposed hosts


def test_easy_tree_packing_branch():
    # far-apart members on a long path: k=2 far members exist
    g = path_graph(9)
    fam = ExchangeableFamily(g, (
        (frozenset([0]),),
        (frozenset([8]),),
    ), 1)
    td = min_degree_decomposition(g)
    res = easy_tree_hitting(g, frozenset(g.vertices), fam, Location(g, ()), td,
                            r=1, k=2, xi=2, eta=0)
    assert res.branch == "packing"
    a, b = (frozenset().union(*m) for m in res.packing)
    assert set_distance(g, a, b) > 2


def test_easy_tree_hitting_branch_certified():
    # everything clusters around one vertex: a single ball hits the family
    g = path_graph(5)
    fam = ExchangeableFamily(g, (
        (frozenset([1, 2]),),
        (frozenset([2, 3]),),
    ), 1)
    td = min_degree_decomposition(g)
    res = easy_tree_hitting(g, frozenset(g.vertices), fam, Location(g, ()), td,
                            r=2, k=2, xi=td.max_bag_size, eta=0)
    assert res.branch == "hitting"
    cert = certify_centered(g, res.centered.z.members, res.center_budget,
                            res.radius_budget)
    assert isinstance(cert, CenteredSet)
    for m in fam.members:
        assert res.centered.z.members & frozenset().union(*m)


def test_exchangeable_family_validation():
    g = path_graph(4)
    with pytest.raises(InputError):
        ExchangeableFamily(g, ((frozenset([0, 2]),),), 1)  # disconnected
    with pytest.raises(InputError):
        ExchangeableFamily(g, ((frozenset([0]), frozenset([0])),), 2)  # overlap
