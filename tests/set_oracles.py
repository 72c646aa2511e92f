"""Set-based reference implementations of the bitmask solvers in
``coarse_menger.packing``, kept as cross-check oracles.

They are the straightforward formulations: one ``set_distance`` per pair of
members, and a branch-and-bound over Python lists and adjacency sets.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence

from coarse_menger.graph import leq, set_distance


def set_far_conflicts(g, members: Sequence[frozenset], r) -> List[set]:
    """``j in result[i]`` iff ``i != j`` and the members are closer than r."""
    conflicts: List[set] = [set() for _ in members]
    for i, j in itertools.combinations(range(len(members)), 2):
        if not leq(r, set_distance(g, members[i], members[j])):
            conflicts[i].add(j)
            conflicts[j].add(i)
    return conflicts


def set_max_independent_set(conflicts: List[set], order: Sequence[int]):
    """Maximum independent set by branch-and-bound over candidate lists in
    ``order``, pruned by a greedy clique cover.  Returns (chosen indices,
    search nodes)."""
    best: List[int] = []
    nodes = 0

    def clique_cover_bound(cands: List[int]) -> int:
        cliques: List[List[int]] = []
        for v in cands:
            for cl in cliques:
                if all(u in conflicts[v] for u in cl):
                    cl.append(v)
                    break
            else:
                cliques.append([v])
        return len(cliques)

    def expand(cands: List[int], chosen: List[int]):
        nonlocal best, nodes
        nodes += 1
        if not cands:
            if len(chosen) > len(best):
                best = list(chosen)
            return
        if len(chosen) + clique_cover_bound(cands) <= len(best):
            return
        v = cands[0]
        expand([u for u in cands[1:] if u not in conflicts[v]], chosen + [v])
        expand(cands[1:], chosen)

    expand(list(order), [])
    return best, nodes
