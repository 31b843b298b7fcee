from __future__ import annotations

from random import Random

import pytest

from hyperpaths import Hyperarc, build

from oracle import EnumerationBudget, enumerate_trees, fixpoint_reach
from support import (
    digest,
    random_weighted_instance,
    recompute_tree_cost,
    tree_elements,
    tree_values,
)


def test_enumerate_f1_trees_to_s(f1):
    enum = enumerate_trees(f1, [(0, 0.0)], 3)
    assert enum.complete
    costs = sorted(t.cost for t in enum.trees)
    assert costs == [3.5, 5.0]
    by_cost = {t.cost: t for t in enum.trees}
    assert by_cost[3.5].arc == 3
    assert tuple(c.arc for c in by_cost[3.5].children) == (1, 2)
    assert by_cost[5.0].arc == 4
    assert tuple(c.arc for c in by_cost[5.0].children) == (1, 1)


def test_enumerate_unreachable_vertex_is_empty_and_complete(f1):
    enum = enumerate_trees(f1, [(1, 0.0)], 0)  # nothing reaches omega
    assert enum.trees == () and enum.complete


def test_enumerate_f2_cost_threshold(f2):
    budget = EnumerationBudget(max_depth=10, max_trees=1000, max_cost=3.5)
    enum = enumerate_trees(f2, [(0, 0.0)], 1, budget)
    assert enum.complete
    assert sorted(t.cost for t in enum.trees) == [1.0, 2.0, 3.0]


def test_enumerate_tree_count_budget_flags_incomplete(f1):
    budget = EnumerationBudget(max_depth=10, max_trees=2, max_cost=100.0)
    enum = enumerate_trees(f1, [(0, 0.0)], 3, budget)
    assert enum.hit_trees and not enum.complete


def test_tree_budget_met_exactly_is_no_abort():
    # T <- A A, with two arcs A <- s: 12 (sub)trees in all, the last four
    # combined in one step.
    arcs = [Hyperarc(1, ((0, 1),), 1.0), Hyperarc(1, ((0, 1),), 2.0), Hyperarc(2, ((1, 2),), 1.0)]
    g = build(3, arcs)
    enum = enumerate_trees(g, [(0, 0.0)], 2, EnumerationBudget(max_trees=12))
    assert enum.complete
    assert sorted(t.cost for t in enum.trees) == [3.0, 4.0, 4.0, 5.0]
    enum = enumerate_trees(g, [(0, 0.0)], 2, EnumerationBudget(max_trees=11))
    assert enum.hit_trees and enum.trees == ()


def test_enumerate_depth_budget_flags_incomplete(f2):
    budget = EnumerationBudget(max_depth=2, max_trees=1000, max_cost=10.0)
    enum = enumerate_trees(f2, [(0, 0.0)], 1, budget)
    assert enum.hit_depth and not enum.complete
    # the depth-bounded set itself is still exact
    assert sorted(t.cost for t in enum.trees) == [1.0, 2.0]


def test_enumerated_trees_validate(f1):
    enum = enumerate_trees(f1, [(0, 0.0)], 3)
    src = {0: 0.0}
    for tree in enum.trees:
        assert f1.arc(tree.arc).head == 3
        # children match the arc's tail occurrences, leaves are sources
        stack = [tree]
        while stack:
            node = stack.pop()
            if node.arc == 0:
                assert node.vertex in src and node.children == ()
                continue
            arc = f1.arc(node.arc)
            assert arc.head == node.vertex
            assert tuple(c.vertex for c in node.children) == arc.occurrences()
            stack.extend(node.children)
        assert recompute_tree_cost(f1, tree, src) == pytest.approx(tree.cost, abs=1e-12)


def test_tree_elements_f1(f1):
    enum = enumerate_trees(f1, [(0, 0.0)], 3)
    by_cost = {t.cost: t for t in enum.trees}
    vs, arcs = tree_elements(by_cost[5.0])
    assert vs == {0, 1, 3}
    assert arcs == {1, 4}


def test_enumeration_fingerprint_random():
    """Trees in order and both flags of 6000 enumerations, 2484 of them
    aborted by the tree budget, equal those recorded from an enumerator that
    built every tree it counted."""
    rng = Random(0xE7)
    budgets = (
        EnumerationBudget(max_depth=3, max_trees=300),
        EnumerationBudget(max_depth=8, max_trees=2000, max_cost=12.0),
    )
    records = []
    for _ in range(3000):
        g, sources = random_weighted_instance(rng)
        v = rng.randrange(g.n)
        for budget in budgets:
            enum = enumerate_trees(g, sources, v, budget)
            records.append((tree_values(enum.trees), enum.hit_depth, enum.hit_trees))
    assert sum(hit_trees for _, _, hit_trees in records) == 2484
    assert digest(records) == "64a4a1f9afeac3f9"


def test_fixpoint_reach_f1(f1):
    assert fixpoint_reach(f1, [0]) == (True, True, True, True)


def test_fixpoint_reach_empty_sources(f1):
    assert fixpoint_reach(f1, []) == (False, False, False, False)


def test_fixpoint_reach_all_sources(f1):
    assert fixpoint_reach(f1, range(4)) == (True, True, True, True)
