from __future__ import annotations

from random import Random

import pytest

from hyperpaths import (
    INF,
    AdditiveCost,
    Hyperarc,
    UnreachableTargetError,
    ValidationError,
    build,
    extract_best_tree,
    format_tree,
    iter_nodes,
    viterbi_inside,
)

from support import oracle_inside_table, random_weighted_instance, recompute_tree_cost


def test_inside_f1(f1):
    result = viterbi_inside(f1, [(0, 0.0)])
    assert result.inside == (0.0, 1.0, 2.0, 3.5)
    # e3 wins over e4: 0.5 + 1 + 2 = 3.5 < 3 + 2*1 = 5
    assert result.pi == (0, 1, 2, 3)


def test_inside_trivial_single_source():
    g = build(3, ())
    result = viterbi_inside(g, [(1, 0.75)])
    assert result.inside == (INF, 0.75, INF)
    assert result.pi == (0, 0, 0)


def test_inside_self_loop_terminates(f2):
    result = viterbi_inside(f2, [(0, 0.0)])
    # the self-loop proposes inside[S] + 1, never an improvement
    assert result.inside == (0.0, 1.0)
    assert result.pi == (0, 1)


def test_inside_zero_length_cycle_terminates():
    arcs = (
        Hyperarc(1, ((0, 1),), 0.0),
        Hyperarc(2, ((1, 1),), 0.0),
        Hyperarc(1, ((2, 1),), 0.0),
    )
    g = build(3, arcs)
    result = viterbi_inside(g, [(0, 0.0)])
    assert result.inside == (0.0, 0.0, 0.0)


def test_inside_rejects_bad_sources(f1):
    with pytest.raises(ValidationError):
        viterbi_inside(f1, [])
    with pytest.raises(ValidationError, match="nonnegative"):
        viterbi_inside(f1, [(0, -0.5)])
    with pytest.raises(ValidationError, match="duplicate"):
        viterbi_inside(f1, [(0, 0.0), (0, 1.0)])


def test_inside_matches_oracle_random():
    rng = Random(200)
    checked = 0
    while checked < 60:
        g, sources = random_weighted_instance(rng)
        mins = oracle_inside_table(g, sources)
        if mins is None:
            continue
        checked += 1
        result = viterbi_inside(g, sources)
        for v in range(g.n):
            if mins[v] == INF:
                assert result.inside[v] == INF
            else:
                assert result.inside[v] == pytest.approx(mins[v], abs=1e-9)


def test_pi_consistency_random():
    rng = Random(201)
    for _ in range(80):
        g, sources = random_weighted_instance(rng)
        result = viterbi_inside(g, sources)
        for v in range(g.n):
            i = result.pi[v]
            if i == 0:
                continue
            assert g.arc(i).head == v
            # Exact: the firing step sums in arc_total_cost's order.
            assert result.inside[v] == g.arc_total_cost(i, result.inside)


@pytest.mark.parametrize("cost_factory", [None, AdditiveCost], ids=["default", "AdditiveCost"])
def test_guard_is_pure_optimization(cost_factory):
    rng = Random(202)
    for _ in range(80):
        g, sources = random_weighted_instance(rng)
        with_guard = viterbi_inside(g, sources, cost_factory=cost_factory, use_guard=True)
        without = viterbi_inside(g, sources, cost_factory=cost_factory, use_guard=False)
        assert with_guard.inside == without.inside
        assert with_guard.pi == without.pi
        assert with_guard.binds <= without.binds


def test_bind_counts(f1, f2):
    # fully reachable, guardless: exactly one bind per (arc, distinct tail)
    total_slots = sum(len(f1.arc(i).distinct_tails()) for i in f1.arc_indices)
    assert viterbi_inside(f1, [(0, 0.0)], use_guard=False).binds == total_slots
    # the guard skips the self-loop bind entirely
    assert viterbi_inside(f2, [(0, 0.0)]).binds == 1
    assert viterbi_inside(f2, [(0, 0.0)], use_guard=False).binds == 2
    # S settles first and fires H <- S (1), A <- S (2) and B <- S (3). When A
    # settles at 2 >= inside[H] = 1, A alone rules out H <- A B (length 0),
    # so neither of its tails is bound.
    arcs = (
        Hyperarc(3, ((0, 1),), 1.0),
        Hyperarc(1, ((0, 1),), 2.0),
        Hyperarc(3, ((1, 1), (2, 1)), 0.0),
        Hyperarc(2, ((0, 1),), 3.0),
    )
    g = build(4, arcs)
    for factory in (None, AdditiveCost):
        assert viterbi_inside(g, [(0, 0.0)], cost_factory=factory).binds == 3
        assert viterbi_inside(g, [(0, 0.0)], cost_factory=factory, use_guard=False).binds == 5


def test_non_superior_cost_function_trips_monotonicity_check():
    from hyperpaths import CostFunction, InternalInvariantError

    class Subtracting(CostFunction):
        # violates superiority on purpose: binds lower the bound
        def __init__(self, g, i):
            self.value = g.arc(i).length

        def bind(self, tail, cost):
            self.value -= cost

        def inf(self):
            return self.value

    g = build(3, (Hyperarc(1, ((0, 1),), 5.0), Hyperarc(2, ((1, 1),), 1.0)))
    with pytest.raises(InternalInvariantError, match="not superior"):
        viterbi_inside(g, [(0, 0.0)], cost_factory=Subtracting)


def test_generic_cost_function_path_matches_fast_path():
    rng = Random(203)
    for _ in range(300):
        g, sources = random_weighted_instance(rng)
        fast = viterbi_inside(g, sources)
        generic = viterbi_inside(g, sources, cost_factory=AdditiveCost)
        assert generic.inside == fast.inside and generic.pi == fast.pi


def test_extract_best_tree_f1(f1):
    result = viterbi_inside(f1, [(0, 0.0)])
    tree = extract_best_tree(f1, result, 3)
    assert tree.arc == 3
    assert tuple(c.arc for c in tree.children) == (1, 2)
    assert tree.cost == pytest.approx(3.5, abs=1e-12)
    assert format_tree(tree, f1.name_of) == "(3 (1) (2))"

    tree_a = extract_best_tree(f1, result, 1)
    assert tree_a.arc == 1 and tree_a.cost == pytest.approx(1.0)


def test_extract_source_leaf():
    g = build(2, ())
    result = viterbi_inside(g, [(0, 0.25)])
    tree = extract_best_tree(g, result, 0)
    assert tree.arc == 0 and tree.children == () and tree.cost == 0.25
    assert format_tree(tree, g.name_of) == "v0"


def test_extract_unreachable_raises(f1):
    result = viterbi_inside(f1, [(1, 0.0)])  # from A: omega and B unreached
    with pytest.raises(UnreachableTargetError, match="unreachable"):
        extract_best_tree(f1, result, 0)


def test_extract_cost_matches_inside_random():
    rng = Random(204)
    for _ in range(60):
        g, sources = random_weighted_instance(rng)
        result = viterbi_inside(g, sources)
        src = dict(sources)
        for v in range(g.n):
            if result.inside[v] == INF:
                continue
            tree = extract_best_tree(g, result, v)
            assert tree.cost == pytest.approx(result.inside[v], abs=1e-12)
            assert recompute_tree_cost(g, tree, src) == pytest.approx(
                result.inside[v], abs=1e-12
            )


def test_subtree_optimality_random():
    rng = Random(205)
    for _ in range(40):
        g, sources = random_weighted_instance(rng)
        result = viterbi_inside(g, sources)
        reachable = [v for v in range(g.n) if result.inside[v] < INF]
        for v in reachable[:3]:
            tree = extract_best_tree(g, result, v)
            for node in iter_nodes(tree):
                # every subtree is itself a cheapest tree of its root vertex
                assert node.cost == pytest.approx(result.inside[node.vertex], abs=1e-12)


def test_doubled_tail_children_share_structure(f1):
    result = viterbi_inside(f1, [(1, 0.0)])  # only e4 can reach S
    tree = extract_best_tree(f1, result, 3)
    assert tree.arc == 4
    assert len(tree.children) == 2
    assert tree.children[0] is tree.children[1]
    assert format_tree(tree, f1.name_of) == "(4)"
    assert tree.cost == pytest.approx(3.0)


def test_multiple_sources_with_costs():
    g = build(3, (Hyperarc(2, ((0, 1), (1, 1)), 1.0),))
    result = viterbi_inside(g, [(0, 0.5), (1, 2.0)])
    assert result.inside == (0.5, 2.0, 3.5)


def test_source_improvable_by_arc():
    g = build(2, (Hyperarc(1, ((0, 1),), 0.25),))
    result = viterbi_inside(g, [(0, 0.0), (1, 5.0)])
    assert result.inside[1] == 0.25
    assert result.pi[1] == 1
