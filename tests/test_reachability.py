from __future__ import annotations

from random import Random

import pytest

from hyperpaths import (
    Hyperarc,
    Query,
    ValidationError,
    build,
    reach_from,
    reach_to,
    reduce,
)

from oracle import EnumerationBudget, enumerate_trees, fixpoint_reach
from support import random_hypergraph, random_sources, tree_elements


def test_reach_from_f1_from_omega(f1):
    result = reach_from(f1, [0])
    assert result.reached == (True, True, True, True)
    assert fixpoint_reach(f1, [0]) == result.reached


def test_reach_from_f1_from_a_fires_doubled_tail(f1):
    # e4 needs only A (its two tail slots are the same vertex)
    result = reach_from(f1, [1])
    assert result.reached == (False, True, False, True)
    assert fixpoint_reach(f1, [1]) == result.reached


def test_reach_from_no_arcs():
    g = build(3, ())
    assert reach_from(g, [2]).reached == (False, False, True)


def test_reach_from_rejects_empty_sources(f1):
    with pytest.raises(ValidationError, match="nonempty"):
        reach_from(f1, [])


def test_reach_to_f1_marks_all(f1):
    assert reach_to(f1, 3).reached == (True, True, True, True)


def test_reach_to_ignores_dead_vertex(f1):
    g = build(("omega", "A", "B", "S", "D"), f1.arcs)
    result = reach_to(g, 3)
    assert result.reached == (True, True, True, True, False)


def test_reach_to_target_without_incoming():
    g = build(3, (Hyperarc(1, ((0, 1),), 1.0),))
    assert reach_to(g, 2).reached == (False, False, True)


def test_reduce_f1_keeps_everything(f1, f1_query):
    red = reduce(f1, f1_query)
    assert red.graph == f1
    assert red.vertex_map == {v: v for v in range(4)}
    assert red.arc_map == {i: i for i in range(1, 5)}
    assert red.target == 3


def test_reduce_keeps_arc_on_expensive_tree_only(f1, f1_query):
    # e5: B <- S. It is used by the (expensive) tree e3(e1, e5(e4(e1, e1))),
    # so the reduction keeps it; the oracle confirms the witness tree.
    g = build(("omega", "A", "B", "S"), f1.arcs + (Hyperarc(2, ((3, 1),), 1.0),))
    red = reduce(g, f1_query)
    assert 5 in red.arc_map
    # depth is generous so the cost cap prunes the B <- S loop first
    enum = enumerate_trees(
        g, f1_query.sources, 3, EnumerationBudget(max_depth=24, max_trees=10_000, max_cost=8.0)
    )
    assert enum.complete
    assert any(5 in tree_elements(t)[1] for t in enum.trees)


def test_reduce_unreachable_target_is_empty(f3):
    red = reduce(f3, Query(((0, 0.0),), 2))
    assert red.graph.n == 0 and red.graph.num_arcs == 0
    assert red.target is None and red.sources == ()


def test_two_phase_order_matters(f3):
    query = Query(((0, 0.0),), 2)
    correct = reduce(f3, query)
    # forward pass first: U is never derivable, the whole query collapses
    assert correct.vertex_map == {}
    # the backward pass alone, on the raw graph, wrongly certifies U as useful
    assert reach_to(f3, 2).vertices() == (0, 1, 2)


def test_reach_from_oracle_equivalence_random():
    rng = Random(100)
    for _ in range(120):
        g = random_hypergraph(rng)
        sources = [v for v, _ in random_sources(rng, g)]
        assert reach_from(g, sources).reached == fixpoint_reach(g, sources)


def test_reduce_idempotent_random():
    rng = Random(101)
    for _ in range(60):
        g = random_hypergraph(rng)
        query = Query(random_sources(rng, g), rng.randrange(g.n))
        red = reduce(g, query)
        if red.target is None:
            continue
        again = reduce(red.graph, Query(red.sources, red.target))
        assert again.graph == red.graph
        assert again.arc_map == {i: i for i in red.graph.arc_indices}


def test_reduce_arcs_against_oracle_trees():
    rng = Random(102)
    checked = 0
    budget = EnumerationBudget(max_depth=10, max_trees=100_000, max_cost=60.0)
    while checked < 25:
        g = random_hypergraph(rng, n_range=(1, 6), m_range=(0, 9))
        query = Query(random_sources(rng, g), rng.randrange(g.n))
        red = reduce(g, query)
        if red.target is None:
            continue
        enum = enumerate_trees(g, query.sources, query.target, budget)
        if not enum.complete:
            continue
        checked += 1
        used_arcs = set()
        for tree in enum.trees:
            _, arcs = tree_elements(tree)
            # every enumerated tree of g uses only retained arcs
            assert arcs <= set(red.arc_map)
            used_arcs |= arcs
        # every retained arc is used by at least one enumerated tree
        assert set(red.arc_map) <= used_arcs


def test_touch_counter_is_linear():
    rng = Random(103)
    for _ in range(40):
        g = random_hypergraph(rng)
        sources = [v for v, _ in random_sources(rng, g)]
        assert reach_from(g, sources).touches <= 2 * g.input_size
        assert reach_to(g, rng.randrange(g.n)).touches <= 2 * g.input_size
