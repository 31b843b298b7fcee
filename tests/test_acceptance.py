"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (the summary lines show even
with output capture on, via capsys.disabled).
"""

from __future__ import annotations

import gc
import json
import math
import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from random import Random

import pytest

from hyperpaths import (
    INF,
    Query,
    extract_best_tree,
    format_tree,
    prune_relatively_useless,
    reach_from,
    reach_to,
    reduce,
    to_hypergraph,
    utilities,
    viterbi_inside,
    viterbi_outside,
)

from oracle import EnumerationBudget, enumerate_trees, fixpoint_reach
from support import (
    collect_reduced_instances,
    digest,
    enumerate_derivations,
    hyperpath_shape,
    layered_hypergraph,
    oracle_inside_table,
    random_acyclic_grammar,
    random_hypergraph,
    random_sources,
    random_weighted_instance,
    recompute_tree_cost,
    tree_elements,
    tree_values,
    weighted_multisets_equal,
)

GOLDEN = Path(__file__).parent / "golden" / "f1.json"


@contextmanager
def criterion(capsys, index: int, name: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {index} {name}: FAIL")
        raise
    else:
        with capsys.disabled():
            print(f"\nACCEPTANCE {index} {name}: PASS")


def test_criterion_1_reachability_oracle(capsys):
    with criterion(capsys, 1, "oracle equivalence: reachability"):
        rng = Random(0xACCE01)
        for _ in range(500):
            g = random_hypergraph(rng, n_range=(1, 8), m_range=(0, 15), max_tail=3)
            sources = [v for v, _ in random_sources(rng, g)]
            assert reach_from(g, sources).reached == fixpoint_reach(g, sources)


def test_criterion_2_inside_oracle(capsys):
    with criterion(capsys, 2, "oracle equivalence: inside"):
        rng = Random(0xACCE02)
        checked = 0
        attempts = 0
        tables = []
        while checked < 300:
            attempts += 1
            assert attempts < 300 * 40, "generator kept hitting enumeration budgets"
            g, sources = random_weighted_instance(rng)
            mins = oracle_inside_table(g, sources)
            tables.append((attempts, g.n, g.num_arcs, mins))
            if mins is None:
                continue
            checked += 1
            result = viterbi_inside(g, sources)
            src = dict(sources)
            for v in range(g.n):
                if mins[v] == INF:
                    assert result.inside[v] == INF
                else:
                    assert abs(result.inside[v] - mins[v]) <= 1e-9
                    tree = extract_best_tree(g, result, v)
                    assert abs(tree.cost - result.inside[v]) <= 1e-12
                    assert abs(
                        recompute_tree_cost(g, tree, src) - result.inside[v]
                    ) <= 1e-12
        # The oracle's accepted and skipped attempts, and its minima, as
        # recorded from an enumerator that built every tree it counted.
        assert (attempts, digest(tables)) == (455, "4c16aed1e5703f28")


@pytest.fixture(scope="module")
def reduced_instances():
    return collect_reduced_instances(Random(0xACCE34), 200)


def test_criterion_3_utilities_oracle(capsys, reduced_instances):
    with criterion(capsys, 3, "oracle equivalence: utilities"):
        assert len(reduced_instances) == 200
        # The instances and their 184,133 trees, as recorded from an
        # enumerator that built every tree it counted.
        instances = [
            (inst.graph.n, inst.graph.num_arcs, inst.target, tree_values(inst.trees))
            for inst in reduced_instances
        ]
        assert sum(len(inst.trees) for inst in reduced_instances) == 184_133
        assert digest(instances) == "f0319461fb84851c"
        for inst in reduced_instances:
            gv_oracle = [INF] * inst.graph.n
            ge_oracle = [INF] * (inst.graph.num_arcs + 1)
            for tree in inst.trees:
                vs, arcs = tree_elements(tree)
                for v in vs:
                    gv_oracle[v] = min(gv_oracle[v], tree.cost)
                for a in arcs:
                    ge_oracle[a] = min(ge_oracle[a], tree.cost)
            for v in range(inst.graph.n):
                if gv_oracle[v] == INF:
                    assert inst.gamma_v[v] == INF
                else:
                    assert abs(inst.gamma_v[v] - gv_oracle[v]) <= 1e-9
            for i in inst.graph.arc_indices:
                if ge_oracle[i] == INF:
                    assert inst.gamma_e[i] == INF
                else:
                    assert abs(inst.gamma_e[i] - ge_oracle[i]) <= 1e-9


def test_criterion_4_prune_safety_tightness(capsys, reduced_instances):
    with criterion(capsys, 4, "pruning safety and tightness"):
        beams = [0.0, 0.5, 1.0, 2.0, math.inf]
        for inst in reduced_instances:
            previous_arcs: set | None = None
            previous_vertices: set | None = None
            for beam in beams:
                pr = prune_relatively_useless(inst.graph, inst.inside, inst.outside, beam)
                kept_arcs = set(pr.arc_map)
                kept_vertices = set(pr.vertex_map)
                # (d) kept sets are monotone in the beam
                if previous_arcs is not None:
                    assert previous_arcs <= kept_arcs
                    assert previous_vertices <= kept_vertices
                previous_arcs, previous_vertices = kept_arcs, kept_vertices
                witnessed: set[int] = set()
                for tree in inst.trees:
                    vs, arcs = tree_elements(tree)
                    if tree.cost <= pr.threshold:
                        # (a) near-best trees use only kept elements
                        assert vs <= kept_vertices and arcs <= kept_arcs
                    if tree.cost <= pr.threshold + 1e-9:
                        witnessed |= arcs
                # (b) every kept arc is on some tree within the beam
                assert kept_arcs <= witnessed
                # (c) the pruned graph reproduces the best cost
                sources2 = tuple(
                    (pr.vertex_map[v], c) for v, c in inst.sources if v in pr.vertex_map
                )
                again = viterbi_inside(pr.graph, sources2)
                best = inst.inside.inside[inst.target]
                assert abs(again.inside[pr.vertex_map[inst.target]] - best) <= 1e-12


def test_criterion_5_two_phase_order(capsys, f3):
    with criterion(capsys, 5, "two-phase order fixture"):
        query = Query(((0, 0.0),), 2)
        correct = reduce(f3, query)
        # the sound order removes U (indeed everything: the target collapses)
        assert correct.pass2_vertices == frozenset()
        assert not correct.target_reachable
        # the backward pass alone, run first, wrongly retains U
        assert reach_to(f3, 2).vertices() == (0, 1, 2)


def test_criterion_6_grammar_correspondence(capsys):
    with criterion(capsys, 6, "grammar correspondence"):
        rng = Random(0xACCE06)
        checked = 0
        attempts = 0
        while checked < 100:
            attempts += 1
            assert attempts < 100 * 40, "generator kept producing oversized grammars"
            g = random_acyclic_grammar(rng)
            derivations = enumerate_derivations(g, cap=4000)
            if derivations is None:
                continue
            checked += 1
            graph, query, gmap = to_hypergraph(g)
            enum = enumerate_trees(
                graph,
                query.sources,
                query.target,
                EnumerationBudget(
                    max_depth=len(g.nonterminals) + 2, max_trees=200_000, max_cost=1e17
                ),
            )
            assert enum.complete
            mapped = [
                (hyperpath_shape(t, gmap.production_for_arc), math.exp(-t.cost))
                for t in enum.trees
            ]
            assert weighted_multisets_equal(mapped, derivations, tol=1e-9)


def _seconds_per_call(fn, calls: int = 1) -> float:
    """Seconds per call of ``calls`` back-to-back calls of ``fn``, with the
    garbage collector off."""
    gc.collect()
    gc.disable()
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed / calls


def test_criterion_7_complexity_smoke(capsys):
    with criterion(capsys, 7, "complexity smoke"):
        rng = Random(0xACCE07)
        # Each call is timed best of 15 at t = 1e4, of 5 at 1e5 and of 2 at
        # 1e6, spread evenly over 15 interleaved rounds: every size is timed
        # at the start and at the end of the window, so a host slowdown that
        # begins or ends inside it cannot slow one size alone. A sample of
        # the inside call is the mean of 30 back-to-back calls at 1e4 and of
        # 3 at 1e5: one call at 1e4 takes about 3 ms, so a single stall would
        # lift its sample, the largest term of the inside ratio, past the
        # bound. The reach calls stay single: back to back, the 1e4 graph
        # stays in cache and a call runs up to 40 % faster than a lone one,
        # which would move their linear-scaling ratios instead.
        rounds = 15
        cases = []
        sizes = ((10_000, 15, 30), (100_000, 5, 3), (1_000_000, 2, 1))
        for target_size, repeats, inside_batch in sizes:
            g, sources, target = layered_hypergraph(rng, target_size)
            calls = (
                (partial(reach_from, g, [v for v, _ in sources]), 1),
                (partial(reach_to, g, target), 1),
                (partial(viterbi_inside, g, sources), inside_batch),
            )
            timed = {round(j * (rounds - 1) / (repeats - 1)) for j in range(repeats)}
            cases.append((g, calls, timed, [INF] * len(calls)))
        for r in range(rounds):
            for _, calls, timed, best in cases:
                if r in timed:
                    for k, (fn, calls_per_sample) in enumerate(calls):
                        best[k] = min(best[k], _seconds_per_call(fn, calls_per_sample))
        rows = []
        for g, _, _, (t_from, t_to, t_inside) in cases:
            for t in (t_from, t_to, t_inside):
                assert t < 10.0, f"run exceeded 10 s at size {g.input_size}"
            rows.append((g.input_size, g.n, g.num_arcs, t_from, t_to, t_inside))
        with capsys.disabled():
            for t, n, m, t_from, t_to, t_inside in rows:
                print(
                    f"\n  t={t} n={n} m={m} "
                    f"reach_from={t_from:.4f}s reach_to={t_to:.4f}s inside={t_inside:.4f}s"
                )
        from_ratios = [t_from / t for t, _, _, t_from, _, _ in rows]
        to_ratios = [t_to / t for t, _, _, _, t_to, _ in rows]
        inside_ratios = [
            t_inside / (m * math.log2(n)) for t, n, m, _, _, t_inside in rows
        ]
        # reach passes scale linearly in total input size (factor 2 across
        # two orders of magnitude), the inside pass no worse than m log n
        # (factor 3); a constant-time-decrease-key heap would tighten the
        # bound to n log n + t but is not implemented.
        assert max(from_ratios) / min(from_ratios) <= 2.0
        assert max(to_ratios) / min(to_ratios) <= 2.0
        assert max(inside_ratios) / min(inside_ratios) <= 3.0


def test_criterion_8_fixture_regressions(capsys, f1):
    with criterion(capsys, 8, "fixture regressions"):
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        name_of = f1.name_of
        ins = viterbi_inside(f1, [(0, 0.0)])
        for v in range(f1.n):
            assert ins.inside[v] == golden["inside"][name_of(v)]
            assert ins.pi[v] == golden["pi"][name_of(v)]
        outs = viterbi_outside(f1, ins, 3)
        for v in range(f1.n):
            assert outs.outside[v] == golden["outside"][name_of(v)]
            assert outs.psi[v] == golden["psi"][name_of(v)]
        gv, ge = utilities(f1, ins, outs)
        for v in range(f1.n):
            assert gv[v] == golden["gamma_vertices"][name_of(v)]
        for i in f1.arc_indices:
            assert ge[i] == golden["gamma_arcs"][str(i)]
        pr = prune_relatively_useless(f1, ins, outs, golden["prune_beam"])
        removed = [i for i in f1.arc_indices if i not in pr.arc_map]
        assert removed == golden["removed_arcs"]
        assert ins.inside[3] == golden["best_cost"]
        tree = extract_best_tree(f1, ins, 3)
        assert format_tree(tree, name_of) == golden["best_tree"]

        # cross-check the frozen numbers against the oracle, end to end
        enum = enumerate_trees(f1, [(0, 0.0)], 3)
        assert enum.complete
        assert enum.min_cost() == golden["best_cost"]
        assert sorted(t.cost for t in enum.trees) == [3.5, 5.0]
