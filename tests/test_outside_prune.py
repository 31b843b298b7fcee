from __future__ import annotations

import math
from random import Random

import pytest

from hyperpaths import (
    INF,
    Hyperarc,
    InternalInvariantError,
    OutsideResult,
    Query,
    UnreachableTargetError,
    ValidationError,
    build,
    prune_relatively_useless,
    reach_from,
    reduce,
    restrict,
    utilities,
    viterbi_inside,
    viterbi_outside,
)
from hyperpaths.core import _beam_bounds
from hyperpaths.outside import _keep_flags

from support import (
    boundary_beams,
    collect_reduced_instances,
    oracle_gamma_tables,
    random_hypergraph,
    random_sources,
    random_weighted_instance,
    tree_elements,
)


def _f1_results(f1):
    ins = viterbi_inside(f1, [(0, 0.0)])
    outs = viterbi_outside(f1, ins, 3)
    return ins, outs


def test_outside_f1(f1):
    ins, outs = _f1_results(f1)
    assert outs.outside == (3.5, 2.5, 1.5, 0.0)
    # target initialization; omega completed through e2 (B settles before A)
    assert outs.psi == (2, 3, 3, 0)


def test_outside_target_only():
    g = build(1, ())
    ins = viterbi_inside(g, [(0, 0.0)])
    outs = viterbi_outside(g, ins, 0)
    assert outs.outside == (0.0,) and outs.psi == (0,)


def test_outside_self_loop_rejected(f2):
    ins = viterbi_inside(f2, [(0, 0.0)])
    outs = viterbi_outside(f2, ins, 1)
    # the loop proposes 0 + 1 + inside[S] - inside[S] = 1 > 0
    assert outs.outside == (1.0, 0.0)
    assert outs.psi == (1, 0)


def test_outside_unreachable_target_raises(f3):
    ins = viterbi_inside(f3, [(0, 0.0)])
    with pytest.raises(UnreachableTargetError):
        viterbi_outside(f3, ins, 2)


def test_utilities_f1(f1):
    ins, outs = _f1_results(f1)
    gv, ge = utilities(f1, ins, outs)
    assert gv == (3.5, 3.5, 3.5, 3.5)
    assert ge[0] == INF
    assert ge[1:] == (3.5, 3.5, 3.5, 5.0)


def test_utilities_infinite_for_useless_vertex():
    # D is derivable but helps nothing reach the target
    arcs = (Hyperarc(1, ((0, 1),), 1.0), Hyperarc(2, ((0, 1),), 1.0))
    g = build(("omega", "S", "D"), arcs)
    ins = viterbi_inside(g, [(0, 0.0)])
    outs = viterbi_outside(g, ins, 1)
    gv, ge = utilities(g, ins, outs)
    assert gv[2] == INF
    assert ge[2] == INF


def test_utility_of_source_level_arc():
    g = build(2, (Hyperarc(1, ((0, 2),), 1.5),))
    ins = viterbi_inside(g, [(0, 0.25)])
    outs = viterbi_outside(g, ins, 1)
    _, ge = utilities(g, ins, outs)
    # head is the target: gamma = l + m * i_source + 0
    assert ge[1] == pytest.approx(1.5 + 2 * 0.25)


def test_prune_f1_beam_one_removes_e4(f1):
    ins, outs = _f1_results(f1)
    pr = prune_relatively_useless(f1, ins, outs, 1.0)
    assert pr.threshold == 4.5
    assert pr.keep_vertices == (True, True, True, True)
    assert pr.keep_arcs[1:] == (True, True, True, False)
    assert sorted(pr.arc_map) == [1, 2, 3]
    assert pr.graph.num_arcs == 3


def test_prune_beam_zero_keeps_best_tree(f1):
    ins, outs = _f1_results(f1)
    pr = prune_relatively_useless(f1, ins, outs, 0.0)
    assert sorted(pr.arc_map) == [1, 2, 3]
    again = viterbi_inside(pr.graph, [(pr.vertex_map[0], 0.0)])
    assert again.inside[pr.vertex_map[3]] == pytest.approx(3.5, abs=1e-12)


def test_prune_infinite_beam_equals_reduce(f1, f1_query):
    ins, outs = _f1_results(f1)
    pr = prune_relatively_useless(f1, ins, outs, math.inf)
    red = reduce(f1, f1_query)
    assert set(pr.vertex_map) == set(red.vertex_map)
    assert set(pr.arc_map) == set(red.arc_map)


def test_prune_rejects_negative_beam(f1):
    ins, outs = _f1_results(f1)
    with pytest.raises(ValidationError, match="nonnegative"):
        prune_relatively_useless(f1, ins, outs, -0.5)
    with pytest.raises(ValidationError, match="nonnegative"):
        prune_relatively_useless(f1, ins, outs, float("nan"))


def test_prune_drops_a_kept_arc_whose_endpoint_rounding_left_unkept():
    # Instance 50 of support.random_weighted_instance(Random(5)). At this beam
    # the cutoff equals arc 7's utility, and its tail 4's utility, equal in
    # exact arithmetic, rounds one ulp above it.
    g = build(5, [
        Hyperarc(2, ((0, 2),), 0.6230490576236689),
        Hyperarc(3, ((2, 1), (0, 2), (2, 1)), 0.6439931296723019),
        Hyperarc(2, ((1, 2), (3, 1)), 1.0527348586416516),
        Hyperarc(2, ((1, 1), (3, 1)), 3.2626689870901897),
        Hyperarc(4, ((2, 2), (0, 1), (2, 2)), 0.6912021763081698),
        Hyperarc(3, ((0, 2),), 3.035281533894236),
        Hyperarc(2, ((4, 2),), 1.6245624507851628),
        Hyperarc(0, ((2, 2),), 3.54519068462541),
        Hyperarc(0, ((1, 1),), 0.4184660484579561),
    ])
    ins = viterbi_inside(g, [(2, 0.0)])
    outs = viterbi_outside(g, ins, 0)
    pr = prune_relatively_useless(g, ins, outs, 10.09734817263868)
    assert pr.gamma_arcs[7] < pr.gamma_vertices[4]
    assert pr.keep_arcs[7] and not pr.keep_vertices[4]
    assert 7 not in pr.arc_map
    for i in pr.arc_map:
        assert pr.keep_arcs[i]
        assert all(pr.keep_vertices[v] for v in (g.arc(i).head, *g.arc(i).occurrences()))


def test_prune_rejects_a_kept_arc_with_an_endpoint_far_above_the_cutoff():
    g = build(["s", "A", "B", "T"], [
        Hyperarc(1, ((0, 1),), 1.0),
        Hyperarc(2, ((0, 1),), 1.0),
        Hyperarc(3, ((1, 1), (2, 1)), 1.0),
    ])
    ins = viterbi_inside(g, [(0, 0.0)])
    outs = viterbi_outside(g, ins, 3)
    # A's completion cost raised far above its true value: the arc T <- A B
    # stays within the beam, but its tail A no longer does.
    wrong = OutsideResult(outs.outside[:1] + (100.0,) + outs.outside[2:], outs.psi, 3)
    with pytest.raises(InternalInvariantError, match="arc 3 kept but endpoint vertex 1"):
        prune_relatively_useless(g, ins, wrong, 0.5)


# -- randomized properties on reduced instances --------------------------------


@pytest.fixture(scope="module")
def reduced_instances():
    return collect_reduced_instances(Random(300), 50)


def test_utilities_match_oracle(reduced_instances):
    for inst in reduced_instances:
        gv_oracle, ge_oracle = oracle_gamma_tables(inst.graph, inst.trees)
        for v in range(inst.graph.n):
            if gv_oracle[v] == INF:
                assert inst.gamma_v[v] == INF
            else:
                assert inst.gamma_v[v] == pytest.approx(gv_oracle[v], abs=1e-9)
        for i in inst.graph.arc_indices:
            if ge_oracle[i] == INF:
                assert inst.gamma_e[i] == INF
            else:
                assert inst.gamma_e[i] == pytest.approx(ge_oracle[i], abs=1e-9)


def test_gamma_bounds(reduced_instances):
    for inst in reduced_instances:
        best = inst.inside.inside[inst.target]
        for v in range(inst.graph.n):
            assert inst.gamma_v[v] >= best - 1e-9
        assert inst.gamma_v[inst.target] == best
        # Exact: utilities sums in arc_total_cost's order.
        g = inst.graph
        for i in g.arc_indices:
            expected = inst.outside.outside[g._heads[i]] + g.arc_total_cost(i, inst.inside.inside)
            assert inst.gamma_e[i] == expected


def test_psi_consistency(reduced_instances):
    cases = [(inst.graph, inst.inside, inst.outside) for inst in reduced_instances]
    # More reduced instances, without the oracle's enumeration: a relaxation
    # that sums in another order differs in the last bit only now and then.
    rng = Random(301)
    while len(cases) < 350:
        g, sources = random_weighted_instance(rng)
        red = reduce(g, Query(sources, rng.randrange(g.n)))
        if red.target_reachable:
            ins = viterbi_inside(red.graph, red.sources)
            cases.append((red.graph, ins, viterbi_outside(red.graph, ins, red.target)))
    for g, ins, outs in cases:
        for v in range(g.n):
            i = outs.psi[v]
            if i == 0:
                continue
            arc = g.arc(i)
            assert v in {t for t, _ in arc.tails}
            expected = outs.outside[arc.head] + g.arc_total_cost(i, ins.inside) - ins.inside[v]
            # Exact: the relaxation sums in arc_total_cost's order.
            assert outs.outside[v] == expected


def test_prune_safety_and_monotonicity(reduced_instances):
    beams = [0.0, 0.5, 1.0, 2.0, math.inf]
    for inst in reduced_instances[:25]:
        previous: set | None = None
        for beam in beams:
            pr = prune_relatively_useless(inst.graph, inst.inside, inst.outside, beam)
            kept_arcs = set(pr.arc_map)
            kept_vertices = set(pr.vertex_map)
            if previous is not None:
                assert previous <= kept_arcs
            previous = kept_arcs
            for tree in inst.trees:
                if tree.cost <= pr.threshold:
                    vs, arcs = tree_elements(tree)
                    assert vs <= kept_vertices
                    assert arcs <= kept_arcs
            # best cost survives any beam
            sources2 = tuple(
                (pr.vertex_map[v], c) for v, c in inst.sources if v in pr.vertex_map
            )
            again = viterbi_inside(pr.graph, sources2)
            assert again.inside[pr.vertex_map[inst.target]] == pytest.approx(
                inst.inside.inside[inst.target], abs=1e-12
            )


def _read_back(values, index_map, ids, default):
    """A restriction's ``values`` at the input ``ids``: through ``index_map``,
    or ``default`` where the restriction dropped the id."""
    return tuple(values[index_map[i]] if i in index_map else default for i in ids)


def test_forward_restriction_changes_no_result():
    """Inside, outside and prune on g equal the same passes on g restricted to
    the vertices derivable from the sources, mapped back to g's ids: an
    underivable vertex keeps infinite costs, and an arc with such a tail
    never fires inside and is never relaxed outside."""
    rng = Random(302)
    dropped = 0
    for _ in range(300):
        g = random_hypergraph(rng, n_range=(1, 12), m_range=(0, 24))
        sources = random_sources(rng, g)[: rng.randint(1, 2)]
        rf = reach_from(g, [v for v, _ in sources])
        target = rng.choice(rf.vertices())
        rr = restrict(g, rf.vertices())
        dropped += rr.graph.n < g.n
        vmap, vertices = rr.vertex_map, range(g.n)
        amap, arcs = {0: 0, **rr.arc_map}, range(g.num_arcs + 1)  # slot 0 is unused
        arc_old = {new: old for old, new in amap.items()}

        ins = viterbi_inside(g, sources)
        outs = viterbi_outside(g, ins, target)
        ins1 = viterbi_inside(rr.graph, tuple((vmap[v], c) for v, c in sources))
        outs1 = viterbi_outside(rr.graph, ins1, vmap[target])
        assert ins.inside == _read_back(ins1.inside, vmap, vertices, INF)
        assert ins.pi == _read_back([arc_old[i] for i in ins1.pi], vmap, vertices, 0)
        assert outs.outside == _read_back(outs1.outside, vmap, vertices, INF)
        assert outs.psi == _read_back([arc_old[i] for i in outs1.psi], vmap, vertices, 0)
        for beam in (0.0, 1.0, math.inf):
            pr = prune_relatively_useless(g, ins, outs, beam)
            pr1 = prune_relatively_useless(rr.graph, ins1, outs1, beam)
            assert pr.gamma_vertices == _read_back(pr1.gamma_vertices, vmap, vertices, INF)
            assert pr.gamma_arcs == _read_back(pr1.gamma_arcs, amap, arcs, INF)
            assert pr.keep_vertices == _read_back(pr1.keep_vertices, vmap, vertices, False)
            assert pr.keep_arcs == _read_back(pr1.keep_arcs, amap, arcs, False)
            assert (pr.beam, pr.threshold) == (pr1.beam, pr1.threshold)
            assert pr.graph == pr1.graph
            composed_v = [(v, pr1.vertex_map[k]) for v, k in vmap.items() if k in pr1.vertex_map]
            composed_a = [(i, pr1.arc_map[k]) for i, k in rr.arc_map.items() if k in pr1.arc_map]
            assert list(pr.vertex_map.items()) == composed_v
            assert list(pr.arc_map.items()) == composed_a
    assert dropped >= 100, "most instances should have underivable vertices"


def test_passes_stopped_at_the_beam_keep_what_the_full_passes_keep():
    """``viterbi_inside(stop=(target, beam))`` and ``viterbi_outside(beam=beam)``
    keep each full-pass value up to the beam's limit, with its ``pi`` or
    ``psi``, and count every other vertex as unreached; and the keep flags
    read off the two stopped passes are the full passes' flags, at fixed
    beams and at each arc's boundary beam and the float just below it."""
    rng = Random(303)
    stopped = runs = 0
    for _ in range(150):
        g = random_hypergraph(rng, n_range=(4, 30), m_range=(4, 60), length_range=(0.0, 2.0))
        sources = random_sources(rng, g)[: rng.randint(1, 2)]
        ins = viterbi_inside(g, sources)
        targets = [v for v in range(g.n) if ins.inside[v] < INF]
        target = rng.choice(targets)
        best = ins.inside[target]
        outs = viterbi_outside(g, ins, target)
        beams = {0.0, 0.5, INF}
        for x in utilities(g, ins, outs)[1][1:]:
            if x < INF:
                beams.update(b for b in boundary_beams(best, x) if b >= 0)
        for beam in sorted(beams):
            limit = _beam_bounds(best + beam)[1]
            ins_b = viterbi_inside(g, sources, stop=(target, beam))
            assert ins_b.inside == tuple(x if x <= limit else INF for x in ins.inside)
            assert ins_b.pi == tuple(a if x <= limit else 0 for x, a in zip(ins.inside, ins.pi))
            outs_b = viterbi_outside(g, ins, target, beam=beam)
            assert outs_b.outside == tuple(x if x <= limit else INF for x in outs.outside)
            assert outs_b.psi == tuple(
                a if x <= limit else 0 for x, a in zip(outs.outside, outs.psi)
            )
            stopped += ins_b.inside != ins.inside
            runs += 1
            flags = _keep_flags(g, ins_b, viterbi_outside(g, ins_b, target, beam=beam), beam)
            assert flags[2:5] == _keep_flags(g, ins, outs, beam)[2:5]
    assert stopped >= 500, f"only {stopped} of {runs} inside passes stopped early"
