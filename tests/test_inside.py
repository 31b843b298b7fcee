from __future__ import annotations

import copy
import heapq
import math
import pickle
import time
from collections import defaultdict
from enum import IntEnum
from random import Random

import pytest

from hyperpaths import (
    INF,
    Hyperarc,
    InsideResult,
    InternalInvariantError,
    Query,
    UnreachableTargetError,
    ValidationError,
    build,
    extract_best_tree,
    format_tree,
    parse_hypergraph,
    reach_from,
    reach_to,
    reduce,
    restrict,
    serialize_hypergraph,
    viterbi_inside,
    viterbi_outside,
)
from hyperpaths.core import _beam_bounds, _distinct_tails, check_sources

from support import (
    arc_total_cost,
    iter_nodes,
    oracle_inside_table,
    random_weighted_instance,
    recompute_tree_cost,
)


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


def test_stop_vertex_is_checked_before_any_work(f1, monkeypatch):
    """A stop vertex is type-checked as a source vertex is, then
    range-checked, before the pass pushes anything."""

    def fail(*args):
        raise AssertionError("the pass ran before the stop vertex was checked")

    monkeypatch.setattr(heapq, "heappush", fail)
    for bad in (1.5, True, None, -1, "3", [0]):
        with pytest.raises(ValidationError) as info:
            viterbi_inside(f1, [(0, 0.0)], stop=(bad, 0.0))
        assert str(info.value) == f"vertex id must be a nonnegative integer, got {bad!r}"
    with pytest.raises(ValidationError, match=r"stop vertex 4 out of range \(n=4\)"):
        viterbi_inside(f1, [(0, 0.0)], stop=(4, 0.0))
    for bad in ((3,), (3, 0.0, 1.0), 3):
        with pytest.raises(ValidationError) as info:
            viterbi_inside(f1, [(0, 0.0)], stop=bad)
        assert str(info.value) == f"stop must be a (vertex, beam) pair, got {bad!r}"


def _vertex_calls(g, bad) -> dict:
    """The public calls that take a vertex id of ``g``, with ``bad`` as that
    id; the stop vertex has its own test above."""
    ins = viterbi_inside(g, [(0, 0.0)])
    return {
        "viterbi_outside": lambda: viterbi_outside(g, ins, bad),
        "extract_best_tree": lambda: extract_best_tree(g, ins, bad),
        "reach_to": lambda: reach_to(g, bad),
        "reach_from": lambda: reach_from(g, [bad]),
        "restrict": lambda: restrict(g, [0, bad]),
        "viterbi_inside": lambda: viterbi_inside(g, [(0, 0.0), (bad, 1.0)]),
        "reduce": lambda: reduce(g, Query(((0, 0.0),), bad)),
        "serialize_source": lambda: serialize_hypergraph(g, ((0, 0.0), (bad, 1.0))),
        "serialize_target": lambda: serialize_hypergraph(g, ((0, 0.0),), bad),
        "name_of": lambda: g.name_of(bad),
    }


VERTEX_CALLS = [
    "viterbi_outside", "extract_best_tree", "reach_to", "reach_from", "restrict",
    "viterbi_inside", "reduce", "serialize_source", "serialize_target", "name_of",
]


@pytest.mark.parametrize(
    "call,bad",
    [(call, bad) for call in VERTEX_CALLS for bad in (True, 1.5, -1, None, "3", [0])
     if (call, bad) != ("serialize_target", None)],  # no target is no target line
)
def test_vertex_arguments_are_type_checked(f1, call, bad):
    """A target, tree, source or kept vertex is type-checked as the stop
    vertex is: ``True`` does not run as vertex 1, ``1.5`` and the unhashable
    ``[0]`` raise no bare ``TypeError``, and ``-1`` is not the last vertex."""
    with pytest.raises(ValidationError) as info:
        _vertex_calls(f1, bad)[call]()
    assert str(info.value) == f"vertex id must be a nonnegative integer, got {bad!r}"


@pytest.mark.parametrize("run", [reach_from, restrict], ids=["reach_from", "restrict"])
def test_each_id_is_checked_before_duplicates_are_dropped(f1, run):
    """``True`` equals 1, so dropping duplicates first would let it pass
    unchecked after a 1."""
    with pytest.raises(ValidationError) as info:
        run(f1, [1, True])
    assert str(info.value) == "vertex id must be a nonnegative integer, got True"


@pytest.mark.parametrize("call", VERTEX_CALLS)
def test_vertex_arguments_are_range_checked(f1, call):
    role = {"viterbi_outside": "target ", "reach_to": "target ", "reduce": "target ",
            "serialize_target": "target ", "reach_from": "source ", "viterbi_inside": "source ",
            "serialize_source": "source "}.get(call, "")
    for bad in (4, 5):
        with pytest.raises(ValidationError) as info:
            _vertex_calls(f1, bad)[call]()
        assert str(info.value) == f"{role}vertex {bad} out of range (n=4)"


def test_check_sources_precedence_and_messages():
    # Pairs are checked in order, each vertex before its cost, and a repeated
    # vertex before the cost that comes with it.
    with pytest.raises(ValidationError, match="duplicate source vertex 1"):
        check_sources([(1, 0.0), (1, -1.0)])
    with pytest.raises(ValidationError, match="vertex id must be a nonnegative integer"):
        check_sources([(0, 0.0), (-1, math.nan)])
    with pytest.raises(ValidationError, match="got True"):
        check_sources([(True, 0.0)])
    with pytest.raises(ValidationError, match="got 1.0"):
        check_sources([(1.0, 0.0)])

    class Vertex(IntEnum):
        B = 2

    ((v, c),) = check_sources([(Vertex.B, 1)])
    assert v is Vertex.B and c == 1.0 and type(c) is float
    ((_, zero),) = check_sources([(0, -0.0)])
    assert zero == 0.0 and math.copysign(1.0, zero) == -1.0
    for v, bad in ((0, -INF), (3, -0.5)):
        with pytest.raises(ValidationError) as info:
            check_sources([(v, bad)])
        message = f"source {v}: initial cost must be finite and nonnegative, got {bad!r}"
        assert str(info.value) == message
    for bad in (math.nan, INF):
        with pytest.raises(ValidationError, match="source 0: initial cost must be finite"):
            check_sources([(0, bad)])
    with pytest.raises(ValidationError, match="at least one source"):
        check_sources(iter(()))
    assert check_sources([(2, 1), (0, 0.5)]) == ((2, 1.0), (0, 0.5))


def test_adjacency_is_tuples(f1):
    for g in (f1, restrict(f1, [0, 1, 3]).graph, build(0, ())):
        for adjacency in (g.forward, g.backward):
            assert type(adjacency) is tuple and len(adjacency) == g.n
            assert all(type(arcs) is tuple for arcs in adjacency)


def reference_inside(g, sources, use_guard=True, limit=INF, bound_sum=False):
    """A plainer form of the default inside loop, kept to compare against:
    one heap holding the sources too, one settled flag per vertex, one count
    per bind, and the firing sum taken from ``arc_total_cost``. It settles
    only keys up to ``limit``, and counts every other vertex unreached.

    With ``bound_sum`` each arc records the cost each tail had when it was
    bound, unbound tails counting 0, and fires on that record rather than on
    the inside table: the bind-by-bind additive cost model, written out."""
    inside = [INF] * g.n
    pi = [0] * g.n
    for v, c in sources:
        inside[v] = float(c)
    heap = [(inside[v], v) for v, _ in sources]
    heapq.heapify(heap)
    arcs = (None, *g.arcs)
    remaining = [len(_distinct_tails(a.tails)) if a else 0 for a in arcs]
    bound = [defaultdict(float) for _ in arcs]
    settled = [False] * g.n
    binds = 0
    while heap:
        key, y = heapq.heappop(heap)
        if key > limit:
            break
        if settled[y] or key > inside[y]:
            continue
        settled[y] = True
        for i in g.forward[y]:
            h = arcs[i].head
            if use_guard and inside[y] >= inside[h]:
                continue
            binds += 1
            bound[i][y] = inside[y]
            remaining[i] -= 1
            if remaining[i] == 0:
                c = arc_total_cost(g, i, bound[i] if bound_sum else inside)
                if c < inside[h]:
                    inside[h], pi[h] = c, i
                    heapq.heappush(heap, (c, h))
    pi = [a if x <= limit else 0 for x, a in zip(inside, pi)]
    inside = [x if x <= limit else INF for x in inside]
    return tuple(inside), tuple(pi), binds


def tie_heavy_instance(rng):
    """A random cyclic graph of a few hundred vertices, with hundreds of
    sources whose costs arcs often undercut, and few distinct lengths."""
    n = rng.randint(300, 600)
    arcs = [
        Hyperarc(
            rng.randrange(n),
            tuple((rng.randrange(n), rng.randint(1, 2)) for _ in range(rng.randint(1, 3))),
            rng.choice((0.0, 0.0, 0.25, 0.5, 1.0)),
        )
        for _ in range(rng.randint(n, 4 * n))
    ]
    chosen = rng.sample(range(n), rng.randint(100, n // 2))
    return build(n, arcs), [(v, rng.choice((0.0, 0.5, 1.0, 2.0, 8.0))) for v in chosen]


def assert_matches_reference(g, sources, stop=None, limit=INF):
    """``viterbi_inside`` equals the guarded reference bitwise, binds too,
    and the guardless reference in everything but binds, which it never
    exceeds: the guard changes only binds."""
    inside, pi, binds = reference_inside(g, sources, True, limit)
    result = viterbi_inside(g, sources, stop=stop)
    # Bitwise: float.hex tells -0.0 from 0.0.
    assert list(map(float.hex, result.inside)) == list(map(float.hex, inside))
    assert result.pi == pi
    assert result.binds == binds
    guardless, guardless_pi, guardless_binds = reference_inside(g, sources, False, limit)
    assert list(map(float.hex, guardless)) == list(map(float.hex, inside))
    assert guardless_pi == pi and binds <= guardless_binds
    return inside, pi


def test_inside_loop_matches_reference_with_many_sources():
    """The sources' sorted list and the heap settle vertices in the single
    heap's order: with spread source costs, with every source at 0.0, with
    sources undercut by an arc while still queued, and in passes stopped at
    a source or at another vertex."""
    rng = Random(206)
    undercut_sources = ties = stopped = 0
    for _ in range(25):
        g, spread = tie_heavy_instance(rng)
        for sources in (spread, [(v, 0.0) for v, _ in spread]):
            inside, pi = assert_matches_reference(g, sources)
            # Sources improved by an arc were undercut while still in the
            # list: their list entry goes stale. Costs tie often, so the
            # order leans on vertex ids, within and across the two queues.
            undercut_sources += sum(1 for v, _ in sources if pi[v])
            finite = [c for c in inside if c < INF]
            ties += len(finite) - len(set(finite))
            is_source = dict(sources)
            spare = [u for u in range(g.n) if u not in is_source]
            for v in (sources[0][0], rng.choice([u for u in spare if inside[u] < INF])):
                for beam in (0.0, 1.0, INF):
                    limit = _beam_bounds(inside[v] + beam)[1]
                    pass_sources = list(sources)
                    if beam < INF:
                        # A source at the least cost above the limit: the
                        # list must drop it at the stop, as the heap would.
                        pass_sources.append((rng.choice(spare), math.nextafter(limit, INF)))
                    got, _ = assert_matches_reference(g, pass_sources, (v, beam), limit)
                    stopped += got.count(INF) > inside.count(INF) + (beam < INF)
    assert undercut_sources > 100 and ties > 1000 and stopped > 50


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
            assert result.inside[v] == arc_total_cost(g, i, result.inside)


@pytest.mark.parametrize("bound_sum", [False, True], ids=["default", "AdditiveCost"])
def test_guard_is_pure_optimization(bound_sum):
    """Inside costs and ``pi`` equal the guardless reference's bitwise, and
    the guard only saves binds, whether the reference fires on the inside
    table or on the costs its arcs bound one by one."""
    rng = Random(202)
    for _ in range(80):
        g, sources = random_weighted_instance(rng)
        result = viterbi_inside(g, sources)
        inside, pi, binds = reference_inside(g, sources, use_guard=False, bound_sum=bound_sum)
        assert list(map(float.hex, result.inside)) == list(map(float.hex, inside))
        assert result.pi == pi
        assert result.binds <= binds


def test_bind_counts(f1, f2):
    # fully reachable, guardless: exactly one bind per (arc, distinct tail)
    total_slots = sum(len(_distinct_tails(f1.arc(i).tails)) for i in f1.arc_indices)
    assert reference_inside(f1, [(0, 0.0)], use_guard=False)[2] == total_slots
    # the guard skips the self-loop bind entirely
    assert viterbi_inside(f2, [(0, 0.0)]).binds == 1
    assert reference_inside(f2, [(0, 0.0)], use_guard=False)[2] == 2
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
    assert viterbi_inside(g, [(0, 0.0)]).binds == 3
    assert reference_inside(g, [(0, 0.0)], use_guard=False)[2] == 5


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


def test_extract_rejects_an_inside_result_of_another_size(f1):
    # In the larger graph S's best arc is arc 5, which f1 does not have.
    bigger = build(5, [*f1.arcs, Hyperarc(3, ((0, 1),), 0.25)])
    for g, other in ((f1, bigger), (bigger, f1)):
        result = viterbi_inside(other, [(0, 0.0)])
        with pytest.raises(ValidationError, match="^inside result does not match this hypergraph$"):
            extract_best_tree(g, result, 3)


def test_extract_rejects_a_predecessor_that_is_not_an_arc_into_its_vertex():
    g = parse_hypergraph("arc A <- S @ 1\narc B <- A A @ 2\narc C <- B @ 1\nsource S\n")
    h = parse_hypergraph(
        "arc A <- S @ 1\narc B <- A @ 1\narc B <- S @ 5\narc C <- B @ 1\nsource S\n"
    )
    assert g.graph.names == h.graph.names == ("A", "S", "B", "C")
    ins = viterbi_inside(g.graph, g.require_sources())
    assert ins.pi == (1, 0, 2, 3)
    for result in (
        viterbi_inside(h.graph, h.require_sources()),  # C's arc 4 is not in g
        InsideResult(ins.inside, (1, 0, 1, 3), ins.binds),  # arc 1's head is A, not B
        InsideResult(ins.inside, (1, 0, 2, -1), ins.binds),
    ):
        with pytest.raises(ValidationError, match="^inside result does not match this hypergraph$"):
            extract_best_tree(g.graph, result, 3)


def test_extract_rejects_a_cyclic_predecessor_chain(f2):
    # S's predecessor is its self-loop; in g, A and B are each other's.
    g = build(3, [Hyperarc(1, ((2, 1),), 1.0), Hyperarc(2, ((1, 1), (0, 1)), 1.0)])
    for graph, result, v in (
        (f2, InsideResult((0.0, 1.0), (0, 2), 0), 1),
        (g, InsideResult((0.0, 1.0, 1.0), (0, 1, 2), 0), 1),
    ):
        with pytest.raises(InternalInvariantError, match="^cycle in predecessor pointers$"):
            extract_best_tree(graph, result, v)


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
    for restored in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree)):
        assert restored == tree and restored is not tree
        assert restored.children[0] is restored.children[1]
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


def test_shared_chain_tree_compares_hashes_and_pickles_in_linear_time():
    # v_i <- v_{i-1} * 2: one node per level, 2**40 leaves once unfolded.
    levels = 40

    def best_tree(source_cost):
        arcs = [Hyperarc(i, ((i - 1, 2),), 1.0) for i in range(1, levels + 1)]
        g = build(levels + 1, arcs)
        return extract_best_tree(g, viterbi_inside(g, [(0, source_cost)]), levels)

    a, b, other = best_tree(0.0), best_tree(0.0), best_tree(0.5)
    start = time.perf_counter()
    assert a == b and hash(a) == hash(b) and a != other
    restored = pickle.loads(pickle.dumps(a))
    assert restored == a and restored.children[0] is restored.children[1]
    assert time.perf_counter() - start < 1.0
