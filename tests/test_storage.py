"""The stored form of a hypergraph: flat per-arc arrays.

Only :func:`build` validates arcs; the parser, the grammar conversion and
:func:`restrict` hand arrays straight to the trusted constructor. These
tests check that the trusted paths store exactly what the validating path
stores, that no library path builds a :class:`Hyperarc`, and how many
graphs and vertex-name checks the forward pipeline makes.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from random import Random

import pytest

from hyperpaths import (
    Hyperarc,
    Hypergraph,
    Query,
    ValidationError,
    build,
    extract_best_tree,
    parse_grammar,
    parse_hypergraph,
    prune_relatively_useless,
    reach_from,
    reach_to,
    reduce,
    restrict,
    serialize_hypergraph,
    to_hypergraph,
    viterbi_inside,
    viterbi_outside,
)
from hyperpaths import core, outside, reachability, textio
from hyperpaths.cli import main

from conftest import F1_GRAMMAR_TEXT
from oracle import enumerate_trees
from support import layered_hypergraph, random_hypergraph, random_sources


def stored(g) -> tuple:
    """Everything a graph stores or derives, for exact comparison."""
    return (
        g.n,
        g.names,
        tuple(g.name_of(v) for v in range(g.n)),
        tuple(g.id_of(g.name_of(v)) for v in range(g.n)),
        g._heads,
        g._tails,
        g._lengths,
        g._dtails,
        g.forward,
        g.backward,
        g.input_size,
    )


def random_named_graph(rng: Random):
    """A random graph whose names mix unnamed vertices with names that
    collide with the synthesized ``v<i>`` display names."""
    g = random_hypergraph(rng)
    perm = rng.sample(range(g.n), g.n)
    names = [None if rng.random() < 0.5 else f"v{perm[v]}" for v in range(g.n)]
    return build(names, g.arcs)


def reference_restrict(g, keep, keep_arcs=None):
    """``restrict`` spelled out through the validating ``build``."""
    kept = sorted(set(keep))
    vmap = {v: k for k, v in enumerate(kept)}
    arcs = [
        Hyperarc(vmap[a.head], tuple((vmap[v], m) for v, m in a.tails), a.length)
        for i, a in enumerate(g.arcs, start=1)
        if (keep_arcs is None or i in keep_arcs)
        and a.head in vmap
        and all(v in vmap for v, _ in a.tails)
    ]
    return build([g.names[v] for v in kept], arcs)


def merged_arcs(g) -> list[int]:
    """Arcs whose distinct tails are a tuple of their own, because a tail
    vertex repeats."""
    return [i for i in g.arc_indices if g._dtails[i] is not g._tails[i]]


def spread_repeat(pairs) -> bool:
    """Whether some vertex repeats in tail pairs that are not adjacent."""
    runs = [v for k, (v, _) in enumerate(pairs) if k == 0 or pairs[k - 1][0] != v]
    return len(set(runs)) < len(runs)


def test_restrict_stores_what_build_stores():
    rng = Random(41)
    spread_kept = 0
    for _ in range(300):
        kind = rng.random()
        if kind < 0.35:
            g = random_named_graph(rng)
        elif kind < 0.7:
            g = random_hypergraph(rng)
        else:
            # Few vertices and long tails: a vertex often repeats in pairs
            # that are not next to each other.
            g = random_hypergraph(rng, n_range=(2, 4), max_tail=5)
        keep = [v for v in range(g.n) if rng.random() < 0.7]
        ids = [i for i in g.arc_indices if rng.random() < 0.6]
        form = rng.randrange(4)
        if form >= 2:
            # Ids outside 1..m and repeats are ignored, in any order.
            ids += [0, -1, g.num_arcs + 1, *ids[::2]]
            rng.shuffle(ids)
        # No filter, a set, a list, and a one-shot iterator.
        keep_arcs = (None, set(ids), ids, iter(ids))[form]
        res = restrict(g, keep, keep_arcs=keep_arcs)
        expected = reference_restrict(g, keep, None if form == 0 else ids)
        assert stored(res.graph) == stored(expected)
        assert merged_arcs(res.graph) == merged_arcs(expected)
        spread_kept += sum(spread_repeat(t) for t in res.graph._tails)
        res.graph.validate()
    assert spread_kept >= 50


def test_keep_all_restrict_returns_its_input():
    rng = Random(46)
    for _ in range(100):
        g = random_named_graph(rng) if rng.random() < 0.5 else random_hypergraph(rng)
        everything = rng.sample(range(g.n), g.n)
        res = restrict(g, everything)
        assert res.graph is g
        assert list(res.vertex_map.items()) == [(v, v) for v in range(g.n)]
        assert list(res.arc_map.items()) == [(i, i) for i in g.arc_indices]
        assert stored(res.graph) == stored(reference_restrict(g, everything))

        # The range check runs before the shortcut.
        for bad in (g.n, -1):
            with pytest.raises(ValidationError, match="out of range"):
                restrict(g, [bad, *everything[1:]])

        keep_arcs = {i for i in g.arc_indices if rng.random() < 0.5}
        res = restrict(g, everything, keep_arcs=keep_arcs)
        assert stored(res.graph) == stored(reference_restrict(g, everything, keep_arcs))
        assert res.arc_map == {i: k for k, i in enumerate(sorted(keep_arcs), start=1)}


def test_parse_of_serialize_stores_the_graph():
    rng = Random(42)
    for _ in range(100):
        g = random_named_graph(rng) if rng.random() < 0.5 else random_hypergraph(rng)
        parsed = parse_hypergraph(serialize_hypergraph(g)).graph
        assert stored(parsed) == stored(g)
        parsed.validate()


def two_restrict_reduce(g, query: Query):
    """The two-phase reduction as a composition of two restrictions."""
    target = query.target
    p1 = reach_from(g, query.source_vertices())
    if not p1.reached[target]:
        return restrict(g, ()).graph, {}, {}, set(p1.vertices()), set()
    r1 = restrict(g, p1.vertices())
    p2 = reach_to(r1.graph, r1.vertex_map[target]).vertices()
    r2 = restrict(r1.graph, p2)
    vmap = {
        old: r2.vertex_map[mid] for old, mid in r1.vertex_map.items() if mid in r2.vertex_map
    }
    amap = {old: r2.arc_map[mid] for old, mid in r1.arc_map.items() if mid in r2.arc_map}
    inv1 = {mid: old for old, mid in r1.vertex_map.items()}
    return r2.graph, vmap, amap, set(p1.vertices()), {inv1[k] for k in p2}


def test_reduce_equals_two_restrictions():
    rng = Random(43)
    for _ in range(150):
        g = random_hypergraph(rng)
        query = Query(random_sources(rng, g), rng.randrange(g.n))
        red = reduce(g, query)
        graph, vmap, amap, pass1, pass2 = two_restrict_reduce(g, query)
        assert stored(red.graph) == stored(graph)
        assert red.vertex_map == vmap and red.arc_map == amap
        assert red.pass1_vertices == pass1 and red.pass2_vertices == pass2
        assert red.sources == tuple((vmap[v], c) for v, c in query.sources if v in vmap)
        assert red.target == vmap.get(query.target)


def test_restriction_keeps_the_names_build_gives():
    assert build(3, ()).names == ("v0", "v1", "v2")
    assert build([None, "v0", None], ()).names == ("_v0", "v0", "v2")
    # The input calls the target v2, and so does the reduced graph.
    red = reduce(build(3, [Hyperarc(2, ((0, 1),), 1.0)]), Query(((0, 0.0),), 2))
    text = serialize_hypergraph(red.graph, red.sources, red.target)
    assert text == "vertex v0\nvertex v2\narc v2 <- v0 @ 1\nsource v0 0\ntarget v2\n"

    def check_names_kept(res) -> None:
        old = sorted(res.vertex_map, key=res.vertex_map.get)
        assert [res.graph.name_of(k) for k in range(res.graph.n)] == [g.name_of(v) for v in old]

    rng = Random(47)
    for _ in range(150):
        g = random_named_graph(rng) if rng.random() < 0.5 else random_hypergraph(rng)
        sources, target = random_sources(rng, g), rng.randrange(g.n)
        check_names_kept(restrict(g, [v for v in range(g.n) if rng.random() < 0.6]))
        check_names_kept(reduce(g, Query(sources, target)))
        ins = viterbi_inside(g, sources)
        if ins.inside[target] < float("inf"):
            outs = viterbi_outside(g, ins, target)
            for beam in (0.0, 0.5, float("inf")):
                check_names_kept(prune_relatively_useless(g, ins, outs, beam))


@pytest.fixture
def hyperarc_count(monkeypatch):
    """Counts Hyperarc constructions while the test runs."""
    count = [0]
    original = Hyperarc.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(Hyperarc, "__init__", counting)
    return count


def test_library_paths_build_no_hyperarc(hyperarc_count, tmp_path):
    g, sources, target = layered_hypergraph(Random(44), 3000, width=20)
    text = serialize_hypergraph(g, sources, target)
    grammar = parse_grammar(F1_GRAMMAR_TEXT)
    path = tmp_path / "layered.hg"
    path.write_text(text, encoding="utf-8")
    hyperarc_count[0] = 0

    parsed = parse_hypergraph(text)
    rf = reach_from(parsed.graph, [v for v, _ in parsed.sources])
    rr = restrict(parsed.graph, rf.vertices())
    sources1 = tuple((rr.vertex_map[v], c) for v, c in parsed.sources)
    target1 = rr.vertex_map[parsed.target]
    ins = viterbi_inside(rr.graph, sources1)
    outs = viterbi_outside(rr.graph, ins, target1)
    pr = prune_relatively_useless(rr.graph, ins, outs, 1.0)
    serialize_hypergraph(pr.graph)
    extract_best_tree(rr.graph, ins, target1)
    assert hyperarc_count[0] == 0, "forward pipeline"

    reduce(parsed.graph, parsed.query())
    assert hyperarc_count[0] == 0, "reduce"

    graph, query, _ = to_hypergraph(grammar)
    enumerate_trees(graph, query.sources, query.target)
    assert hyperarc_count[0] == 0, "grammar conversion and oracle"

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        for report in ("text", "json"):
            assert main(["prune", "--beam", "1", "--report", report, str(path)]) == 0
    assert hyperarc_count[0] == 0, "CLI prune report"


@pytest.fixture
def graph_count(monkeypatch):
    """Counts Hypergraph constructions while the test runs."""
    count = [0]
    original = Hypergraph.__init__

    def counting(self, *args):
        count[0] += 1
        original(self, *args)

    monkeypatch.setattr(Hypergraph, "__init__", counting)
    return count


@pytest.fixture
def name_checks(monkeypatch):
    """Counts matches of the text format's vertex-name pattern."""
    count = [0]
    pattern = textio._NAME_RE

    class Counting:
        def fullmatch(self, name):
            count[0] += 1
            return pattern.fullmatch(name)

    monkeypatch.setattr(textio, "_NAME_RE", Counting())
    return count


def test_forward_pipeline_work_counts(graph_count, name_checks):
    g, sources, target = layered_hypergraph(Random(45), 3000, width=20)
    text = serialize_hypergraph(g, sources, target)
    graph_count[0] = name_checks[0] = 0

    parsed = parse_hypergraph(text)
    assert name_checks[0] == parsed.graph.n, "one name check per distinct vertex name"
    rf = reach_from(parsed.graph, [v for v, _ in parsed.sources])
    assert all(rf.reached), "every vertex is derivable"
    rr = restrict(parsed.graph, rf.vertices())
    ins = viterbi_inside(rr.graph, parsed.sources)
    outs = viterbi_outside(rr.graph, ins, parsed.target)
    pr = prune_relatively_useless(rr.graph, ins, outs, 1.0)
    serialize_hypergraph(pr.graph)
    assert graph_count[0] == 2, "one graph from the parser, one from the prune"


def test_cli_prune_builds_only_the_parsed_graph(graph_count, monkeypatch, tmp_path):
    """`prune` writes the kept lines off the keep flags: the parsed graph is
    the only graph it builds, and nothing restricts it."""
    g, sources, target = layered_hypergraph(Random(47), 3000, width=20)
    path = tmp_path / "layered.hg"
    path.write_text(serialize_hypergraph(g, sources, target), encoding="utf-8")
    restricted = [0]

    def counting(*args, **kwargs):
        restricted[0] += 1
        return restrict(*args, **kwargs)

    for module in (core, outside, reachability):
        monkeypatch.setattr(module, "restrict", counting)
    graph_count[0] = 0
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(["prune", "--beam", "1", str(path)]) == 0
    assert "arc " in out.getvalue()
    assert graph_count[0] == 1, "the parsed graph only"
    assert restricted[0] == 0


def test_arc_accessors_build_on_demand(hyperarc_count, f1):
    hyperarc_count[0] = 0
    arcs = f1.arcs
    assert hyperarc_count[0] == f1.num_arcs
    assert arcs[2] == f1.arc(3) == Hyperarc(3, ((1, 1), (2, 1)), 0.5)
    assert build(f1.names, arcs) == f1
