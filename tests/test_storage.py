"""The stored form of a hypergraph: flat per-arc arrays.

Only :func:`build` validates arcs; the parser, the grammar conversion and
:func:`restrict` hand arrays straight to the trusted constructor. These
tests check that the trusted paths store exactly what the validating path
stores, that no library path builds a :class:`Hyperarc`, how many
graphs and vertex-name checks the forward pipeline makes, and that a copy
fills its arrays once, on their first read.
"""

from __future__ import annotations

import copy as copy_module
import gc
import io
import pickle
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from itertools import compress
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
from hyperpaths import cli, core, outside, reachability, textio
from hyperpaths.cli import main

from conftest import F1_GRAMMAR_TEXT
from oracle import enumerate_trees
from support import (
    assert_derived_arrays, layered_hypergraph, random_grammar_text, random_hypergraph,
    random_sources,
)


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


def reference_restrict(g, keep):
    """``restrict`` spelled out through the validating ``build``."""
    kept = set(keep)
    flags = [v in kept for v in range(g.n)]
    return reference_copy(g, flags, closed(g, flags))[0]


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
        res = restrict(g, keep)
        expected = reference_restrict(g, keep)
        assert stored(res.graph) == stored(expected)
        assert merged_arcs(res.graph) == merged_arcs(expected)
        spread_kept += sum(spread_repeat(t) for t in res.graph._tails)
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
        for bad, message in ((g.n, "out of range"), (-1, "nonnegative integer")):
            with pytest.raises(ValidationError, match=message):
                restrict(g, [bad, *everything[1:]])


def test_parse_of_serialize_stores_the_graph():
    """The parser stores what ``build`` stores, through both of its arc
    branches: a two-tail line over declared names without '*' (repeated
    tails included), and every other line, as when the text declares no
    names or a tail carries a multiplicity."""
    rng = Random(42)
    shapes = {"plain": 0, "plain repeated": 0, "undeclared": 0, "star": 0}
    for k in range(240):
        if k % 3 == 0:
            g = random_named_graph(rng)
        elif k % 3 == 1:
            g = random_hypergraph(rng)
        else:
            # Few vertices and no multiplicities: plain two-tail arcs often
            # repeat their tail vertex.
            g = random_hypergraph(rng, n_range=(1, 4), max_mult=1)
        text = serialize_hypergraph(g)
        parsed = parse_hypergraph(text).graph
        assert stored(parsed) == stored(g)
        assert_derived_arrays(parsed)
        # Without its vertex lines, each name is declared where it first occurs.
        undeclared = "".join(line for line in text.splitlines(True) if line.startswith("arc"))
        reparsed = parse_hypergraph(undeclared).graph
        assert stored(reparsed) == stored(build(reparsed.names, reparsed.arcs))
        assert_derived_arrays(reparsed)
        for line in undeclared.splitlines():
            tokens = line.split()
            if "*" in line:
                shapes["star"] += 1
            elif len(tokens) == 7:
                shapes["plain repeated" if tokens[3] == tokens[4] else "plain"] += 1
        shapes["undeclared"] += reparsed.n
    assert min(shapes.values()) >= 50, shapes


def pair_objects(g, multiplicity: int | None = None) -> tuple[int, int]:
    """How many tail pair objects ``g._tails`` holds, and how many distinct
    pairs; only pairs of that ``multiplicity``, when it is given."""
    pairs = [p for t in g._tails for p in t if multiplicity in (None, p[1])]
    return len({id(p) for p in pairs}), len(set(pairs))


def storage_instances(rng: Random, count: int):
    """``count`` graphs of four kinds, each with a query whose target the
    sources reach, or ``None``: random graphs with multiplicities, random
    graphs with few vertices and long tails, where tail vertices repeat,
    the parse of such a graph's text, and the ``to_hypergraph`` graph of a
    random grammar, which holds merged ``(v, 2)`` pairs. Yields
    ``(kind, graph, query)``."""
    kinds = ("random", "repeated", "parsed", "grammar")
    for k in range(count):
        kind = kinds[k % 4]
        if kind == "grammar":
            graph, query, _ = to_hypergraph(parse_grammar(random_grammar_text(rng)))
        else:
            graph = (random_hypergraph(rng) if kind == "random"
                     else random_hypergraph(rng, n_range=(2, 4), max_tail=5))
            sources = random_sources(rng, graph)
            query = Query(sources, rng.randrange(graph.n))
            if kind == "parsed":
                graph = parse_hypergraph(serialize_hypergraph(graph, sources, query.target)).graph
        if viterbi_inside(graph, query.sources).inside[query.target] == float("inf"):
            query = None
        yield kind, graph, query


def test_copies_hold_one_object_per_distinct_pair():
    """`restrict`, `reduce` and `prune_relatively_useless` renumber each
    distinct tail pair once: every arc of the copy that holds an equal pair
    holds that one object."""
    rng = Random(48)
    copies = {"restrict": 0, "reduce": 0, "prune": 0}
    merged_pairs = 0
    for kind, g, query in storage_instances(rng, 400):
        if kind == "grammar":
            merged_pairs += any(m == 2 for t in g._tails for _, m in t)
        made = [("restrict", restrict(g, [v for v in range(g.n) if rng.random() < 0.7]).graph)]
        if query is not None:
            made.append(("reduce", reduce(g, query).graph))
            ins = viterbi_inside(g, query.sources)
            outs = viterbi_outside(g, ins, query.target)
            for beam in (0.0, 0.5, float("inf")):
                made.append(("prune", prune_relatively_useless(g, ins, outs, beam).graph))
        for how, copy in made:
            if copy is g:  # nothing dropped, nothing copied
                continue
            copies[how] += 1
            objects, distinct = pair_objects(copy)
            assert objects == distinct, (kind, how)
            tails = copy._tails
            assert merged_arcs(copy) == [
                i for i in copy.arc_indices if len({v for v, _ in tails[i]}) < len(tails[i])
            ]
    assert min(copies.values()) >= 100, copies
    assert merged_pairs >= 30


def test_parsed_and_grammar_graphs_hold_one_plain_pair_per_vertex():
    """The text parser and `to_hypergraph` give each vertex one `(v, 1)`
    pair object for all its plain tails."""
    rng = Random(49)
    for kind, g, _ in storage_instances(rng, 400):
        if kind in ("parsed", "grammar"):
            objects, distinct = pair_objects(g, 1)
            assert objects == distinct, kind
    f1_graph = to_hypergraph(parse_grammar(F1_GRAMMAR_TEXT))[0]
    # (A, 1), (B, 1), the sink's pair and the merged (A, 2) of tau(A, A).
    assert pair_objects(f1_graph) == (4, 4)


def two_restrict_reduce(g, query: Query):
    """The two-phase reduction as a composition of two restrictions."""
    target = query.target
    p1 = reach_from(g, [v for v, _ in query.sources])
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
        assert set(red.vertex_map) == pass2 <= pass1
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
    assert graph_count[0] == 1, "the parser's graph only: the prune copy is written unfilled"


@pytest.fixture
def copy_calls(monkeypatch):
    """Counts calls to ``restrict`` and ``_subgraph``, the renumbering copy,
    through every module that imports them."""
    count = [0]

    def counted(fn):
        def counting(*args, **kwargs):
            count[0] += 1
            return fn(*args, **kwargs)

        return counting

    for module in (core, outside, reachability, cli):
        for name in ("restrict", "_subgraph"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name)))
    return count


def test_cli_prune_builds_only_the_parsed_graph(graph_count, copy_calls, tmp_path):
    """`prune` writes the kept lines off the keep flags: the parsed graph is
    the only graph it builds, and nothing restricts or copies it."""
    g, sources, target = layered_hypergraph(Random(47), 3000, width=20)
    path = tmp_path / "layered.hg"
    path.write_text(serialize_hypergraph(g, sources, target), encoding="utf-8")
    graph_count[0] = 0
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(["prune", "--beam", "1", str(path)]) == 0
    assert "arc " in out.getvalue()
    assert graph_count[0] == 1, "the parsed graph only"
    assert copy_calls[0] == 0


def test_cli_reduce_builds_only_the_parsed_graph(graph_count, copy_calls, tmp_path):
    """`reduce` writes the input's useful lines off the two passes' marks:
    the parsed graph is the only graph it builds, also when the passes
    drop vertices and arcs."""
    text = (
        "arc A <- s @ 1\narc T <- A @ 1\narc B <- A @ 2\narc T <- C @ 1\n"
        "arc D <- s C @ 1\nsource s 0\nsource u 0.5\ntarget T\n"
    )
    path = tmp_path / "small.hg"
    path.write_text(text, encoding="utf-8")
    parsed = parse_hypergraph(text)
    red = reduce(parsed.graph, parsed.query())
    pass1 = reach_from(parsed.graph, [v for v, _ in parsed.query().sources]).vertices()
    assert set(red.vertex_map) < set(pass1), "pass 2 drops something"
    # Serialized now: the copy fills, and so builds its graph, on this read.
    expected = serialize_hypergraph(red.graph, red.sources, red.target)
    graph_count[0] = copy_calls[0] = 0
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(["reduce", str(path)]) == 0
    assert out.getvalue() == expected
    assert "arc T <- A @ 1\n" in out.getvalue() and "B" not in out.getvalue()
    assert graph_count[0] == 1, "the parsed graph only"
    assert copy_calls[0] == 0


def test_arc_accessors_build_on_demand(hyperarc_count, f1):
    hyperarc_count[0] = 0
    arcs = f1.arcs
    assert hyperarc_count[0] == f1.num_arcs
    assert arcs[2] == f1.arc(3) == Hyperarc(3, ((1, 1), (2, 1)), 0.5)
    assert build(f1.names, arcs) == f1


def unfilled(g) -> set[str]:
    """The fields a copy fills on first read that ``g`` does not hold yet,
    read through the slot descriptors, so that looking does not fill."""
    missing = set()
    for name in core._FILLED_ON_READ:
        try:
            Hypergraph.__dict__[name].__get__(g, Hypergraph)
        except AttributeError:
            missing.add(name)
    return missing


def reference_copy(g, keep_flags, arcs):
    """The copy of ``g``'s flagged vertices and ``arcs``, spelled out through
    ``build``, with the maps that renumber both in order."""
    vmap = {v: k for k, v in enumerate(v for v in range(g.n) if keep_flags[v])}
    amap = {i: k for k, i in enumerate(arcs, start=1)}
    graph = build(
        [g.names[v] for v in vmap],
        [Hyperarc(vmap[a.head], tuple((vmap[v], m) for v, m in a.tails), a.length)
         for a in map(g.arc, arcs)],
    )
    return graph, vmap, amap


def closed(g, keep_flags, arcs=None) -> list[int]:
    """The arcs of ``arcs`` (default all) whose endpoints are all flagged."""
    return [i for i in (g.arc_indices if arcs is None else arcs)
            if keep_flags[g._heads[i]] and all(keep_flags[v] for v, _ in g._tails[i])]


def lazy_copy_instances(rng: Random, count: int):
    """Every copy made of ``count`` random, layered and `to_hypergraph`
    graphs, unread: `restrict` keeping no vertex and a random subset;
    `_subgraph` with every vertex flagged and every other arc; `_subgraph`
    of the unread subset copy; `reduce`; and `prune_relatively_useless` at
    beams 0, 0.5 and inf. Yields ``(how, parent, result, keep_flags, arcs)``
    for each result whose graph is not its parent, where the flags and the
    arcs, of the parent, are worked out apart from the copy."""
    for k in range(count):
        if k % 3 == 0:
            g = random_hypergraph(rng)
            query = Query(random_sources(rng, g), rng.randrange(g.n))
        elif k % 3 == 1:
            g, sources, target = layered_hypergraph(rng, 400, width=4)
            query = Query(sources, target)
        else:
            g, query, _ = to_hypergraph(parse_grammar(random_grammar_text(rng)))
        none, some = [False] * g.n, [rng.random() < 0.7 for _ in range(g.n)]
        every, other = [True] * g.n, list(g.arc_indices)[::2]
        made = [("restrict none", g, restrict(g, ()), none, []),
                ("restrict some", g, restrict(g, compress(range(g.n), some)), some,
                 closed(g, some)),
                ("all flags", g, core.RestrictResult(*core._subgraph(g, every, other)),
                 every, other),
                ("reduce", g, reduce(g, query), *reachability._useful(g, query))]
        # A second subset copy, whose arcs are read off a rebuild so that it stays unread.
        parent = restrict(g, compress(range(g.n), some)).graph
        twice = [rng.random() < 0.7 for _ in range(parent.n)]
        arcs = closed(reference_copy(g, some, made[1][4])[0], twice)
        if parent is not g:
            res = core.RestrictResult(*core._subgraph(parent, twice, arcs))
            made.append(("copy of a copy", parent, res, twice, arcs))
        ins = viterbi_inside(g, query.sources)
        if ins.inside[query.target] < float("inf"):
            outs = viterbi_outside(g, ins, query.target)
            for beam in (0.0, 0.5, float("inf")):
                pr = prune_relatively_useless(g, ins, outs, beam)
                kept = list(compress(g.arc_indices, pr.keep_arcs[1:]))
                made.append(("prune", g, pr, pr.keep_vertices, closed(g, pr.keep_vertices, kept)))
        for how, parent, res, flags, arcs in made:
            if res.graph is not parent:
                yield how, parent, res, flags, arcs


def test_copies_fill_on_the_first_read_of_a_deferred_field():
    """A copy read only through its size, names, arc indices and maps has
    not filled; the first read of any deferred field fills every one, with
    what the validating path stores and one object per distinct pair, and
    drops the reference to the parent. The maps renumber the flagged
    vertices and the kept arcs in order."""
    rng = Random(50)
    deferred = sorted(core._FILLED_ON_READ)
    kinds = ("restrict none", "restrict some", "all flags", "copy of a copy", "reduce", "prune")
    copies = dict.fromkeys(kinds, 0)
    for k, (how, g, res, flags, arcs) in enumerate(lazy_copy_instances(rng, 150)):
        c = res.graph
        copies[how] += 1
        if how == "copy of a copy":
            assert unfilled(g) == core._FILLED_ON_READ, "made without reading its parent"
        expected, vmap, amap = reference_copy(g, flags, arcs)
        assert list(res.vertex_map.items()) == list(vmap.items()), how
        assert list(res.arc_map.items()) == list(amap.items()), how
        assert (c.n, c.names, c.num_arcs, c.arc_indices) == (
            len(vmap), tuple(g.names[v] for v in vmap), len(arcs), range(1, len(arcs) + 1))
        assert [c.id_of(c.name_of(v)) for v in range(c.n)] == list(range(c.n))
        assert repr(c) == f"Hypergraph(n={c.n}, m={c.num_arcs})"
        assert getattr(c, "no_such_field", None) is None and not hasattr(c, "__deepcopy__")
        assert unfilled(c) == core._FILLED_ON_READ and c._copy_of[0] is g, how

        getattr(c, deferred[k % len(deferred)])
        assert not unfilled(c) and c._copy_of is None
        assert g not in gc.get_referents(c)
        assert stored(c) == stored(expected), how
        objects, distinct = pair_objects(c)
        assert objects == distinct
    assert min(copies.values()) >= 50, copies


def test_an_unread_copy_is_written_from_its_parent_without_filling():
    """``serialize_hypergraph`` writes an unfilled copy, with its sources and
    target, as the text of the rebuilt copy, and leaves it unfilled; once
    filled, the copy writes the same text."""
    rng = Random(53)
    for how, g, res, flags, arcs in lazy_copy_instances(rng, 60):
        c = res.graph
        sources = [(v, rng.choice([0.0, 0.25, 3.0])) for v in rng.sample(range(c.n), min(c.n, 2))]
        target = rng.randrange(c.n) if c.n and rng.random() < 0.7 else None
        text = serialize_hypergraph(c, sources, target)
        assert unfilled(c) == core._FILLED_ON_READ, how
        expected = reference_copy(g, flags, arcs)[0]
        assert text == serialize_hypergraph(expected, sources, target), how
        c.forward
        assert c._copy_of is None and serialize_hypergraph(c, sources, target) == text, how


def test_pickle_and_deepcopy_of_an_unread_copy_give_an_equal_graph():
    rng = Random(51)
    for how, g, res, flags, arcs in lazy_copy_instances(rng, 30):
        expected = stored(reference_copy(g, flags, arcs)[0])
        for duplicate in (lambda c: pickle.loads(pickle.dumps(c)), copy_module.deepcopy):
            # A fresh unread copy of the same arcs, for each way of duplicating.
            c = core._subgraph(g, flags, arcs)[0]
            assert unfilled(c) == core._FILLED_ON_READ
            dup = duplicate(c)
            assert dup._copy_of is None and not unfilled(dup)
            assert dup == c and stored(dup) == expected, how


def test_threads_reading_a_fresh_copy_fill_it_once(monkeypatch):
    """Eight threads make the first reads of one copy's deferred fields at
    once: none raises, the copy fills once, and all see the same arrays."""
    fills = [0]
    fill = core._fill_copy

    def counting(*args):
        fills[0] += 1
        fill(*args)

    monkeypatch.setattr(core, "_fill_copy", counting)
    g, _, _ = layered_hypergraph(Random(52), 30000, width=20)
    flags = [v % 7 != 0 for v in range(g.n)]
    res = restrict(g, compress(range(g.n), flags))
    expected = stored(reference_copy(g, flags, closed(g, flags))[0])
    c = res.graph
    assert unfilled(c) == core._FILLED_ON_READ
    deferred = sorted(core._FILLED_ON_READ)
    start = threading.Barrier(8)
    seen: list[tuple] = [()] * 8
    errors: list[Exception] = []

    def read(k: int) -> None:
        try:
            start.wait(timeout=60)
            first = getattr(c, deferred[k % len(deferred)])
            seen[k] = (first, *[getattr(c, name) for name in deferred])
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert fills[0] == 1
    for k, values in enumerate(seen):
        assert values[0] is getattr(c, deferred[k % len(deferred)])
        assert all(a is getattr(c, name) for a, name in zip(values[1:], deferred))
    assert stored(c) == expected
