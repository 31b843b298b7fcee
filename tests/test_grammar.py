from __future__ import annotations

import copy
import math
import pickle
from importlib import import_module
from pathlib import Path
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperpaths import (
    DerivationTree,
    GrammarError,
    GrammarHypergraphMap,
    Production,
    RhsTree,
    Wrtg,
    best_derivation,
    derivation_grammar,
    extract_best_tree,
    from_pruned,
    parse_grammar,
    prune_relatively_useless,
    serialize_grammar,
    ValidationError,
    to_hypergraph,
    viterbi_inside,
    viterbi_outside,
    yield_nonterminals,
)
from hyperpaths.cli import main

from oracle import EnumerationBudget, enumerate_trees
from support import (
    enumerate_derivations,
    hyperpath_shape,
    occurrences,
    random_acyclic_grammar,
    weighted_multisets_equal,
    yield_from_rhs,
)


def _f1_grammar() -> Wrtg:
    """Grammar whose hypergraph image is exactly the F1 fixture."""
    productions = (
        Production("A", ("a",), math.exp(-1.0)),
        Production("B", ("b",), math.exp(-2.0)),
        Production("S", RhsTree("sigma", (RhsTree("A"), RhsTree("B"))), math.exp(-0.5)),
        Production("S", RhsTree("tau", (RhsTree("A"), RhsTree("A"))), math.exp(-3.0)),
    )
    return Wrtg(frozenset({"a", "b", "sigma", "tau"}), ("A", "B", "S"), "S", productions)


def test_yield_reads_nonterminal_leaves_left_to_right():
    nts = frozenset({"A", "B"})
    rhs = RhsTree("sigma", (RhsTree("A"), RhsTree("a"), RhsTree("B")))
    assert yield_nonterminals(rhs, nts) == ("A", "B")
    assert yield_nonterminals(("A", "b", "A"), nts) == ("A", "A")
    assert yield_nonterminals(RhsTree("a"), nts) == ()


@st.composite
def rhs_trees(draw):
    labels = st.sampled_from(["A", "B", "C", "a", "b", "sigma"])
    def tree(depth):
        label = draw(labels)
        if depth >= 4 or draw(st.booleans()):
            return RhsTree(label)
        kids = tuple(tree(depth + 1) for _ in range(draw(st.integers(1, 3))))
        # internal nodes may not be nonterminals
        return RhsTree(draw(st.sampled_from(["a", "b", "sigma"])), kids)
    return tree(0)


@given(rhs_trees())
def test_yield_scan_matches_recursive_oracle(rhs):
    nts = frozenset({"A", "B", "C"})
    assert yield_nonterminals(rhs, nts) == yield_from_rhs(rhs, nts)


def test_derivation_grammar_shapes():
    g = _f1_grammar()
    dg = derivation_grammar(g)
    assert dg.alphabet == frozenset({"p1", "p2", "p3", "p4"})
    assert dg.nonterminals == g.nonterminals and dg.start == "S"
    # S -> sigma(A, B) becomes S -> p3(A, B)
    p3 = dg.productions[2].rhs
    assert p3.label == "p3"
    assert tuple(c.label for c in p3.children) == ("A", "B")
    # a terminal interleaved in the rhs drops out of the derivation rhs
    mixed = Wrtg(
        frozenset({"sigma", "a"}),
        ("S", "A", "B"),
        "S",
        (
            Production("S", RhsTree("sigma", (RhsTree("A"), RhsTree("a"), RhsTree("B"))), 0.5),
            Production("A", ("a",), 0.5),
            Production("B", ("a",), 0.5),
        ),
    )
    dmixed = derivation_grammar(mixed)
    assert tuple(c.label for c in dmixed.productions[0].rhs.children) == ("A", "B")
    # terminal production becomes a rank-0 label
    assert dg.productions[0].rhs == RhsTree("p1", ())
    # monadic rhs keeps its single leaf
    mono = derivation_grammar(
        Wrtg(frozenset({"s"}), ("A",), "A", (Production("A", RhsTree("s", (RhsTree("A"),)), 0.5),))
    )
    assert tuple(c.label for c in mono.productions[0].rhs.children) == ("A",)


def test_to_hypergraph_is_f1(f1):
    graph, query, gmap = to_hypergraph(_f1_grammar())
    assert graph.names == ("A", "B", "S", "_OMEGA_")
    assert query.sources == ((3, 0.0),) and query.target == 2
    assert graph.num_arcs == 4
    for i, expected_length in enumerate([1.0, 2.0, 0.5, 3.0], start=1):
        assert graph.arc(i).length == pytest.approx(expected_length, abs=1e-12)
    # terminal rules point at the sink; S <- A A collapses to multiplicity 2
    assert graph.arc(1).tails == ((3, 1),)
    assert graph.arc(4).tails == ((0, 2),)
    assert gmap.production_for_arc == {1: 1, 2: 2, 3: 3, 4: 4}


def test_to_hypergraph_preserves_interleaved_occurrences():
    g = Wrtg(
        frozenset({"b"}),
        ("S", "A", "B"),
        "S",
        (
            Production("S", ("A", "B", "A"), 0.5),
            Production("A", ("b",), 0.5),
            Production("B", ("b",), 0.5),
        ),
    )
    graph, _, _ = to_hypergraph(g)
    # interleaved yield keeps its occurrence order; only consecutive repeats group
    assert graph.arc(1).tails == ((1, 1), (2, 1), (1, 1))
    assert occurrences(graph.arc(1)) == (1, 2, 1)
    g2 = Wrtg(
        frozenset({"b"}),
        ("S", "A"),
        "S",
        (Production("S", ("A", "b", "A"), 0.5), Production("A", ("b",), 0.5)),
    )
    graph2, _, _ = to_hypergraph(g2)
    # the terminal drops out of the yield, so the A's become consecutive
    assert graph2.arc(1).tails == ((1, 2),)
    assert occurrences(graph2.arc(1)) == (1, 1)


def test_wrtg_rejects_unwritable_symbols_when_built():
    with pytest.raises(GrammarError, match="invalid symbol 'a b'"):
        Wrtg(frozenset({"a b"}), ("S",), "S", (Production("S", ("a b",), 0.5),))
    with pytest.raises(GrammarError, match="invalid symbol 'a b'"):
        Wrtg(frozenset({"a"}), ("a b",), "a b", (Production("a b", ("a",), 0.5),))


@pytest.mark.parametrize(
    "nonterminals, start, production, message",
    [
        (("S", "S"), "S", Production("S", ("a",), 0.5), "duplicate nonterminal"),
        (("S",), "T", Production("S", ("a",), 0.5), "start symbol 'T' is not a nonterminal"),
        (("S",), "S", Production("a", ("a",), 0.5), "production 1: lhs 'a' is not a nonterminal"),
        (("S",), "S", Production("S", ("a", "b"), 0.5), "production 1: unknown symbol 'b'"),
        (("S",), "S", Production("S", RhsTree("S", (RhsTree("a"),)), 0.5),
         "production 1: nonterminal 'S' used as an internal node"),
    ],
    ids=["duplicate nonterminal", "start", "lhs", "unknown symbol", "internal nonterminal"],
)
def test_wrtg_constructor_checks(nonterminals, start, production, message):
    with pytest.raises(GrammarError) as info:
        Wrtg(frozenset({"a"}), nonterminals, start, (production,))
    assert str(info.value) == message


_P = Production("S", ("a",), 0.5)


@pytest.mark.parametrize(
    "fields, message",
    [
        ((frozenset(), (5,), 5, ()), "nonterminals item 5 is not a str"),
        ((frozenset({"a", 1}), ("S",), "S", ()), "alphabet item 1 is not a str"),
        ((frozenset({"a"}), ("S",), "S", ("S -> a",)),
         "productions item 'S -> a' is not a Production"),
        ((frozenset({"a"}), ("S",), "S", (Production("S", ["a"], 0.5),)),
         "production 1: rhs ['a'] is not a tuple or an RhsTree"),
        ((frozenset({"a"}), ("S",), "S", (Production("S", 5, 0.5),)),
         "production 1: rhs 5 is not a tuple or an RhsTree"),
        ((frozenset({"a"}), "S", "S", (_P,)), "nonterminals must be a tuple, got 'S'"),
        (("a", ("S",), "S", (_P,)), "alphabet must be a frozenset, got 'a'"),
        ((frozenset({"a"}), ("S",), "S", [_P]), f"productions must be a tuple, got {[_P]!r}"),
        ((frozenset({"a"}), ("S",), ["S"], (_P,)), "start symbol ['S'] is not a nonterminal"),
        ((frozenset({"a"}), ("S",), "S", (Production(["S"], ("a",), 0.5),)),
         "production 1: lhs ['S'] is not a nonterminal"),
        ((frozenset({"a"}), ("S",), "S", (Production("S", ("a", [1]), 0.5),)),
         "production 1: unknown symbol [1]"),
        ((frozenset({"f", "a"}), ("S",), "S", (Production("S", RhsTree("f", ("a",)), 0.5),)),
         "production 1: rhs child 'a' is not an RhsTree"),
        ((frozenset({"f", "a"}), ("S",), "S", (Production("S", RhsTree("f", 5), 0.5),)),
         "production 1: children 5 of rhs node 'f' are not a tuple"),
    ],
    ids=["int nonterminal", "int letter", "str production", "list rhs", "int rhs",
         "str nonterminals", "str alphabet", "list productions", "list start", "list lhs",
         "list rhs item", "str rhs child", "int rhs children"],
)
def test_wrtg_constructor_names_the_bad_field(fields, message):
    with pytest.raises(GrammarError) as info:
        Wrtg(*fields)
    assert str(info.value) == message


def test_wrtg_rejects_a_symbol_ending_in_a_newline():
    # Written out and read back, it would silently become the symbol 'x'.
    with pytest.raises(GrammarError, match=r"invalid symbol 'x\\n'"):
        Wrtg(frozenset({"x\n"}), ("S",), "S", (Production("S", ("x\n",), 0.5),))


def test_to_hypergraph_rejects_superunit_weight():
    g = Wrtg(frozenset({"a"}), ("S",), "S", (Production("S", ("a",), 1.5),))
    with pytest.raises(GrammarError, match="production 1.*above 1"):
        to_hypergraph(g)


def test_weight_one_gives_zero_length():
    g = Wrtg(frozenset({"a"}), ("S",), "S", (Production("S", ("a",), 1.0),))
    graph, _, _ = to_hypergraph(g)
    assert graph.arc(1).length == 0.0
    assert math.copysign(1.0, graph.arc(1).length) == 1.0


def test_sink_name_avoids_collision():
    g = Wrtg(frozenset({"a"}), ("_OMEGA_",), "_OMEGA_", (Production("_OMEGA_", ("a",), 0.5),))
    graph, _, gmap = to_hypergraph(g)
    assert graph.names[gmap.sink] == "_OMEGA_1"
    assert graph.names == ("_OMEGA_", "_OMEGA_1")


def test_unreachable_nonterminal_survives_conversion():
    g = Wrtg(
        frozenset({"a"}),
        ("S", "U"),
        "S",
        (Production("S", ("a",), 0.5), Production("U", ("U",), 0.5)),
    )
    graph, query, _ = to_hypergraph(g)
    assert graph.n == 3  # S, U, sink: conversion is total; pruning is separate


def test_from_pruned_roundtrip_identity():
    g = _f1_grammar()
    graph, _, gmap = to_hypergraph(g)
    again = from_pruned(g, gmap, graph)
    assert again.productions == g.productions
    assert again.start == g.start


def test_from_pruned_after_beam():
    g = _f1_grammar()
    graph, query, gmap = to_hypergraph(g)
    ins = viterbi_inside(graph, query.sources)
    outs = viterbi_outside(graph, ins, query.target)
    pr = prune_relatively_useless(graph, ins, outs, 1.0)
    gmap2 = gmap.after_restriction(pr.vertex_map, pr.arc_map)
    reduced = from_pruned(g, gmap2, pr.graph)
    assert len(reduced.productions) == 3
    assert reduced.productions == g.productions[:3]


def test_from_pruned_equals_a_checked_grammar():
    # from_pruned builds its result without Wrtg's checks; the result must
    # be what the checked constructor builds from the same fields.
    rng = Random(402)
    checked = 0
    for _ in range(60):
        g = random_acyclic_grammar(rng)
        graph, query, gmap = to_hypergraph(g)
        ins = viterbi_inside(graph, query.sources)
        if ins.inside[query.target] == math.inf:
            continue
        outs = viterbi_outside(graph, ins, query.target)
        for beam in (0.0, 0.5, math.inf):
            pr = prune_relatively_useless(graph, ins, outs, beam)
            reduced = from_pruned(g, gmap.after_restriction(pr.vertex_map, pr.arc_map), pr.graph)
            fields = (reduced.alphabet, reduced.nonterminals, reduced.start, reduced.productions)
            again = Wrtg(*fields)
            assert type(reduced) is Wrtg
            assert reduced == again and hash(reduced) == hash(again)
            assert serialize_grammar(reduced) == serialize_grammar(again)
            checked += 1
    assert checked >= 60


def test_from_pruned_detects_emptied_language():
    g = _f1_grammar()
    graph, _, gmap = to_hypergraph(g)
    # restriction that drops the start symbol entirely
    from hyperpaths import restrict

    res = restrict(graph, {0, 3})  # keep A and the sink only
    gmap2 = gmap.after_restriction(res.vertex_map, res.arc_map)
    with pytest.raises(GrammarError, match="language emptied"):
        from_pruned(g, gmap2, res.graph)


def test_from_pruned_rejects_an_index_that_is_not_a_production():
    w = parse_grammar("1: S -> a\n0.5: S -> f(S, S)\n")
    graph, _, gmap = to_hypergraph(w)
    for production_for_arc, message in (
        ({1: 0, 2: 2}, "pruned arc 1 maps to 0, not a production 1..2"),
        ({1: 1, 2: 5}, "pruned arc 2 maps to 5, not a production 1..2"),
    ):
        with pytest.raises(GrammarError) as info:
            from_pruned(w, GrammarHypergraphMap(production_for_arc, gmap.sink), graph)
        assert str(info.value) == message


def test_best_derivation_rejects_an_index_that_is_not_a_production():
    w = parse_grammar("1: S -> a\n0.5: S -> f(S, S)\n")
    graph, query, gmap = to_hypergraph(w)
    tree = extract_best_tree(graph, viterbi_inside(graph, query.sources), query.target)
    assert tree.arc == 1 and best_derivation(w, tree, gmap)[0].production == 1
    for production_for_arc, message in (
        ({1: 99, 2: 0}, "arc 1 maps to 99, not a production 1..2"),
        ({1: 0, 2: 1}, "arc 1 maps to 0, not a production 1..2"),
        ({1: True, 2: 2}, "arc 1 maps to True, not a production 1..2"),
    ):
        with pytest.raises(GrammarError) as info:
            best_derivation(w, tree, GrammarHypergraphMap(production_for_arc, gmap.sink))
        assert str(info.value) == message


def test_best_derivation_f1():
    g = _f1_grammar()
    graph, query, gmap = to_hypergraph(g)
    ins = viterbi_inside(graph, query.sources)
    tree = extract_best_tree(graph, ins, query.target)
    deriv, weight = best_derivation(g, tree, gmap)
    assert deriv.production == 3
    assert tuple(c.production for c in deriv.children) == (1, 2)
    assert weight == pytest.approx(math.exp(-3.5), rel=1e-9)
    assert all(c.children == () for c in deriv.children)
    # weight equals the product of the production weights used
    product = g.productions[2].weight * g.productions[0].weight * g.productions[1].weight
    assert weight == pytest.approx(product, rel=1e-9)


def test_best_derivation_single_terminal_production():
    g = Wrtg(frozenset({"a"}), ("S",), "S", (Production("S", ("a",), 0.25),))
    graph, query, gmap = to_hypergraph(g)
    ins = viterbi_inside(graph, query.sources)
    tree = extract_best_tree(graph, ins, query.target)
    deriv, weight = best_derivation(g, tree, gmap)
    assert deriv.production == 1 and deriv.children == ()
    assert weight == pytest.approx(0.25, rel=1e-9)


def test_best_derivation_rejects_a_tree_its_map_does_not_cover():
    g = _f1_grammar()
    graph, query, gmap = to_hypergraph(g)
    tree = extract_best_tree(graph, viterbi_inside(graph, query.sources), query.target)
    unmapped = GrammarHypergraphMap({1: 1, 3: 3}, gmap.sink)
    with pytest.raises(ValidationError, match="^arc 2 maps to no production$"):
        best_derivation(g, tree, unmapped)
    other_sink = GrammarHypergraphMap(gmap.production_for_arc, 0)
    with pytest.raises(ValidationError, match="^tree leaf is not the grammar sink$"):
        best_derivation(g, tree, other_sink)


def test_best_derivation_converts_each_shared_subtree_once(monkeypatch):
    # N<i> -> f(N<i+1>, N<i+1>): the derivation unfolds to 2**13 - 1 nodes,
    # but extract_best_tree shares one subtree per level.
    levels = 12
    text = "".join(f"0.99: N{i} -> f(N{i + 1}, N{i + 1})\n" for i in range(levels))
    g = parse_grammar(text + f"1: N{levels} -> a\n")
    graph, query, gmap = to_hypergraph(g)
    tree = extract_best_tree(graph, viterbi_inside(graph, query.sources), query.target)
    built = [0]
    original = DerivationTree.__init__

    def counting(self, *args):
        built[0] += 1
        original(self, *args)

    monkeypatch.setattr(DerivationTree, "__init__", counting)
    d, weight = best_derivation(g, tree, gmap)
    assert built[0] == levels + 1
    assert d.production == 1 and d.children[0] is d.children[1]
    assert weight == pytest.approx(0.99 ** (2**levels - 1), rel=1e-9)


def test_deep_rhs_tree_round_trips_and_prunes(tmp_path, capsys):
    depth = 5000
    text = f"start S\n0.5: S -> {'f(' * depth}a{')' * depth}\n"
    assert serialize_grammar(parse_grammar(text)) == text
    first, second = parse_grammar(text), parse_grammar(text)
    assert first == second and hash(first) == hash(second)
    rhs = first.productions[0].rhs
    assert rhs == second.productions[0].rhs and hash(rhs) == hash(second.productions[0].rhs)
    nested = "RhsTree(label='f', children=(" * depth + "RhsTree(label='a', children=())"
    assert repr(rhs) == nested + ",))" * depth
    for restored in (pickle.loads(pickle.dumps(first)), copy.deepcopy(first)):
        assert restored == first and restored.productions[0].rhs == rhs
    path = tmp_path / "deep.gr"
    path.write_text(text, encoding="utf-8")
    assert main(["prune-grammar", "--beam", "inf", str(path)]) == 0
    assert capsys.readouterr().out == text


def test_grammar_file_roundtrip(f1_grammar_file):
    with open(f1_grammar_file, encoding="utf-8") as handle:
        g = parse_grammar(handle.read())
    assert g.start == "S"
    assert g.nonterminals == ("A", "B", "S")
    text = serialize_grammar(g)
    assert serialize_grammar(parse_grammar(text)) == text


def test_parse_grammar_cfg_and_errors():
    g = parse_grammar("0.5: S -> A b A\n0.25: A -> b\n")
    assert g.start == "S"
    assert g.productions[0].rhs == ("A", "b", "A")
    with pytest.raises(GrammarError, match="line 1"):
        parse_grammar("x: S -> a\n")
    with pytest.raises(GrammarError, match="weight"):
        parse_grammar("-1: S -> a\n")
    with pytest.raises(GrammarError, match="no productions"):
        parse_grammar("# empty\n")
    with pytest.raises(GrammarError, match="never appears"):
        parse_grammar("start T\n0.5: S -> a\n")
    with pytest.raises(GrammarError, match="internal node"):
        parse_grammar("0.5: S -> a\n0.5: A -> S(a)\n")


@pytest.mark.parametrize("seed", [3, 619])
def test_parsed_productions_match_checked_ones(seed, monkeypatch):
    """``parse_grammar`` checks each weight once and builds its productions
    without the constructor's check; each is what the checked constructor
    builds from its fields."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    gen = import_module("gen")  # read-only: the benchmark's grammar generator
    productions = parse_grammar(gen.grammar(seed).text).productions
    assert len(productions) > 1000
    for p in productions:
        checked = Production(p.lhs, p.rhs, p.weight)
        assert p.weight.__class__ is float
        assert p == checked and hash(p) == hash(checked) and repr(p) == repr(checked)
        restored = pickle.loads(pickle.dumps(p))
        assert restored == checked and repr(restored) == repr(checked)


def test_epsilon_production_roundtrip():
    g = parse_grammar("0.5: S ->\n")
    assert g.productions[0].rhs == ()
    graph, _, _ = to_hypergraph(g)
    assert graph.arc(1).tails == ((1, 1),)  # sink tail
    assert serialize_grammar(parse_grammar(serialize_grammar(g))) == serialize_grammar(g)


def test_min_cost_tree_is_max_probability_derivation():
    rng = Random(400)
    for _ in range(30):
        g = random_acyclic_grammar(rng)
        derivs = enumerate_derivations(g)
        if derivs is None or not derivs:
            continue
        best_weight = max(w for _, w in derivs)
        graph, query, gmap = to_hypergraph(g)
        ins = viterbi_inside(graph, query.sources)
        tree = extract_best_tree(graph, ins, query.target)
        _, weight = best_derivation(g, tree, gmap)
        assert weight == pytest.approx(best_weight, rel=1e-9)


def test_derivation_hyperpath_bijection_desk_scale():
    rng = Random(401)
    checked = 0
    while checked < 20:
        g = random_acyclic_grammar(rng)
        derivs = enumerate_derivations(g, cap=30)
        if derivs is None:
            continue
        checked += 1
        graph, query, gmap = to_hypergraph(g)
        budget = EnumerationBudget(
            max_depth=len(g.nonterminals) + 2, max_trees=100_000, max_cost=1e17
        )
        enum = enumerate_trees(graph, query.sources, query.target, budget)
        assert enum.complete
        mapped = [
            (hyperpath_shape(t, gmap.production_for_arc), math.exp(-t.cost))
            for t in enum.trees
        ]
        assert weighted_multisets_equal(mapped, derivs)
