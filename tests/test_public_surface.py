"""The public surface, pinned in one place: the package's names, the fields
of the result and map records that once restated other fields, and the
signature of ``format_tree``. A change to any of them is a deliberate edit
of this file."""

from __future__ import annotations

import inspect

import hyperpaths
from hyperpaths import (
    GrammarHypergraphMap,
    Hyperarc,
    Hypergraph,
    PruneResult,
    Query,
    ReduceResult,
    Wrtg,
    format_tree,
)

PUBLIC_NAMES = [
    "INF", "DerivationTree", "FormatError", "GrammarError", "GrammarHypergraphMap", "Hyperarc",
    "Hypergraph", "HyperpathTree", "InsideResult", "InternalInvariantError", "OutsideResult",
    "ParsedHypergraph", "Production", "PruneResult", "Query", "ReachResult", "ReduceResult",
    "RestrictResult", "RhsTree", "UnreachableTargetError", "ValidationError", "Wrtg",
    "best_derivation", "build", "derivation_grammar", "extract_best_tree", "format_float",
    "format_tree", "from_pruned", "parse_grammar", "parse_hypergraph", "prune_relatively_useless",
    "reach_from", "reach_to", "reduce", "restrict", "serialize_grammar", "serialize_hypergraph",
    "to_hypergraph", "viterbi_inside", "viterbi_outside", "yield_nonterminals",
]


def test_public_names_are_pinned():
    assert hyperpaths.__all__ == PUBLIC_NAMES


def test_record_fields_are_pinned():
    assert ReduceResult.__slots__ == ("graph", "vertex_map", "arc_map", "sources", "target")
    assert PruneResult.__slots__ == (
        "gamma_vertices", "gamma_arcs", "keep_vertices", "keep_arcs", "graph", "vertex_map",
        "arc_map",
    )
    assert GrammarHypergraphMap.__slots__ == ("production_for_arc", "sink")


def test_derived_views_are_not_public():
    assert not hasattr(Hyperarc, "occurrences") and not hasattr(Hyperarc, "distinct_tails")
    assert not hasattr(Hypergraph, "arc_total_cost") and not hasattr(Hypergraph, "validate")
    assert not hasattr(Query, "source_vertices")
    assert not hasattr(Wrtg, "production_label")
    assert not hasattr(hyperpaths, "utilities") and not hasattr(hyperpaths.outside, "utilities")


def test_format_tree_takes_name_of_without_a_default():
    parameters = inspect.signature(format_tree).parameters
    assert list(parameters) == ["tree", "name_of"]
    assert all(p.default is inspect.Parameter.empty for p in parameters.values())
