"""Shortest hyperpath-trees, reachability, and beam pruning on directed
hypergraphs, plus the reduction from weighted tree grammars / CFGs.

The package provides, over ordered multi-hypergraphs with additive costs:

* forward reachability from a source set and backward usefulness toward a
  target, composed into a two-phase reduction (:mod:`.reachability`);
* minimum-cost hyperpath-trees via a priority-queue generalization of
  Dijkstra's algorithm, with best-tree extraction (:mod:`.inside`);
* minimum completion ("outside") costs, element utilities, and beam pruning
  of relatively useless vertices and arcs (:mod:`.outside`);
* conversion of weighted regular tree grammars and CFGs to hypergraphs and
  back, mapping pruning results onto reduced grammars (:mod:`.grammar`);
* a text format (:mod:`.textio`) and a CLI (:mod:`.cli`).

Importing the package loads none of these submodules; each public name
below loads its submodule on first use.
"""

from importlib import import_module

# Public name -> the submodule defining it. Each submodule is imported on
# first use of one of its names (PEP 562), so a command that needs only the
# graph algorithms never loads the grammar layer.
_HOME = {
    name: module
    for module, names in {
        "core": "INF FormatError GrammarError Hyperarc Hypergraph InternalInvariantError "
        "Query RestrictResult UnreachableTargetError ValidationError build format_float restrict",
        "grammar": "DerivationTree GrammarHypergraphMap Production RhsTree Wrtg "
        "best_derivation derivation_grammar from_pruned parse_grammar serialize_grammar "
        "to_hypergraph yield_nonterminals",
        "inside": "HyperpathTree InsideResult extract_best_tree format_tree viterbi_inside",
        "outside": "OutsideResult PruneResult prune_relatively_useless viterbi_outside",
        "reachability": "ReachResult ReduceResult reach_from reach_to reduce",
        "textio": "ParsedHypergraph parse_hypergraph serialize_hypergraph",
    }.items()
    for name in names.split()
}
_SUBMODULES = frozenset(_HOME.values())


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is not None:
        value = getattr(import_module(f".{module}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})


__version__ = "0.1.0"

# ``INF`` first, then every other public name in sorted order.
__all__ = ["INF", *sorted(_HOME.keys() - {"INF"})]
