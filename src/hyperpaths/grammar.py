"""Weighted regular tree grammars / CFGs and their hypergraph form.

A grammar production rewrites a nonterminal into a tree over the alphabet
(or, in CFG mode, a flat symbol string). Converting to a hypergraph maps
every production to one arc: head = left-hand side, tails = the rhs
nonterminal occurrences in left-to-right order (a fictitious sink vertex
when there are none), length = -ln(weight). Hyperpath-trees from the sink to
the start then correspond one-to-one with derivation trees, with tree cost
equal to the negative log of the derivation weight.

File format (``#`` comments)::

    start <name>              # optional; defaults to the first lhs
    <weight>: <LHS> -> <item> <item> ...

Items are bare identifiers. Identifiers that appear on some left-hand side
are the nonterminals; everything else is a terminal. A parenthesized rhs
like ``sigma(A, b)`` is a tree; a flat item list is a CFG string.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from typing import Iterable, Union

from .core import GrammarError, Hypergraph, Query, ValidationError
from .inside import HyperpathTree
from .textio import _NAME_RE, format_float

SINK_NAME = "_OMEGA_"


@dataclass(frozen=True, slots=True)
class RhsTree:
    """A rhs tree node: terminal-labeled internal nodes, any-label leaves."""

    label: str
    children: tuple["RhsTree", ...] = ()


Rhs = Union[RhsTree, tuple[str, ...]]


@dataclass(frozen=True, slots=True)
class Production:
    """One weighted production ``lhs -> rhs`` with weight > 0."""

    lhs: str
    rhs: Rhs
    weight: float

    def __post_init__(self) -> None:
        w = float(self.weight)
        if not (w > 0) or w == math.inf:
            raise GrammarError(f"production {self.lhs!r}: weight must be finite and > 0, got {w!r}")
        object.__setattr__(self, "weight", w)


def yield_nonterminals(rhs: Rhs, nonterminals: frozenset[str] | set[str]) -> tuple[str, ...]:
    """The nonterminal leaves of ``rhs`` read off left to right."""
    if isinstance(rhs, tuple):
        return tuple(s for s in rhs if s in nonterminals)
    out: list[str] = []
    stack = [rhs]
    while stack:
        node = stack.pop()
        if node.children:
            stack.extend(reversed(node.children))
        elif node.label in nonterminals:
            out.append(node.label)
    return tuple(out)


def _rhs_symbols(rhs: Rhs) -> Iterable[tuple[str, bool]]:
    """(symbol, is_internal_node) for every symbol of the rhs."""
    if isinstance(rhs, tuple):
        for s in rhs:
            yield s, False
        return
    stack = [rhs]
    while stack:
        node = stack.pop()
        yield node.label, bool(node.children)
        stack.extend(node.children)


@dataclass(frozen=True)
class Wrtg:
    """A weighted regular tree grammar (CFG productions are depth-one).

    Productions are indexed 1..len(productions) by position and keep that
    order everywhere.
    """

    alphabet: frozenset[str]
    nonterminals: tuple[str, ...]
    start: str
    productions: tuple[Production, ...]

    def __post_init__(self) -> None:
        # Every symbol must be writable, so serialize_grammar need not check.
        for sym in (*self.nonterminals, *sorted(self.alphabet)):
            _check_symbol(sym)
        nts = set(self.nonterminals)
        if len(nts) != len(self.nonterminals):
            raise GrammarError("duplicate nonterminal")
        if self.start not in nts:
            raise GrammarError(f"start symbol {self.start!r} is not a nonterminal")
        for idx, p in enumerate(self.productions, start=1):
            if p.lhs not in nts:
                raise GrammarError(f"production {idx}: lhs {p.lhs!r} is not a nonterminal")
            for sym, internal in _rhs_symbols(p.rhs):
                if sym not in nts and sym not in self.alphabet:
                    raise GrammarError(f"production {idx}: unknown symbol {sym!r}")
                if internal and sym in nts:
                    raise GrammarError(
                        f"production {idx}: nonterminal {sym!r} used as an internal node"
                    )

    def production_label(self, i: int) -> str:
        return f"p{i}"


def _trusted_wrtg(*values) -> Wrtg:
    """A Wrtg of fields that cannot fail its checks, built without them."""
    g = object.__new__(Wrtg)
    for f, value in zip(fields(Wrtg), values):
        object.__setattr__(g, f.name, value)
    return g


def derivation_grammar(g: Wrtg) -> Wrtg:
    """The grammar over production labels whose trees are the derivation
    trees of ``g``: each production's rhs becomes its label applied to the
    rhs nonterminal yield."""
    nts = frozenset(g.nonterminals)
    labels = tuple(g.production_label(i) for i in range(1, len(g.productions) + 1))
    productions = []
    for i, p in enumerate(g.productions, start=1):
        leaves = tuple(RhsTree(nt) for nt in yield_nonterminals(p.rhs, nts))
        productions.append(Production(p.lhs, RhsTree(labels[i - 1], leaves), p.weight))
    return Wrtg(frozenset(labels), g.nonterminals, g.start, tuple(productions))


@dataclass(frozen=True, slots=True)
class GrammarHypergraphMap:
    """Index maps from a grammar's hypergraph image back to the grammar.

    ``production_for_arc`` maps each arc to its production index and
    ``vertex_for_nonterminal`` each nonterminal to its vertex; ``sink`` is
    the fictitious source vertex, ``None`` once a restriction dropped it.
    After restricting or pruning the hypergraph, compose with the index maps
    via :meth:`after_restriction`; both maps then cover exactly the
    surviving arcs and vertices.
    """

    production_for_arc: dict[int, int]
    vertex_for_nonterminal: dict[str, int]
    sink: int | None
    sink_name: str

    def after_restriction(
        self, vertex_map: dict[int, int], arc_map: dict[int, int]
    ) -> "GrammarHypergraphMap":
        pfa = {
            new: self.production_for_arc[old]
            for old, new in arc_map.items()
            if old in self.production_for_arc
        }
        vfn = {
            nt: vertex_map[v]
            for nt, v in self.vertex_for_nonterminal.items()
            if v in vertex_map
        }
        return GrammarHypergraphMap(
            production_for_arc=pfa,
            vertex_for_nonterminal=vfn,
            sink=vertex_map.get(self.sink) if self.sink is not None else None,
            sink_name=self.sink_name,
        )


def to_hypergraph(g: Wrtg) -> tuple[Hypergraph, Query, GrammarHypergraphMap]:
    """Convert a grammar to its hypergraph, query, and index maps.

    Vertices are the nonterminals plus a fresh sink; arc i corresponds to
    production i. Weights must lie in (0, 1] so arc lengths -ln(w) are
    nonnegative, as the shortest-tree algorithms require; grammars with
    weights above 1 are outside the supported class and rejected.
    """
    nts = frozenset(g.nonterminals)
    sink_name = SINK_NAME
    k = 1
    taken = nts | g.alphabet
    while sink_name in taken:
        sink_name = f"{SINK_NAME}{k}"
        k += 1
    names = tuple(g.nonterminals) + (sink_name,)
    vertex_of = {nt: i for i, nt in enumerate(g.nonterminals)}
    sink = len(g.nonterminals)

    heads, tails, lengths = [0], [()], [0.0]
    for i, p in enumerate(g.productions, start=1):
        if p.weight > 1:
            raise GrammarError(
                f"production {i} ({p.lhs}): weight {format_float(p.weight)} is above 1; "
                "only weights in (0, 1] convert to nonnegative lengths"
            )
        length = -math.log(p.weight)
        if length == 0:
            length = 0.0  # normalize -0.0
        pairs: list[tuple[int, int]] = []
        for nt in yield_nonterminals(p.rhs, nts):
            v = vertex_of[nt]
            if pairs and pairs[-1][0] == v:
                pairs[-1] = (v, pairs[-1][1] + 1)
            else:
                pairs.append((v, 1))
        heads.append(vertex_of[p.lhs])
        tails.append(tuple(pairs) if pairs else ((sink, 1),))
        lengths.append(length)

    # Names are distinct, ids in range and lengths finite and nonnegative by
    # construction, so the graph is built unchecked.
    graph = Hypergraph(names, heads, tails, lengths)
    query = Query(((sink, 0.0),), vertex_of[g.start])
    gmap = GrammarHypergraphMap(
        production_for_arc={i: i for i in graph.arc_indices},
        vertex_for_nonterminal=vertex_of,
        sink=sink,
        sink_name=sink_name,
    )
    return graph, query, gmap


def from_pruned(g: Wrtg, gmap: GrammarHypergraphMap, pruned: Hypergraph) -> Wrtg:
    """Read a reduced grammar back off a pruned hypergraph.

    ``gmap`` must already be composed with the restriction maps that produced
    ``pruned`` (see :meth:`GrammarHypergraphMap.after_restriction`). The
    surviving productions keep their original order and weights; the start
    symbol is unchanged. Raises :class:`GrammarError` when the start symbol
    itself was pruned, since the remaining grammar derives nothing.
    """
    if g.start not in gmap.vertex_for_nonterminal:
        raise GrammarError(f"language emptied: start symbol {g.start!r} was pruned")
    surviving: set[int] = set()
    for arc_index in pruned.arc_indices:
        p = gmap.production_for_arc.get(arc_index)
        if p is None:
            raise GrammarError(f"pruned arc {arc_index} maps to no production")
        surviving.add(p)
    productions = tuple(p for i, p in enumerate(g.productions, start=1) if i in surviving)
    used: set[str] = {g.start}
    nts = frozenset(g.nonterminals)
    for p in productions:
        used.add(p.lhs)
        used.update(yield_nonterminals(p.rhs, nts))
    nonterminals = tuple(nt for nt in g.nonterminals if nt in used)
    # Every field comes from the checked grammar g: the productions are a
    # subsequence of its own, and the nonterminals keep the start and every
    # lhs and rhs nonterminal they use.
    return _trusted_wrtg(g.alphabet, nonterminals, g.start, productions)


@dataclass(frozen=True, slots=True)
class DerivationTree:
    """A derivation tree node: a production index and its sub-derivations."""

    production: int
    children: tuple["DerivationTree", ...]


def best_derivation(
    g: Wrtg, tree: HyperpathTree, gmap: GrammarHypergraphMap
) -> tuple[DerivationTree, float]:
    """Relabel a hyperpath-tree from the converted hypergraph into the
    corresponding derivation tree; the weight is exp(-cost), equal to the
    product of the used production weights.

    A subtree shared between repeated tails, as :func:`extract_best_tree`
    builds them, is converted once and shared in the result too."""
    if tree.arc == 0:
        raise ValidationError("a bare source leaf corresponds to no derivation")
    # Post-order over distinct nodes, keyed by identity: a node is looked up
    # on its first visit and built, after its children, on its second.
    built: dict[int, DerivationTree] = {}
    stack: list[tuple[HyperpathTree, int]] = [(tree, 0)]
    while stack:
        node, production = stack.pop()
        if id(node) in built:
            continue
        if production:
            kids = tuple(built[id(c)] for c in node.children if c.arc)
            built[id(node)] = DerivationTree(production, kids)
            continue
        production = gmap.production_for_arc.get(node.arc)
        if production is None:
            raise ValidationError(f"arc {node.arc} maps to no production")
        stack.append((node, production))
        for child in node.children:
            if child.arc:
                stack.append((child, 0))
            elif child.vertex != gmap.sink:
                raise ValidationError("tree leaf is not the grammar sink")
    return built[id(tree)], math.exp(-tree.cost)


# -- text format ------------------------------------------------------------

_TREE_TOKEN_RE = re.compile(r"[(),]|[^\s(),]+")


def _check_symbol(sym: str, line: int | None = None) -> str:
    # A hypergraph vertex name other than '->', the grammar arrow.
    if not _NAME_RE.fullmatch(sym) or sym == "->":
        at = f" at line {line}" if line else ""
        raise GrammarError(f"invalid symbol {sym!r}{at}")
    return sym


def _parse_rhs_tree(text: str, line: int) -> RhsTree:
    tokens = _TREE_TOKEN_RE.findall(text)
    end = len(tokens)
    pos = 0
    # The nodes whose '(' is open, outermost first: label and children so far.
    open_nodes: list[tuple[str, list[RhsTree]]] = []
    while True:
        if pos >= end:
            raise GrammarError(f"line {line}: unexpected end of rhs tree")
        label = tokens[pos]
        _check_symbol(label, line)
        pos += 1
        if pos < end and tokens[pos] == "(":
            pos += 1
            open_nodes.append((label, []))
            continue
        done = RhsTree(label)
        # Attach the finished node; close every parent that ')' ends with it.
        while open_nodes:
            open_nodes[-1][1].append(done)
            if pos >= end:
                raise GrammarError(f"line {line}: missing ')' in rhs tree")
            token = tokens[pos]
            pos += 1
            if token == ",":
                break
            if token != ")":
                raise GrammarError(f"line {line}: expected ',' or ')' in rhs tree")
            label, children = open_nodes.pop()
            done = RhsTree(label, tuple(children))
        if not open_nodes:
            if pos != end:
                raise GrammarError(f"line {line}: trailing tokens after rhs tree")
            return done


def parse_grammar(text: str) -> Wrtg:
    """Parse the grammar file format; see the module docstring."""
    rows: list[tuple[int, float, str, str]] = []
    start: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "start":
            if len(tokens) != 2:
                raise GrammarError(f"line {lineno}: expected 'start <name>'")
            if start is not None:
                raise GrammarError(f"line {lineno}: duplicate start directive")
            start = _check_symbol(tokens[1], lineno)
            continue
        head, colon, rest = line.partition(":")
        if not colon:
            raise GrammarError(f"line {lineno}: expected '<weight>: <lhs> -> <rhs>'")
        try:
            weight = float(head.strip())
        except ValueError:
            raise GrammarError(f"line {lineno}: bad weight {head.strip()!r}") from None
        lhs_text, arrow, rhs_text = rest.partition("->")
        if not arrow:
            raise GrammarError(f"line {lineno}: production is missing '->'")
        lhs = lhs_text.strip()
        if len(lhs.split()) != 1:
            raise GrammarError(f"line {lineno}: expected a single lhs nonterminal")
        _check_symbol(lhs, lineno)
        rows.append((lineno, weight, lhs, rhs_text.strip()))

    if not rows:
        raise GrammarError("grammar has no productions")

    nonterminal_order = tuple(dict.fromkeys(lhs for _, _, lhs, _ in rows))
    nts = frozenset(nonterminal_order)

    alphabet: set[str] = set()
    productions: list[Production] = []
    for lineno, weight, lhs, rhs_text in rows:
        rhs: Rhs
        if "(" in rhs_text or ")" in rhs_text:
            rhs = _parse_rhs_tree(rhs_text, lineno)
        else:
            rhs = tuple(_check_symbol(sym, lineno) for sym in rhs_text.split())
        for sym, internal in _rhs_symbols(rhs):
            if sym not in nts:
                alphabet.add(sym)
            elif internal:
                raise GrammarError(
                    f"line {lineno}: nonterminal {sym!r} used as an internal node"
                )
        try:
            productions.append(Production(lhs, rhs, weight))
        except GrammarError as exc:
            raise GrammarError(f"line {lineno}: {exc}") from None

    if start is None:
        start = rows[0][2]
    elif start not in nts:
        raise GrammarError(f"start symbol {start!r} never appears as a lhs")
    # Wrtg's checks, with line numbers, are all done above.
    return _trusted_wrtg(frozenset(alphabet), nonterminal_order, start, tuple(productions))


def _format_rhs(rhs: Rhs) -> str:
    if isinstance(rhs, tuple):
        return " ".join(rhs)
    if not rhs.children:
        return rhs.label
    # The open nodes: label, finished children's text, the children left.
    stack = [(rhs.label, [], iter(rhs.children))]
    while True:
        label, done, rest = stack[-1]
        child = next(rest, None)
        if child is None:
            stack.pop()
            text = f"{label}({', '.join(done)})"
            if not stack:
                return text
            stack[-1][1].append(text)
        elif child.children:
            stack.append((child.label, [], iter(child.children)))
        else:
            done.append(child.label)


def serialize_grammar(g: Wrtg) -> str:
    """Emit the grammar in the input format, start directive first."""
    lines = [f"start {g.start}"]
    for p in g.productions:
        rhs = _format_rhs(p.rhs)
        lines.append(f"{format_float(p.weight)}: {p.lhs} -> {rhs}".rstrip())
    return "".join(line + "\n" for line in lines)
