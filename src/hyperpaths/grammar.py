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
like ``sigma(A, b)`` is a tree; a flat item list is a CFG string. A
``<weight>`` is any string Python's ``float`` takes, as the graph format's
numbers are (``0_5`` reads as 5); it must be finite and above 0. A symbol
follows the graph format's name rule, :mod:`.core`'s ``_NAME_RE``, and may
not be ``->``.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, Iterable, Union

from .core import (
    _NAME_RE, INF, GrammarError, Hypergraph, Query, ValidationError, _Record, _Tree, format_float,
)

if TYPE_CHECKING:
    from .inside import HyperpathTree

SINK_NAME = "_OMEGA_"


class RhsTree(_Tree):
    """A rhs tree node: terminal-labeled internal nodes, any-label leaves."""

    __slots__ = ("label", "children")

    def __init__(self, label: str, children: tuple[RhsTree, ...] = ()) -> None:
        _set_rhs_label(self, label)
        _set_rhs_children(self, children)


_set_rhs_label, _set_rhs_children = RhsTree._setters


Rhs = Union[RhsTree, tuple[str, ...]]


class Production(_Record):
    """One weighted production ``lhs -> rhs`` with weight > 0."""

    __slots__ = ("lhs", "rhs", "weight")

    def __init__(self, lhs: str, rhs: Rhs, weight: float) -> None:
        try:
            w = float(weight)
        except (TypeError, ValueError, OverflowError):
            raise GrammarError(f"production {lhs!r}: weight {weight!r} is not a number") from None
        if not 0 < w < INF:  # NaN fails this test too
            raise GrammarError(_bad_weight(lhs, w))
        _set_lhs(self, lhs)
        _set_rhs(self, rhs)
        _set_weight(self, w)


_set_lhs, _set_rhs, _set_weight = Production._setters


def _bad_weight(lhs: str, w: float) -> str:
    return f"production {lhs!r}: weight must be finite and > 0, got {w!r}"


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


def _rhs_symbols(rhs: Rhs, idx: int = 0) -> Iterable[tuple[str, bool]]:
    """(symbol, is_internal_node) for every symbol of the rhs; a tree node
    that is not an ``RhsTree``, or whose children are not a tuple, raises
    :class:`GrammarError` naming production ``idx``."""
    if isinstance(rhs, tuple):
        for s in rhs:
            yield s, False
        return
    stack = [rhs]
    while stack:
        node = stack.pop()
        if not isinstance(node, RhsTree):
            raise GrammarError(f"production {idx}: rhs child {node!r} is not an RhsTree")
        children = node.children
        yield node.label, bool(children)
        if children.__class__ is not tuple:
            raise GrammarError(
                f"production {idx}: children {children!r} of rhs node {node.label!r} "
                "are not a tuple"
            )
        stack.extend(children)


class Wrtg(_Record):
    """A weighted regular tree grammar (CFG productions are depth-one).

    Productions are indexed 1..len(productions) by position and keep that
    order everywhere.
    """

    __slots__ = ("alphabet", "nonterminals", "start", "productions")
    alphabet: frozenset[str]
    nonterminals: tuple[str, ...]
    start: str
    productions: tuple[Production, ...]

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        for field, kind, item in (("alphabet", frozenset, str), ("nonterminals", tuple, str),
                                  ("productions", tuple, Production)):
            value = getattr(self, field)
            if not isinstance(value, kind):
                raise GrammarError(f"{field} must be a {kind.__name__}, got {value!r}")
            for x in value:
                if not isinstance(x, item):
                    raise GrammarError(f"{field} item {x!r} is not a {item.__name__}")
        # Every symbol must be writable, so serialize_grammar need not check.
        for sym in (*self.nonterminals, *sorted(self.alphabet)):
            _check_symbol(sym)
        nts = set(self.nonterminals)
        if len(nts) != len(self.nonterminals):
            raise GrammarError("duplicate nonterminal")
        if not isinstance(self.start, str) or self.start not in nts:
            raise GrammarError(f"start symbol {self.start!r} is not a nonterminal")
        for idx, p in enumerate(self.productions, start=1):
            if not isinstance(p.lhs, str) or p.lhs not in nts:
                raise GrammarError(f"production {idx}: lhs {p.lhs!r} is not a nonterminal")
            if p.rhs.__class__ is not tuple and not isinstance(p.rhs, RhsTree):
                raise GrammarError(f"production {idx}: rhs {p.rhs!r} is not a tuple or an RhsTree")
            for sym, internal in _rhs_symbols(p.rhs, idx):
                if not isinstance(sym, str) or sym not in nts and sym not in self.alphabet:
                    raise GrammarError(f"production {idx}: unknown symbol {sym!r}")
                if internal and sym in nts:
                    raise GrammarError(
                        f"production {idx}: nonterminal {sym!r} used as an internal node"
                    )


def _trusted_wrtg(*values) -> Wrtg:
    """A Wrtg of fields that cannot fail its checks, built without them."""
    g = object.__new__(Wrtg)
    _Record.__init__(g, *values)
    return g


def derivation_grammar(g: Wrtg) -> Wrtg:
    """The grammar over production labels whose trees are the derivation
    trees of ``g``: each production's rhs becomes its label applied to the
    rhs nonterminal yield."""
    nts = frozenset(g.nonterminals)
    labels = tuple(f"p{i}" for i in range(1, len(g.productions) + 1))
    productions = []
    for i, p in enumerate(g.productions, start=1):
        leaves = tuple(RhsTree(nt) for nt in yield_nonterminals(p.rhs, nts))
        productions.append(Production(p.lhs, RhsTree(labels[i - 1], leaves), p.weight))
    return Wrtg(frozenset(labels), g.nonterminals, g.start, tuple(productions))


class GrammarHypergraphMap(_Record):
    """The map from a grammar's hypergraph image back to the grammar.

    ``production_for_arc`` maps each arc to its production index; ``sink``
    is the fictitious source vertex, ``None`` once a restriction dropped
    it, and ``graph.names[sink]`` its name. Each nonterminal's vertex is
    named after it, so ``graph.id_of(nt)`` is that vertex.
    After restricting or pruning the hypergraph, compose with the index maps
    via :meth:`after_restriction`; ``production_for_arc`` then covers
    exactly the surviving arcs.
    """

    __slots__ = ("production_for_arc", "sink")
    production_for_arc: dict[int, int]
    sink: int | None

    def after_restriction(
        self, vertex_map: dict[int, int], arc_map: dict[int, int]
    ) -> "GrammarHypergraphMap":
        pfa = {
            new: self.production_for_arc[old]
            for old, new in arc_map.items()
            if old in self.production_for_arc
        }
        return GrammarHypergraphMap(
            production_for_arc=pfa,
            sink=vertex_map.get(self.sink) if self.sink is not None else None,
        )


def to_hypergraph(g: Wrtg) -> tuple[Hypergraph, Query, GrammarHypergraphMap]:
    """Convert a grammar to its hypergraph, query, and map.

    Vertex i is nonterminal i, named after it, and the last vertex a fresh
    sink; arc i corresponds to production i. Weights must lie in (0, 1] so
    arc lengths -ln(w) are nonnegative, as the shortest-tree algorithms
    require; grammars with weights above 1 are outside the supported class
    and rejected.
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
    # Each nonterminal's (vertex, 1) tail pair, which every single occurrence shares.
    pair_of = {nt: (i, 1) for nt, i in vertex_of.items()}
    sink_tails = ((sink, 1),)

    heads, tails, lengths = [0], [()], [0.0]
    log = math.log
    for i, p in enumerate(g.productions, start=1):
        weight = p.weight
        if weight > 1:
            raise GrammarError(
                f"production {i} ({p.lhs}): weight {format_float(weight)} is above 1; "
                "only weights in (0, 1] convert to nonnegative lengths"
            )
        rhs = p.rhs
        pairs: list[tuple[int, int]] = []
        for sym in rhs if rhs.__class__ is tuple else yield_nonterminals(rhs, nts):
            pair = pair_of.get(sym)
            if pair is None:
                continue
            if pairs and pairs[-1][0] == pair[0]:  # a run of one nonterminal is one pair
                pairs[-1] = (pair[0], pairs[-1][1] + 1)
            else:
                pairs.append(pair)
        heads.append(vertex_of[p.lhs])
        tails.append(tuple(pairs) if pairs else sink_tails)
        lengths.append(0.0 - log(weight))  # 0.0 for a weight of 1, not -0.0

    # Names are distinct, ids in range and lengths finite and nonnegative by
    # construction, so the graph is built unchecked.
    graph = Hypergraph(names, heads, tails, lengths)
    query = Query(((sink, 0.0),), vertex_of[g.start])
    gmap = GrammarHypergraphMap(production_for_arc={i: i for i in graph.arc_indices}, sink=sink)
    return graph, query, gmap


def from_pruned(g: Wrtg, gmap: GrammarHypergraphMap, pruned: Hypergraph) -> Wrtg:
    """Read a reduced grammar back off a pruned hypergraph.

    ``gmap`` must already be composed with the restriction maps that produced
    ``pruned`` (see :meth:`GrammarHypergraphMap.after_restriction`); only its
    ``production_for_arc`` is read. The surviving productions keep their
    original order and weights; the start symbol is unchanged. ``pruned``
    keeps its vertices' names, so the start symbol was pruned when no vertex
    of ``pruned`` bears its name; the remaining grammar then derives
    nothing, and :class:`GrammarError` is raised, as it is for an arc of
    ``pruned`` that the map takes to no production of ``g``.
    """
    if g.start not in pruned.names:
        raise GrammarError(f"language emptied: start symbol {g.start!r} was pruned")
    surviving: set[int] = set()
    count = len(g.productions)
    for arc_index in pruned.arc_indices:
        p = gmap.production_for_arc.get(arc_index)
        if p is None:
            raise GrammarError(f"pruned arc {arc_index} maps to no production")
        if p.__class__ is not int or not 1 <= p <= count:
            raise GrammarError(f"pruned arc {arc_index} maps to {p!r}, not a production 1..{count}")
        surviving.add(p)
    return _subgrammar(g, sorted(surviving))


def _subgrammar(g: Wrtg, kept: Iterable[int]) -> Wrtg:
    """``g`` with only the productions ``kept``, indices in increasing order,
    and the nonterminals that the start and those productions use."""
    productions = tuple([g.productions[i - 1] for i in kept])
    used: set[str] = {g.start}
    nts = frozenset(g.nonterminals)
    for p in productions:
        used.add(p.lhs)
        # Only nonterminals are read back, so a flat rhs's terminals may go in.
        used.update(p.rhs if isinstance(p.rhs, tuple) else yield_nonterminals(p.rhs, nts))
    nonterminals = tuple(nt for nt in g.nonterminals if nt in used)
    # Every field comes from the checked grammar g: the productions are a
    # subsequence of its own, and the nonterminals keep the start and every
    # lhs and rhs nonterminal they use.
    return _trusted_wrtg(g.alphabet, nonterminals, g.start, productions)


class DerivationTree(_Tree):
    """A derivation tree node: a production index and its sub-derivations."""

    __slots__ = ("production", "children")

    def __init__(self, production: int, children: tuple[DerivationTree, ...]) -> None:
        _set_production(self, production)
        _set_derivation_children(self, children)


_set_production, _set_derivation_children = DerivationTree._setters


def best_derivation(
    g: Wrtg, tree: HyperpathTree, gmap: GrammarHypergraphMap
) -> tuple[DerivationTree, float]:
    """Relabel a hyperpath-tree from the converted hypergraph into the
    corresponding derivation tree; the weight is exp(-cost), equal to the
    product of the used production weights.

    A subtree shared between repeated tails, as :func:`extract_best_tree`
    builds them, is converted once and shared in the result too. A map entry
    of a tree arc that is not a production index of ``g`` raises
    :class:`GrammarError`."""
    if tree.arc == 0:
        raise ValidationError("a bare source leaf corresponds to no derivation")
    count = len(g.productions)

    def convert(node: HyperpathTree, done: dict[int, DerivationTree | None]):
        if not node.arc:  # a sink leaf has no derivation node
            if node.vertex != gmap.sink:
                raise ValidationError("tree leaf is not the grammar sink")
            return None
        production = gmap.production_for_arc.get(node.arc)
        if production is None:
            raise ValidationError(f"arc {node.arc} maps to no production")
        if production.__class__ is not int or not 1 <= production <= count:
            raise GrammarError(
                f"arc {node.arc} maps to {production!r}, not a production 1..{count}"
            )
        return DerivationTree(production, tuple([done[id(c)] for c in node.children if c.arc]))

    return tree._fold(convert), math.exp(-tree.cost)


# -- text format ------------------------------------------------------------

_TREE_TOKEN_RE = re.compile(r"[(),]|[^\s(),]+")


def _check_symbol(sym: str, line: int | None = None) -> str:
    # A hypergraph vertex name other than '->', the grammar arrow.
    if not _NAME_RE.fullmatch(sym) or sym == "->":
        at = f" at line {line}" if line else ""
        raise GrammarError(f"invalid symbol {sym!r}{at}")
    return sym


def _parse_rhs_tree(text: str, line: int, known: set[str], nts: frozenset[str]) -> RhsTree:
    """The rhs tree ``text``; ``known`` holds the symbols checked so far and
    gains every label this call checks. A label of ``nts`` on an internal
    node is an error, raised once the tree has parsed."""
    tokens = _TREE_TOKEN_RE.findall(text)
    end = len(tokens)
    pos = 0
    internal_nt = False
    # The nodes whose '(' is open, outermost first: label and children so far.
    open_nodes: list[tuple[str, list[RhsTree]]] = []
    while True:
        if pos >= end:
            raise GrammarError(f"line {line}: unexpected end of rhs tree")
        label = tokens[pos]
        if label not in known:
            known.add(_check_symbol(label, line))
        pos += 1
        if pos < end and tokens[pos] == "(":
            pos += 1
            open_nodes.append((label, []))
            internal_nt = internal_nt or label in nts
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
            if internal_nt:  # named as the walk of Wrtg's own check finds it
                sym = next(s for s, internal in _rhs_symbols(done) if internal and s in nts)
                raise GrammarError(f"line {line}: nonterminal {sym!r} used as an internal node")
            return done


def parse_grammar(text: str) -> Wrtg:
    """Parse the grammar file format; see the module docstring."""
    rows: list[tuple[int, float, str, str]] = []
    start: str | None = None
    # The symbols that passed _check_symbol, so each distinct one is checked
    # once; a bad symbol never enters, so it fails where it first occurs.
    known: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if not line:
            continue
        if line.startswith("start") and (tokens := line.split())[0] == "start":
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
        if lhs not in known:
            if len(lhs.split()) != 1:
                raise GrammarError(f"line {lineno}: expected a single lhs nonterminal")
            known.add(_check_symbol(lhs, lineno))
        rows.append((lineno, weight, lhs, rhs_text))

    if not rows:
        raise GrammarError("grammar has no productions")

    nonterminal_order = tuple(dict.fromkeys(lhs for _, _, lhs, _ in rows))
    nts = frozenset(nonterminal_order)

    productions: list[Production] = []
    for lineno, weight, lhs, rhs_text in rows:
        rhs: Rhs
        if "(" in rhs_text or ")" in rhs_text:
            rhs = _parse_rhs_tree(rhs_text, lineno, known, nts)
        else:
            rhs = tuple(rhs_text.split())
            for sym in rhs:
                if sym not in known:
                    known.add(_check_symbol(sym, lineno))
        if not 0 < weight < INF:
            raise GrammarError(f"line {lineno}: {_bad_weight(lhs, weight)}")
        # The weight is checked, so the production is built without a second check.
        p = object.__new__(Production)
        _set_lhs(p, lhs)
        _set_rhs(p, rhs)
        _set_weight(p, weight)
        productions.append(p)

    if start is None:
        start = rows[0][2]
    elif start not in nts:
        raise GrammarError(f"start symbol {start!r} never appears as a lhs")
    # Wrtg's checks, with line numbers, are all done above. ``known`` now holds
    # every lhs and rhs symbol, and the start is a lhs, so the alphabet is the rest.
    return _trusted_wrtg(frozenset(known - nts), nonterminal_order, start, tuple(productions))


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
