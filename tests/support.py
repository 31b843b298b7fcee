"""Shared test helpers: random instance generators and oracle-side utilities.

The oracle-side helpers build only on the brute-force ``oracle`` module (and
plain graph data); they never consult the algorithms they are used to check.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from random import Random

from hyperpaths import (
    INF,
    Hyperarc,
    Hypergraph,
    HyperpathTree,
    Production,
    Query,
    RhsTree,
    Wrtg,
    build,
    iter_nodes,
    reduce,
    utilities,
    viterbi_inside,
    viterbi_outside,
)

from oracle import MAX_DEPTH, EnumerationBudget, enumerate_trees, fixpoint_reach

MIN_LENGTH = 0.1  # strictly positive arc lengths keep cyclic enumeration finite


def random_hypergraph(
    rng: Random,
    n_range: tuple[int, int] = (1, 8),
    m_range: tuple[int, int] = (0, 15),
    max_tail: int = 3,
    max_mult: int = 2,
    length_range: tuple[float, float] = (MIN_LENGTH, 4.0),
) -> Hypergraph:
    n = rng.randint(*n_range)
    m = rng.randint(*m_range)
    arcs = []
    for _ in range(m):
        head = rng.randrange(n)
        k = rng.randint(1, max_tail)
        pairs = tuple((rng.randrange(n), rng.randint(1, max_mult)) for _ in range(k))
        arcs.append(Hyperarc(head, pairs, rng.uniform(*length_range)))
    return build(n, arcs)


def random_sources(rng: Random, g: Hypergraph, with_costs: bool = True) -> tuple[tuple[int, float], ...]:
    k = rng.randint(1, g.n)
    vertices = rng.sample(range(g.n), k)
    out = []
    for v in vertices:
        cost = round(rng.uniform(0.0, 2.0), 3) if with_costs and rng.random() < 0.3 else 0.0
        out.append((v, cost))
    return tuple(out)


def random_weighted_instance(rng: Random) -> tuple[Hypergraph, tuple[tuple[int, float], ...]]:
    g = random_hypergraph(rng, n_range=(1, 7), m_range=(0, 12))
    return g, random_sources(rng, g)


def boundary_beams(best: float, x: float) -> tuple[float, float]:
    """The least beam at which a prune with best cost ``best`` keeps utility
    ``x`` (see ``prune_relatively_useless``), and the float just below it."""
    from hyperpaths.core import _BEAM_RELATIVE_SLACK as slack

    def cutoff(beam: float) -> float:
        threshold = best + beam
        return threshold + slack * max(1.0, abs(threshold))

    beam = max(0.0, (x - best) - slack * max(1.0, abs(x)))
    while beam > 0 and cutoff(beam) >= x:
        beam = math.nextafter(beam, 0.0)
    while cutoff(beam) < x:
        beam = math.nextafter(beam, math.inf)
    return beam, math.nextafter(beam, -math.inf)


# -- oracle-side tables -------------------------------------------------------


def oracle_inside_table(
    g: Hypergraph,
    sources: tuple[tuple[int, float], ...],
    max_trees: int = 150_000,
) -> list[float] | None:
    """Minimum enumerated tree cost per vertex, or None when the tree-count
    budget aborts the search.

    Depth is capped at n: with nonnegative lengths, repeated heads along a
    root-to-leaf path can be spliced out without increasing cost, so some
    cheapest tree (and some witness tree, for existence) is at most n deep.
    """
    budget = EnumerationBudget(max_depth=max(1, g.n), max_trees=max_trees, max_cost=1e18)
    mins: list[float] = []
    for v in range(g.n):
        enum = enumerate_trees(g, sources, v, budget)
        if enum.hit_trees:
            return None
        mins.append(enum.min_cost())
    return mins


def tree_elements(tree: HyperpathTree) -> tuple[set[int], set[int]]:
    """(vertices, arcs) used by a tree: arc heads, source leaves, arc labels."""
    vertices: set[int] = set()
    arcs: set[int] = set()
    for node in iter_nodes(tree):
        vertices.add(node.vertex)
        if node.arc:
            arcs.add(node.arc)
    return vertices, arcs


def oracle_gamma_tables(
    g: Hypergraph, trees: tuple[HyperpathTree, ...]
) -> tuple[list[float], list[float]]:
    """Per-vertex / per-arc minimum cost over enumerated trees using each."""
    gv = [INF] * g.n
    ge = [INF] * (g.num_arcs + 1)
    for tree in trees:
        vertices, arcs = tree_elements(tree)
        for v in vertices:
            if tree.cost < gv[v]:
                gv[v] = tree.cost
        for a in arcs:
            if tree.cost < ge[a]:
                ge[a] = tree.cost
    return gv, ge


def recompute_tree_cost(g: Hypergraph, tree: HyperpathTree, sources: dict[int, float]) -> float:
    """Bottom-up cost recomputation, independent of the stored node costs."""
    if tree.arc == 0:
        return sources[tree.vertex]
    total = g.arc(tree.arc).length
    for child in tree.children:
        total += recompute_tree_cost(g, child, sources)
    return total


def tree_values(trees) -> tuple[list[tuple], list[int]]:
    """The trees by value: a table of distinct subtrees ``(arc, vertex, cost,
    child numbers)``, numbered in post-order of first sight, and the number
    of each tree. Shared and unshared forms of equal trees give equal tables."""
    number: dict[tuple, int] = {}
    by_id: dict[int, int] = {}

    def visit(node: HyperpathTree) -> int:
        k = by_id.get(id(node))
        if k is None:
            key = (node.arc, node.vertex, node.cost, tuple([visit(c) for c in node.children]))
            k = by_id[id(node)] = number.setdefault(key, len(number))
        return k

    roots = [visit(tree) for tree in trees]
    return list(number), roots


def digest(value: object) -> str:
    """A short fingerprint of ``value``'s repr, so floats count bitwise."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


# -- reduced instances for utility / pruning tests ----------------------------


@dataclass(frozen=True)
class ReducedInstance:
    graph: Hypergraph
    sources: tuple[tuple[int, float], ...]
    target: int
    inside: object  # InsideResult
    outside: object  # OutsideResult
    gamma_v: tuple[float, ...]
    gamma_e: tuple[float, ...]
    trees: tuple[HyperpathTree, ...]  # complete enumeration of trees to target


def reduced_oracle_instance(rng: Random, max_trees: int = 300_000) -> ReducedInstance | None:
    """One reduced random instance with a complete tree enumeration, or None
    when no reachable target exists or the enumeration is incomplete. The
    depth bound is the most arcs a tree within the horizon can stack, capped
    at ``MAX_DEPTH``; a tree the cap cuts makes the enumeration incomplete.

    The enumeration horizon is seeded from the implementation's utility
    table (plus one), which only scopes the search: minima found inside the
    horizon are still computed purely from enumerated trees, and a too-small
    implementation value would surface as a mismatch, not get hidden.
    """
    g, sources = random_weighted_instance(rng)
    reachable = fixpoint_reach(g, [v for v, _ in sources])
    candidates = [v for v in range(g.n) if reachable[v]]
    if not candidates:
        return None
    target = rng.choice(candidates)
    red = reduce(g, Query(sources, target))
    if not red.target_reachable:
        return None
    g2, sources2, target2 = red.graph, red.sources, red.target
    assert target2 is not None
    ins = viterbi_inside(g2, sources2)
    outs = viterbi_outside(g2, ins, target2)
    gv, ge = utilities(g2, ins, outs)
    finite = [x for x in list(gv) + list(ge[1:]) if x != INF]
    horizon = (max(finite) if finite else ins.inside[target2]) + 1.0
    budget = EnumerationBudget(
        max_depth=min(int(horizon / MIN_LENGTH) + 2, MAX_DEPTH),
        max_trees=max_trees,
        max_cost=horizon,
    )
    enum = enumerate_trees(g2, sources2, target2, budget)
    if not enum.complete:
        return None
    return ReducedInstance(g2, sources2, target2, ins, outs, gv, ge, enum.trees)


def collect_reduced_instances(rng: Random, count: int, max_attempts: int | None = None) -> list[ReducedInstance]:
    out: list[ReducedInstance] = []
    attempts = 0
    limit = max_attempts or count * 60
    while len(out) < count:
        attempts += 1
        if attempts > limit:
            raise AssertionError(
                f"instance generator produced only {len(out)}/{count} usable instances"
            )
        inst = reduced_oracle_instance(rng)
        if inst is not None:
            out.append(inst)
    return out


# -- layered instances for the complexity smoke test --------------------------


def layered_hypergraph(
    rng: Random, target_size: int, width: int = 100
) -> tuple[Hypergraph, tuple[tuple[int, float], ...], int]:
    """A deep layered graph of roughly ``target_size`` total input size.

    Every vertex is derivable from layer 0 and participates in reaching the
    collector target, so both reachability passes and the inside pass touch
    the whole input.
    """
    per_vertex = 2 * (1 + 2) + 1  # two 2-tail arcs plus the vertex itself
    layers = max(2, round(target_size / (width * per_vertex)))
    n = width * layers + 1
    collector = n - 1
    arcs = []
    for layer in range(1, layers):
        base = layer * width
        prev = (layer - 1) * width
        for j in range(width):
            v = base + j
            covered = prev + j  # round-robin keeps every vertex used as a tail
            for _ in range(2):
                other = prev + rng.randrange(width)
                arcs.append(
                    Hyperarc(v, ((covered, 1), (other, 1)), rng.uniform(MIN_LENGTH, 4.0))
                )
    top = (layers - 1) * width
    for j in range(0, width, 2):
        pair = ((top + j, 1), (top + min(j + 1, width - 1), 1))
        arcs.append(Hyperarc(collector, pair, rng.uniform(MIN_LENGTH, 4.0)))
    g = build(n, arcs)
    sources = tuple((v, 0.0) for v in range(width))
    return g, sources, collector


# -- random acyclic grammars ---------------------------------------------------


def random_acyclic_grammar(rng: Random) -> Wrtg:
    """Random grammar whose hypergraph image is acyclic: the rhs of a
    production for nonterminal i only references strictly later ones."""
    k = rng.randint(1, 6)
    nts = [f"N{i}" for i in range(k)]
    terminals = ["a", "b", "c"]
    productions: list[Production] = []
    total = rng.randint(k, 12)
    owners = list(range(k)) + [rng.randrange(k) for _ in range(total - k)]
    for i in owners:
        later = nts[i + 1 :]
        weight = rng.uniform(0.05, 1.0)
        if rng.random() < 0.5 or not later:
            # CFG-style flat string
            length = rng.randint(0, 3)
            items = tuple(
                rng.choice(later) if later and rng.random() < 0.5 else rng.choice(terminals)
                for _ in range(length)
            )
            productions.append(Production(nts[i], items, weight))
        else:
            # shallow rhs tree
            leaves = tuple(
                RhsTree(rng.choice(later) if rng.random() < 0.6 else rng.choice(terminals))
                for _ in range(rng.randint(1, 3))
            )
            productions.append(Production(nts[i], RhsTree(rng.choice(terminals), leaves), weight))
    return Wrtg(frozenset(terminals), tuple(nts), nts[0], tuple(productions))


DerivationShape = tuple  # (production index, child shapes...)


class _TooMany(Exception):
    pass


def enumerate_derivations(g: Wrtg, cap: int = 5000) -> list[tuple[DerivationShape, float]] | None:
    """All derivation trees of the start symbol, as (shape, weight) pairs.

    Works directly on the grammar; returns None if more than ``cap`` trees
    exist. Only safe on grammars whose nonterminal references are acyclic.
    """
    nts = frozenset(g.nonterminals)
    by_lhs: dict[str, list[int]] = {}
    for i, p in enumerate(g.productions, start=1):
        by_lhs.setdefault(p.lhs, []).append(i)

    budget = [cap]

    def expand(nt: str, depth: int) -> list[tuple[DerivationShape, float]]:
        if depth > len(g.nonterminals) + 1:
            raise AssertionError("grammar is not acyclic")
        results: list[tuple[DerivationShape, float]] = []
        for i in by_lhs.get(nt, []):
            p = g.productions[i - 1]
            child_nts = yield_from_rhs(p.rhs, nts)
            combos: list[tuple[tuple[DerivationShape, ...], float]] = [((), 1.0)]
            for child in child_nts:
                sub = expand(child, depth + 1)
                combos = [
                    (shapes + (shape,), w * sw) for shapes, w in combos for shape, sw in sub
                ]
                if not combos:
                    break
            for shapes, w in combos:
                budget[0] -= 1
                if budget[0] < 0:
                    raise _TooMany
                results.append(((i,) + shapes, p.weight * w))
        return results

    try:
        return expand(g.start, 0)
    except _TooMany:
        return None


def yield_from_rhs(rhs, nts: frozenset[str]) -> tuple[str, ...]:
    """Left-to-right nonterminal leaves, recomputed recursively (this is the
    independent check for the library's linear scan)."""
    if isinstance(rhs, tuple):
        return tuple(s for s in rhs if s in nts)

    def walk(node: RhsTree) -> list[str]:
        if node.children:
            out: list[str] = []
            for child in node.children:
                out.extend(walk(child))
            return out
        return [node.label] if node.label in nts else []

    return tuple(walk(rhs))


def hyperpath_shape(tree: HyperpathTree, production_for_arc: dict[int, int]) -> DerivationShape:
    """Map a hyperpath-tree to a derivation shape through the arc bijection."""
    kids = tuple(
        hyperpath_shape(c, production_for_arc) for c in tree.children if c.arc != 0
    )
    return (production_for_arc[tree.arc],) + kids


def weighted_multisets_equal(
    a: list[tuple[DerivationShape, float]],
    b: list[tuple[DerivationShape, float]],
    tol: float = 1e-9,
) -> bool:
    if len(a) != len(b):
        return False
    key = lambda pair: (pair[0], pair[1])
    for (sa, wa), (sb, wb) in zip(sorted(a, key=key), sorted(b, key=key)):
        if sa != sb or not math.isclose(wa, wb, rel_tol=tol, abs_tol=tol):
            return False
    return True
