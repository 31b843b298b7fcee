"""Seeded input generators for the three benchmark workloads.

Each generator returns the text the program reads plus the benchmark's own
description of the same instance (vertex names, arcs, sources, target), so
the output checks never have to trust what the library parsed. Vertex ids in
that description equal the ids the library assigns: hypergraph files declare
every vertex up front in id order, and grammar nonterminals are numbered in
order of first left-hand side, then the sink, as ``to_hypergraph`` does.

Arcs are ``(head, tails, dtails, length)`` where ``tails`` is the ordered
``(vertex, multiplicity)`` tuple of the file and ``dtails`` merges repeated
vertices in first-occurrence order. All sizes are fixed; the seed picks only
structure and weights, so runs with different seeds do the same amount of
work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

from checks import forward_reach


def fmt(x: float) -> str:
    return "%.17g" % x


@dataclass
class Instance:
    """A hypergraph as the benchmark sees it, in library vertex ids."""

    names: list[str]
    arcs: list[tuple[int, tuple, tuple, float]]
    sources: tuple[tuple[int, float], ...]
    target: int

    @property
    def input_size(self) -> int:
        return len(self.names) + sum(1 + len(a[1]) for a in self.arcs)


def merge_tails(tails) -> tuple[tuple[int, int], ...]:
    total: dict[int, int] = {}
    for v, m in tails:
        total[v] = total.get(v, 0) + m
    return tuple(total.items())


def hypergraph_text(inst: Instance) -> str:
    names = inst.names
    out = [f"vertex {x}\n" for x in names]
    for head, tails, _, length in inst.arcs:
        rhs = " ".join(names[v] if m == 1 else f"{names[v]}*{m}" for v, m in tails)
        out.append(f"arc {names[head]} <- {rhs} @ {fmt(length)}\n")
    for v, c in inst.sources:
        out.append(f"source {names[v]} {fmt(c)}\n")
    out.append(f"target {names[inst.target]}\n")
    return "".join(out)


# -- charts -------------------------------------------------------------------

CHART_NONTERMINALS = 4
CHART_PRETERMINALS_PER_WORD = 4
CHART_WORDS = 40
# Sentence lengths are fixed so every seed yields the same size mix; the
# longest sentence gives the chart the CLI commands run on.
CHART_LENGTHS = tuple(range(3, 12)) * 4 + (14,)


def _random_pcfg(rng: Random):
    """A CNF PCFG in which every child pair has exactly one parent.

    Every word can be every preterminal, so each cell holds every
    nonterminal and each split fires one arc per child pair: chart sizes
    depend on sentence length only, weights and the best parse on the seed.
    """
    n = CHART_NONTERMINALS
    pairs = [(b, c) for b in range(n) for c in range(n)]
    rng.shuffle(pairs)
    parent = {pair: (k if k < n else rng.randrange(n)) for k, pair in enumerate(pairs)}
    binary: dict[int, list[tuple[int, int, float]]] = {a: [] for a in range(n)}
    by_children: dict[tuple[int, int], list[tuple[int, float]]] = {}
    for a in range(n):
        mine = [pair for pair in pairs if parent[pair] == a]
        weights = [rng.random() + 0.05 for _ in mine]
        total = sum(weights) + rng.random() + 0.05  # the rest goes to words
        for (b, c), w in zip(mine, weights):
            binary[a].append((b, c, w / total))
            by_children[b, c] = [(a, -math.log(w / total))]
    # Every nonterminal rewrites to at least one word, so sampled
    # derivations always terminate and every sentence has a full parse.
    lexicon: dict[int, list[tuple[int, float]]] = {}
    words_of: dict[int, list[int]] = {a: [] for a in range(n)}
    for w in range(CHART_WORDS):
        tags = rng.sample(range(n), CHART_PRETERMINALS_PER_WORD)
        if w < n:
            tags[0] = w
        lexicon[w] = [(a, -math.log(rng.uniform(0.02, 0.5))) for a in dict.fromkeys(tags)]
        for a, _ in lexicon[w]:
            words_of[a].append(w)
    return binary, by_children, lexicon, words_of


def _sample_sentence(rng: Random, length: int, binary, words_of) -> list[int]:
    """Words of a random derivation from nonterminal 0 with ``length`` leaves."""
    words = [0] * length
    stack = [(0, 0, length)]
    while stack:
        a, i, j = stack.pop()
        if j - i == 1:
            words[i] = rng.choice(words_of[a])
            continue
        b, c, _ = rng.choice(binary[a])
        k = rng.randint(i + 1, j - 1)
        stack.append((b, i, k))
        stack.append((c, k, j))
    return words


def _cky_chart(words: list[int], by_children, lexicon) -> Instance:
    """Bottom-up CKY over the sentence; only derivable items are emitted."""
    L = len(words)
    names = [f"w{i}_{w}" for i, w in enumerate(words)]
    ids: dict[tuple[int, int, int], int] = {}
    cells: dict[tuple[int, int], list[int]] = {}
    arcs = []

    def item(a: int, i: int, j: int) -> int:
        key = (a, i, j)
        v = ids.get(key)
        if v is None:
            v = ids[key] = len(names)
            names.append(f"X{a}_{i}_{j}")
            cells.setdefault((i, j), []).append(a)
        return v

    for i, w in enumerate(words):
        for a, length in lexicon[w]:
            tails = ((i, 1),)
            arcs.append((item(a, i, i + 1), tails, tails, length))
    for span in range(2, L + 1):
        for i in range(L - span + 1):
            j = i + span
            for k in range(i + 1, j):
                for b in cells.get((i, k), ()):
                    for c in cells.get((k, j), ()):
                        for a, length in by_children.get((b, c), ()):
                            tails = ((ids[b, i, k], 1), (ids[c, k, j], 1))
                            arcs.append((item(a, i, j), tails, tails, length))
    return Instance(names, arcs, tuple((i, 0.0) for i in range(L)), ids[0, 0, L])


def charts(seed: int) -> list[Instance]:
    """One CKY chart per sentence, each sampled from one random PCFG."""
    rng = Random(seed)
    binary, by_children, lexicon, words_of = _random_pcfg(rng)
    out = []
    for length in CHART_LENGTHS:
        words = _sample_sentence(rng, length, binary, words_of)
        out.append(_cky_chart(words, by_children, lexicon))
    return out


# -- horn ---------------------------------------------------------------------

HORN_VERTICES = 6_000
HORN_ARCS = 15_000
HORN_WINDOW = 40
HORN_TAIL_COUNTS = (1, 1, 2, 2, 2, 3, 3, 4)
# Source sets as (size, highest initial cost). Sizes run from far below the
# reachability phase transition (about 500 sources here) to far above it, so
# query work spans two orders of magnitude. Sources with spread initial costs
# make the heap improve vertices again and again, about doubling the work of
# a query. The classes are sized so that the median query lies among the
# 4096 zero-cost sets and the p90 query among the costly ones, two groups
# whose work hardly depends on the seed.
HORN_SOURCE_SETS = (
    ((2, 2.0), (4, 2.0), (8, 2.0)) * 3
    + ((64, 2.0), (256, 2.0), (1024, 2.0))
    + ((4096, 0.0),) * 12
    + ((4096, 40.0),) * 6
)


@dataclass
class HornQuery:
    sources: tuple[tuple[int, float], ...]
    target: int


def horn(seed: int) -> tuple[Instance, list[HornQuery]]:
    """A cyclic AND-OR graph with mostly local tails, and its queries.

    Targets are drawn from the vertices the benchmark's own forward pass
    reaches, so every query has a best tree. The file's own source set and
    target are those of the last query; the CLI commands use them.
    """
    rng = Random(seed)
    n = HORN_VERTICES
    names = [f"h{v}" for v in range(n)]
    arcs = []
    for _ in range(HORN_ARCS):
        head = rng.randrange(n)
        k = rng.choice(HORN_TAIL_COUNTS)
        tails: set[int] = set()
        while len(tails) < k:
            if rng.random() < 0.9:
                t = (head + rng.randint(-HORN_WINDOW, HORN_WINDOW)) % n
            else:
                t = rng.randrange(n)
            if t != head:
                tails.add(t)
        pairs = tuple((t, 1) for t in sorted(tails))
        arcs.append((head, pairs, pairs, rng.uniform(0.0, 4.0)))
    inst = Instance(names, arcs, (), 0)
    queries = []
    for size, high in HORN_SOURCE_SETS:
        src = rng.sample(range(n), size)
        sources = tuple((v, rng.uniform(0.0, high)) for v in src)
        reached = forward_reach(n, arcs, [v for v, _ in sources])
        srcset = set(src)
        candidates = [v for v in range(n) if reached[v] and v not in srcset]
        target = rng.choice(candidates) if candidates else src[0]
        queries.append(HornQuery(sources, target))
    inst.sources, inst.target = queries[-1].sources, queries[-1].target
    return inst, queries


# -- grammar ------------------------------------------------------------------

GRAMMAR_MAIN = 700
GRAMMAR_UNPRODUCTIVE = 80
GRAMMAR_UNREACHABLE = 80
GRAMMAR_EXTRA_PER_NT = 2
GRAMMAR_TERMINALS = 60
GRAMMAR_SYMBOLS = 12


@dataclass
class GrammarInstance:
    """A grammar file and its hypergraph image in the benchmark's terms."""

    text: str
    start: str
    lines: list[str]  # one line of ``text`` per production, in order
    hypergraph: Instance

    @property
    def productions(self) -> int:
        return len(self.lines)


def grammar(seed: int) -> GrammarInstance:
    """A mixed CFG/WRTG with unreachable and unproductive nonterminals.

    Main nonterminal ``N<i>`` always has a production whose nonterminals all
    have higher index, so every main nonterminal is productive; each one past
    the first is also referenced downward from a lower one, so all are
    reachable from the start ``N0``. ``U<k>`` nonterminals only rewrite to
    rhs containing another ``U`` (unproductive); ``R<k>`` are productive but
    referenced by nothing outside themselves (unreachable).
    """
    rng = Random(seed)
    main = [f"N{i}" for i in range(GRAMMAR_MAIN)]
    unprod = [f"U{k}" for k in range(GRAMMAR_UNPRODUCTIVE)]
    unreach = [f"R{k}" for k in range(GRAMMAR_UNREACHABLE)]
    terms = [f"a{k}" for k in range(GRAMMAR_TERMINALS)]
    symbols = [f"f{k}" for k in range(GRAMMAR_SYMBOLS)]
    rows: list[tuple[str, list[str], str]] = []  # lhs, nonterminal yield, rhs text

    def rhs(nts: list[str]) -> tuple[list[str], str]:
        """Random rhs, flat or tree, whose nonterminal yield is ``nts``."""
        if rng.random() < 0.5:
            items = list(nts)
            for _ in range(rng.randint(0 if items else 1, 2)):
                items.insert(rng.randint(0, len(items)), rng.choice(terms))
            return nts, " ".join(items)
        leaves = list(nts) or [rng.choice(terms)]
        if rng.random() < 0.3:
            leaves.insert(rng.randint(0, len(leaves)), rng.choice(terms))
        if len(leaves) >= 3 and rng.random() < 0.5:
            cut = rng.randint(1, len(leaves) - 1)
            inner = f"{rng.choice(symbols)}({', '.join(leaves[cut:])})"
            return nts, f"{rng.choice(symbols)}({', '.join(leaves[:cut] + [inner])})"
        return nts, f"{rng.choice(symbols)}({', '.join(leaves)})"

    def below(i: int, pool: list[str]) -> list[str]:
        k = rng.choice((0, 1, 1, 2, 2, 3))
        return [rng.choice(pool[i + 1:]) for _ in range(k)] if i + 1 < len(pool) else []

    for i, nt in enumerate(main):
        rows.append((nt, *rhs(below(i, main))))
    for i in range(1, GRAMMAR_MAIN):
        j = rng.randrange(max(0, i - 50), i)
        rows.append((main[j], *rhs([main[i]] + below(i, main)[:1])))
    for nt in main:
        for _ in range(GRAMMAR_EXTRA_PER_NT):
            k = rng.choice((1, 2, 2, 3))
            pool = unprod if rng.random() < 0.1 else main
            rows.append((nt, *rhs([rng.choice(pool) for _ in range(k)])))
    for nt in unprod:
        for _ in range(2):
            nts = [rng.choice(unprod)] + [rng.choice(main) for _ in range(rng.randint(0, 2))]
            rng.shuffle(nts)
            rows.append((nt, *rhs(nts)))
    for i, nt in enumerate(unreach):
        rows.append((nt, *rhs(below(i, unreach))))
        rows.append((nt, *rhs([rng.choice(main), rng.choice(unreach)])))
    rng.shuffle(rows)
    start = main[0]

    order: dict[str, int] = {}
    for lhs, _, _ in rows:
        order.setdefault(lhs, len(order))
    sink = len(order)
    names = list(order) + ["_OMEGA_"]
    lines = []
    arcs = []
    for lhs, nts, body in rows:
        w = fmt(rng.uniform(0.05, 1.0))
        lines.append(f"{w}: {lhs} -> {body}\n")
        length = -math.log(float(w))
        pairs: list[tuple[int, int]] = []
        for x in nts:
            v = order[x]
            if pairs and pairs[-1][0] == v:
                pairs[-1] = (v, pairs[-1][1] + 1)
            else:
                pairs.append((v, 1))
        tails = tuple(pairs) or ((sink, 1),)
        arcs.append((order[lhs], tails, merge_tails(tails), length))
    inst = Instance(names, arcs, ((sink, 0.0),), order[start])
    return GrammarInstance(f"start {start}\n" + "".join(lines), start, lines, inst)
