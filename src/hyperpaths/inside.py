"""Viterbi inside costs: cheapest hyperpath-trees from a source set.

``viterbi_inside`` generalizes Dijkstra's algorithm to hypergraphs. Vertices
are settled in nondecreasing cost order; an arc binds its distinct tails as
they settle (one BIND per distinct tail) and fires once the last one does,
possibly improving its head. Correctness rests on the cost functions being
superior: an arc's cost is at least the cost of each bound tail, so a fired
arc can never improve an already settled vertex.

The priority queue is a binary heap with decrease-key done by lazy
re-insertion and a stale-entry skip on extraction, giving O(m log n + t);
a constant-time-decrease-key heap (Fibonacci) would give O(n log n + t) but
is not implemented.
"""

from __future__ import annotations

import heapq
import math
from abc import ABC, abstractmethod
from collections import defaultdict
from typing import Callable, Iterable, Iterator

from .core import (
    INF,
    Hypergraph,
    InternalInvariantError,
    UnreachableTargetError,
    ValidationError,
    _beam_bounds,
    _Record,
    _Tree,
    check_sources,
)


class CostFunction(ABC):
    """Per-arc cost state driven by BIND / INF operations.

    ``bind`` incorporates the final cost of one distinct tail vertex;
    ``inf`` returns a lower bound on the arc's cost that must be monotone
    nondecreasing under binds and exact once every tail is bound. Instances
    must be superior: the final value is >= every bound tail cost. Only the
    additive family ships; anything else is caller-supplied.
    """

    @abstractmethod
    def bind(self, tail: int, cost: float) -> None: ...

    @abstractmethod
    def inf(self) -> float: ...


class AdditiveCost(CostFunction):
    """Arc length plus multiplicity-weighted tail costs.

    Superior because lengths, multiplicities, and tail costs are all
    nonnegative. ``inf`` sums the bound costs with
    :meth:`Hypergraph.arc_total_cost`, so the value agrees bitwise with the
    default path; an unbound tail counts 0, which keeps it a lower bound.
    """

    __slots__ = ("_g", "_i", "_bound")

    def __init__(self, g: Hypergraph, arc_index: int) -> None:
        self._g = g
        self._i = arc_index
        self._bound: defaultdict[int, float] = defaultdict(float)

    def bind(self, tail: int, cost: float) -> None:
        self._bound[tail] = cost

    def inf(self) -> float:
        return self._g.arc_total_cost(self._i, self._bound)


CostFactory = Callable[[Hypergraph, int], CostFunction]


class InsideResult(_Record):
    """Minimum inside cost and predecessor arc per vertex.

    ``inside[v]`` is the cheapest hyperpath-tree cost from the sources to
    ``v`` (``inf`` if none). ``pi[v]`` is the arc of one cheapest tree, or 0
    for sources never improved and for unreached vertices. ``binds`` counts
    BIND operations (instrumentation; at most one per arc and distinct tail).
    """

    __slots__ = ("inside", "pi", "binds")
    inside: tuple[float, ...]
    pi: tuple[int, ...]
    binds: int


def viterbi_inside(
    g: Hypergraph,
    sources: Iterable[tuple[int, float]],
    *,
    cost_factory: CostFactory | None = None,
    use_guard: bool = True,
    stop: tuple[int, float] | None = None,
) -> InsideResult:
    """Cheapest hyperpath-tree cost from ``sources`` to every vertex.

    ``sources`` is an iterable of (vertex, initial cost) pairs with distinct
    vertices and finite nonnegative costs. Ties on extraction break toward
    the lower vertex id, and ``pi`` keeps the first arc reaching a vertex's
    minimum (improvements are strict), so outputs are deterministic.

    ``use_guard`` keeps the shortcut that skips an arc, unbound, when the
    vertex being settled already costs at least its head's current cost; by
    superiority the arc can then never improve the head. It changes only
    ``binds``, never ``inside`` or ``pi``, for every superior cost family,
    and exists as a toggle so that can be verified. ``cost_factory``
    switches to caller-supplied :class:`CostFunction` state per arc; the
    default is the additive family, summed inline when an arc fires.
    Zero-length arcs, self-loops and cycles are fine. No vertex settles
    twice, with no flag to mark it: pushes strictly lower a cost, so only a
    vertex's last entry escapes the stale test ``key > inside[y]``, and
    re-opening a settled vertex needs an arc cheaper than a tail settled
    after it, which superiority rules out; any other cost function trips the
    extraction order check. ``binds`` is the countdowns' total fall.

    ``stop=(v, beam)`` ends the pass early, for callers that need no vertex
    a prune at ``beam`` drops: once ``v`` settles, the pass ends when every
    key up to the limit of
    :func:`~hyperpaths.outside.prune_relatively_useless` for ``inside[v] +
    beam`` is popped. Those pops are the full pass's, so every settled value
    and ``pi`` entry is the full pass's too; a vertex not settled by then
    counts as unreached (``inf``, ``pi`` 0).
    """
    sources = check_sources(sources)
    n = g.n
    stop_at, beam = stop if stop is not None else (-1, INF)
    if stop is not None and not 0 <= stop_at < n:
        raise ValidationError(f"stop vertex {stop_at} out of range (n={n})")
    inside = [INF] * n
    pi = [0] * n
    for v, c in sources:
        if v >= n:
            raise ValidationError(f"source vertex {v} out of range (n={n})")
        inside[v] = c
    heap: list[tuple[float, int]] = [(c, v) for v, c in sources]
    heapq.heapify(heap)

    remaining = g._arity.copy()
    costs: list | None = None  # per-arc CostFunction state, index 0 unused
    if cost_factory is not None:
        costs = [None] + [cost_factory(g, i) for i in g.arc_indices]

    heads = g._heads
    lengths = g._lengths
    dtails = g._dtails
    forward = g.forward
    push = heapq.heappush
    pop = heapq.heappop
    last_key = -INF
    unset = INF  # the cost of a vertex not reached

    while heap:
        key, y = pop(heap)
        if key < last_key:
            raise InternalInvariantError("extraction keys decreased: cost function not superior")
        last_key = key
        if key > inside[y]:
            continue
        if y == stop_at:
            # From here on no cost above the limit is taken or left in the
            # heap, so the pass ends once no key at most the limit is left.
            limit = _beam_bounds(key + beam)[1]
            unset = math.nextafter(limit, INF)
            inside = [x if x <= limit else unset for x in inside]
            heap = [entry for entry in heap if entry[0] <= limit]
            heapq.heapify(heap)
        skip_at = key if use_guard else -INF
        for i in forward[y]:
            h = heads[i]
            # The guard. y settles at key == inside[y]. By superiority the arc
            # costs at least key; so does the additive sum below in floats, as
            # its terms are nonnegative and rounding is monotone, making it at
            # least mult * key >= key. As inside[h] only decreases, once key >=
            # inside[h] the arc can never strictly improve h: skip it, unbound.
            if skip_at >= inside[h]:
                continue
            if costs is not None:
                costs[i].bind(y, key)
            r = remaining[i] - 1
            remaining[i] = r
            if r == 0:
                if costs is None:
                    # All tails settled, so finite. Hypergraph.arc_total_cost
                    # inlined, in its order, so the value agrees with it bitwise.
                    c = lengths[i]
                    for t, mm in dtails[i]:
                        c += mm * inside[t]
                else:
                    c = costs[i].inf()
                if c < inside[h]:
                    inside[h] = c
                    pi[h] = i
                    push(heap, (c, h))

    if unset != INF:
        pi = [0 if x == unset else a for x, a in zip(inside, pi)]
        inside = [INF if x == unset else x for x in inside]
    return InsideResult(tuple(inside), tuple(pi), sum(g._arity) - sum(remaining))


class HyperpathTree(_Tree):
    """A hyperpath-tree node.

    ``arc`` is the 1-based arc index, or 0 for a source leaf. An arc node has
    one child per tail occurrence of its arc (multiplicities expanded, pair
    order kept); a leaf's ``cost`` is the source's initial cost, an arc
    node's is its length plus the children's costs.
    """

    __slots__ = ("arc", "vertex", "children", "cost")

    def __init__(self, arc: int, vertex: int, children: tuple[HyperpathTree, ...], cost: float):
        object.__setattr__(self, "arc", arc)
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "cost", cost)


def iter_nodes(tree: HyperpathTree) -> Iterator[HyperpathTree]:
    """All nodes of ``tree`` in preorder, iteratively."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def extract_best_tree(g: Hypergraph, result: InsideResult, vertex: int) -> HyperpathTree:
    """Expand the predecessor relation into one cheapest hyperpath-tree.

    Nodes are shared between repeated tail occurrences (the best subtree for
    a vertex is unique per ``pi``), so construction is linear even when the
    unfolded tree is not. The tree's cost equals ``inside[vertex]`` up to
    float rounding. Raises :class:`UnreachableTargetError` when the vertex
    has no tree, :class:`InternalInvariantError` on a cyclic predecessor
    chain (impossible for results produced by :func:`viterbi_inside`).
    """
    if not 0 <= vertex < g.n:
        raise ValidationError(f"vertex {vertex} out of range (n={g.n})")
    inside, pi = result.inside, result.pi
    if inside[vertex] == INF:
        raise UnreachableTargetError(f"vertex '{g.name_of(vertex)}' is unreachable")

    WHITE, GRAY, BLACK = 0, 1, 2
    state: dict[int, int] = {}
    order: list[int] = []
    stack: list[tuple[int, int]] = [(vertex, 0)]
    while stack:
        v, phase = stack.pop()
        if phase:
            state[v] = BLACK
            order.append(v)
            continue
        st = state.get(v, WHITE)
        if st == BLACK:
            continue
        if st == GRAY:
            raise InternalInvariantError("cycle in predecessor pointers")
        state[v] = GRAY
        stack.append((v, 1))
        if pi[v]:
            for t, _ in g._dtails[pi[v]]:
                ts = state.get(t, WHITE)
                if ts == GRAY:
                    raise InternalInvariantError("cycle in predecessor pointers")
                if ts == WHITE:
                    stack.append((t, 0))

    nodes: dict[int, HyperpathTree] = {}
    for v in order:
        i = pi[v]
        if i == 0:
            nodes[v] = HyperpathTree(0, v, (), inside[v])
        else:
            kids = tuple(nodes[t] for t, m in g._tails[i] for _ in range(m))
            cost = g._lengths[i]
            for kid in kids:
                cost += kid.cost
            nodes[v] = HyperpathTree(i, v, kids, cost)
    return nodes[vertex]


def format_tree(tree: HyperpathTree, name_of: Callable[[int], str] | None = None) -> str:
    """Render a tree as an s-expression of arc indices.

    Source leaves are implicit except when the whole tree is a single leaf,
    which renders as the vertex name.
    """
    if tree.arc == 0:
        return name_of(tree.vertex) if name_of else f"v{tree.vertex}"
    out: list[str] = []
    stack: list[tuple[HyperpathTree, int]] = [(tree, 0)]
    while stack:
        node, phase = stack.pop()
        if phase:
            out.append(")")
            continue
        if out:
            out.append(" ")
        out.append(f"({node.arc}")
        stack.append((node, 1))
        for child in reversed(node.children):
            if child.arc:
                stack.append((child, 0))
    return "".join(out)
