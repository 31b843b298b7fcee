"""Viterbi inside costs: cheapest hyperpath-trees from a source set.

``viterbi_inside`` generalizes Dijkstra's algorithm to hypergraphs. Vertices
are settled in nondecreasing cost order; an arc binds its distinct tails as
they settle (one BIND per distinct tail) and fires once the last one does,
possibly improving its head. Costs are additive: an arc's cost is its length
plus the multiplicity-weighted costs of its tails. As lengths, multiplicities
and costs are nonnegative, that is a superior function (Knuth 1977): an
arc's cost is at least the cost of each tail, so a fired arc can never
improve an already settled vertex. The outside pass and pruning rest on the
same family, whose per-tail separability they use.

The priority queue has two parts. The sources wait in one list sorted once
by (cost, vertex); only vertices an arc improves go on a binary heap, with
decrease-key done by lazy re-insertion and a stale-entry skip on
extraction. Each extraction takes the smaller head in the (key, vertex)
order, so the pass settles vertices in exactly the order of one heap
holding every entry: the two parts together hold that heap's entries, each
part's head is its least, and no entry is in both, as an improved source's
heap key is below its list key. The pass costs O(m log n + t + |S| log |S|)
for a source set S; a constant-time-decrease-key heap (Fibonacci) would
give O(n log n + t) for the heap part but is not implemented.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Callable, Iterable

from .core import (
    INF,
    Hypergraph,
    InternalInvariantError,
    UnreachableTargetError,
    ValidationError,
    _beam_bounds,
    _check_number,
    _check_vertex,
    _Record,
    _Tree,
    check_sources,
)


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
    stop: tuple[int, float] | None = None,
) -> InsideResult:
    """Cheapest hyperpath-tree cost from ``sources`` to every vertex.

    ``sources`` is an iterable of (vertex, initial cost) pairs with distinct
    vertices and finite nonnegative costs. An arc's cost is summed in one
    order, which the outside pass shares, so the two agree bitwise: its
    length first, then ``mult * inside[t]`` for each distinct tail, in
    stored order.
    Ties on extraction break toward the lower vertex id, and ``pi`` keeps
    the first arc reaching a vertex's minimum (improvements are strict), so
    outputs are deterministic.

    The guard skips an arc, unbound, when the vertex being settled already
    costs at least its head's current cost; by superiority the arc can then
    never improve the head. It changes only ``binds``, never ``inside`` or
    ``pi``. Zero-length arcs, self-loops and cycles are fine. No vertex
    settles twice, with no flag to mark it: pushes strictly lower a cost, so
    only a vertex's last entry escapes the stale test ``key > inside[y]``,
    and re-opening a settled vertex needs an arc cheaper than a tail settled
    after it, which superiority rules out; the extraction order check
    raises :class:`InternalInvariantError` should that ever fail. ``binds``
    is the countdowns' total fall.

    ``stop=(v, beam)`` ends the pass early, for callers that need no vertex
    a prune at ``beam`` drops: once ``v`` settles, the pass ends at the
    first key above the limit of
    :func:`~hyperpaths.outside.prune_relatively_useless` for ``inside[v] +
    beam``. It is the full pass cut there, so every value up to the limit
    and its ``pi`` entry are the full pass's; a vertex above it counts as
    unreached (``inf``, ``pi`` 0). ``v`` must be a vertex id of ``g``, an
    ``int`` as a source vertex must be, and ``beam`` nonnegative.

    The sources are popped from one list sorted by (cost, vertex), and only
    improved vertices are pushed on the heap. Taking the smaller head in
    (key, vertex) order settles vertices in one heap's order (see the module
    docstring). The sort costs O(|S| log |S|) once, in place of |S| heap
    pops whose comparisons fall through to the vertex when costs tie.
    """
    n = g.n
    sources = check_sources(sources, n)
    try:
        stop_at, beam = (-1, INF) if stop is None else stop
    except (TypeError, ValueError):
        raise ValidationError(f"stop must be a (vertex, beam) pair, got {stop!r}") from None
    if stop is not None:
        _check_vertex(stop_at, n, "stop ")
        beam = _check_number(beam, "beam", finite=False)
    inside = [INF] * n
    pi = [0] * n
    for v, c in sources:
        inside[v] = c
    # By (cost, vertex) descending, the least last: two stable key sorts,
    # faster than one sort of the tuples when many costs tie.
    queue = [(c, v) for v, c in sources]
    queue.sort(key=itemgetter(1), reverse=True)
    queue.sort(key=itemgetter(0), reverse=True)
    heap: list[tuple[float, int]] = []

    remaining = g._arity.copy()
    heads = g._heads
    lengths = g._lengths
    dtails = g._dtails
    forward = g.forward
    push = heapq.heappush
    pop = heapq.heappop
    last_key = -INF
    limit = INF  # no key above it settles

    while heap or queue:
        key, y = queue.pop() if queue and (not heap or queue[-1] < heap[0]) else pop(heap)
        if key < last_key:
            raise InternalInvariantError("extraction keys decreased: cost function not superior")
        last_key = key
        if key > inside[y]:
            continue
        if key > limit:
            break
        if y == stop_at:
            limit = _beam_bounds(key + beam)[1]
        for i in forward[y]:
            h = heads[i]
            # The guard. y settles at key == inside[y], and the sum below is
            # at least mult * key >= key in floats too, as its terms are
            # nonnegative and rounding is monotone. As inside[h] only
            # decreases, once key >= inside[h] the arc can never strictly
            # improve h: skip it, unbound.
            if key >= inside[h]:
                continue
            r = remaining[i] - 1
            remaining[i] = r
            if r == 0:
                # All tails settled, so finite; summed in the order above.
                c = lengths[i]
                for t, mm in dtails[i]:
                    c += mm * inside[t]
                if c < inside[h]:
                    inside[h] = c
                    pi[h] = i
                    push(heap, (c, h))

    if beam < INF:
        pi = [a if x <= limit else 0 for x, a in zip(inside, pi)]
        inside = [x if x <= limit else INF for x in inside]
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
        _set_arc(self, arc)
        _set_vertex(self, vertex)
        _set_children(self, children)
        _set_cost(self, cost)


_set_arc, _set_vertex, _set_children, _set_cost = HyperpathTree._setters


def extract_best_tree(g: Hypergraph, result: InsideResult, vertex: int) -> HyperpathTree:
    """Expand the predecessor relation into one cheapest hyperpath-tree.

    Nodes are shared between repeated tail occurrences (the best subtree for
    a vertex is unique per ``pi``), so construction is linear even when the
    unfolded tree is not. The tree's cost equals ``inside[vertex]`` up to
    float rounding. Raises :class:`UnreachableTargetError` when the vertex
    has no tree, :class:`ValidationError` when ``result`` is not of ``g``'s
    size or a ``pi`` entry it follows is not an arc of ``g`` into that
    vertex, and :class:`InternalInvariantError` on a cyclic predecessor
    chain (impossible for results produced by :func:`viterbi_inside`).
    """
    _check_vertex(vertex, g.n)
    inside, pi, heads = result.inside, result.pi, g._heads
    mismatch = "inside result does not match this hypergraph"
    if len(inside) != g.n or len(pi) != g.n:
        raise ValidationError(mismatch)
    if inside[vertex] == INF:
        raise UnreachableTargetError(f"vertex '{g.name_of(vertex)}' is unreachable")

    nodes: dict[int, HyperpathTree | None] = {}  # built as its DFS finishes; None before
    stack: list[tuple[int, bool]] = [(vertex, False)]
    while stack:
        v, finish = stack.pop()
        i = pi[v]
        if finish:
            kids = tuple(nodes[t] for t, m in g._tails[i] for _ in range(m))
            cost = g._lengths[i]
            for kid in kids:
                cost += kid.cost
            nodes[v] = HyperpathTree(i, v, kids, cost)
        elif v not in nodes:
            if i == 0:
                nodes[v] = HyperpathTree(0, v, (), inside[v])
                continue
            if i.__class__ is not int or not 0 < i < len(heads) or heads[i] != v:
                raise ValidationError(mismatch)
            nodes[v] = None
            stack.append((v, True))
            for t, _ in g._dtails[i]:
                if t not in nodes:
                    stack.append((t, False))
                elif nodes[t] is None:
                    raise InternalInvariantError("cycle in predecessor pointers")
    return nodes[vertex]


def format_tree(tree: HyperpathTree, name_of: Callable[[int], str]) -> str:
    """Render a tree as an s-expression of arc indices.

    Source leaves are implicit except when the whole tree is a single leaf,
    which renders as ``name_of(vertex)``.
    """
    if tree.arc == 0:
        return name_of(tree.vertex)
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
