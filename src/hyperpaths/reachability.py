"""Hypergraph reachability and the two-phase reduction to useful vertices.

``reach_from`` marks every vertex derivable from a source set: a vertex is
reachable if it is a source, or if some arc pointing at it has all of its
tail vertices reachable. ``reach_to`` marks, by a backward traversal from the
target over the projected ordinary graph, the vertices that can participate
in reaching it. ``reduce`` composes them, forward pass first; that order is
essential, since the backward pass counts a tail as useful only under the
assumption that every sibling tail is derivable.

Both passes use explicit worklists instead of recursion so that deep graphs
cannot overflow the interpreter stack; their boolean outputs do not depend on
traversal order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .core import (
    Hypergraph, Query, ValidationError, _check_vertex, _closed_arcs, _Record, _subgraph
)


class ReachResult(_Record):
    """Per-vertex reachability flags plus a tail-slot touch counter.

    ``touches`` counts adjacency visits in the marking loop; it is bounded by
    the total input size, which is the linear-time claim in checkable form.
    """

    __slots__ = ("reached", "touches")
    reached: tuple[bool, ...]
    touches: int

    def vertices(self) -> tuple[int, ...]:
        return tuple(v for v, r in enumerate(self.reached) if r)


def reach_from(g: Hypergraph, sources: Iterable[int]) -> ReachResult:
    """Mark all vertices derivable from ``sources``.

    Each arc keeps a countdown of distinct tail vertices not yet reached and
    fires when it hits zero, so every (arc, distinct tail) slot is handled
    once: O(t) in the total input size.
    """
    reached = [False] * g.n
    stack: list[int] = []
    for v in sources:  # checked in the caller's order, each before it is used
        if v.__class__ is not int or not 0 <= v < g.n:
            _check_vertex(v, g.n, "source ")
        if not reached[v]:
            reached[v] = True
            stack.append(v)
    if not stack:
        raise ValidationError("source set must be nonempty")
    heads = g._heads
    forward = g.forward
    remaining = g._arity.copy()
    touches = 0
    while stack:
        y = stack.pop()
        arcs = forward[y]
        touches += len(arcs)
        for i in arcs:
            h = heads[i]
            if not reached[h]:
                remaining[i] -= 1
                if remaining[i] == 0:
                    reached[h] = True
                    stack.append(h)
    return ReachResult(tuple(reached), touches)


def reach_to(g: Hypergraph, target: int) -> ReachResult:
    """Mark vertices that can help reach ``target``, heads to tails.

    Depth-first traversal on the projected ordinary graph: every tail of an
    arc whose head is marked gets marked. This is sound only when every
    vertex of ``g`` is already derivable from the sources (run
    :func:`reach_from` and restrict first); the pass itself does not check.
    """
    _check_vertex(target, g.n, "target ")
    return _mark_to(g, target, g._dtails)


def _mark_to(g: Hypergraph, target: int, dtails: Sequence[tuple]) -> ReachResult:
    """The marking loop of :func:`reach_to`, reading the distinct tails of
    arc ``i`` from ``dtails[i]``; an arc given no tails marks nothing."""
    reached = [False] * g.n
    reached[target] = True
    stack = [target]
    backward = g.backward
    touches = 0
    while stack:
        v = stack.pop()
        for i in backward[v]:
            tails = dtails[i]
            touches += len(tails)
            for t, _ in tails:
                if not reached[t]:
                    reached[t] = True
                    stack.append(t)
    return ReachResult(tuple(reached), touches)


class ReduceResult(_Record):
    """Result of the two-phase reduction.

    Index maps are old id -> new id over the restriction of the input graph
    to the useful vertices, the keys of ``vertex_map``. The remapped query
    drops sources that turned out useless for the target; ``target`` is
    ``None`` when the sources do not derive it.
    """

    __slots__ = ("graph", "vertex_map", "arc_map", "sources", "target")
    graph: Hypergraph
    vertex_map: dict[int, int]
    arc_map: dict[int, int]
    sources: tuple[tuple[int, float], ...]
    target: int | None


def _useful(g: Hypergraph, query: Query) -> tuple[tuple[bool, ...], list[int]]:
    """:func:`reduce`'s passes: the backward pass's marks (none when the
    target is not derivable) and the useful arcs. The backward pass sees
    only the arcs closed over the forward pass's vertices, and marks every
    tail of such an arc whose head it marks, so the useful arcs, those with
    a marked head, are closed over the marks."""
    reached = reach_from(g, [v for v, _ in query.sources]).reached
    _check_vertex(query.target, g.n, "target ")
    if not reached[query.target]:
        return (False,) * g.n, []
    closed = _closed_arcs(g, reached, g.arc_indices)
    dtails, heads = g._dtails, g._heads
    masked: list[tuple] = [()] * len(dtails)
    for i in closed:
        masked[i] = dtails[i]
    marked = _mark_to(g, query.target, masked).reached
    return marked, [i for i in closed if marked[heads[i]]]


def reduce(g: Hypergraph, query: Query) -> ReduceResult:
    """Drop every vertex and arc not derivable from the sources or not able
    to participate in reaching the target.

    The forward pass runs first, then the backward pass on the forward
    restriction; the resulting graph has exactly the same hyperpath-trees
    from the sources to the target as ``g``. If the target is not derivable
    the result is the empty hypergraph, with ``target`` ``None``.
    """
    marked, arcs = _useful(g, query)
    graph, vmap, amap = _subgraph(g, marked, arcs)
    sources = tuple((vmap[v], c) for v, c in query.sources if marked[v])
    return ReduceResult(graph, vmap, amap, sources, vmap.get(query.target))
