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

from typing import Iterable

from .core import Hypergraph, Query, ValidationError, _check_vertex, _Record, restrict


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
    stack = list(dict.fromkeys(sources))  # checked in the caller's order
    if not stack:
        raise ValidationError("source set must be nonempty")
    for v in stack:
        if v.__class__ is not int:
            _check_vertex(v)
        if not 0 <= v < g.n:
            raise ValidationError(f"source vertex {v} out of range (n={g.n})")
        reached[v] = True
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
    if not 0 <= _check_vertex(target) < g.n:
        raise ValidationError(f"target vertex {target} out of range (n={g.n})")
    return _mark_to(g, target, g._dtails)


def _mark_to(
    g: Hypergraph, target: int, dtails: list[tuple[tuple[int, int], ...]]
) -> ReachResult:
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
    to ``pass2_vertices``. The remapped query drops sources that turned out
    useless for the target.
    ``pass1_vertices`` / ``pass2_vertices`` expose, in original ids, the
    vertex sets surviving each phase (pass2 is the final set).
    """

    __slots__ = (
        "graph",
        "vertex_map",
        "arc_map",
        "sources",
        "target",
        "target_reachable",
        "pass1_vertices",
        "pass2_vertices",
    )
    graph: Hypergraph
    vertex_map: dict[int, int]
    arc_map: dict[int, int]
    sources: tuple[tuple[int, float], ...]
    target: int | None
    target_reachable: bool
    pass1_vertices: frozenset[int]
    pass2_vertices: frozenset[int]


def reduce(g: Hypergraph, query: Query) -> ReduceResult:
    """Drop every vertex and arc not derivable from the sources or not able
    to participate in reaching the target.

    The forward pass runs first, then the backward pass on the forward
    restriction; the resulting graph has exactly the same hyperpath-trees
    from the sources to the target as ``g``. If the target is not derivable
    the result is the empty hypergraph, flagged via ``target_reachable``.
    """
    forward = reach_from(g, query.source_vertices())
    if query.target >= g.n:
        raise ValidationError(f"target vertex {query.target} out of range (n={g.n})")
    in1 = forward.reached
    pass2: tuple[int, ...] = ()
    if in1[query.target]:
        # The second pass runs on g, seeing only the arcs that restricting g
        # to pass1 would keep: those whose head and tails all lie in pass1.
        masked: list[tuple] = []
        for h, d in zip(g._heads, g._dtails):
            if in1[h]:
                for v, _ in d:
                    if not in1[v]:
                        break
                else:
                    masked.append(d)
                    continue
            masked.append(())
        pass2 = _mark_to(g, query.target, masked).vertices()
    # pass2 lies inside pass1, so restricting g to it once gives the same
    # graph and maps as restricting the pass-1 restriction again.
    res = restrict(g, pass2)
    sources = tuple((res.vertex_map[v], c) for v, c in query.sources if v in res.vertex_map)
    target = res.vertex_map.get(query.target)
    return ReduceResult(
        graph=res.graph,
        vertex_map=res.vertex_map,
        arc_map=res.arc_map,
        sources=sources,
        target=target,
        target_reachable=target is not None,
        pass1_vertices=frozenset(forward.vertices()),
        pass2_vertices=frozenset(pass2),
    )
