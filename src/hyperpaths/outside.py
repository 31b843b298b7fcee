"""Viterbi outside costs and relative-uselessness beam pruning.

The outside cost of a vertex is the cheapest way to complete a hyperpath-tree
reaching it into one reaching the target, charging every omitted sibling tail
its best inside cost. Computed as ordinary Dijkstra on the implicitly
reversed "monadic" graph: each (arc, tail) pair is one reversed edge whose
weight is the arc's full default cost minus one inside contribution of that
tail. This separation requires the additive cost family; no other family is
supported here.

Note that ``outside[v] + inside[v] >= inside[target]`` always, with equality
exactly for vertices on some cheapest tree; vertices off every best tree get
strictly larger completions.

Each arc is relaxed from its head's outside cost plus its full cost. That sum
is the arc's utility, which the pass returns for pruning.
"""

from __future__ import annotations

import heapq
import operator
from itertools import compress, islice

from .core import (
    INF,
    Hypergraph,
    InternalInvariantError,
    UnreachableTargetError,
    ValidationError,
    _beam_bounds,
    _check_number,
    _check_vertex,
    _closed_arcs,
    _Record,
    _subgraph,
)
from .inside import InsideResult


class OutsideResult(_Record):
    """Minimum completion cost and parent arc per vertex.

    ``outside[v]`` is ``inf`` when no hyperpath-tree through ``v`` reaches
    the target. ``psi[v]`` is the arc through which the cheapest completion
    leaves ``v`` upward, 0 for the target and for incompletable vertices.
    ``gamma_arcs`` holds each arc's utility, indexed 1..m (slot 0 ``inf``).
    """

    __slots__ = ("outside", "psi", "target", "gamma_arcs")
    outside: tuple[float, ...]
    psi: tuple[int, ...]
    target: int
    gamma_arcs: tuple[float, ...]


def viterbi_outside(
    g: Hypergraph, ins: InsideResult, target: int, *, beam: float = INF
) -> OutsideResult:
    """Cheapest completion cost toward ``target`` for every vertex.

    ``ins`` must come from the same graph and reach the target. Arcs with an
    unreached tail are never relaxed, so vertices that are not derivable
    from the sources keep infinite outside cost and ``psi`` 0. Restricting
    ``g`` to its derivable vertices first therefore changes nothing: outside
    costs, ``psi`` (as input arcs) and the utilities and pruning built on
    them equal those on the restriction, mapped back to ``g``'s ids.
    O(m log n + t) with the lazy binary heap.

    The relaxation's ``c = outside[head] + (length + Σ mult·inside[tail])``
    is the arc's utility and goes to ``gamma_arcs``; an arc never relaxed
    (its head not settled, or a tail unreached) keeps ``inf``. The pop test
    needs no settled flag: relaxations skip settled tails, so a settled cost
    never changes, and each push lowers a cost, so leftover entries fail
    ``key > outside[x]``.

    A finite ``beam`` ends the pass at the first key above the limit of
    :func:`prune_relatively_useless` for ``inside[target] + beam``; a vertex
    above it counts as incompletable (``inf``, ``psi`` 0). With an ``ins``
    from ``viterbi_inside(..., stop=(target, beam))``, the keep flags of a
    prune at ``beam`` are then those of the full passes: see
    :func:`_keep_flags`.
    """
    beam = _check_number(beam, "beam", finite=False)
    _check_vertex(target, g.n, "target ")
    if len(ins.inside) != g.n:
        raise ValidationError("inside result does not match this hypergraph")
    if ins.inside[target] == INF:
        raise UnreachableTargetError(f"target '{g.name_of(target)}' is unreachable")

    n = g.n
    inside = ins.inside
    limit = _beam_bounds(inside[target] + beam)[1]  # no key above it settles
    outside = [INF] * n
    psi = [0] * n
    gamma_e = [INF] * (g.num_arcs + 1)
    outside[target] = 0.0
    heap: list[tuple[float, int]] = [(0.0, target)]
    settled = bytearray(n)
    backward = g.backward
    lengths = g._lengths
    dtails = g._dtails
    push = heapq.heappush
    pop = heapq.heappop

    while heap:
        key, x = pop(heap)
        if key > outside[x]:
            continue
        if key > limit:
            break
        settled[x] = 1
        ox = outside[x]
        for i in backward[x]:
            # The arc's cost, summed in the inside pass's order; an infinite
            # tail makes it infinite.
            d = dtails[i]
            total = lengths[i]
            for t, m in d:
                total += m * inside[t]
            if total == INF:
                continue
            c = gamma_e[i] = ox + total
            for t, _ in d:
                if settled[t]:
                    continue
                proposed = c - inside[t]
                if proposed < outside[t]:
                    outside[t] = proposed
                    psi[t] = i
                    push(heap, (proposed, t))

    if beam < INF:
        psi = [a if o <= limit else 0 for o, a in zip(outside, psi)]
        outside = [o if o <= limit else INF for o in outside]
    return OutsideResult(tuple(outside), tuple(psi), target, tuple(gamma_e))


class PruneResult(_Record):
    """Utilities, keep flags, and the pruned hypergraph for a beam.

    ``keep`` flags are true exactly for elements whose utility is finite and
    at most ``inside[target] + beam``. ``graph`` restricts the input graph
    to the kept elements, so it also lacks a kept arc whose endpoint
    rounding left unkept; it is the input graph itself when every element
    is kept. Index maps relate the input graph to ``graph``.
    """

    __slots__ = (
        "gamma_vertices",
        "gamma_arcs",
        "keep_vertices",
        "keep_arcs",
        "graph",
        "vertex_map",
        "arc_map",
    )
    gamma_vertices: tuple[float, ...]
    gamma_arcs: tuple[float, ...]
    keep_vertices: tuple[bool, ...]
    keep_arcs: tuple[bool, ...]
    graph: Hypergraph
    vertex_map: dict[int, int]
    arc_map: dict[int, int]


def _keep_flags(
    g: Hypergraph, ins: InsideResult, outs: OutsideResult, beam: float
) -> tuple[tuple[float, ...], tuple[bool, ...], list[bool], list[int]]:
    """Vertex utilities and keep flags of a prune at ``beam``: ``(gamma_v,
    keep_v, keep_e, kept)``, where ``kept`` lists, in increasing order, the
    arcs flagged kept whose endpoints are all flagged kept too: the arcs of
    the pruned graph. It trusts its inputs (passes on ``g`` that reach the
    target, a checked ``beam``); :func:`prune_relatively_useless` checks them.

    The flags read only values at most the limit, so passes stopped there
    (``viterbi_inside(..., stop=(target, beam))`` and ``viterbi_outside(...,
    beam=beam)``) give the full passes' flags. A kept element's utility is at
    most the cutoff. Its terms (inside and outside costs, lengths times
    multiplicities) are nonnegative and float rounding is monotone, so each
    is at most the utility, and a pass cut at the first key above the limit
    settles it as the full pass does. The outside pass skips arcs with a
    tail above the limit, but a completion through such an arc makes a tree
    costing more than the limit, so the vertex it completes has utility
    above the cutoff by far more than rounding (the limit is
    1e-9·max(1, |best + beam|) above it); it never gives a kept vertex its
    value. So kept elements read bitwise the full passes' values. The
    other values are the full ones or larger (``inf`` above the limit), so
    an element not kept stays not kept.
    """
    gamma_v = tuple(map(operator.add, ins.inside, outs.outside))
    cutoff, limit = _beam_bounds(ins.inside[outs.target] + beam)
    keep_v = tuple([x <= cutoff and x < INF for x in gamma_v])
    keep_e = [x <= cutoff and x < INF for x in outs.gamma_arcs]
    flagged = list(compress(g.arc_indices, islice(keep_e, 1, None)))
    kept = _closed_arcs(g, keep_v, flagged)
    if len(kept) < len(flagged):
        # A kept arc's endpoints have utility <= the arc's, but rounding may
        # put one just above the cutoff, and the arc is then dropped. Above
        # the limit is a bug, as is an infinite utility.
        for i in sorted(set(flagged).difference(kept)):
            for v in (g._heads[i], *[t for t, _ in g._dtails[i]]):
                if not gamma_v[v] <= limit:
                    raise InternalInvariantError(f"arc {i} kept but endpoint vertex {v} is not")
    return gamma_v, keep_v, keep_e, kept


def prune_relatively_useless(
    g: Hypergraph, ins: InsideResult, outs: OutsideResult, beam: float
) -> PruneResult:
    """Keep only vertices and arcs used by some hyperpath-tree whose cost is
    within ``beam`` of the best; drop everything else.

    ``beam`` may be ``inf`` ("no beam"), which keeps exactly the elements
    lying on any finite-cost tree to the target. The best tree always
    survives, so re-running the inside pass on the pruned graph reproduces
    the best cost; kept sets grow monotonically with the beam. O(t) given
    the two prior passes. Before it reads a value, it raises
    :class:`ValidationError` for results sized for another graph or a
    target that is not a vertex id, and :class:`UnreachableTargetError` for
    an unreached target.
    """
    beam = _check_number(beam, "beam", finite=False)
    if not len(ins.inside) == len(outs.outside) == g.n or len(outs.gamma_arcs) != g.num_arcs + 1:
        raise ValidationError("results do not match this hypergraph")
    if ins.inside[_check_vertex(outs.target, g.n, "target ")] == INF:
        raise UnreachableTargetError("target is unreachable; nothing to prune")
    gamma_v, keep_v, keep_e, kept = _keep_flags(g, ins, outs, beam)
    graph, vmap, amap = _subgraph(g, keep_v, kept)
    return PruneResult(gamma_v, outs.gamma_arcs, keep_v, tuple(keep_e), graph, vmap, amap)
