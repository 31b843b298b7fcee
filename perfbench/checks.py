"""Output checks, written against the benchmark's own instance description.

Nothing here calls the library's algorithms or reuses its loops; results are
read through public fields only. Every check runs in time linear in the
instance size. A failed check raises :class:`CheckError`; the caller counts
the operation as failed.

Costs are summed as ``length + sum(mult * cost)`` over distinct tails in
first-occurrence order, the order the library documents for all its cost
sums, so equalities below are exact, not approximate.
"""

from __future__ import annotations

import copy
import math

INF = math.inf
# The library widens the beam cutoff by this relative slack against float
# jitter; the check allows the same and no more.
BEAM_SLACK = 1e-12


class CheckError(AssertionError):
    pass


def fail(message: str) -> None:
    raise CheckError(message)


def fmt(x: float) -> str:
    return "%.17g" % x


def forward_reach(n: int, arcs, sources) -> bytearray:
    """Vertices derivable from ``sources`` (arcs as in ``gen.Instance``)."""
    waiting: list[list[int]] = [[] for _ in range(n)]
    missing = [0] * len(arcs)
    for i, (_, _, dtails, _) in enumerate(arcs):
        missing[i] = len(dtails)
        for t, _ in dtails:
            waiting[t].append(i)
    reached = bytearray(n)
    todo = []
    for v in sources:
        if not reached[v]:
            reached[v] = 1
            todo.append(v)
    while todo:
        v = todo.pop()
        for i in waiting[v]:
            missing[i] -= 1
            if missing[i] == 0:
                h = arcs[i][0]
                if not reached[h]:
                    reached[h] = 1
                    todo.append(h)
    return reached


def arc_cost(arc, costs) -> float:
    c = arc[3]
    for t, m in arc[2]:
        x = costs[t]
        if x == INF:
            return INF
        c += m * x
    return c


class View:
    """The benchmark's instance renumbered into a restricted graph's ids.

    ``vmap``/``amap`` map original vertex ids and 0-based arc positions to
    the restricted graph's vertex ids and 1-based arc indices. ``arcs`` is
    indexed by the restricted arc index (slot 0 unused).
    """

    def __init__(self, inst, vmap: dict[int, int], amap: dict[int, int], sources, target: int):
        self.inst = inst
        self.vmap = vmap
        self.n = len(vmap)
        self.names = [""] * self.n
        for v, v1 in vmap.items():
            self.names[v1] = inst.names[v]
        self.arcs: list = [None] * (len(amap) + 1)
        self.orig_arc = [0] * (len(amap) + 1)
        for i, i1 in amap.items():
            h, tails, dtails, length = inst.arcs[i - 1]
            self.arcs[i1] = (
                vmap[h],
                tuple((vmap[t], m) for t, m in tails),
                tuple((vmap[t], m) for t, m in dtails),
                length,
            )
            self.orig_arc[i1] = i
        self.orig_vertex = [0] * self.n
        for v, v1 in vmap.items():
            self.orig_vertex[v1] = v
        self.set_query(tuple((vmap[v], c) for v, c in sources if v in vmap), vmap.get(target))

    def set_query(self, sources, target) -> None:
        self.sources = sources
        self.source_cost = dict(sources)
        self.target = target

    def with_query(self, sources, target) -> "View":
        """The same graph with another source set and target."""
        other = copy.copy(self)
        other.set_query(sources, target)
        return other


def identity_view(inst) -> View:
    return View(
        inst,
        {v: v for v in range(len(inst.names))},
        {i: i for i in range(1, len(inst.arcs) + 1)},
        inst.sources,
        inst.target,
    )


def useful(view: View) -> tuple[set, set]:
    """The benchmark's own two-phase reduction: vertices derivable from the
    sources that some arc chain over derivable vertices leads to the target,
    and the arcs among them."""
    reached = forward_reach(view.n, view.arcs[1:], [v for v, _ in view.sources])
    by_head: list[list[int]] = [[] for _ in range(view.n)]
    for i in range(1, len(view.arcs)):
        h, _, dtails, _ = view.arcs[i]
        if reached[h] and all(reached[t] for t, _ in dtails):
            by_head[h].append(i)
    marked = {view.target} if reached[view.target] else set()
    todo = list(marked)
    while todo:
        for i in by_head[todo.pop()]:
            for t, _ in view.arcs[i][2]:
                if t not in marked:
                    marked.add(t)
                    todo.append(t)
    arcs = {
        i
        for i in range(1, len(view.arcs))
        if view.arcs[i][0] in marked and all(t in marked for t, _ in view.arcs[i][2])
    }
    return marked, arcs


def check_graph(g, view: View) -> None:
    """The library's graph holds exactly the view's vertices and arcs."""
    if g.n != view.n or g.num_arcs != len(view.arcs) - 1:
        fail(f"graph size {g.n}/{g.num_arcs}, expected {view.n}/{len(view.arcs) - 1}")
    for v in range(view.n):
        if g.name_of(v) != view.names[v]:
            fail(f"vertex {v} is {g.name_of(v)!r}, expected {view.names[v]!r}")
    for i1, arc in enumerate(g.arcs, start=1):
        h, tails, _, length = view.arcs[i1]
        if arc.head != h or arc.tails != tails or arc.length != length:
            fail(f"arc {i1} differs from the generated arc")


def check_restrict(view_in: View, reached: bytearray, vmap: dict[int, int], amap: dict[int, int]) -> None:
    """A forward restriction keeps exactly the reached vertices and the arcs
    all of whose endpoints were reached, in order."""
    keep = [v for v in range(view_in.n) if reached[v]]
    if list(vmap) != keep or list(vmap.values()) != list(range(len(keep))):
        fail("restriction kept a different vertex set")
    arcs = [
        i
        for i in range(1, len(view_in.arcs))
        if reached[view_in.arcs[i][0]] and all(reached[t] for t, _ in view_in.arcs[i][2])
    ]
    if list(amap) != arcs or list(amap.values()) != list(range(1, len(arcs) + 1)):
        fail("restriction kept a different arc set")


def check_inside(view: View, ins, reached: bytearray) -> None:
    """Finite exactly where reached; every arc bounds its head; ``pi`` arcs
    attain the bound; vertices without ``pi`` are sources at their cost."""
    inside, pi = ins.inside, ins.pi
    if len(inside) != view.n or len(pi) != view.n:
        fail("inside result has the wrong length")
    for v in range(view.n):
        if (inside[v] != INF) != bool(reached[v]):
            fail(
                f"vertex {view.names[v]}: inside {inside[v]!r} but "
                f"{'reached' if reached[v] else 'not reached'} by the forward pass"
            )
        if pi[v] == 0 and reached[v] and view.source_cost.get(v) != inside[v]:
            fail(f"vertex {view.names[v]}: no predecessor arc and not a source at its cost")
    for i in range(1, len(view.arcs)):
        arc = view.arcs[i]
        c = arc_cost(arc, inside)
        h = arc[0]
        if inside[h] > c:
            fail(f"arc {i} would improve its head {view.names[h]}")
        if pi[h] == i and inside[h] != c:
            fail(f"pi arc {i} of {view.names[h]} costs {c!r}, not {inside[h]!r}")


def best_tree_arcs(view: View, pi, root: int) -> tuple[list[int], list[int]]:
    """Vertices and arcs of the ``pi``-tree under ``root``."""
    seen = {root}
    todo = [root]
    arcs = []
    while todo:
        v = todo.pop()
        i = pi[v]
        if not i:
            continue
        arcs.append(i)
        for t, _ in view.arcs[i][2]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return list(seen), arcs


def check_tree(view: View, tree, inside) -> None:
    """The tree is well formed over the view's arcs and its recomputed cost
    equals the inside cost of its root exactly."""
    cost: dict[int, float] = {}
    node_of: dict[int, object] = {}
    stack = [(tree, False)]
    while stack:
        node, done = stack.pop()
        v = node.vertex
        if v in cost:
            continue
        if node.arc == 0:
            if node.children or v not in view.source_cost:
                fail(f"leaf {view.names[v]} is not a source")
            cost[v] = view.source_cost[v]
            continue
        if not 0 < node.arc < len(view.arcs):
            fail(f"tree uses unknown arc {node.arc}")
        h, tails, dtails, length = view.arcs[node.arc]
        if not done:
            if h != v:
                fail(f"tree arc {node.arc} does not have head {view.names[v]}")
            expected = [t for t, m in tails for _ in range(m)]
            if [c.vertex for c in node.children] != expected:
                fail(f"tree arc {node.arc} has the wrong children")
            if node_of.setdefault(v, node) is not node:
                fail(f"two subtrees for vertex {view.names[v]}")
            stack.append((node, True))
            stack.extend((c, False) for c in node.children)
            continue
        c = length
        for t, m in dtails:
            c += m * cost[t]
        cost[v] = c
    if cost[tree.vertex] != inside[tree.vertex]:
        fail(f"best tree costs {cost[tree.vertex]!r}, inside says {inside[tree.vertex]!r}")
    if not math.isclose(tree.cost, inside[tree.vertex], rel_tol=1e-9, abs_tol=1e-12):
        fail(f"best tree reports cost {tree.cost!r}, inside says {inside[tree.vertex]!r}")


def check_derivation(view: View, tree, deriv) -> None:
    """The derivation names the production of every arc node of the tree,
    with sink leaves dropped (production ``i`` is original arc ``i``)."""
    stack = [(tree, deriv)]
    while stack:
        node, d = stack.pop()
        if d.production != view.orig_arc[node.arc]:
            fail(f"derivation uses production {d.production} for arc {node.arc}")
        kids = [c for c in node.children if c.arc]
        if len(kids) != len(d.children):
            fail(f"derivation node of production {d.production} has the wrong arity")
        stack.extend(zip(kids, d.children))


def check_outside(view: View, ins, outs) -> None:
    """Zero at the target; no reversed edge improves a tail; ``psi`` edges
    attain the bound exactly."""
    inside, outside, psi = ins.inside, outs.outside, outs.psi
    t0 = view.target
    if outside[t0] != 0.0 or psi[t0] != 0:
        fail("outside of the target is not 0")
    for i in range(1, len(view.arcs)):
        arc = view.arcs[i]
        ox = outside[arc[0]]
        total = arc_cost(arc, inside)
        if ox == INF or total == INF:
            for t, _ in arc[2]:
                if psi[t] == i:
                    fail(f"psi of {view.names[t]} uses an arc off every finite tree")
            continue
        c = ox + total
        for t, _ in arc[2]:
            bound = c - inside[t]
            if outside[t] > bound * (1 + 1e-12) + 1e-12:
                fail(f"arc {i} would improve the outside of {view.names[t]}")
            if psi[t] == i and outside[t] != bound:
                fail(f"psi arc {i} of {view.names[t]} gives {bound!r}, not {outside[t]!r}")
    for v in range(view.n):
        if psi[v] == 0 and v != t0 and outside[v] != INF:
            fail(f"vertex {view.names[v]} has a finite outside cost and no psi arc")


def check_prune(view: View, ins, outs, pr, beam: float) -> float:
    """Utilities match the benchmark's own sums, flags follow the cutoff, the
    best tree survives; returns the share of arcs kept."""
    inside, outside = ins.inside, outs.outside
    best = inside[view.target]
    threshold = best + beam
    cutoff = threshold + BEAM_SLACK * max(1.0, abs(threshold)) if threshold != INF else INF
    for i in range(1, len(view.arcs)):
        arc = view.arcs[i]
        ox = outside[arc[0]]
        gamma = ox + arc_cost(arc, inside) if ox != INF else INF
        if gamma != pr.gamma_arcs[i]:
            fail(f"arc {i}: gamma {pr.gamma_arcs[i]!r}, expected {gamma!r}")
        within = gamma != INF and gamma <= cutoff
        if pr.keep_arcs[i] != within:
            fail(f"arc {i}: keep flag {pr.keep_arcs[i]} with gamma {gamma!r}, cutoff {cutoff!r}")
    for v in range(view.n):
        gamma = inside[v] + outside[v]
        within = gamma != INF and gamma <= cutoff
        if pr.keep_vertices[v] != within:
            fail(f"vertex {view.names[v]}: keep flag {pr.keep_vertices[v]} with gamma {gamma!r}")
    vertices, arcs = best_tree_arcs(view, ins.pi, view.target)
    if any(v not in pr.vertex_map for v in vertices) or any(i not in pr.arc_map for i in arcs):
        fail("the best tree did not survive pruning")
    for i, i1 in pr.arc_map.items():
        if not pr.keep_arcs[i]:
            fail(f"arc {i} survives without a keep flag")
    return len(pr.arc_map) / max(1, len(view.arcs) - 1)


def kept_original(view: View, vertex_map: dict[int, int], arc_map: dict[int, int]) -> tuple[set, set]:
    """Kept vertices and arcs of a further restriction, in original ids."""
    inv = {v1: v for v, v1 in view.vmap.items()}
    return {inv[v] for v in vertex_map}, {view.orig_arc[i] for i in arc_map}


def serialize(view: View, vertex_map: dict[int, int], arc_map: dict[int, int], with_query: bool = True) -> str:
    """The text form of the view restricted to ``vertex_map``/``arc_map``."""
    out = []
    kept = sorted(vertex_map)
    for v in kept:
        out.append(f"vertex {view.names[v]}\n")
    names = view.names
    for i in sorted(arc_map):
        h, tails, _, length = view.arcs[i]
        rhs = " ".join(names[t] if m == 1 else f"{names[t]}*{m}" for t, m in tails)
        out.append(f"arc {names[h]} <- {rhs} @ {fmt(length)}\n")
    if with_query:
        for v, c in view.sources:
            if v in vertex_map:
                out.append(f"source {names[v]} {fmt(c)}\n")
        if view.target in vertex_map:
            out.append(f"target {names[view.target]}\n")
    return "".join(out)


def format_tree(tree, names) -> str:
    """S-expression of arc indices, source leaves implicit."""
    if tree.arc == 0:
        return names[tree.vertex]
    out = []
    stack = [(tree, False)]
    while stack:
        node, close = stack.pop()
        if close:
            out.append(")")
            continue
        if out and out[-1] != "(":
            out.append(" ")
        out.append(f"({node.arc}")
        stack.append((node, True))
        stack.extend((c, False) for c in reversed(node.children) if c.arc)
    return "".join(out)
