"""Brute-force reference implementations, for tests only.

These deliberately share nothing with the fast algorithms beyond the graph
and tree value types: reachability is a naive iterate-to-fixpoint scan, and
hyperpath-trees are enumerated by exhaustive expansion under explicit depth,
count, and cost budgets. Intended for small instances only.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from hyperpaths import INF, Hypergraph, HyperpathTree

# expand recurses one frame per depth level; this keeps it, with the test
# runner's own frames, well under the default recursion limit of 1000.
MAX_DEPTH = 400


class EnumerationBudget(NamedTuple):
    """Bounds for tree enumeration, all finite and positive.

    ``max_depth`` limits arc nodes along any root-to-leaf path; ``max_trees``
    limits the number of (sub)trees constructed; ``max_cost`` limits the
    cost of returned trees (exceeding it prunes silently, it is part of the
    requested set, not an abort).
    """

    max_depth: int = 12
    max_trees: int = 100_000
    max_cost: float = 1e18


class Enumeration(NamedTuple):
    """Enumerated trees plus which budget, if any, cut the search short.

    ``complete`` is true iff the result provably contains every
    hyperpath-tree of cost at most ``max_cost``: no depth or count bound was
    hit. ``hit_depth`` alone still means every tree within the depth bound
    was found, which suffices for minimum-cost queries when optimal trees
    are known to be shallow.
    """

    trees: tuple[HyperpathTree, ...]
    hit_depth: bool
    hit_trees: bool

    @property
    def complete(self) -> bool:
        return not (self.hit_depth or self.hit_trees)

    def min_cost(self) -> float:
        return min((t.cost for t in self.trees), default=INF)


class _Abort(Exception):
    pass


class _Enumerator:
    def __init__(self, g: Hypergraph, src: dict[int, float], budget: EnumerationBudget) -> None:
        self.g = g
        self.src = src
        self.budget = budget
        self.produced = 0
        self.hit_depth = False
        self.hit_trees = False
        # (u, depth_left, cap) -> the trees and emit count of a finished call.
        self.done: dict[tuple[int, int, float], tuple[tuple[HyperpathTree, ...], int]] = {}

    def _emit(self, tree: HyperpathTree) -> HyperpathTree:
        self.produced += 1
        if self.produced > self.budget.max_trees:
            self.hit_trees = True
            raise _Abort
        return tree

    def expand(self, u: int, depth_left: int, cap: float) -> list[HyperpathTree]:
        key = (u, depth_left, cap)
        done = self.done.get(key)
        if done is not None:
            # A repeat counts the first call's emits, so the budget aborts as
            # it would; any depth hit of that call already set hit_depth.
            trees, emits = done
            self.produced += emits
            if self.produced > self.budget.max_trees:
                self.hit_trees = True
                raise _Abort
            return list(trees)
        start = self.produced
        g = self.g
        out: list[HyperpathTree] = []
        leaf_cost = self.src.get(u)
        if leaf_cost is not None and leaf_cost <= cap:
            out.append(self._emit(HyperpathTree(0, u, (), leaf_cost)))
        for i in g.backward[u]:
            length = g._lengths[i]
            if length > cap:
                continue
            if depth_left <= 0:
                self.hit_depth = True
                continue
            occurrences = [t for t, m in g._tails[i] for _ in range(m)]
            child_lists: list[list[HyperpathTree]] = []
            feasible = True
            for t in occurrences:
                subtrees = self.expand(t, depth_left - 1, cap - length)
                if not subtrees:
                    feasible = False
                    break
                subtrees.sort(key=lambda tr: tr.cost)
                child_lists.append(subtrees)
            if feasible:
                self._combine(i, u, length, child_lists, cap, out)
        self.done[key] = (tuple(out), self.produced - start)
        return out

    def _combine(
        self,
        arc: int,
        head: int,
        length: float,
        child_lists: list[list[HyperpathTree]],
        cap: float,
        out: list[HyperpathTree],
    ) -> None:
        # The cap cuts no combination short if it cuts none of the costliest
        # one's partial sums. Then all are emitted, and if they overrun the
        # budget, the abort comes before any other event: raise it now.
        partial, count = length, 1
        for trees in child_lists:
            partial += trees[-1].cost
            count *= len(trees)
            if partial > cap:
                break
        else:
            if self.produced + count > self.budget.max_trees:
                self.hit_trees = True
                raise _Abort
        chosen: list[HyperpathTree] = []

        def rec(k: int, cost: float) -> None:
            if k == len(child_lists):
                out.append(self._emit(HyperpathTree(arc, head, tuple(chosen), cost)))
                return
            for tree in child_lists[k]:
                total = cost + tree.cost
                if total > cap:
                    break  # lists are cost-sorted; the rest only get worse
                chosen.append(tree)
                rec(k + 1, total)
                chosen.pop()

        rec(0, length)


def enumerate_trees(
    g: Hypergraph,
    sources: Iterable[tuple[int, float]],
    vertex: int,
    budget: EnumerationBudget = EnumerationBudget(),
) -> Enumeration:
    """All hyperpath-trees from ``sources`` to ``vertex`` within the budget.

    Each tree carries its exact bottom-up additive cost. On acyclic graphs
    with ``max_depth >= n`` the result is complete; on cyclic graphs the
    cost cap bounds the search provided every cycle has positive cost.
    Hitting the tree-count budget aborts with no trees, flagged incomplete.
    Recursion goes one frame per depth level, so ``max_depth`` may be at
    most ``MAX_DEPTH``.
    """
    assert budget.max_depth <= MAX_DEPTH, budget
    sources = list(sources)
    src = {v: float(c) for v, c in sources}
    assert len(src) == len(sources), "duplicate source vertex"
    enumerator = _Enumerator(g, src, budget)
    try:
        trees = enumerator.expand(vertex, budget.max_depth, budget.max_cost)
    except _Abort:
        trees = []
    return Enumeration(tuple(trees), enumerator.hit_depth, enumerator.hit_trees)


def fixpoint_reach(g: Hypergraph, sources: Iterable[int]) -> tuple[bool, ...]:
    """Reachability by repeated full scans until nothing changes. O(n * t)."""
    reached = [False] * g.n
    for v in sources:
        assert 0 <= v < g.n, v
        reached[v] = True
    changed = True
    while changed:
        changed = False
        for i in g.arc_indices:
            h = g._heads[i]
            if not reached[h] and all(reached[t] for t, _ in g._dtails[i]):
                reached[h] = True
                changed = True
    return tuple(reached)
