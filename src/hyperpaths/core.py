"""Hypergraph data model: vertices, weighted hyperarcs, restriction, validation.

Vertices are dense 0-based integer ids with optional display names. Hyperarcs
are indexed 1..m; index 0 is reserved as the "no arc" sentinel used by the
algorithm outputs (predecessor and parent pointers). Costs are 64-bit floats
with ``math.inf`` as the explicit "unreached" value; arc lengths must be
finite and nonnegative, and NaN is rejected everywhere.

A :class:`Hypergraph` stores its arcs in one form only: flat per-arc arrays
of heads, tail pairs, lengths and distinct tails, from which the forward and
backward adjacency is derived. Inputs are checked once, at the boundary:
:func:`build` (through :class:`Hyperarc`) and the text parsers validate, and
everything built from an existing graph, such as :func:`restrict`, is
trusted. :class:`Hyperarc` objects exist only at the edges, as the input of
:func:`build` and as the values that :meth:`Hypergraph.arc` and
:attr:`Hypergraph.arcs` build on demand.

A :class:`Hypergraph` is immutable after construction and safe to share
across threads; all algorithm state lives in per-call arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

INF = math.inf


class ValidationError(ValueError):
    """A hypergraph, arc, or query violates a structural invariant."""


class FormatError(ValidationError):
    """Malformed text input. Carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class GrammarError(ValueError):
    """A grammar violates an invariant or cannot be converted.

    Defined here, with the other error classes, so that the CLI can catch it
    without importing :mod:`.grammar`, which re-exports it."""


class UnreachableTargetError(RuntimeError):
    """The requested vertex cannot be reached, so the operation has no result."""


class InternalInvariantError(RuntimeError):
    """An internal consistency check failed. This is a bug, not bad input."""


def _check_multiplicity(m: object) -> int:
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValidationError(f"tail multiplicity must be a positive integer, got {m!r}")
    return m


def _check_vertex(v: object) -> int:
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ValidationError(f"vertex id must be a nonnegative integer, got {v!r}")
    return v


def _check_names(names: Sequence[str | None]) -> None:
    seen: set[str] = set()
    for name in names:
        if name is None:
            continue
        if name in seen:
            raise ValidationError(f"duplicate vertex name {name!r}")
        seen.add(name)


def _distinct_tails(pairs: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """One ``(vertex, total multiplicity)`` pair per distinct tail vertex, in
    order of first occurrence; ``pairs`` itself when its vertices are distinct."""
    if len(pairs) == 1 or (len(pairs) == 2 and pairs[0][0] != pairs[1][0]):
        return pairs
    total: dict[int, int] = {}
    for v, m in pairs:
        total[v] = total.get(v, 0) + m
    return pairs if len(total) == len(pairs) else tuple(total.items())


def check_sources(sources: Iterable[tuple[int, float]]) -> tuple[tuple[int, float], ...]:
    """Validate a source set: at least one ``(vertex, initial cost)`` pair,
    distinct vertices, finite nonnegative costs. Returns the pairs with the
    costs as floats. Vertex ranges are the caller's to check."""
    out: list[tuple[int, float]] = []
    seen: set[int] = set()
    for v, c in sources:
        _check_vertex(v)
        if v in seen:
            raise ValidationError(f"duplicate source vertex {v}")
        seen.add(v)
        c = float(c)
        if math.isnan(c) or c == INF:
            raise ValidationError(f"source {v}: initial cost must be finite and nonnegative")
        if c < 0:
            raise ValidationError(
                f"negative initial cost {c!r} for source {v}; it must be nonnegative"
            )
        out.append((v, c))
    if not out:
        raise ValidationError("need at least one source vertex")
    return tuple(out)


@dataclass(frozen=True, slots=True)
class Hyperarc:
    """One weighted hyperarc ``head <- tails`` with additive cost ``length``.

    ``tails`` is a nonempty sequence of ``(vertex, multiplicity)`` pairs. Pair
    order is significant: it fixes the child order of hyperpath-trees built
    over this arc. The same vertex may appear in more than one pair; for cost
    purposes multiplicities of a vertex are summed.
    """

    head: int
    tails: tuple[tuple[int, int], ...]
    length: float

    def __post_init__(self) -> None:
        _check_vertex(self.head)
        try:
            pairs = tuple((_check_vertex(v), _check_multiplicity(m)) for v, m in self.tails)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ValidationError):
                raise
            raise ValidationError(f"tails must be (vertex, multiplicity) pairs, got {self.tails!r}")
        if not pairs:
            raise ValidationError("hyperarc must have at least one tail")
        object.__setattr__(self, "tails", pairs)
        length = float(self.length)
        if math.isnan(length):
            raise ValidationError("arc length may not be NaN")
        if length < 0:
            raise ValidationError(f"negative length {length!r}")
        if length == INF:
            raise ValidationError("arc length must be finite")
        object.__setattr__(self, "length", length)

    def occurrences(self) -> tuple[int, ...]:
        """Tail vertices expanded by multiplicity, in pair order."""
        out: list[int] = []
        for v, m in self.tails:
            out.extend([v] * m)
        return tuple(out)

    def distinct_tails(self) -> tuple[tuple[int, int], ...]:
        """One ``(vertex, total multiplicity)`` pair per distinct tail vertex.

        Order follows the first occurrence of each vertex in ``tails``.
        """
        return _distinct_tails(self.tails)


@dataclass(frozen=True, slots=True)
class Query:
    """A source set with initial costs, plus a single target vertex."""

    sources: tuple[tuple[int, float], ...]
    target: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", check_sources(self.sources))
        _check_vertex(self.target)

    def source_vertices(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.sources)


class Hypergraph:
    """Immutable directed multi-hypergraph with both adjacency directions.

    Arc ``i`` (1..m) is stored as ``_heads[i]``, ``_tails[i]`` (its
    ``(vertex, multiplicity)`` pairs in input order), ``_lengths[i]`` and
    ``_dtails[i]`` (one pair per distinct tail vertex, multiplicities
    summed); slot 0 of each array is unused. ``forward[v]`` lists the
    indices of arcs in which ``v`` occurs as a tail (each arc at most once),
    ``backward[v]`` the arcs whose head is ``v``.

    Display names (:meth:`name_of`) are ``names`` itself when every vertex is
    named. The name-to-id map behind :meth:`id_of` is built on its first
    call, since most graphs never look a name up; filling it is idempotent,
    so a graph stays safe to share across threads.

    The constructor trusts its arguments: every head and tail must be a
    vertex id below ``len(names)``, every length finite and nonnegative, and
    named vertices distinct. Construct from unchecked data through
    :func:`build`. ``dtails``, when given, is taken as the distinct tails of
    every arc instead of deriving them; each entry must equal what
    ``_distinct_tails`` derives from the arc's tails, and be the tails
    tuple itself when those hold no repeated vertex (:meth:`validate`
    re-derives and compares them).
    """

    __slots__ = (
        "n",
        "names",
        "forward",
        "backward",
        "input_size",
        "_display",
        "_name_to_id",
        "_heads",
        "_tails",
        "_lengths",
        "_dtails",
    )

    def __init__(
        self,
        names: tuple[str | None, ...],
        heads: list[int],
        tails: list[tuple[tuple[int, int], ...]],
        lengths: list[float],
        dtails: list[tuple[tuple[int, int], ...]] | None = None,
    ) -> None:
        n = len(names)
        display = names
        if None in names:
            taken = set(names)
            display = list(names)
            for v, name in enumerate(names):
                if name is None:
                    candidate = f"v{v}"
                    while candidate in taken:
                        candidate = "_" + candidate
                    taken.add(candidate)
                    display[v] = candidate
            display = tuple(display)

        if dtails is None:
            # ``_distinct_tails`` with its shortcut for one pair and for two
            # pairs on different vertices taken inline.
            dtails = [
                p if len(p) == 1 or (len(p) == 2 and p[0][0] != p[1][0]) else _distinct_tails(p)
                for p in tails
            ]
        forward: list[list[int]] = [[] for _ in range(n)]
        backward: list[list[int]] = [[] for _ in range(n)]
        for i, head, pairs in zip(range(1, len(heads)), heads[1:], dtails[1:]):
            backward[head].append(i)
            for v, _ in pairs:
                forward[v].append(i)

        self.n = n
        self.names = names
        self.forward = tuple(map(tuple, forward))
        self.backward = tuple(map(tuple, backward))
        self.input_size = n + len(heads) - 1 + sum(map(len, tails))
        self._display = display
        self._name_to_id: dict[str, int] | None = None
        self._heads = heads
        self._tails = tails
        self._lengths = lengths
        self._dtails = dtails

    # -- basic accessors ---------------------------------------------------

    @property
    def num_arcs(self) -> int:
        return len(self._heads) - 1

    @property
    def arc_indices(self) -> range:
        return range(1, len(self._heads))

    @property
    def arcs(self) -> tuple[Hyperarc, ...]:
        """All arcs in index order, as :class:`Hyperarc` objects built on demand."""
        return tuple(self.arc(i) for i in self.arc_indices)

    def arc(self, i: int) -> Hyperarc:
        """The hyperarc at 1-based index ``i``, built on demand."""
        if not 1 <= i <= self.num_arcs:
            raise ValidationError(f"arc index {i} out of range 1..{self.num_arcs}")
        return Hyperarc(self._heads[i], self._tails[i], self._lengths[i])

    def name_of(self, v: int) -> str:
        """Display name of vertex ``v`` (synthesized ``v<i>`` if unnamed)."""
        return self._display[v]

    def id_of(self, name: str) -> int:
        """Id of the vertex whose display name is ``name``."""
        if self._name_to_id is None:
            self._name_to_id = dict(zip(self._display, range(self.n)))
        try:
            return self._name_to_id[name]
        except KeyError:
            raise ValidationError(f"unknown vertex name {name!r}") from None

    def arc_total_cost(self, i: int, costs: Sequence[float]) -> float:
        """Arc length plus the multiplicity-weighted costs of its tails.

        Returns ``inf`` as soon as any tail cost is infinite. This is the
        reference summation: the inside firing step, the outside relaxation
        and :func:`~hyperpaths.outside.utilities` inline the same sum, length
        first and then ``mult * cost`` per distinct tail in stored order, so
        their values agree with it bitwise.
        """
        c = self._lengths[i]
        for t, m in self._dtails[i]:
            ct = costs[t]
            if ct == INF:
                return INF
            c += m * ct
        return c

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Re-derive distinct tails and adjacency from the arc arrays and compare.

        Raises :class:`InternalInvariantError` if the derived data disagree
        with the arrays, :class:`ValidationError` for bad arc data.
        """
        fwd: list[list[int]] = [[] for _ in range(self.n)]
        bwd: list[list[int]] = [[] for _ in range(self.n)]
        for i in self.arc_indices:
            head = self._heads[i]
            if not 0 <= head < self.n:
                raise ValidationError(f"arc {i}: head vertex {head} out of range")
            bwd[head].append(i)
            dtails = _distinct_tails(self._tails[i])
            if dtails != self._dtails[i]:
                raise InternalInvariantError(f"arc {i}: distinct tails disagree with its tails")
            for v, _ in dtails:
                if not 0 <= v < self.n:
                    raise ValidationError(f"arc {i}: tail vertex {v} out of range")
                fwd[v].append(i)
        if tuple(tuple(a) for a in fwd) != self.forward:
            raise InternalInvariantError("forward adjacency disagrees with arcs")
        if tuple(tuple(a) for a in bwd) != self.backward:
            raise InternalInvariantError("backward adjacency disagrees with arcs")
        _check_names(self.names)

    def check_query(self, query: Query) -> None:
        for v, _ in query.sources:
            if v >= self.n:
                raise ValidationError(f"source vertex {v} out of range (n={self.n})")
        if query.target >= self.n:
            raise ValidationError(f"target vertex {query.target} out of range (n={self.n})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self.names == other.names
            and self._heads == other._heads
            and self._tails == other._tails
            and self._lengths == other._lengths
        )

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, m={self.num_arcs})"


def build(vertices: int | Sequence[str | None], arcs: Iterable[Hyperarc]) -> Hypergraph:
    """Build and validate a hypergraph.

    ``vertices`` is either a vertex count (all unnamed) or a sequence of
    optional names; ids are assigned by position. Arc order is preserved and
    arcs keep their stable 1-based indices. This is the validating entry
    point: each :class:`Hyperarc` has checked its own fields, and ``build``
    checks that names are distinct and every endpoint is in range before
    unpacking the arcs into the graph's arrays.
    """
    if isinstance(vertices, int):
        if vertices < 0:
            raise ValidationError("vertex count must be nonnegative")
        names: tuple[str | None, ...] = (None,) * vertices
    else:
        names = tuple(vertices)
        _check_names(names)
    n = len(names)
    heads, tails, lengths = [0], [()], [0.0]
    for i, arc in enumerate(arcs, start=1):
        if not isinstance(arc, Hyperarc):
            raise ValidationError(f"arc {i}: expected a Hyperarc, got {type(arc).__name__}")
        if arc.head >= n:
            raise ValidationError(f"arc {i}: head vertex {arc.head} out of range (n={n})")
        for v, _ in arc.tails:
            if v >= n:
                raise ValidationError(f"arc {i}: tail vertex {v} out of range (n={n})")
        heads.append(arc.head)
        tails.append(arc.tails)
        lengths.append(arc.length)
    return Hypergraph(names, heads, tails, lengths)


@dataclass(frozen=True, slots=True)
class RestrictResult:
    """A restricted hypergraph plus old-to-new index maps.

    ``vertex_map`` and ``arc_map`` contain entries only for surviving
    vertices/arcs; both renumberings preserve relative order.
    """

    graph: Hypergraph
    vertex_map: dict[int, int]
    arc_map: dict[int, int]


def restrict(
    g: Hypergraph,
    keep: Iterable[int],
    *,
    keep_arcs: Iterable[int] | None = None,
) -> RestrictResult:
    """Restrict ``g`` to a vertex subset.

    The result keeps exactly the arcs whose head and all tail vertices lie in
    ``keep``. When ``keep_arcs`` is given, arcs are additionally filtered to
    that index set (used by beam pruning). One pass over the arc arrays
    copies and renumbers the surviving entries; nothing is validated again,
    since ``g`` already holds checked data. When ``keep`` holds every vertex
    and no ``keep_arcs`` is given, nothing is dropped and the result's graph
    is ``g`` itself, with identity maps; a graph is immutable, so sharing it
    is safe. With ``keep_arcs`` the pass visits only those ids (ids outside
    1..m and repeats are ignored), which is what makes a tight beam's prune
    cheap.
    """
    kept = set(keep)
    for v in kept:
        if not 0 <= v < g.n:
            raise ValidationError(f"vertex {v} out of range (n={g.n})")
    if keep_arcs is None and len(kept) == g.n:
        return RestrictResult(g, {v: v for v in range(g.n)}, {i: i for i in g.arc_indices})
    order = sorted(kept)
    vertex_map = dict(zip(order, range(len(order))))
    new_id = [-1] * g.n
    for v, k in vertex_map.items():
        new_id[v] = k
    if keep_arcs is None:
        ids: Iterable[int] = g.arc_indices
    else:
        last = g.num_arcs
        ids = sorted({i for i in keep_arcs if 0 < i <= last})

    g_heads, g_tails, g_lengths, g_dtails = g._heads, g._tails, g._lengths, g._dtails
    arc_map: dict[int, int] = {}
    heads, tails, lengths, dtails = [0], [()], [0.0], [()]
    for i in ids:
        head = new_id[g_heads[i]]
        if head < 0:
            continue
        old_d = g_dtails[i]
        for v, _ in old_d:
            if new_id[v] < 0:
                break
        else:
            old_t = g_tails[i]
            pairs = tuple([(new_id[v], m) for v, m in old_t])
            arc_map[i] = len(heads)
            heads.append(head)
            tails.append(pairs)
            lengths.append(g_lengths[i])
            # Renumbering is injective and keeps order, so it maps distinct
            # tails to the distinct tails of the renumbered pairs.
            dtails.append(pairs if old_d is old_t else tuple([(new_id[v], m) for v, m in old_d]))
    names = tuple(g.names[v] for v in order)
    return RestrictResult(Hypergraph(names, heads, tails, lengths, dtails), vertex_map, arc_map)
