"""Hypergraph data model: vertices, weighted hyperarcs, restriction, validation.

Vertices are dense 0-based integer ids, each with a name. Hyperarcs are
indexed 1..m; index 0 is reserved as the "no arc" sentinel used by the
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
from operator import attrgetter
from typing import Any, Callable, Iterable, Sequence

INF = math.inf

# Absorbs float jitter between the inside, outside, and utility summations so
# that beam boundaries never drop elements of the best tree itself.
_BEAM_RELATIVE_SLACK = 1e-12


def _beam_bounds(threshold: float) -> tuple[float, float]:
    """Pruning's bounds for ``threshold``, the best cost plus the beam: the
    cutoff, the largest utility a kept element has, and the limit, the
    largest utility rounding can give an endpoint of a kept arc (at most the
    largest float, so an infinite one is above it)."""
    scale = max(1.0, abs(threshold))
    cutoff = threshold + _BEAM_RELATIVE_SLACK * scale
    return cutoff, min(cutoff + 1e-9 * scale, math.nextafter(INF, 0.0))


def _check_beam(beam: float) -> float:
    """``beam`` as a float, which must be nonnegative (``inf`` is fine)."""
    beam = float(beam)
    if not beam >= 0:
        raise ValidationError(f"beam must be nonnegative, got {beam!r}")
    return beam


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


class _Record:
    """Base of the frozen value classes, whose fields are their ``__slots__``.

    It gives a positional or keyword constructor, fields that cannot be set
    again, ``==`` and ``hash`` over the fields of instances of one class, the
    ``repr`` ``Name(field=value, ...)``, and pickling through the constructor.
    """

    __slots__ = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__slots__
        values = args + tuple([kwargs.pop(name) for name in names[len(args):] if name in kwargs])
        if kwargs or len(values) != len(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class _Tree(_Record):
    """Base of the tree node classes: records with a ``children`` field, a
    tuple of nodes of the same class. ``==`` and ``repr`` give what
    :class:`_Record`'s would, and ``hash`` agrees with ``==``, but all three
    walk the nodes with a stack, so they work at any depth. ``==``, ``hash``
    and pickling visit a node shared by several parents once, so their cost
    grows with the distinct nodes, not with the unfolded tree."""

    __slots__ = ()

    def _fold(self, visit: Callable[[_Tree, dict[int, Any]], Any]) -> Any:
        """``visit(node, done)`` once per distinct node (by identity),
        children first, where ``done`` maps the ``id`` of every node visited
        so far to what its visit returned. Returns the root's result."""
        done: dict[int, Any] = {}
        stack: list[_Tree | None] = [self]
        pop = stack.pop
        while stack:
            node = pop()
            if node is None:  # every child of the next node is done
                node = pop()
                done[id(node)] = visit(node, done)
            elif id(node) not in done:
                stack += (node, None)
                stack += node.children
        return done[id(self)]

    def _fields(self) -> attrgetter:
        """Reads a node's fields other than ``children``, as one value."""
        return attrgetter(*[name for name in self.__slots__ if name != "children"])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields()
        compared: set[tuple[int, int]] = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            pair = (id(a), id(b))
            if pair in compared:
                continue
            compared.add(pair)
            if len(a.children) != len(b.children) or fields(a) != fields(b):
                return False
            stack += zip(a.children, b.children)
        return True

    def __hash__(self) -> int:
        fields = self._fields()
        return self._fold(
            lambda node, done: hash((fields(node), *[done[id(c)] for c in node.children]))
        )

    def __reduce__(self) -> tuple:
        """Pickle as a flat table with one row per distinct node, children
        first: its field values, with ``children`` as row numbers."""
        table: list[tuple] = []

        def row(node: _Tree, done: dict[int, int]) -> int:
            kids = tuple([done[id(c)] for c in node.children])
            table.append(tuple([kids if name == "children" else getattr(node, name)
                                for name in node.__slots__]))
            return len(table) - 1

        self._fold(row)
        return _rebuild_tree, (self.__class__, table)

    def __repr__(self) -> str:
        cls = self.__class__
        out: list[str] = []
        stack: list[object] = [self]
        while stack:
            item = stack.pop()
            if item.__class__ is not cls:
                out.append(item)  # text
                continue
            parts: list[object] = []
            for name in self.__slots__:
                if name != "children":
                    parts.append(f", {name}={getattr(item, name)!r}")
                    continue
                parts.append(", children=(")
                for k, child in enumerate(item.children):
                    parts += [", " if k else "", child if child.__class__ is cls else repr(child)]
                parts.append(",)" if len(item.children) == 1 else ")")
            parts[0] = f"{cls.__qualname__}({parts[0][2:]}"
            parts.append(")")
            stack.extend(reversed(parts))
        return "".join(out)


def _rebuild_tree(cls: type, table: list[tuple]) -> _Tree:
    """The tree that :meth:`_Tree.__reduce__` flattened into ``table``."""
    k = cls.__slots__.index("children")
    nodes: list[_Tree] = []
    for row in table:
        values = list(row)
        values[k] = tuple([nodes[j] for j in row[k]])
        nodes.append(cls(*values))
    return nodes[-1]


def _check_multiplicity(m: object) -> int:
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValidationError(f"tail multiplicity must be a positive integer, got {m!r}")
    return m


def _check_vertex(v: object) -> int:
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ValidationError(f"vertex id must be a nonnegative integer, got {v!r}")
    return v


def _check_names(names: Sequence[str]) -> None:
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise ValidationError(f"duplicate vertex name {name!r}")
        seen.add(name)


def _distinct_tails(pairs: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """One ``(vertex, total multiplicity)`` pair per distinct tail vertex, in
    order of first occurrence; ``pairs`` itself when its vertices are distinct."""
    total: dict[int, int] = {}
    for v, m in pairs:
        total[v] = total.get(v, 0) + m
    return pairs if len(total) == len(pairs) else tuple(total.items())


def check_sources(sources: Iterable[tuple[int, float]]) -> tuple[tuple[int, float], ...]:
    """Validate a source set: at least one ``(vertex, initial cost)`` pair,
    distinct vertices, finite nonnegative costs. Returns the pairs with the
    costs as floats. Vertex ranges are the caller's to check."""
    out: dict[int, float] = {}
    for v, c in sources:
        if v.__class__ is not int or v < 0:
            _check_vertex(v)
        if v in out:
            raise ValidationError(f"duplicate source vertex {v}")
        c = float(c)
        if not 0 <= c < INF:
            if math.isnan(c) or c == INF:
                raise ValidationError(f"source {v}: initial cost must be finite and nonnegative")
            raise ValidationError(
                f"negative initial cost {c!r} for source {v}; it must be nonnegative"
            )
        out[v] = c
    if not out:
        raise ValidationError("need at least one source vertex")
    return tuple(out.items())


class Hyperarc(_Record):
    """One weighted hyperarc ``head <- tails`` with additive cost ``length``.

    ``tails`` is a nonempty sequence of ``(vertex, multiplicity)`` pairs. Pair
    order is significant: it fixes the child order of hyperpath-trees built
    over this arc. The same vertex may appear in more than one pair; for cost
    purposes multiplicities of a vertex are summed.
    """

    __slots__ = ("head", "tails", "length")

    def __init__(self, head: int, tails: tuple[tuple[int, int], ...], length: float) -> None:
        object.__setattr__(self, "head", _check_vertex(head))
        try:
            pairs = tuple((_check_vertex(v), _check_multiplicity(m)) for v, m in tails)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ValidationError):
                raise
            raise ValidationError(f"tails must be (vertex, multiplicity) pairs, got {tails!r}")
        if not pairs:
            raise ValidationError("hyperarc must have at least one tail")
        object.__setattr__(self, "tails", pairs)
        length = float(length)
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


class Query(_Record):
    """A source set with initial costs, plus a single target vertex."""

    __slots__ = ("sources", "target")

    def __init__(self, sources: tuple[tuple[int, float], ...], target: int) -> None:
        object.__setattr__(self, "sources", check_sources(sources))
        object.__setattr__(self, "target", _check_vertex(target))

    def source_vertices(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.sources)


class Hypergraph:
    """Immutable directed multi-hypergraph with both adjacency directions.

    Arc ``i`` (1..m) is stored as ``_heads[i]``, ``_tails[i]`` (its
    ``(vertex, multiplicity)`` pairs in input order), ``_lengths[i]`` and
    ``_dtails[i]`` (one pair per distinct tail vertex, multiplicities
    summed), and ``_arity[i]`` the number of those pairs; slot 0 of each
    array is unused. ``forward[v]`` holds the indices of arcs in which ``v``
    occurs as a tail (each arc at most once), ``backward[v]`` the arcs whose
    head is ``v``; both are tuples of tuples, shared with every reader.

    ``names`` holds one string per vertex, and is what :meth:`name_of`
    returns; :func:`build` names unnamed vertices, and :func:`restrict`
    keeps each kept vertex's name. The name-to-id map behind :meth:`id_of`
    is built on its first call, since most graphs never look a name up;
    filling it is idempotent, so a graph stays safe to share across threads.

    The constructor trusts its arguments: every head and tail must be a
    vertex id below ``len(names)``, every length finite and nonnegative, and
    the names distinct strings. Construct from unchecked data through
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
        "_name_to_id",
        "_heads",
        "_tails",
        "_lengths",
        "_dtails",
        "_arity",
    )

    def __init__(
        self,
        names: tuple[str, ...],
        heads: list[int],
        tails: list[tuple[tuple[int, int], ...]],
        lengths: list[float],
        dtails: list[tuple[tuple[int, int], ...]] | None = None,
    ) -> None:
        n = len(names)
        if dtails is None:
            # One pair, or two on different vertices, are distinct already.
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
        self._name_to_id: dict[str, int] | None = None
        self._heads = heads
        self._tails = tails
        self._lengths = lengths
        self._dtails = dtails
        self._arity = list(map(len, dtails))

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
        """Name of vertex ``v``."""
        return self.names[v]

    def id_of(self, name: str) -> int:
        """Id of the vertex named ``name``."""
        if self._name_to_id is None:
            self._name_to_id = dict(zip(self.names, range(self.n)))
        try:
            return self._name_to_id[name]
        except KeyError:
            raise ValidationError(f"unknown vertex name {name!r}") from None

    def arc_total_cost(self, i: int, costs: Sequence[float]) -> float:
        """Arc length plus the multiplicity-weighted costs of its tails.

        Returns ``inf`` as soon as any tail cost is infinite. This is the
        reference summation: the inside firing step and the outside
        relaxation, which also gives each arc's utility, inline the same sum,
        length first and then ``mult * cost`` per distinct tail in stored
        order, so their values agree with it bitwise.
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
        if tuple(map(tuple, fwd)) != self.forward:
            raise InternalInvariantError("forward adjacency disagrees with arcs")
        if tuple(map(tuple, bwd)) != self.backward:
            raise InternalInvariantError("backward adjacency disagrees with arcs")
        _check_names(self.names)

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
    optional names; ids are assigned by position. An unnamed vertex ``i`` is
    named ``v<i>``, prefixed with ``_`` until the name is unused, and keeps
    that name in every graph :func:`restrict` makes from this one. Arc order
    is preserved and arcs keep their stable 1-based indices. This is the
    validating entry point: each :class:`Hyperarc` has checked its own
    fields, and ``build`` checks that names are distinct and every endpoint
    is in range before unpacking the arcs into the graph's arrays.
    """
    if isinstance(vertices, int):
        if vertices < 0:
            raise ValidationError("vertex count must be nonnegative")
        vertices = (None,) * vertices
    names = list(vertices)
    taken = set(names)
    for v, name in enumerate(names):
        if name is None:
            name = f"v{v}"
            while name in taken:
                name = "_" + name
            taken.add(name)
            names[v] = name
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
    return Hypergraph(tuple(names), heads, tails, lengths)


class RestrictResult(_Record):
    """A restricted hypergraph plus old-to-new index maps.

    ``vertex_map`` and ``arc_map`` contain entries only for surviving
    vertices/arcs; both renumberings preserve relative order.
    """

    __slots__ = ("graph", "vertex_map", "arc_map")
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
        if v.__class__ is not int:
            _check_vertex(v)
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
