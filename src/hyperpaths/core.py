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

Each input rule has one home here: ``_check_vertex`` for vertex ids,
``_check_number`` for costs, lengths and beams, and ``_NAME_RE`` for the
names the text formats can write (vertex names, and grammar symbols other
than ``->``). :func:`format_float` is how both formats write a number.

A :class:`Hypergraph` is immutable and safe to share across threads, also
a copy that fills its arrays on their first read (see :class:`Hypergraph`);
all algorithm state lives in per-call arrays.
"""

from __future__ import annotations

import math
import re
from _thread import RLock
from itertools import chain, compress, filterfalse
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
    A constructor sets the fields through ``_setters``, the ``__set__`` of
    each slot descriptor in ``__slots__`` order, since ``__setattr__``
    refuses them; a class whose constructor runs once per element binds
    them to module names.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._setters = tuple([getattr(cls, name).__set__ for name in cls.__slots__])

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__slots__
        values = args + tuple([kwargs.pop(name) for name in names[len(args):] if name in kwargs])
        if kwargs or len(values) != len(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

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


def _check_number(x: object, what: str, finite: bool = True) -> float:
    """``x`` as a float in ``0 <= x < inf``, or ``<= inf`` if not ``finite`` (a beam);
    ``what``, such as ``"arc length"``, names it in the error. Loops over many
    numbers test ``x.__class__ is float and 0 <= x < INF`` inline and call it if that fails."""
    try:
        y = float(x)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{what} must be a number, got {x!r}") from None
    if not (0 <= y < INF or y == INF and not finite):
        domain = "finite and nonnegative" if finite else "nonnegative"
        raise ValidationError(f"{what} must be {domain}, got {y!r}")
    return y


def _check_vertex(v: object, n: float = INF, what: str = "") -> int:
    """``v`` if it is a vertex id below ``n``, a non-bool ``int``; ``what``, such as
    ``"source "``, names its role in the range error. Loops over many ids
    test ``v.__class__ is int and 0 <= v < n`` inline and call it only when that fails."""
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ValidationError(f"vertex id must be a nonnegative integer, got {v!r}")
    if v >= n:
        raise ValidationError(f"{what}vertex {v} out of range (n={n})")
    return v


# A name the text formats can write, applied with fullmatch; '<-' alone
# would read as an arrow.
_NAME_RE = re.compile(r"(?!<-\Z)[^\s#*@(),:]+")


def format_float(x: float) -> str:
    """Format with 17 significant digits (full double round-trip fidelity)."""
    return "%.17g" % x


def _distinct_tails(pairs: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """One ``(vertex, total multiplicity)`` pair per distinct tail vertex, in
    order of first occurrence; ``pairs`` itself when its vertices are distinct."""
    total: dict[int, int] = {}
    for v, m in pairs:
        total[v] = total.get(v, 0) + m
    return pairs if len(total) == len(pairs) else tuple(total.items())


# What a copy made by _subgraph fills on the first read of any of them,
# under the lock, which is reentrant since a fill may read its parent's.
_FILLED_ON_READ = frozenset(
    ("forward", "backward", "input_size", "_tails", "_lengths", "_dtails", "_arity")
)
_fill_lock = RLock()


def check_sources(
    sources: Iterable[tuple[int, float]], n: float = INF
) -> tuple[tuple[int, float], ...]:
    """Validate a source set: at least one ``(vertex, initial cost)`` pair,
    distinct vertex ids below ``n``, costs that ``float`` takes to finite
    nonnegative values. Returns the pairs with the costs as floats."""
    out: dict[int, float] = {}
    for pair in sources:
        try:
            v, c = pair
        except (TypeError, ValueError):
            raise ValidationError(f"source must be a (vertex, cost) pair, got {pair!r}") from None
        if v.__class__ is not int or not 0 <= v < n:
            _check_vertex(v, n, "source ")
        if v in out:
            raise ValidationError(f"duplicate source vertex {v}")
        if c.__class__ is not float or not 0 <= c < INF:
            c = _check_number(c, f"source {v}: initial cost")
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
        _set_head(self, _check_vertex(head))
        try:
            pairs = tuple((_check_vertex(v), _check_multiplicity(m)) for v, m in tails)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ValidationError):
                raise
            raise ValidationError(f"tails must be (vertex, multiplicity) pairs, got {tails!r}")
        if not pairs:
            raise ValidationError("hyperarc must have at least one tail")
        _set_tails(self, pairs)
        if length.__class__ is not float or not 0 <= length < INF:
            length = _check_number(length, "arc length")
        _set_length(self, length)


_set_head, _set_tails, _set_length = Hyperarc._setters


class Query(_Record):
    """A source set with initial costs, plus a single target vertex."""

    __slots__ = ("sources", "target")

    def __init__(self, sources: tuple[tuple[int, float], ...], target: int) -> None:
        super().__init__(check_sources(sources), _check_vertex(target))


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
    returns; :func:`build` names unnamed vertices, and a sub-hypergraph
    keeps each kept vertex's name. The name-to-id map behind :meth:`id_of`
    is built on its first call, since most graphs never look a name up;
    filling it is idempotent, so a graph stays safe to share across threads.

    A copy that ``_subgraph`` makes, behind :func:`restrict`,
    :func:`~hyperpaths.reachability.reduce` and
    :func:`~hyperpaths.outside.prune_relatively_useless`, holds only ``n``,
    ``names``, ``_heads`` and, in ``_copy_of``, its parent graph, its
    ``vertex_map`` and its arcs, so it keeps its parent alive. The first
    read of ``_tails``, ``_lengths``, ``_dtails``, ``_arity``, ``forward``,
    ``backward`` or ``input_size`` copies the kept arcs, runs the
    constructor once and drops the parent; ``_stored_in`` gives an
    unfilled copy's parent, from whose arrays the writers read. Immutable
    and safe to share across threads means that no read sees a field
    change: a thread that reads during another's fill waits on a lock and
    sees the same arrays.

    The constructor trusts its arguments: every head and tail must be a
    vertex id below ``len(names)``, every length finite and nonnegative, and
    the names distinct strings. Construct from unchecked data through
    :func:`build`. ``dtails``, when given, is taken as the distinct tails of
    every arc instead of deriving them; each entry must equal what
    ``_distinct_tails`` derives from the arc's tails, and be the tails
    tuple itself when those hold no repeated vertex; ``_subgraph`` and
    :func:`~hyperpaths.textio.parse_hypergraph` give it.

    Equal tail pairs may be one object, shared by the arcs that hold them:
    the text parser and :func:`~hyperpaths.grammar.to_hypergraph` give each
    vertex one ``(v, 1)`` pair for its plain tails, and ``_subgraph`` one
    pair per distinct ``(vertex, multiplicity)`` pair it renumbers. No
    reader depends on which pairs are shared; :func:`build` shares none.
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
        "_copy_of",  # last, so pickling reads (and fills) the arrays first
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
        self._copy_of: tuple[Hypergraph, dict[int, int], list[int]] | None = None

    def __getattr__(self, name: str) -> Any:
        """A deferred field of a copy, which this first read fills; any
        other missing attribute raises :class:`AttributeError`."""
        if name not in _FILLED_ON_READ:
            raise AttributeError(f"'Hypergraph' object has no attribute {name!r}")
        with _fill_lock:
            if self._copy_of is not None:
                _fill_copy(self, *self._copy_of)
        return object.__getattribute__(self, name)

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
        if not isinstance(i, int) or isinstance(i, bool):
            raise ValidationError(f"arc index must be an integer, got {i!r}")
        if not 1 <= i <= self.num_arcs:
            raise ValidationError(f"arc index {i} out of range 1..{self.num_arcs}")
        return Hyperarc(self._heads[i], self._tails[i], self._lengths[i])

    def name_of(self, v: int) -> str:
        """Name of vertex ``v``."""
        return self.names[_check_vertex(v, self.n)]

    def id_of(self, name: str) -> int:
        """Id of the vertex named ``name``."""
        table = self._name_to_id
        if table is None:
            table = self._name_to_id = dict(zip(self.names, range(self.n)))
        try:
            return table[name]
        except KeyError:
            raise ValidationError(f"unknown vertex name {name!r}") from None

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

    ``vertices`` is a vertex count, a non-``bool`` ``int``, or a sequence
    other than a ``str`` of names and ``None``s; ids are assigned by
    position. An unnamed vertex ``i`` is named ``v<i>``, prefixed with ``_``
    until the name is unused, and keeps that name in every graph
    :func:`restrict` makes from this one. Arc order is preserved and arcs
    keep their stable 1-based indices. This is the validating entry point:
    each :class:`Hyperarc` has checked its own fields, and ``build`` checks
    the vertices, that names are distinct and that every endpoint is in
    range before unpacking the arcs into the graph's arrays.
    """
    if isinstance(vertices, int) and not isinstance(vertices, bool):
        if vertices < 0:
            raise ValidationError("vertex count must be nonnegative")
        vertices = (None,) * vertices
    elif isinstance(vertices, str) or not isinstance(vertices, Sequence):
        raise ValidationError(f"vertices must be a count or a sequence of names, got {vertices!r}")
    names = list(vertices)
    for name in names:
        if name is not None and not isinstance(name, str):
            raise ValidationError(f"vertex name must be a string or None, got {name!r}")
    taken: set[str | None] = set()
    for name in names:
        if name in taken and name is not None:
            raise ValidationError(f"duplicate vertex name {name!r}")
        taken.add(name)
    for v, name in enumerate(names):
        if name is None:
            name = f"v{v}"
            while name in taken:
                name = "_" + name
            taken.add(name)
            names[v] = name
    n = len(names)
    heads, tails, lengths = [0], [()], [0.0]
    for i, arc in enumerate(arcs, start=1):
        if not isinstance(arc, Hyperarc):
            raise ValidationError(f"arc {i}: expected a Hyperarc, got {type(arc).__name__}")
        if arc.head >= n:
            _check_vertex(arc.head, n, f"arc {i}: head ")
        for v, _ in arc.tails:
            if v >= n:
                _check_vertex(v, n, f"arc {i}: tail ")
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


def restrict(g: Hypergraph, keep: Iterable[int]) -> RestrictResult:
    """Restrict ``g`` to a vertex subset.

    The result keeps exactly the arcs whose head and all tail vertices lie in
    ``keep``, copied and renumbered in order; nothing is validated again,
    since ``g`` already holds checked data. When ``keep`` holds every vertex,
    the result's graph is ``g`` itself, with identity maps; a graph is
    immutable, so sharing it is safe.
    """
    n = g.n
    flags = [False] * n
    for v in keep:  # each id is checked before it is flagged, in the caller's order
        flags[v if v.__class__ is int and 0 <= v < n else _check_vertex(v, n)] = True
    arcs = g.arc_indices if all(flags) else _closed_arcs(g, flags, g.arc_indices)
    return RestrictResult(*_subgraph(g, flags, arcs))


def _closed_arcs(g: Hypergraph, keep_flags: Sequence[bool], ids: Sequence[int]) -> list[int]:
    """The arcs of ``ids`` whose head and every distinct tail are flagged in
    ``keep_flags``, in the order of ``ids``: the arcs a sub-hypergraph on the
    flagged vertices can keep."""
    if keep_flags.count(False) < len(ids):
        # Fewer vertices to drop than arcs to test: drop every arc that
        # touches one of them, as its head or as a tail.
        dropped = list(filterfalse(keep_flags.__getitem__, range(g.n)))
        drop = set(chain.from_iterable(map(g.forward.__getitem__, dropped)))
        drop.update(chain.from_iterable(map(g.backward.__getitem__, dropped)))
        return list(filterfalse(drop.__contains__, ids))
    heads, dtails = g._heads, g._dtails
    closed: list[int] = []
    for i in ids:
        if keep_flags[heads[i]]:
            for v, _ in dtails[i]:
                if not keep_flags[v]:
                    break
            else:
                closed.append(i)
    return closed


def _subgraph(g: Hypergraph, keep_flags: Sequence[bool], arcs: Sequence[int]) -> tuple:
    """``g``'s vertices flagged in ``keep_flags`` and its ``arcs`` (increasing,
    with every endpoint flagged; see :func:`_closed_arcs`) as a new graph
    renumbered in order: ``(graph, vertex_map, arc_map)``. The graph holds
    ``n``, ``names``, ``_heads`` and ``_copy_of``, which shares that
    ``vertex_map``; :func:`_fill_copy` fills the rest on the first read of
    another array. When nothing is dropped, the graph is ``g`` itself."""
    if len(arcs) == g.num_arcs and all(keep_flags):
        return g, {v: v for v in range(g.n)}, {i: i for i in g.arc_indices}
    vertices = list(compress(range(g.n), keep_flags))
    vertex_map = dict(zip(vertices, range(len(vertices))))
    copy = Hypergraph.__new__(Hypergraph)
    copy.n = len(vertices)
    copy.names = tuple(map(g.names.__getitem__, vertices))
    copy._heads = [0, *map(vertex_map.__getitem__, map(g._heads.__getitem__, arcs))]
    copy._name_to_id = None
    copy._copy_of = (g, vertex_map, arcs)
    return copy, vertex_map, dict(zip(arcs, range(1, len(arcs) + 1)))


def _fill_copy(copy: Hypergraph, g: Hypergraph, vertex_map: dict[int, int], arcs: list) -> None:
    """Fill ``copy``, which ``_subgraph`` made of ``g``'s ``arcs``, through
    the constructor."""
    # Old (vertex, multiplicity) pair -> its renumbered pair, made on first
    # sight and shared by every arc that holds an equal pair.
    pair_of: dict[tuple[int, int], tuple[int, int]] = {}
    get = pair_of.get
    g_tails, g_lengths, g_dtails = g._tails, g._lengths, g._dtails
    tails, lengths, dtails = [()], [0.0], [()]
    for i in arcs:
        old_t = g_tails[i]
        new = []
        for p in old_t:
            q = get(p)
            if q is None:
                q = pair_of[p] = (vertex_map[p[0]], p[1])
            new.append(q)
        pairs = tuple(new)
        tails.append(pairs)
        lengths.append(g_lengths[i])
        # Renumbering is injective and keeps order, so a tail vertex repeats
        # in the new pairs exactly where it repeated in the old.
        dtails.append(pairs if g_dtails[i] is old_t else _distinct_tails(pairs))
    Hypergraph.__init__(copy, copy.names, copy._heads, tails, lengths, dtails)


def _stored_in(g: Hypergraph) -> tuple[Hypergraph, Sequence[int], Sequence[int]]:
    """The graph that holds ``g``'s arcs, with ``g``'s vertices and arcs as its
    increasing ids: an unfilled copy's parent, which spares the fill, or else ``g``."""
    copy_of = g._copy_of  # read once: a concurrent fill resets it
    if copy_of is None:
        return g, range(g.n), g.arc_indices
    return copy_of[0], list(copy_of[1]), copy_of[2]
