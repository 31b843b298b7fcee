"""Line-based UTF-8 text format for hypergraphs and queries.

Grammar of a file (``#`` starts a comment, blank lines ignored)::

    vertex <name>
    arc <head> <- <tail>[*<mult>] [<tail>[*<mult>] ...] @ <length>
    source <name> [<initialCost>]
    target <name>

``vertex`` lines are optional pre-declarations; otherwise the first mention
of a name declares it. Vertex ids are assigned in order of first appearance.
Floats are printed with 17 significant digits so that serialize -> parse ->
serialize is byte-identical.

A ``<length>`` or ``<initialCost>`` is any string Python's ``float`` takes:
``+2`` and ``.5`` too, ``1_0`` reads as 10 and ``١٢`` as 12. The range
check then rejects NaN, negative and infinite values. Such spellings are
written back in canonical form.

A ``<name>`` follows the one name rule, :mod:`.core`'s ``_NAME_RE``, which
the grammar format's symbols follow too.
"""

from __future__ import annotations

import math

from .core import (
    _NAME_RE, INF, FormatError, Hypergraph, Query, ValidationError, _check_vertex,
    _distinct_tails, _Record, check_sources, format_float,
)


def check_name(name: str) -> str:
    if not _NAME_RE.fullmatch(name):
        if name == "<-":
            reason = "'<-' is reserved as the arc arrow"
        else:
            reason = "whitespace and #*@(),: are reserved"
        raise ValidationError(f"name {name!r} is not representable in the text format ({reason})")
    return name


def _parse_number(token: str, line: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise FormatError(f"bad {what} {token!r}", line) from None
    if math.isnan(value):
        raise FormatError(f"{what} may not be NaN", line)
    return value


class ParsedHypergraph(_Record):
    """A parsed hypergraph file: graph plus whatever query parts were present."""

    __slots__ = ("graph", "sources", "target")
    graph: Hypergraph
    sources: tuple[tuple[int, float], ...]
    target: int | None

    def require_sources(self) -> tuple[tuple[int, float], ...]:
        if not self.sources:
            raise ValidationError("input declares no source vertices")
        return self.sources

    def require_target(self) -> int:
        if self.target is None:
            raise ValidationError("input declares no target vertex")
        return self.target

    def query(self) -> Query:
        return Query(self.require_sources(), self.require_target())


def _bad_length(token: str, line: int) -> FormatError:
    """The error for a length token that parses as NaN (checked first), a
    negative number or an infinite one."""
    if _parse_number(token, line, "length") < 0:
        return FormatError(f"negative length {token}", line)
    return FormatError("length must be finite", line)


def parse_hypergraph(text: str) -> ParsedHypergraph:
    """Parse the text format. Errors report 1-based line numbers."""
    # Vertex name -> its ``(id, 1)`` pair, which every plain mention of the
    # name as a tail shares. A name in ``known`` has passed the check, so
    # each name is checked once.
    known: dict[str, tuple[int, int]] = {}

    def vid(name: str, line: int) -> int:
        pair = known.get(name)
        if pair is None:
            if not _NAME_RE.fullmatch(name):
                raise FormatError(f"invalid vertex name {name!r}", line)
            pair = known[name] = (len(known), 1)
        return pair[0]

    def tail(token: str, line: int) -> tuple[int, int]:
        # ``token`` is not a known name: a new name, or one with a '*'.
        name, star, mult_text = token.partition("*")
        if not star:
            vid(name, line)
            return known[name]
        try:
            mult = int(mult_text)
        except ValueError:
            raise FormatError(f"bad multiplicity in {token!r}", line) from None
        if mult < 1:
            raise FormatError(f"multiplicity must be >= 1 in {token!r}", line)
        return (vid(name, line), mult)

    heads, tails, lengths, dtails = [0], [()], [0.0], [()]
    sources: list[tuple[int, float]] = []
    source_names: set[str] = set()
    target: int | None = None
    get = known.get
    comments = "#" in text

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if comments and "#" in raw:
            raw = raw.split("#", 1)[0]
        tokens = raw.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "arc":
            if (
                len(tokens) == 7 and tokens[2] == "<-" and tokens[5] == "@"
                and (head := get(tokens[1])) and (a := get(tokens[3])) and (b := get(tokens[4]))
            ):
                # The common line: two tails, every name known, no '*'.
                heads.append(head[0])
                pairs = (a, b)
                dtails.append(pairs if a[0] != b[0] else _distinct_tails(pairs))
            else:
                if len(tokens) < 6 or tokens[2] != "<-":
                    raise FormatError(
                        "expected: arc <head> <- <tail>[*<mult>] ... @ <length>", lineno
                    )
                try:
                    at = tokens.index("@")
                except ValueError:
                    raise FormatError("arc line is missing '@ <length>'", lineno) from None
                if at != len(tokens) - 2:
                    raise FormatError("expected a single length after '@'", lineno)
                # The checks above leave at least one tail token, before ``at``.
                head = get(tokens[1])
                heads.append(head[0] if head is not None else vid(tokens[1], lineno))
                # A known name holds no '*', so such a token is the name alone.
                pairs = tuple([get(tok) or tail(tok, lineno) for tok in tokens[3:at]])
                dtails.append(pairs if len(pairs) == 1 else _distinct_tails(pairs))
            tails.append(pairs)
            try:
                length = float(tokens[-1])
            except ValueError:
                raise FormatError(f"bad length {tokens[-1]!r}", lineno) from None
            if not 0 <= length < INF:  # NaN fails this test too
                raise _bad_length(tokens[-1], lineno)
            lengths.append(length)
        elif kind == "vertex":
            if len(tokens) != 2:
                raise FormatError("expected: vertex <name>", lineno)
            vid(tokens[1], lineno)
        elif kind == "source":
            if len(tokens) not in (2, 3):
                raise FormatError("expected: source <name> [<initialCost>]", lineno)
            name = tokens[1]
            if name in source_names:
                raise FormatError(f"duplicate source {name!r}", lineno)
            source_names.add(name)
            cost = _parse_number(tokens[2], lineno, "initial cost") if len(tokens) == 3 else 0.0
            if cost < 0 or cost == math.inf:
                raise FormatError("initial cost must be finite and nonnegative", lineno)
            sources.append((vid(name, lineno), cost))
        elif kind == "target":
            if len(tokens) != 2:
                raise FormatError("expected: target <name>", lineno)
            if target is not None:
                raise FormatError("duplicate target line", lineno)
            target = vid(tokens[1], lineno)
        else:
            raise FormatError(f"unknown directive {kind!r}", lineno)

    # Every token has been checked above, so the graph is built unchecked.
    graph = Hypergraph(tuple(known), heads, tails, lengths, dtails)
    return ParsedHypergraph(graph, tuple(sources), target)


def serialize_hypergraph(
    g: Hypergraph,
    sources: tuple[tuple[int, float], ...] = (),
    target: int | None = None,
) -> str:
    """Canonical text form: all vertices, then arcs, sources, target."""
    sources = check_sources(sources, g.n) if sources else ()
    if target is not None:
        _check_vertex(target, g.n, "target ")
    return _serialize(g, range(g.n), g.arc_indices, sources, target)


def _serialize(g: Hypergraph, vertices, arcs, sources, target: int | None) -> str:
    """The lines of ``g``'s ``vertices`` and ``arcs`` (increasing ids), ``sources`` and
    ``target``: the text of ``g`` restricted to them, as restriction keeps names and order."""
    names = g.names
    lines = [f"vertex {check_name(names[v])}\n" for v in vertices]
    heads, tails, lengths = g._heads, g._tails, g._lengths
    for i in arcs:
        text = " ".join([names[v] if m == 1 else f"{names[v]}*{m}" for v, m in tails[i]])
        lines.append("arc %s <- %s @ %.17g\n" % (names[heads[i]], text, lengths[i]))
    for v, cost in sources:
        lines.append("source %s %.17g\n" % (names[v], cost))
    if target is not None:
        lines.append(f"target {names[target]}\n")
    return "".join(lines)
