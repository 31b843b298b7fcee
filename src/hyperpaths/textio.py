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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .core import FormatError, Hypergraph, Query, ValidationError

_NAME_RE = re.compile(r"^[^\s#*@(),:]+$")


def format_float(x: float) -> str:
    """Format with 17 significant digits (full double round-trip fidelity)."""
    return "%.17g" % x


def check_name(name: str) -> str:
    if not _NAME_RE.match(name) or name == "<-":
        raise ValidationError(
            f"name {name!r} is not representable in the text format "
            "(whitespace and #*@(),: are reserved)"
        )
    return name


def _parse_number(token: str, line: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise FormatError(f"bad {what} {token!r}", line) from None
    if math.isnan(value):
        raise FormatError(f"{what} may not be NaN", line)
    return value


@dataclass(frozen=True, slots=True)
class ParsedHypergraph:
    """A parsed hypergraph file: graph plus whatever query parts were present."""

    graph: Hypergraph
    sources: tuple[tuple[int, float], ...]
    target: int | None

    def query(self) -> Query:
        if not self.sources:
            raise ValidationError("input declares no source vertices")
        if self.target is None:
            raise ValidationError("input declares no target vertex")
        return Query(self.sources, self.target)


def parse_hypergraph(text: str) -> ParsedHypergraph:
    """Parse the text format. Errors report 1-based line numbers."""
    order: dict[str, int] = {}

    def vid(name: str, line: int) -> int:
        # A name in ``order`` has passed the check, so each name is checked once.
        v = order.get(name)
        if v is None:
            if not _NAME_RE.match(name) or name == "<-":
                raise FormatError(f"invalid vertex name {name!r}", line)
            v = order[name] = len(order)
        return v

    heads, tails, lengths = [0], [()], [0.0]
    sources: list[tuple[int, float]] = []
    source_names: set[str] = set()
    target: int | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        tokens = raw.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "vertex":
            if len(tokens) != 2:
                raise FormatError("expected: vertex <name>", lineno)
            vid(tokens[1], lineno)
        elif kind == "arc":
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
            head = vid(tokens[1], lineno)
            tail_tokens = tokens[3:at]
            if not tail_tokens:
                raise FormatError("arc must have at least one tail", lineno)
            pairs: list[tuple[int, int]] = []
            for tok in tail_tokens:
                v = order.get(tok)
                if v is not None:
                    # A known name holds no '*', so the token is the name alone.
                    pairs.append((v, 1))
                    continue
                name, star, mult_text = tok.partition("*")
                if star:
                    try:
                        mult = int(mult_text)
                    except ValueError:
                        raise FormatError(f"bad multiplicity in {tok!r}", lineno) from None
                    if mult < 1:
                        raise FormatError(f"multiplicity must be >= 1 in {tok!r}", lineno)
                else:
                    mult = 1
                pairs.append((vid(name, lineno), mult))
            length = _parse_number(tokens[-1], lineno, "length")
            if length < 0:
                raise FormatError(f"negative length {tokens[-1]}", lineno)
            if length == math.inf:
                raise FormatError("length must be finite", lineno)
            heads.append(head)
            tails.append(tuple(pairs))
            lengths.append(length)
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
    graph = Hypergraph(tuple(order), heads, tails, lengths)
    return ParsedHypergraph(graph, tuple(sources), target)


def serialize_hypergraph(
    g: Hypergraph,
    sources: tuple[tuple[int, float], ...] = (),
    target: int | None = None,
) -> str:
    """Canonical text form: all vertices, then arcs, sources, target."""
    lines: list[str] = []
    for v in range(g.n):
        lines.append(f"vertex {check_name(g.name_of(v))}")
    for i in g.arc_indices:
        tails = " ".join(
            g.name_of(v) if m == 1 else f"{g.name_of(v)}*{m}" for v, m in g._tails[i]
        )
        lines.append(
            f"arc {g.name_of(g._heads[i])} <- {tails} @ {format_float(g._lengths[i])}"
        )
    for v, cost in sources:
        lines.append(f"source {g.name_of(v)} {format_float(cost)}")
    if target is not None:
        lines.append(f"target {g.name_of(target)}")
    return "".join(line + "\n" for line in lines)
