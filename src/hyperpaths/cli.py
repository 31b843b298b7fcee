"""Command-line interface over the text formats.

One executable, subcommand per operation. Files are positional arguments;
``-`` reads standard input. Results go to stdout, diagnostics and the prune
report stream to stderr. Exit codes: 0 success, 1 usage or parse error or
a best tree too large to print, 2 unreachable target, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import compress
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .core import (
    INF,
    GrammarError,
    Hypergraph,
    InternalInvariantError,
    Query,
    UnreachableTargetError,
    ValidationError,
    format_float,
)

if TYPE_CHECKING:
    from .inside import InsideResult
    from .outside import OutsideResult
    from .textio import ParsedHypergraph

# Each command imports the modules it runs, when it runs them, so a command
# loads no more than it needs.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNREACHABLE = 2
EXIT_INTERNAL = 3

# ``best-tree`` prints a shared subtree once per tail, so the output can be
# exponential in the distinct nodes. It refuses a tree with more arc nodes
# than this (4 to 10 bytes of output each) before printing anything.
MAX_PRINTED_ARC_NODES = 10**7


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _load(path: str) -> ParsedHypergraph:
    from .textio import parse_hypergraph

    return parse_hypergraph(_read_text(path))


def _rows(row_format: str, *columns) -> str:
    """One ``row_format % row`` line per row of ``columns``, joined into the
    one string that a single ``write`` emits. ``%.17g`` in a row format
    prints what :func:`format_float` does."""
    return "".join(map(row_format.__mod__, zip(*columns)))


_JSON_BOOL = ("false", "true")


def _json_number(x: float) -> str:
    return '"inf"' if x == INF else repr(x)


def _json_report(g: Hypergraph, vertices: tuple, arcs: tuple, best: float) -> str:
    """The prune report's JSON, byte for byte what ``json.dumps`` writes for
    it, built as row strings: names escaped by ``json``'s own ASCII escaper,
    floats by ``repr``, and ``inf`` as the string ``"inf"``."""
    from json.encoder import encode_basestring_ascii as quote

    names = list(map(quote, g.names))
    _, *costs, keep = vertices
    vertex_rows = map(
        '{"name": %s, "inside": %s, "outside": %s, "gamma": %s, "keep": %s}'.__mod__,
        zip(names, *[map(_json_number, c) for c in costs], map(_JSON_BOOL.__getitem__, keep)),
    )
    heads, tails, lengths = g._heads, g._tails, g._lengths
    arc_rows = [
        '{"index": %d, "head": %s, "tails": [%s], "length": %r, "gamma": %s, "keep": %s}' % (
            i, names[heads[i]], ", ".join(["[%s, %d]" % (names[v], m) for v, m in tails[i]]),
            lengths[i], _json_number(gamma), _JSON_BOOL[keep],
        )
        for i, gamma, keep in zip(*arcs)
    ]
    return '{"vertices": [%s], "arcs": [%s], "best": %s}\n' % (
        ", ".join(vertex_rows), ", ".join(arc_rows), _json_number(best)
    )


# -- subcommands -------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    _load(args.file)
    return EXIT_OK


def _cmd_reach_from(args: argparse.Namespace) -> int:
    from .reachability import reach_from

    parsed = _load(args.file)
    result = reach_from(parsed.graph, [v for v, _ in parsed.require_sources()])
    sys.stdout.write(_rows("%s\n", map(parsed.graph.name_of, result.vertices())))
    return EXIT_OK


def _cmd_reach_to(args: argparse.Namespace) -> int:
    from .reachability import reach_to

    parsed = _load(args.file)
    result = reach_to(parsed.graph, parsed.require_target())
    sys.stdout.write(_rows("%s\n", map(parsed.graph.name_of, result.vertices())))
    return EXIT_OK


def _write_kept(g: Hypergraph, keep_v: Sequence[bool], arcs: list[int], query: Query) -> None:
    """Write the input's lines of the flagged vertices, ``arcs`` (increasing,
    closed over them), the flagged sources in query order and the flagged target."""
    from .textio import _serialize

    sources = [(v, c) for v, c in query.sources if keep_v[v]]
    target = query.target if keep_v[query.target] else None
    vertices = list(compress(range(g.n), keep_v))
    sys.stdout.write(_serialize(g, vertices, arcs, sources, target))


def _cmd_reduce(args: argparse.Namespace) -> int:
    from .reachability import _useful

    parsed = _load(args.file)
    query = parsed.query()
    useful, arcs = _useful(parsed.graph, query)
    _write_kept(parsed.graph, useful, arcs, query)
    if not useful[query.target]:
        print("target unreachable; reduced hypergraph is empty", file=sys.stderr)
    return EXIT_OK


def _cmd_inside(args: argparse.Namespace) -> int:
    from .inside import viterbi_inside

    parsed = _load(args.file)
    g = parsed.graph
    result = viterbi_inside(g, parsed.require_sources())
    sys.stdout.write(_rows("%s %.17g %d\n", g.names, result.inside, result.pi))
    if parsed.target is not None and result.inside[parsed.target] == INF:
        print("target unreachable", file=sys.stderr)
        return EXIT_UNREACHABLE
    return EXIT_OK


def _cmd_best_tree(args: argparse.Namespace) -> int:
    from .inside import extract_best_tree, format_tree, viterbi_inside

    parsed = _load(args.file)
    g = parsed.graph
    vertex = g.id_of(args.vertex)
    # The tree's vertices all settle before ``vertex``, so the pass can stop.
    result = viterbi_inside(g, parsed.require_sources(), stop=(vertex, 0.0))
    tree = extract_best_tree(g, result, vertex)
    distinct = 0

    def unfolded(node, done) -> int:  # arc nodes in the unfolded subtree
        nonlocal distinct
        if not node.arc:
            return 0
        distinct += 1
        return 1 + sum([done[id(c)] for c in node.children])

    size = tree._fold(unfolded)
    if size > MAX_PRINTED_ARC_NODES:
        raise _UsageError(
            f"the best tree of {args.vertex!r} has {distinct} distinct arc nodes but "
            f"{size} unfolded, more than the {MAX_PRINTED_ARC_NODES} best-tree prints"
        )
    print(format_tree(tree, g.name_of))
    print(format_float(tree.cost))
    return EXIT_OK


def _inside_outside(
    g: Hypergraph, query: Query, unreachable: str = "target unreachable", beam: float = INF
) -> tuple[InsideResult, OutsideResult]:
    """Run the inside and outside passes for ``query`` on ``g`` itself.

    Vertices that no source derives keep infinite inside and outside costs,
    and arcs with such a tail never fire or relax, so every value equals the
    one on ``g`` restricted to the derivable vertices. A target with
    infinite inside cost raises ``unreachable`` when ``reach_from`` does not
    reach it, and ``viterbi_outside``'s error when its cost overflowed. A
    finite ``beam`` stops both passes where a prune at that beam needs no
    more values; ``inf`` runs them in full.
    """
    from .inside import viterbi_inside
    from .outside import viterbi_outside

    ins = viterbi_inside(g, query.sources, stop=(query.target, beam))
    if ins.inside[query.target] == INF:
        from .reachability import reach_from

        if not reach_from(g, [v for v, _ in query.sources]).reached[query.target]:
            raise UnreachableTargetError(unreachable)
    return ins, viterbi_outside(g, ins, query.target, beam=beam)


def _cmd_outside(args: argparse.Namespace) -> int:
    parsed = _load(args.file)
    g = parsed.graph
    _, outs = _inside_outside(g, parsed.query())
    sys.stdout.write(_rows("%s %.17g %d\n", g.names, outs.outside, outs.psi))
    return EXIT_OK


def _cmd_prune(args: argparse.Namespace) -> int:
    from .outside import _keep_flags

    beam = _parse_beam(args.beam)
    parsed = _load(args.file)
    g = parsed.graph
    query = parsed.query()
    ins, outs = _inside_outside(g, query)
    gamma_v, keep_v, keep_e, kept = _keep_flags(g, ins, outs, beam)

    _write_kept(g, keep_v, kept, query)  # the target is kept

    vertices = (g.names, ins.inside, outs.outside, gamma_v, keep_v)
    arcs = (g.arc_indices, outs.gamma_arcs[1:], keep_e[1:])
    best = ins.inside[query.target]
    if args.report == "json":
        sys.stderr.write(_json_report(g, vertices, arcs, best))
    else:
        write = sys.stderr.write  # one write a part: the report is never one string
        write(_rows("vertex %s inside %.17g outside %.17g gamma %.17g keep %d\n", *vertices))
        write(_rows("arc %d gamma %.17g keep %d\n", *arcs))
        write("best %.17g\n" % best)
    return EXIT_OK


def _parse_beam(text: str) -> float:
    try:
        beam = float(text)
    except ValueError:
        raise _UsageError(f"bad beam {text!r}: expected a decimal or 'inf'") from None
    if math.isnan(beam) or beam < 0:
        raise _UsageError("beam must be a nonnegative number or 'inf'")
    return beam


def _cmd_from_grammar(args: argparse.Namespace) -> int:
    from .grammar import parse_grammar, to_hypergraph
    from .textio import serialize_hypergraph

    grammar = parse_grammar(_read_text(args.file))
    graph, query, _ = to_hypergraph(grammar)
    map_path = args.map
    if map_path is None:
        if args.file == "-":
            raise _UsageError("--map is required when the grammar comes from stdin")
        map_path = args.file + ".map"
    lines = "".join(f"{i} {i}\n" for i in graph.arc_indices)  # arc i is production i
    # The map first, so that a map that cannot be written leaves stdout empty.
    try:
        Path(map_path).write_text(lines, encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot write {map_path}: {exc}") from exc
    sys.stdout.write(serialize_hypergraph(graph, query.sources, query.target))
    return EXIT_OK


def _cmd_prune_grammar(args: argparse.Namespace) -> int:
    from .grammar import _subgrammar, parse_grammar, serialize_grammar, to_hypergraph
    from .outside import _keep_flags

    beam = _parse_beam(args.beam)
    grammar = parse_grammar(_read_text(args.file))
    graph, query, _ = to_hypergraph(grammar)

    # Only the kept productions are printed, so the passes stop at the beam
    # and the productions are read off the keep flags (arc i is production
    # i), with no pruned graph or index maps.
    ins, outs = _inside_outside(
        graph, query, "target unreachable: the grammar derives nothing", beam
    )
    kept = _keep_flags(graph, ins, outs, beam)[3]
    sys.stdout.write(serialize_grammar(_subgrammar(grammar, kept)))
    return EXIT_OK


# -- driver -------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="hyperpaths",
        description="Shortest hyperpath-trees, reachability, and beam pruning "
        "over directed hypergraphs and weighted grammars.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="input file, or - for stdin")
        p.set_defaults(func=func)
        return p

    add("validate", _cmd_validate, "check a hypergraph file and exit")
    add("reach-from", _cmd_reach_from, "vertices derivable from the source set")
    add("reach-to", _cmd_reach_to, "vertices that can participate in reaching the target")
    add("reduce", _cmd_reduce, "drop vertices and arcs useless for the query")
    add("inside", _cmd_inside, "minimum inside cost and predecessor arc per vertex")
    p = add("best-tree", _cmd_best_tree, "print one cheapest hyperpath-tree")
    p.add_argument("--vertex", required=True, help="vertex whose best tree to print")
    add("outside", _cmd_outside, "minimum completion cost and parent arc per vertex")
    p = add("prune", _cmd_prune, "beam-prune relatively useless vertices and arcs")
    p.add_argument("--beam", required=True, help="cost slack above the best tree, or 'inf'")
    p.add_argument("--report", choices=["text", "json"], default="text",
                   help="report format on stderr (default: text)")
    p = add("from-grammar", _cmd_from_grammar, "convert a weighted grammar to a hypergraph")
    p.add_argument("--map", help="path for the arc-to-production sidecar map "
                   "(default: <file>.map)")
    p = add("prune-grammar", _cmd_prune_grammar,
            "beam-prune a grammar via its hypergraph form")
    p.add_argument("--beam", required=True, help="cost slack above the best derivation, or 'inf'")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ValidationError, GrammarError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnreachableTargetError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_UNREACHABLE
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
