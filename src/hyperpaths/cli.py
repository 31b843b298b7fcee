"""Command-line interface over the text formats.

One executable, subcommand per operation. Files are positional arguments;
``-`` reads standard input. Results go to stdout, diagnostics and the prune
report stream to stderr. Exit codes: 0 success, 1 usage or parse error,
2 unreachable target, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Sequence

from .core import (
    INF,
    Hypergraph,
    InternalInvariantError,
    Query,
    RestrictResult,
    UnreachableTargetError,
    ValidationError,
    restrict,
)
from .grammar import (
    GrammarError,
    from_pruned,
    parse_grammar,
    serialize_grammar,
    to_hypergraph,
)
from .inside import InsideResult, extract_best_tree, format_tree, viterbi_inside
from .outside import OutsideResult, PruneResult, prune_relatively_useless, viterbi_outside
from .reachability import reach_from, reach_to, reduce
from .textio import ParsedHypergraph, format_float, parse_hypergraph, serialize_hypergraph

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNREACHABLE = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _load(path: str) -> ParsedHypergraph:
    return parse_hypergraph(_read_text(path))


def _require_sources(parsed: ParsedHypergraph) -> tuple[tuple[int, float], ...]:
    if not parsed.sources:
        raise ValidationError("input declares no source vertices")
    return parsed.sources


def _require_target(parsed: ParsedHypergraph) -> int:
    if parsed.target is None:
        raise ValidationError("input declares no target vertex")
    return parsed.target


def _fmt(x: float) -> str:
    return format_float(x)


def _json_value(x: float) -> float | str:
    return "inf" if x == INF else x


# -- subcommands -------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    parsed = _load(args.file)
    parsed.graph.validate()
    return EXIT_OK


def _cmd_reach_from(args: argparse.Namespace) -> int:
    parsed = _load(args.file)
    sources = _require_sources(parsed)
    result = reach_from(parsed.graph, [v for v, _ in sources])
    for v in result.vertices():
        print(parsed.graph.name_of(v))
    return EXIT_OK


def _cmd_reach_to(args: argparse.Namespace) -> int:
    parsed = _load(args.file)
    result = reach_to(parsed.graph, _require_target(parsed))
    for v in result.vertices():
        print(parsed.graph.name_of(v))
    return EXIT_OK


def _cmd_reduce(args: argparse.Namespace) -> int:
    parsed = _load(args.file)
    red = reduce(parsed.graph, parsed.query())
    sys.stdout.write(serialize_hypergraph(red.graph, red.sources, red.target))
    if not red.target_reachable:
        print("target unreachable; reduced hypergraph is empty", file=sys.stderr)
    return EXIT_OK


def _cmd_inside(args: argparse.Namespace) -> int:
    parsed = _load(args.file)
    g = parsed.graph
    result = viterbi_inside(g, _require_sources(parsed))
    for v in range(g.n):
        print(f"{g.name_of(v)} {_fmt(result.inside[v])} {result.pi[v]}")
    if parsed.target is not None and result.inside[parsed.target] == INF:
        print("target unreachable", file=sys.stderr)
        return EXIT_UNREACHABLE
    return EXIT_OK


def _cmd_best_tree(args: argparse.Namespace) -> int:
    parsed = _load(args.file)
    g = parsed.graph
    vertex = g.id_of(args.vertex)
    result = viterbi_inside(g, _require_sources(parsed))
    tree = extract_best_tree(g, result, vertex)
    print(format_tree(tree, g.name_of))
    print(_fmt(tree.cost))
    return EXIT_OK


def _forward_stage(
    g: Hypergraph, query: Query
) -> tuple[RestrictResult, tuple[tuple[int, float], ...], int, InsideResult]:
    """Restrict to source-derivable vertices and run the inside pass.

    The restriction keeps inside costs intact for every surviving vertex and
    gives the outside pass the graph it is specified on. Returns the
    restriction, the sources and target in its ids, and the inside result.
    """
    rf = reach_from(g, query.source_vertices())
    if not rf.reached[query.target]:
        raise UnreachableTargetError("target unreachable")
    rr = restrict(g, rf.vertices())
    sources1 = tuple((rr.vertex_map[v], c) for v, c in query.sources)
    target1 = rr.vertex_map[query.target]
    return rr, sources1, target1, viterbi_inside(rr.graph, sources1)


def _cmd_outside(args: argparse.Namespace) -> int:
    parsed = _load(args.file)
    g = parsed.graph
    rr, _, target1, ins = _forward_stage(g, parsed.query())
    outs = viterbi_outside(rr.graph, ins, target1)
    arc_old = {new: old for old, new in rr.arc_map.items()}
    for v in range(g.n):
        mapped = rr.vertex_map.get(v)
        if mapped is None:
            print(f"{g.name_of(v)} inf 0")
        else:
            psi = outs.psi[mapped]
            print(f"{g.name_of(v)} {_fmt(outs.outside[mapped])} {arc_old[psi] if psi else 0}")
    return EXIT_OK


def _prune_report_rows(
    g: Hypergraph, rr: RestrictResult, ins: InsideResult, outs: OutsideResult, pr: PruneResult
) -> tuple[list[tuple[str, float, float, float, bool]], list[tuple[int, float, bool]]]:
    """Report rows for every vertex and arc of the input graph ``g``.

    Vertex rows are ``(name, inside, outside, gamma, keep)`` and arc rows
    ``(index, gamma, keep)``; elements the forward restriction ``rr``
    dropped get infinite values and are not kept.
    """
    vertices = []
    for v in range(g.n):
        k = rr.vertex_map.get(v)
        if k is None:
            row = (INF, INF, INF, False)
        else:
            row = (ins.inside[k], outs.outside[k], pr.gamma_vertices[k], pr.keep_vertices[k])
        vertices.append((g.name_of(v), *row))
    arcs = []
    for i in g.arc_indices:
        k = rr.arc_map.get(i)
        arcs.append((i, INF, False) if k is None else (i, pr.gamma_arcs[k], pr.keep_arcs[k]))
    return vertices, arcs


def _cmd_prune(args: argparse.Namespace) -> int:
    beam = _parse_beam(args.beam)
    parsed = _load(args.file)
    g = parsed.graph
    rr, sources1, target1, ins = _forward_stage(g, parsed.query())
    outs = viterbi_outside(rr.graph, ins, target1)
    pr = prune_relatively_useless(rr.graph, ins, outs, beam)

    sources2 = tuple((pr.vertex_map[v], c) for v, c in sources1 if v in pr.vertex_map)
    target2 = pr.vertex_map[target1]
    sys.stdout.write(serialize_hypergraph(pr.graph, sources2, target2))

    vertices, arcs = _prune_report_rows(g, rr, ins, outs, pr)
    best = ins.inside[target1]
    if args.report == "json":
        report = {
            "vertices": [
                {
                    "name": name,
                    "inside": _json_value(inside),
                    "outside": _json_value(outside),
                    "gamma": _json_value(gamma),
                    "keep": keep,
                }
                for name, inside, outside, gamma, keep in vertices
            ],
            "arcs": [
                {
                    "index": i,
                    "head": g.name_of(g._heads[i]),
                    "tails": [[g.name_of(v), m] for v, m in g._tails[i]],
                    "length": g._lengths[i],
                    "gamma": _json_value(gamma),
                    "keep": keep,
                }
                for i, gamma, keep in arcs
            ],
            "best": _json_value(best),
        }
        print(json.dumps(report), file=sys.stderr)
    else:
        for name, inside, outside, gamma, keep in vertices:
            print(
                f"vertex {name} inside {_fmt(inside)} outside {_fmt(outside)} "
                f"gamma {_fmt(gamma)} keep {int(keep)}",
                file=sys.stderr,
            )
        for i, gamma, keep in arcs:
            print(f"arc {i} gamma {_fmt(gamma)} keep {int(keep)}", file=sys.stderr)
        print(f"best {_fmt(best)}", file=sys.stderr)
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
    grammar = parse_grammar(_read_text(args.file))
    graph, query, gmap = to_hypergraph(grammar)
    map_path = args.map
    if map_path is None:
        if args.file == "-":
            raise _UsageError("--map is required when the grammar comes from stdin")
        map_path = args.file + ".map"
    sys.stdout.write(serialize_hypergraph(graph, query.sources, query.target))
    lines = "".join(
        f"{arc} {production}\n" for arc, production in sorted(gmap.production_for_arc.items())
    )
    Path(map_path).write_text(lines, encoding="utf-8")
    return EXIT_OK


def _cmd_prune_grammar(args: argparse.Namespace) -> int:
    beam = _parse_beam(args.beam)
    grammar = parse_grammar(_read_text(args.file))
    graph, query, gmap = to_hypergraph(grammar)

    try:
        rr, _, target1, ins = _forward_stage(graph, query)
    except UnreachableTargetError:
        raise UnreachableTargetError("target unreachable: the grammar derives nothing") from None
    outs = viterbi_outside(rr.graph, ins, target1)
    pr = prune_relatively_useless(rr.graph, ins, outs, beam)

    gmap1 = gmap.after_restriction(rr.vertex_map, rr.arc_map)
    gmap2 = gmap1.after_restriction(pr.vertex_map, pr.arc_map)
    reduced = from_pruned(grammar, gmap2, pr.graph)
    sys.stdout.write(serialize_grammar(reduced))
    return EXIT_OK


# -- driver -------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="hyperpaths",
        description="Shortest hyperpath-trees, reachability, and beam pruning "
        "over directed hypergraphs and weighted grammars.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, needs_file: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        if needs_file:
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
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValidationError, GrammarError) as exc:
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
