"""The three workloads: inputs, the query pipeline, checks and CLI commands.

A workload object owns its generated inputs. ``load(call)`` makes the
resident state a query needs, ``query(call, state, q)`` runs one query and
returns its result, ``check(state, q, res)`` verifies that result in full
and returns a fingerprint, and ``fingerprint(res)`` is the cheap form
compared on every later run of the same query. ``call`` is either
:func:`spans.direct` or :meth:`spans.Tracer.call`, so traced and untraced
runs go through the same pipeline code.

``setup_args`` are the arguments with which ``setup_probe.py`` loads the same
state in a fresh interpreter, and ``check_load(state)`` verifies it once.
``cli(state)`` lists the CLI commands as ``(name, args, check)``, where ``check``
gets the child's stdout and stderr text and raises on a mismatch. Its
reference results are computed in-process and checked first.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from hyperpaths import (
    best_derivation,
    extract_best_tree,
    from_pruned,
    parse_grammar,
    parse_hypergraph,
    prune_relatively_useless,
    reach_from,
    reach_to,
    reduce,
    restrict,
    serialize_grammar,
    serialize_hypergraph,
    to_hypergraph,
    viterbi_inside,
    viterbi_outside,
)

import checks
import gen
from checks import INF, View, fail, fmt
from spans import direct

CHART_BEAM = 0.1
GRAMMAR_BEAMS = (0.0625, 0.125, 0.25, 0.5, 1.0, 16.0, INF, INF)
GRAMMAR_CLI_BEAM = 1.0


def _expect(what: str, got: str, expected: str) -> None:
    if got != expected:
        fail(f"{what}: output differs from the checked in-process result")


def _forward_prune(call, g, sources, target, beam):
    """reach_from -> restrict -> inside -> outside -> prune, as `prune` does."""
    rf = call("reachability.reach_from", reach_from, g, [v for v, _ in sources])
    if not rf.reached[target]:
        fail("target not reached")
    rr = call("core.restrict", restrict, g, rf.vertices())
    sources1 = tuple((rr.vertex_map[v], c) for v, c in sources)
    target1 = rr.vertex_map[target]
    ins = call("inside.viterbi_inside", viterbi_inside, rr.graph, sources1)
    outs = call("outside.viterbi_outside", viterbi_outside, rr.graph, ins, target1)
    pr = call("outside.prune_relatively_useless", prune_relatively_useless, rr.graph, ins, outs, beam)
    sources2 = tuple((pr.vertex_map[v], c) for v, c in sources1 if v in pr.vertex_map)
    return rf, rr, ins, outs, pr, sources2, pr.vertex_map[target1]


def _check_forward_prune(inst, rf, rr, ins, outs, pr, beam) -> tuple[View, float]:
    """Check every stage of :func:`_forward_prune`; returns the restricted
    view and the share of arcs the prune kept."""
    reached = checks.forward_reach(len(inst.names), inst.arcs, [v for v, _ in inst.sources])
    if rf.reached != tuple(bool(r) for r in reached):
        fail("reach_from differs from the benchmark's forward pass")
    checks.check_restrict(checks.identity_view(inst), reached, rr.vertex_map, rr.arc_map)
    view = View(inst, rr.vertex_map, rr.arc_map, inst.sources, inst.target)
    checks.check_graph(rr.graph, view)
    checks.check_inside(view, ins, bytearray(b"\x01") * view.n)
    checks.check_outside(view, ins, outs)
    kept = checks.check_prune(view, ins, outs, pr, beam)
    return view, kept


def _prune_report(inst, rr, ins, outs, pr) -> tuple[list, list, float]:
    """Rows of the `prune` report: every original vertex and arc."""
    vertices = []
    for v, name in enumerate(inst.names):
        v1 = rr.vertex_map.get(v)
        if v1 is None:
            vertices.append((name, INF, INF, INF, False))
        else:
            vertices.append(
                (name, ins.inside[v1], outs.outside[v1], pr.gamma_vertices[v1], pr.keep_vertices[v1])
            )
    arcs = []
    for i in range(1, len(inst.arcs) + 1):
        i1 = rr.arc_map.get(i)
        arcs.append((i, INF, False) if i1 is None else (i, pr.gamma_arcs[i1], pr.keep_arcs[i1]))
    return vertices, arcs, ins.inside[outs.target]


def _check_text_report(err: str, report) -> None:
    vertices, arcs, best = report
    lines = [
        f"vertex {n} inside {fmt(a)} outside {fmt(b)} gamma {fmt(c)} keep {int(k)}"
        for n, a, b, c, k in vertices
    ]
    lines += [f"arc {i} gamma {fmt(c)} keep {int(k)}" for i, c, k in arcs]
    lines.append(f"best {fmt(best)}")
    _expect("prune text report", err, "".join(x + "\n" for x in lines))


def _check_json_report(err: str, report) -> None:
    vertices, arcs, best = report
    data = json.loads(err)

    def num(x):
        return INF if x == "inf" else x

    if num(data["best"]) != best:
        fail("prune json report: best cost differs")
    if len(data["vertices"]) != len(vertices) or len(data["arcs"]) != len(arcs):
        fail("prune json report: wrong number of rows")
    for row, (n, a, b, c, k) in zip(data["vertices"], vertices):
        got = (row["name"], num(row["inside"]), num(row["outside"]), num(row["gamma"]), row["keep"])
        if got != (n, a, b, c, k):
            fail(f"prune json report: vertex row {n} differs")
    for row, (i, c, k) in zip(data["arcs"], arcs):
        if (row["index"], num(row["gamma"]), row["keep"]) != (i, c, k):
            fail(f"prune json report: arc row {i} differs")


def _tree_output(tree, names) -> str:
    return f"{checks.format_tree(tree, names)}\n{fmt(tree.cost)}\n"


class Charts:
    """A stream of CKY charts; each query runs the `prune` pipeline."""

    name = "charts"

    def __init__(self, seed: int, work: Path) -> None:
        self.instances = gen.charts(seed)
        self.texts = [gen.hypergraph_text(inst) for inst in self.instances]
        self.queries = list(range(len(self.texts)))
        self.sizes = [inst.input_size for inst in self.instances]
        self.largest = max(self.queries, key=self.sizes.__getitem__)
        self.file = work / "chart.hg"
        self.file.write_text(self.texts[self.largest], encoding="utf-8")
        self.setup_args = []
        self.reference = None

    def load(self, call):
        return None

    def check_load(self, state) -> None:
        pass

    def query(self, call, state, k: int):
        parsed = call("textio.parse_hypergraph", parse_hypergraph, self.texts[k])
        rf, rr, ins, outs, pr, sources2, target2 = _forward_prune(
            call, parsed.graph, parsed.sources, parsed.target, CHART_BEAM
        )
        text = call("textio.serialize_hypergraph", serialize_hypergraph, pr.graph, sources2, target2)
        return parsed, rf, rr, ins, outs, pr, text

    def fingerprint(self, res):
        return res[6]

    def check(self, state, k: int, res):
        inst = self.instances[k]
        parsed, rf, rr, ins, outs, pr, text = res
        checks.check_graph(parsed.graph, checks.identity_view(inst))
        if parsed.sources != inst.sources or parsed.target != inst.target:
            fail("parsed query differs from the generated one")
        view, _ = _check_forward_prune(inst, rf, rr, ins, outs, pr, CHART_BEAM)
        _expect("serialized pruned chart", text, checks.serialize(view, pr.vertex_map, pr.arc_map))
        checks.check_tree(view, extract_best_tree(rr.graph, ins, view.target), ins.inside)
        if k == self.largest:
            self.reference = (text, _prune_report(inst, rr, ins, outs, pr))
        return text

    def cli(self, state):
        inst = self.instances[self.largest]
        target = inst.names[inst.target]

        def prune_text(out, err):
            _expect("prune stdout", out, self.reference[0])
            _check_text_report(err, self.reference[1])

        def prune_json(out, err):
            _expect("prune stdout", out, self.reference[0])
            _check_json_report(err, self.reference[1])

        def best_tree(out, err):
            parsed = parse_hypergraph(self.texts[self.largest])
            ins = viterbi_inside(parsed.graph, parsed.sources)
            tree = extract_best_tree(parsed.graph, ins, parsed.target)
            view = checks.identity_view(inst)
            checks.check_tree(view, tree, ins.inside)
            _expect("best-tree stdout", out, _tree_output(tree, view.names))

        beam = fmt(CHART_BEAM)
        f = str(self.file)
        return [
            ("prune", ["prune", "--beam", beam, f], prune_text),
            ("prune_json", ["prune", "--beam", beam, "--report", "json", f], prune_json),
            ("best-tree", ["best-tree", "--vertex", target, f], best_tree),
        ]


class Horn:
    """One resident cyclic AND-OR graph; each query is `best-tree`."""

    name = "horn"

    def __init__(self, seed: int, work: Path) -> None:
        self.inst, self.horn_queries = gen.horn(seed)
        self.queries = list(range(len(self.horn_queries)))
        size = self.inst.input_size
        self.sizes = [size] * len(self.queries)
        self.file = work / "horn.hg"
        self.file.write_text(gen.hypergraph_text(self.inst), encoding="utf-8")
        self.setup_args = ["horn", str(self.file)]
        self.view = checks.identity_view(self.inst)

    def load(self, call):
        text = self.file.read_text(encoding="utf-8")
        return call("textio.parse_hypergraph", parse_hypergraph, text)

    def check_load(self, state) -> None:
        checks.check_graph(state.graph, self.view)
        if state.sources != self.inst.sources or state.target != self.inst.target:
            fail("parsed query differs from the generated one")

    def query(self, call, state, k: int):
        q = self.horn_queries[k]
        ins = call("inside.viterbi_inside", viterbi_inside, state.graph, q.sources)
        tree = call("inside.extract_best_tree", extract_best_tree, state.graph, ins, q.target)
        return ins, tree

    def fingerprint(self, res):
        ins, tree = res
        return ins.inside, ins.pi, tree.cost

    def check(self, state, k: int, res):
        q = self.horn_queries[k]
        ins, tree = res
        view = self.view.with_query(q.sources, q.target)
        reached = checks.forward_reach(view.n, self.inst.arcs, [v for v, _ in q.sources])
        checks.check_inside(view, ins, reached)
        checks.check_tree(view, tree, ins.inside)
        return self.fingerprint(res)

    def cli(self, state):
        inst, view, g = self.inst, self.view, state.graph
        names = inst.names
        f = str(self.file)

        def inside_cmd(out, err):
            ins = viterbi_inside(g, inst.sources)
            reached = checks.forward_reach(view.n, inst.arcs, [v for v, _ in inst.sources])
            checks.check_inside(view, ins, reached)
            lines = "".join(f"{names[v]} {fmt(ins.inside[v])} {ins.pi[v]}\n" for v in range(view.n))
            _expect("inside stdout", out, lines)

        def best_tree(out, err):
            ins = viterbi_inside(g, inst.sources)
            tree = extract_best_tree(g, ins, inst.target)
            checks.check_tree(view, tree, ins.inside)
            _expect("best-tree stdout", out, _tree_output(tree, names))

        def reduce_cmd(out, err):
            red = reduce(g, state.query())
            vertices, arcs = checks.useful(view)
            if set(red.vertex_map) != vertices or set(red.arc_map) != arcs:
                fail("reduce kept a different set than the benchmark's two passes")
            expected = checks.serialize(view, vertices, arcs)
            _expect("reduce in-process", serialize_hypergraph(red.graph, red.sources, red.target), expected)
            _expect("reduce stdout", out, expected)

        def outside_cmd(out, err):
            rf, rr, ins, outs, pr, _, _ = _forward_prune(direct, g, inst.sources, inst.target, INF)
            view1, _ = _check_forward_prune(inst, rf, rr, ins, outs, pr, INF)
            if checks.kept_original(view1, pr.vertex_map, pr.arc_map) != checks.useful(view):
                fail("beam inf kept a different set than the benchmark's two passes")
            arc_old = {i1: i for i, i1 in rr.arc_map.items()}
            lines = []
            for v in range(view.n):
                v1 = rr.vertex_map.get(v)
                if v1 is None:
                    lines.append(f"{names[v]} inf 0\n")
                else:
                    psi = outs.psi[v1]
                    lines.append(f"{names[v]} {fmt(outs.outside[v1])} {arc_old[psi] if psi else 0}\n")
            _expect("outside stdout", out, "".join(lines))

        target = names[inst.target]
        return [
            ("inside", ["inside", f], inside_cmd),
            ("best-tree", ["best-tree", "--vertex", target, f], best_tree),
            ("reduce", ["reduce", f], reduce_cmd),
            ("outside", ["outside", f], outside_cmd),
        ]


class Grammar:
    """One resident WRTG/CFG; each query is `prune-grammar` at one beam."""

    name = "grammar"

    def __init__(self, seed: int, work: Path) -> None:
        self.gi = gen.grammar(seed)
        self.inst = self.gi.hypergraph
        self.queries = list(GRAMMAR_BEAMS)
        self.sizes = [self.inst.input_size] * len(self.queries)
        self.file = work / "rules.gr"
        self.file.write_text(self.gi.text, encoding="utf-8")
        self.map_file = work / "rules.map"
        self.setup_args = ["grammar", str(self.file)]
        self.view = checks.identity_view(self.inst)
        self.reference: dict[float, str] = {}

    def load(self, call):
        text = self.file.read_text(encoding="utf-8")
        wrtg = call("grammar.parse_grammar", parse_grammar, text)
        return (wrtg, *call("grammar.to_hypergraph", to_hypergraph, wrtg))

    def check_load(self, state) -> None:
        wrtg, graph, query, _ = state
        if len(wrtg.productions) != self.gi.productions or wrtg.start != self.gi.start:
            fail("parsed grammar differs from the generated one")
        checks.check_graph(graph, self.view)
        if query.sources != self.inst.sources or query.target != self.inst.target:
            fail("grammar query differs from the generated one")

    def query(self, call, state, beam: float):
        wrtg, graph, query, gmap = state
        rf, rr, ins, outs, pr, _, _ = _forward_prune(call, graph, query.sources, query.target, beam)
        gmap1 = call("grammar.after_restriction", gmap.after_restriction, rr.vertex_map, rr.arc_map)
        gmap2 = call("grammar.after_restriction", gmap1.after_restriction, pr.vertex_map, pr.arc_map)
        reduced = call("grammar.from_pruned", from_pruned, wrtg, gmap2, pr.graph)
        text = call("grammar.serialize_grammar", serialize_grammar, reduced)
        target1 = rr.vertex_map[query.target]
        tree = call("inside.extract_best_tree", extract_best_tree, rr.graph, ins, target1)
        deriv, weight = call("grammar.best_derivation", best_derivation, wrtg, tree, gmap1)
        red = rt = None
        if beam == INF:
            red = call("reachability.reduce", reduce, graph, query)
            rt = call("reachability.reach_to", reach_to, rr.graph, target1)
        return rf, rr, ins, outs, pr, text, tree, deriv, weight, red, rt

    def fingerprint(self, res):
        return res[5], res[8]

    def check(self, state, beam: float, res):
        rf, rr, ins, outs, pr, text, tree, deriv, weight, red, rt = res
        view, _ = _check_forward_prune(self.inst, rf, rr, ins, outs, pr, beam)
        kept_vertices, kept_arcs = checks.kept_original(view, pr.vertex_map, pr.arc_map)
        lines = "".join(self.gi.lines[i - 1] for i in sorted(kept_arcs))
        _expect("pruned grammar", text, f"start {self.gi.start}\n{lines}")
        checks.check_tree(view, tree, ins.inside)
        checks.check_derivation(view, tree, deriv)
        if not math.isclose(weight, math.exp(-tree.cost), rel_tol=1e-12):
            fail("best derivation weight is not exp(-cost)")
        if beam == INF:
            vertices, arcs = checks.useful(self.view)
            if set(red.vertex_map) != vertices or set(red.arc_map) != arcs:
                fail("reduce kept a different set than the benchmark's two passes")
            if kept_vertices != vertices or kept_arcs != arcs:
                fail("beam inf kept a different set than reduce")
            marked = {view.orig_vertex[v] for v in range(view.n) if rt.reached[v]}
            if marked != vertices:
                fail("reach_to after the forward restriction differs from reduce")
        self.reference[beam] = text
        return self.fingerprint(res)

    def cli(self, state):
        def from_grammar(out, err):
            wrtg, graph, query, _ = state
            expected = gen.hypergraph_text(self.inst)
            _expect("from-grammar in-process", serialize_hypergraph(graph, query.sources, query.target), expected)
            _expect("from-grammar stdout", out, expected)
            n = self.gi.productions
            _expect("from-grammar map", self.map_file.read_text(encoding="utf-8"),
                    "".join(f"{i} {i}\n" for i in range(1, n + 1)))

        def pruned(beam):
            def check(out, err):
                _expect(f"prune-grammar --beam {fmt(beam)} stdout", out, self.reference[beam])
            return check

        f = str(self.file)
        return [
            ("from-grammar", ["from-grammar", f, "--map", str(self.map_file)], from_grammar),
            ("prune-grammar", ["prune-grammar", "--beam", fmt(GRAMMAR_CLI_BEAM), f], pruned(GRAMMAR_CLI_BEAM)),
            ("prune-grammar_inf", ["prune-grammar", "--beam", "inf", f], pruned(INF)),
        ]


WORKLOADS = {w.name: w for w in (Charts, Horn, Grammar)}
