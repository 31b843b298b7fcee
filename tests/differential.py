"""Differential check of this checkout's library against an earlier revision.

Usage, from the repository root::

    python tests/differential.py REV

``src/`` at git revision ``REV`` is extracted with ``git archive`` into a
temporary directory. The same seeded inputs then run through that tree and
through this checkout's ``src/``, in one subprocess each, and every result is
compared by ``repr`` (so floats bitwise; an error by its type and message;
a repr over 4 KiB by its SHA-256):

- ``reduce`` on random graphs from ``tests/support.py`` and on every
  benchmark instance of seeds 13 and 31 (the charts, each horn query, the
  grammar's hypergraph);
- ``viterbi_inside`` with ``use_guard`` on and off on random and tie-heavy
  graphs, and with the guard on for every benchmark instance, each run both
  by default and with ``cost_factory=AdditiveCost``. ``AdditiveCost`` must
  agree bitwise with the default path, so its results are compared with
  REV's default path;
- ``reduce`` with sources or a target out of range, in several orders;
- ``prune_relatively_useless`` on random graphs at beams 0, 0.5 and inf and
  at each arc's boundary beam (the least beam that keeps the arc) and the
  float just below it, and on every benchmark chart at the benchmark's beam;
- ``reduce``, and ``prune_relatively_useless`` at beams 0, 0.5 and inf, on
  random graphs made by ``build`` with unnamed vertices (every other group
  parses its graph from text, which names every vertex), compared by the
  serialized result;
- the benchmark grammar through prune, ``serialize_grammar`` and
  ``best_derivation`` at the benchmark's beams;
- ``parse_grammar`` then ``serialize_grammar`` on every input of
  ``tests/golden/grammar_parse_cases.json``;
- every graph and grammar CLI command, run in process, on the golden CLI
  inputs, benchmark inputs and random graphs;
- ``prune-grammar`` on the benchmark grammars of both seeds and on random
  cyclic grammars with tied weights, at beams 0, 0.0625, 1, 16 and inf and
  at the boundary beam of each arc and vertex and the float just below it.

Prints the number of differing results per group and exits 1 if any differ.
This is a script, not a pytest module.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (13, 31)
GRAMMAR_BEAMS = (0.0625, 0.125, 0.25, 0.5, 1.0, 16.0, float("inf"))
PRUNE_BEAMS = ("0", "0.5", "inf")
CHART_BEAM = 0.1


# -- worker: runs jobs on whichever hyperpaths is on sys.path ------------------


def _derivation_table(deriv) -> list:
    """The derivation tree as a table of distinct subtrees in post-order, so
    that shared and unshared forms of the same tree compare equal."""
    index: dict[tuple, int] = {}
    key_of: dict[int, tuple] = {}
    stack = [(deriv, False)]
    while stack:
        node, done = stack.pop()
        if id(node) in key_of:
            continue
        if done:
            key = (node.production, tuple(index[key_of[id(c)]] for c in node.children))
            index.setdefault(key, len(index))
            key_of[id(node)] = key
            continue
        stack.append((node, True))
        stack.extend((c, False) for c in node.children)
    return [list(index), index[key_of[id(deriv)]]]


def _run_job(hp, texts: list[str], graphs: dict, job: list):
    kind = job[0]
    if kind == "cli":
        from hyperpaths.cli import main

        _, argv, files = job
        for name, ti in files.items():
            Path(name).write_text(texts[ti], encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        written = {
            name: Path(name).read_text(encoding="utf-8")
            for name in sorted(os.listdir("."))
            if name.endswith(".map")
        }
        for name in written:
            os.remove(name)
        return code, out.getvalue(), err.getvalue(), written
    if kind == "grammar":
        g = hp.parse_grammar(texts[job[1]])
        graph, query, gmap = hp.to_hypergraph(g)
        ins = hp.viterbi_inside(graph, query.sources)
        outs = hp.viterbi_outside(graph, ins, query.target)
        pruned = []
        for beam in GRAMMAR_BEAMS:
            pr = hp.prune_relatively_useless(graph, ins, outs, beam)
            gmap2 = gmap.after_restriction(pr.vertex_map, pr.arc_map)
            pruned.append(hp.serialize_grammar(hp.from_pruned(g, gmap2, pr.graph)))
        tree = hp.extract_best_tree(graph, ins, query.target)
        deriv, weight = hp.best_derivation(g, tree, gmap)
        return pruned, _derivation_table(deriv), weight
    if kind == "grammar text":
        return hp.serialize_grammar(hp.parse_grammar(texts[job[1]]))
    if kind in ("unnamed reduce", "unnamed prune"):
        names, arcs, sources, target = job[1:5]
        g = hp.build(names, [hp.Hyperarc(h, tuple(map(tuple, t)), x) for h, t, x in arcs])
        sources = tuple(map(tuple, sources))
        if kind == "unnamed reduce":
            red = hp.reduce(g, hp.Query(sources, target))
            return hp.serialize_hypergraph(red.graph, red.sources, red.target)
        ins = hp.viterbi_inside(g, sources)
        pr = hp.prune_relatively_useless(g, ins, hp.viterbi_outside(g, ins, target), job[5])
        return hp.serialize_hypergraph(pr.graph)
    if job[1] not in graphs:
        graphs[job[1]] = hp.parse_hypergraph(texts[job[1]])
    parsed = graphs[job[1]]
    g = parsed.graph
    if kind == "reduce ids":  # vertex ids, which may be out of range
        red = hp.reduce(g, hp.Query(tuple(map(tuple, job[2])), job[3]))
        return hp.serialize_hypergraph(red.graph, red.sources, red.target), sorted(red.arc_map.items())
    sources = tuple((g.id_of(name), cost) for name, cost in job[2])
    if kind == "prune":
        ins = hp.viterbi_inside(g, sources)
        outs = hp.viterbi_outside(g, ins, g.id_of(job[3]))
        pr = hp.prune_relatively_useless(g, ins, outs, job[4])
        return (
            pr.gamma_vertices, pr.gamma_arcs, pr.keep_vertices, pr.keep_arcs, pr.beam,
            pr.threshold, hp.serialize_hypergraph(pr.graph),
            sorted(pr.vertex_map.items()), sorted(pr.arc_map.items()),
        )
    if kind == "reduce":
        red = hp.reduce(g, hp.Query(sources, g.id_of(job[3])))
        return (
            hp.serialize_hypergraph(red.graph, red.sources, red.target),
            sorted(red.vertex_map.items()),
            sorted(red.arc_map.items()),
            red.target_reachable,
            sorted(red.pass1_vertices),
            sorted(red.pass2_vertices),
        )
    if kind == "inside":
        factory = hp.AdditiveCost if job[3] else None
        res = hp.viterbi_inside(g, sources, cost_factory=factory, use_guard=job[4])
        return res.inside, res.pi, res.binds
    raise ValueError(f"unknown job kind {kind!r}")


def worker(src: str, jobs_path: str, out_path: str) -> None:
    """Run every job of ``jobs_path`` in the current directory, which the
    CLI jobs fill with their files, and write the results' reprs."""
    import hyperpaths as hp

    if not Path(hp.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported {hp.__file__}, not the tree under {src}")
    with open(jobs_path, encoding="utf-8") as handle:
        data = json.load(handle)
    texts, graphs, results = data["texts"], {}, []
    for job in data["jobs"]:
        try:
            result = _run_job(hp, texts, graphs, job)
        except Exception as exc:  # a crash is a result to compare too
            result = f"{type(exc).__name__}: {exc}"
        text = repr(result)
        if len(text) > 4096:  # keeps the result files small; equal digests, equal reprs
            text = f"{text[:300]}... sha256 {hashlib.sha256(text.encode()).hexdigest()}"
        results.append(text)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(results, handle)


# -- driver: builds the jobs, runs both trees, compares ------------------------


def _tie_heavy(rng: Random, hp):
    n = rng.randint(1, 40)
    arcs = []
    for _ in range(rng.randint(0, 120)):
        pairs = tuple((rng.randrange(n), rng.randint(1, 3)) for _ in range(rng.randint(1, 3)))
        length = rng.choice((0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0))
        arcs.append(hp.Hyperarc(rng.randrange(n), pairs, length))
    return hp.build(n, arcs)


def _random_grammar(rng: Random) -> str:
    """A random grammar text: recursive, unproductive and unreachable
    nonterminals, flat and tree rhs, repeated nonterminals, tied weights."""
    nts = [f"N{i}" for i in range(rng.randint(1, 8))]
    lines = ["start N0"]
    for k in range(rng.randint(len(nts), 4 * len(nts))):
        weight = rng.choice(("1", "0.5", "0.25", "0.125", repr(rng.uniform(0.01, 1.0))))
        syms = [rng.choice(nts) if rng.random() < 0.6 else rng.choice("ab")
                for _ in range(rng.randint(0, 3))]
        rhs = f"f({', '.join(syms)})" if syms and rng.random() < 0.4 else " ".join(syms)
        lines.append(f"{weight}: {nts[0] if k == 0 else rng.choice(nts)} -> {rhs}")
    return "\n".join(lines) + "\n"


def _grammar_boundary_beams(hp, text: str) -> list[float]:
    """The boundary beams of every arc and vertex of the grammar's
    hypergraph, with the floats just below them; none when the grammar
    derives nothing."""
    from support import boundary_beams

    graph, query, _ = hp.to_hypergraph(hp.parse_grammar(text))
    ins = hp.viterbi_inside(graph, query.sources)
    best = ins.inside[query.target]
    if best == math.inf:
        return []
    gamma_v, gamma_e = hp.utilities(graph, ins, hp.viterbi_outside(graph, ins, query.target))
    xs = [x for x in gamma_e[1:] + gamma_v if x < math.inf]
    return sorted({b for x in xs for b in boundary_beams(best, x) if b >= 0})


def build_jobs() -> tuple[dict, list[tuple[str, str, int, int]]]:
    """The job file, plus one ``(group, side, job, reference)`` entry per
    comparison: the result of ``job`` on ``side`` is expected to equal the
    result of job ``reference`` on REV."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    import gen
    import hyperpaths as hp
    from support import boundary_beams, random_hypergraph, random_sources, random_weighted_instance
    from test_grammar_parse_table import CASES as GRAMMAR_PARSE_CASES

    texts: list[str] = []
    jobs: list[list] = []
    compare: list[tuple[str, str, int, int]] = []

    def add_text(text: str) -> int:
        texts.append(text)
        return len(texts) - 1

    def add(group: str, job: list, reference: int | None = None) -> int:
        jobs.append(job)
        j = len(jobs) - 1
        compare.append((group, "checkout", j, j if reference is None else reference))
        return j

    def named(g, pairs):
        return [[g.name_of(v), c] for v, c in pairs]

    def inside_both(group: str, ti: int, sources: list, guard: bool) -> None:
        default = add(f"inside default {group}", ["inside", ti, sources, False, guard])
        j = add(f"inside AdditiveCost {group}", ["inside", ti, sources, True, guard], default)
        compare.append((f"REV's own AdditiveCost vs its default path, {group}", "REV", j, default))

    rng = Random(8)
    for _ in range(400):
        g = random_hypergraph(rng)
        sources, target = random_sources(rng, g), rng.randrange(g.n)
        ti = add_text(hp.serialize_hypergraph(g))
        add("reduce random", ["reduce", ti, named(g, sources), g.name_of(target)])
    for seed in range(4):
        rng = Random(800 + seed)
        for k in range(400):
            if k % 2:
                g = _tie_heavy(rng, hp)
                sources = random_sources(rng, g)
            else:
                g, sources = random_weighted_instance(rng)
            ti = add_text(hp.serialize_hypergraph(g))
            for guard in (True, False):
                inside_both("random", ti, named(g, sources), guard)

    rng = Random(10)
    for _ in range(150):
        g = random_hypergraph(rng)
        n = g.n
        ti = add_text(hp.serialize_hypergraph(g))
        for _ in range(3):
            pairs = [[v, 0.0] for v in rng.sample(range(n + 3), rng.randint(1, 3))]
            add("reduce out of range", ["reduce ids", ti, pairs, rng.randrange(n + 2)])

    rng = Random(11)
    pruned = 0
    while pruned < 300:
        g, sources = random_weighted_instance(rng)
        ins = hp.viterbi_inside(g, sources)
        targets = [v for v in range(g.n) if ins.inside[v] < math.inf]
        if not targets:
            continue
        pruned += 1
        target = rng.choice(targets)
        ti = add_text(hp.serialize_hypergraph(g))
        best = ins.inside[target]
        _, gamma_e = hp.utilities(g, ins, hp.viterbi_outside(g, ins, target))
        beams = [0.0, 0.5, math.inf]
        for x in gamma_e[1:]:
            if x < math.inf:
                beams.extend(b for b in boundary_beams(best, x) if b >= 0)
        for beam in beams:
            add("prune random", ["prune", ti, named(g, sources), g.name_of(target), beam])

    rng = Random(12)
    for _ in range(300):
        g, sources = random_weighted_instance(rng)
        perm = rng.sample(range(g.n), g.n)
        names = [None if rng.random() < 0.5 else f"v{perm[v]}" for v in range(g.n)]
        spec = [names, [[a.head, a.tails, a.length] for a in g.arcs], sources]
        add("unnamed reduce", ["unnamed reduce", *spec, rng.randrange(g.n)])
        ins = hp.viterbi_inside(g, sources)
        targets = [v for v in range(g.n) if ins.inside[v] < math.inf]
        if targets:
            target = rng.choice(targets)
            for beam in (0.0, 0.5, math.inf):
                add("unnamed prune", ["unnamed prune", *spec, target, beam])

    for seed in SEEDS:
        instances = [(inst, [(inst.sources, inst.target)]) for inst in gen.charts(seed)]
        horn, queries = gen.horn(seed)
        instances.append((horn, [(q.sources, q.target) for q in queries]))
        grammar = gen.grammar(seed)
        instances.append((grammar.hypergraph, [(grammar.hypergraph.sources, grammar.hypergraph.target)]))
        for inst, inst_queries in instances:
            ti = add_text(gen.hypergraph_text(inst))
            for sources, target in inst_queries:
                srcs = [[inst.names[v], c] for v, c in sources]
                add("reduce benchmark", ["reduce", ti, srcs, inst.names[target]])
                inside_both("benchmark", ti, srcs, True)
                add("prune benchmark", ["prune", ti, srcs, inst.names[target], CHART_BEAM])
        add("grammar pipeline benchmark", ["grammar", add_text(grammar.text)])
    for text in GRAMMAR_PARSE_CASES.values():
        add("grammar parse cases", ["grammar text", add_text(text)])

    # CLI: golden inputs, one chart, the horn graph and grammar of each seed,
    # and random graphs.
    graph_inputs = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "tests/golden/cli").glob("*.hg"))]
    grammar_inputs = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "tests/golden/cli").glob("*.gr"))]
    for seed in SEEDS:
        graph_inputs.append(gen.hypergraph_text(gen.charts(seed)[0]))
        graph_inputs.append(gen.hypergraph_text(gen.horn(seed)[0]))
        grammar_inputs.append(gen.grammar(seed).text)
    rng = Random(9)
    for _ in range(60):
        g = random_hypergraph(rng)
        graph_inputs.append(hp.serialize_hypergraph(g, random_sources(rng, g), rng.randrange(g.n)))
    for text in graph_inputs:
        ti = add_text(text)
        parsed = hp.parse_hypergraph(text)
        target = parsed.graph.name_of(parsed.target) if parsed.target is not None else "v0"
        commands = [["validate"], ["reach-from"], ["reach-to"], ["reduce"], ["inside"],
                    ["best-tree", "--vertex", target], ["outside"]]
        commands += [["prune", "--beam", b, "--report", r] for b in PRUNE_BEAMS for r in ("text", "json")]
        for argv in commands:
            add("cli graph", ["cli", argv + ["in.hg"], {"in.hg": ti}])
    for text in grammar_inputs:
        ti = add_text(text)
        add("cli grammar", ["cli", ["from-grammar", "in.gr"], {"in.gr": ti}])
        add("cli grammar", ["cli", ["from-grammar", "--map", "out.map", "in.gr"], {"in.gr": ti}])
        for beam in ("0.0625", "1", "inf"):
            add("cli grammar", ["cli", ["prune-grammar", "--beam", beam, "in.gr"], {"in.gr": ti}])

    # prune-grammar at fixed and boundary beams.
    texts_gr = [gen.grammar(seed).text for seed in SEEDS]
    rng = Random(14)
    texts_gr += [_random_grammar(rng) for _ in range(150)]
    for text in texts_gr:
        ti = add_text(text)
        beams = ["0", "0.0625", "1", "16", "inf"]
        beams += map(repr, _grammar_boundary_beams(hp, text))
        for beam in beams:
            argv = ["prune-grammar", "--beam", beam, "in.gr"]
            add("prune-grammar beams", ["cli", argv, {"in.gr": ti}])
    return {"texts": texts, "jobs": jobs}, compare


def extract(rev: str, dest: Path) -> Path:
    data = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return dest / "src"


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "--worker":
        worker(*argv[1:])
        return 0
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="differential-") as tmp:
        tmp_dir = Path(tmp)
        trees = {"REV": extract(argv[0], tmp_dir / "rev"), "checkout": ROOT / "src"}
        data, compare = build_jobs()
        jobs_path = tmp_dir / "jobs.json"
        jobs_path.write_text(json.dumps(data), encoding="utf-8")
        procs = {}
        for side, src in trees.items():
            env = dict(os.environ, PYTHONPATH=str(src))
            out = tmp_dir / f"{side}.json"
            cwd = tmp_dir / f"{side}-cwd"
            cwd.mkdir()
            cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(src),
                   str(jobs_path), str(out)]
            procs[side] = (subprocess.Popen(cmd, env=env, cwd=cwd), out)
        for side, (proc, _) in procs.items():
            if proc.wait() != 0:
                print(f"worker for {side} failed", file=sys.stderr)
                return 2
        results = {side: json.loads(out.read_text(encoding="utf-8")) for side, (_, out) in procs.items()}
    rev = results["REV"]
    counts: dict[str, list[int]] = {}
    shown = 0
    for group, side, j, ref in compare:
        got = results[side][j]
        differs = got != rev[ref]
        counts.setdefault(group, [0, 0])
        counts[group][0] += differs
        counts[group][1] += 1
        if differs and side != "REV" and shown < 5:
            shown += 1
            print(f"differs: {group} job {data['jobs'][j][:2]}\n  REV: {rev[ref][:300]}\n"
                  f"  now: {got[:300]}")
    total = 0
    for group, (bad, runs) in counts.items():
        print(f"{group}: {bad} of {runs} differ")
        if not group.startswith("REV's"):  # REV against itself: shown, not counted
            total += bad
    print(f"total: {total} differences against {argv[0]}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
