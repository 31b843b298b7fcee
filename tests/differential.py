"""Differential check of this checkout's library against an earlier revision.

Usage, from the repository root::

    python tests/differential.py REV [GROUP ...]

``src/`` at git revision ``REV`` is extracted with ``git archive`` into a
temporary directory. The same seeded inputs then run through that tree and
through this checkout's ``src/``, in one subprocess each, and every result is
compared by ``repr`` (so floats bitwise; an error by its type and message;
a repr over 4 KiB by its SHA-256):

- ``reduce`` on random graphs from ``tests/support.py`` and on every
  benchmark instance of seeds 13 and 31 (the charts, each horn query, the
  grammar's hypergraph);
- ``viterbi_inside`` on random and tie-heavy graphs and on every benchmark
  instance;
- ``viterbi_inside`` with ``stop=(target, beam)`` at beams 0, 1 and inf on
  the same graphs;
- ``viterbi_outside`` on the same graphs and targets, after the full inside
  pass and with ``beam=`` 0, 1 and inf after the inside pass stopped at that
  beam, compared by outside costs, ``psi`` and both utility tuples
  (``inside + outside`` per vertex and ``gamma_arcs``);
- ``reduce`` with sources or a target out of range, in several orders;
- ``prune_relatively_useless`` on random graphs at beams 0, 0.5 and inf and
  at each arc's boundary beam (the least beam that keeps the arc) and the
  float just below it, and on every benchmark chart at the benchmark's beam;
- ``reduce``, and ``prune_relatively_useless`` at beams 0, 0.5 and inf, on
  random graphs made by ``build`` with unnamed vertices (every other group
  parses its graph from text, which names every vertex), compared by the
  serialized result;
- ``restrict`` on parsed random graphs and on random graphs made by
  ``build`` with unnamed vertices, keeping no vertex, a random multiset of
  vertices in random order, and every vertex, compared by the serialized
  graph and both index maps;
- the benchmark grammar through prune, ``serialize_grammar`` and
  ``best_derivation`` at the benchmark's beams;
- ``parse_grammar`` then ``serialize_grammar`` on every input of
  ``tests/golden/grammar_parse_cases.json``;
- every graph and grammar CLI command, run in process, on the golden CLI
  inputs, benchmark inputs and random graphs;
- ``prune-grammar`` on the benchmark grammars of both seeds and on random
  cyclic grammars with tied weights, at beams 0, 0.0625, 1, 16 and inf and
  at the boundary beam of each arc and vertex and the float just below it;
- CLI ``prune``, with text and JSON reports, on random graphs at the
  boundary beam of each arc and vertex and the float just below it;
- every public call that takes a vertex or arc id, with the bad ids
  ``True``, ``1.5``, ``None``, ``"3"``, ``-1`` and the two least ids out of
  range, on random graphs ("vertex ids");
- every public call that takes a cost, length, beam or weight, with the
  values ``"x"``, ``None``, ``nan``, ``-1.0``, ``-inf``, ``10**400`` and
  ``inf`` and the accepted ``"1.5"``, ``2``, ``True`` and ``-0.0``, on random
  graphs ("numbers");
- ``parse_hypergraph`` on every input of ``tests/golden/parse_cases.json``,
  every ``tests/golden/cli/*.hg`` file and every benchmark text of seeds 13
  and 31, and on seeded single-token mutations of the benchmark texts (a
  token dropped or doubled, an arc length set to ``nan``, ``-1``, ``inf`` or
  ``x``, ``#`` or ``*2`` inserted), compared by every array the parsed graph
  stores ("hypergraph parse").

Each GROUP given, such as ``"vertex ids"``, limits the run to that group's
jobs; with none, every group runs. Prints the number of differing results
per group, with the seconds each side's worker spent on the group's jobs,
and exits 1 if any differ. This is a script, not a pytest module.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import operator
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (13, 31)
GRAMMAR_BEAMS = (0.0625, 0.125, 0.25, 0.5, 1.0, 16.0, float("inf"))
PRUNE_BEAMS = ("0", "0.5", "inf")
CHART_BEAM = 0.1
STOP_BEAMS = (0.0, 1.0, math.inf)
ID_CALLS = (
    "restrict", "reach_from", "reach_to", "reduce source", "reduce target", "inside source",
    "inside stop", "extract_best_tree", "viterbi_outside", "serialize source",
    "serialize target", "name_of", "build head", "build tail", "arc",
)
NUMBER_CALLS = (
    "inside source cost", "Query source cost", "serialize source cost", "Hyperarc length",
    "outside beam", "prune beam", "inside stop beam", "Production weight",
)
NUMBERS = ("x", None, math.nan, -1.0, -math.inf, 10**400, math.inf, "1.5", 2, True, -0.0)
MUTATIONS = ("drop", "double", "nan", "-1", "inf", "x", "#", "*2")
MUTANTS_PER_TEXT = 20


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


def _utilities(ins, outs) -> tuple:
    """The vertex and arc utilities of two passes: ``inside + outside`` per
    vertex, and the outside pass's ``gamma_arcs``."""
    return tuple(map(operator.add, ins.inside, outs.outside)), outs.gamma_arcs


def _restricted(hp, g, keep: list[int]):
    res = hp.restrict(g, keep)
    return hp.serialize_hypergraph(res.graph), sorted(res.vertex_map.items()), sorted(res.arc_map.items())


def _id_call(hp, parsed, call: str, bad):
    """Run ``call``, one public call that takes a vertex or arc id, with
    ``bad`` as that id, on a parsed graph with sources and a target."""
    g, sources, target = parsed.graph, parsed.sources, parsed.target
    run = {
        "restrict": lambda: hp.restrict(g, [0, bad]),
        "reach_from": lambda: hp.reach_from(g, [*[v for v, _ in sources], bad]),
        "reach_to": lambda: hp.reach_to(g, bad),
        "reduce source": lambda: hp.reduce(g, hp.Query((*sources, (bad, 0.0)), target)),
        "reduce target": lambda: hp.reduce(g, hp.Query(sources, bad)),
        "inside source": lambda: hp.viterbi_inside(g, (*sources, (bad, 0.0))),
        "inside stop": lambda: hp.viterbi_inside(g, sources, stop=(bad, 1.0)),
        "extract_best_tree": lambda: hp.extract_best_tree(g, hp.viterbi_inside(g, sources), bad),
        "viterbi_outside": lambda: hp.viterbi_outside(g, hp.viterbi_inside(g, sources), bad),
        "serialize source": lambda: hp.serialize_hypergraph(g, (*sources, (bad, 0.0)), target),
        "serialize target": lambda: hp.serialize_hypergraph(g, sources, bad),
        "name_of": lambda: g.name_of(bad),
        "build head": lambda: hp.build(g.n, [hp.Hyperarc(bad, ((0, 1),), 1.0)]),
        "build tail": lambda: hp.build(g.n, [hp.Hyperarc(0, ((bad, 1),), 1.0)]),
        "arc": lambda: g.arc(bad),
    }[call]
    return run()


def _number_call(hp, parsed, call: str, x):
    """Run ``call``, one public call that takes a number, with ``x`` as that
    number, on a parsed graph with sources and a target the sources reach."""
    g, sources, target = parsed.graph, parsed.sources, parsed.target
    costed = ((sources[0][0], x), *sources[1:])
    if call == "inside source cost":
        return hp.viterbi_inside(g, costed)
    if call == "Query source cost":
        return hp.Query(costed, target)
    if call == "serialize source cost":
        return hp.serialize_hypergraph(g, costed, target)
    if call == "Hyperarc length":
        return hp.Hyperarc(0, ((0, 1),), x)
    if call == "Production weight":
        return hp.Production("S", ("a",), x)
    if call == "inside stop beam":
        return hp.viterbi_inside(g, sources, stop=(target, x))
    ins = hp.viterbi_inside(g, sources)
    if call == "outside beam":
        return hp.viterbi_outside(g, ins, target, beam=x)
    pr = hp.prune_relatively_useless(g, ins, hp.viterbi_outside(g, ins, target), x)
    return float(x), pr.keep_vertices, pr.keep_arcs


def _mutant(text: str, seed: int) -> str:
    """``text`` with one seeded change to one line's tokens: a token dropped
    or doubled, an arc line's length replaced, ``#`` inserted before a token
    or ``*2`` appended to one."""
    rng = Random(seed)
    lines = text.splitlines(True)
    what = rng.choice(MUTATIONS)
    arcs = [k for k, line in enumerate(lines) if line.startswith("arc ")]
    k = rng.choice(arcs) if arcs and what in ("nan", "-1", "inf", "x") else rng.randrange(len(lines))
    tokens = lines[k].split()
    j = rng.randrange(len(tokens))
    if what == "drop":
        del tokens[j]
    elif what == "double":
        tokens.insert(j, tokens[j])
    elif what == "#":
        tokens.insert(j, "#")
    elif what == "*2":
        tokens[j] += "*2"
    else:
        tokens[-1] = what
    lines[k] = " ".join(tokens) + "\n"
    return "".join(lines)


def _parsed_arrays(parsed) -> tuple:
    """Everything a parse stores, with the arcs whose distinct tails are a
    tuple of their own rather than the tails tuple itself."""
    g = parsed.graph
    merged = [i for i in g.arc_indices if g._dtails[i] is not g._tails[i]]
    return (
        g.names, g._heads, g._tails, g._lengths, g._dtails, merged, g._arity, g.forward,
        g.backward, g.input_size, parsed.sources, parsed.target,
    )


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
    if kind == "parse":  # job[2] seeds a mutation of the text, or is None
        text = texts[job[1]] if job[2] is None else _mutant(texts[job[1]], job[2])
        return _parsed_arrays(hp.parse_hypergraph(text))
    if kind in ("unnamed reduce", "unnamed prune", "unnamed restrict"):
        names, arcs = job[1:3]
        g = hp.build(names, [hp.Hyperarc(h, tuple(map(tuple, t)), x) for h, t, x in arcs])
        if kind == "unnamed restrict":
            return _restricted(hp, g, job[3])
        sources, target = tuple(map(tuple, job[3])), job[4]
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
    if kind == "restrict":
        return _restricted(hp, g, job[2])
    if kind == "vertex id":
        return _id_call(hp, parsed, job[2], job[3])
    if kind == "number":
        return _number_call(hp, parsed, job[2], job[3])
    if kind == "reduce ids":  # vertex ids, which may be out of range
        red = hp.reduce(g, hp.Query(tuple(map(tuple, job[2])), job[3]))
        return hp.serialize_hypergraph(red.graph, red.sources, red.target), sorted(red.arc_map.items())
    sources = tuple((g.id_of(name), cost) for name, cost in job[2])
    if kind == "prune":
        ins = hp.viterbi_inside(g, sources)
        outs = hp.viterbi_outside(g, ins, g.id_of(job[3]))
        pr = hp.prune_relatively_useless(g, ins, outs, job[4])
        return (
            pr.gamma_vertices, pr.gamma_arcs, pr.keep_vertices, pr.keep_arcs, job[4],
            ins.inside[outs.target] + job[4], hp.serialize_hypergraph(pr.graph),
            sorted(pr.vertex_map.items()), sorted(pr.arc_map.items()),
        )
    if kind == "reduce":
        red = hp.reduce(g, hp.Query(sources, g.id_of(job[3])))
        return (
            hp.serialize_hypergraph(red.graph, red.sources, red.target),
            sorted(red.vertex_map.items()),
            sorted(red.arc_map.items()),
            red.target is not None,
            sorted(hp.reach_from(g, [v for v, _ in sources]).vertices()),
            sorted(red.vertex_map),
        )
    if kind == "inside":
        res = hp.viterbi_inside(g, sources)
        return res.inside, res.pi, res.binds
    if kind == "inside stopped":
        res = hp.viterbi_inside(g, sources, stop=(g.id_of(job[3]), job[4]))
        return res.inside, res.pi, res.binds
    if kind == "outside":  # job[4] is the beam of both passes, None for full passes
        target, beam = g.id_of(job[3]), job[4]
        if beam is None:
            ins = hp.viterbi_inside(g, sources)
            outs = hp.viterbi_outside(g, ins, target)
        else:
            ins = hp.viterbi_inside(g, sources, stop=(target, beam))
            outs = hp.viterbi_outside(g, ins, target, beam=beam)
        return outs.outside, outs.psi, _utilities(ins, outs)
    raise ValueError(f"unknown job kind {kind!r}")


def worker(src: str, jobs_path: str, out_path: str) -> None:
    """Run every job of ``jobs_path`` in the current directory, which the
    CLI jobs fill with their files, and write the results' reprs and the
    seconds each job took, its repr included."""
    import hyperpaths as hp

    if not Path(hp.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported {hp.__file__}, not the tree under {src}")
    with open(jobs_path, encoding="utf-8") as handle:
        data = json.load(handle)
    texts, graphs, results, seconds = data["texts"], {}, [], []
    for job in data["jobs"]:
        start = time.perf_counter()
        try:
            result = _run_job(hp, texts, graphs, job)
        except Exception as exc:  # a crash is a result to compare too
            result = f"{type(exc).__name__}: {exc}"
        text = repr(result)
        if len(text) > 4096:  # keeps the result files small; equal digests, equal reprs
            text = f"{text[:300]}... sha256 {hashlib.sha256(text.encode()).hexdigest()}"
        results.append(text)
        seconds.append(time.perf_counter() - start)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"results": results, "seconds": seconds}, handle)


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


def _boundary_beams(hp, graph, sources, target: int) -> list[float]:
    """The boundary beams of every arc and vertex of a prune of ``graph``
    toward ``target``, with the floats just below them; none when the
    sources do not reach the target."""
    from support import boundary_beams

    ins = hp.viterbi_inside(graph, sources)
    best = ins.inside[target]
    if best == math.inf:
        return []
    gamma_v, gamma_e = _utilities(ins, hp.viterbi_outside(graph, ins, target))
    xs = [x for x in gamma_e[1:] + gamma_v if x < math.inf]
    return sorted({b for x in xs for b in boundary_beams(best, x) if b >= 0})


def _grammar_boundary_beams(hp, text: str) -> list[float]:
    """:func:`_boundary_beams` of the grammar's hypergraph and query."""
    graph, query, _ = hp.to_hypergraph(hp.parse_grammar(text))
    return _boundary_beams(hp, graph, query.sources, query.target)


def build_jobs() -> tuple[dict, list[str]]:
    """The job file, plus each job's group: every job's result in this
    checkout is expected to equal its result on REV."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    import gen
    import hyperpaths as hp
    from support import boundary_beams, random_hypergraph, random_sources, random_weighted_instance
    from test_grammar_parse_table import CASES as GRAMMAR_PARSE_CASES
    from test_parse_table import CASES as PARSE_CASES

    texts: list[str] = []
    jobs: list[list] = []
    groups: list[str] = []

    def add_text(text: str) -> int:
        texts.append(text)
        return len(texts) - 1

    def add(group: str, job: list) -> None:
        jobs.append(job)
        groups.append(group)

    def named(g, pairs):
        return [[g.name_of(v), c] for v, c in pairs]

    pick = Random(15)

    def inside_stopped(ti: int, sources: list, target: str) -> None:
        for beam in STOP_BEAMS:
            add("inside stopped", ["inside stopped", ti, sources, target, beam])

    def outside(group: str, ti: int, sources: list, target: str) -> None:
        for beam in (None, *STOP_BEAMS):
            add(group, ["outside", ti, sources, target, beam])

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
            add("inside random", ["inside", ti, named(g, sources)])
            # Stopped at a vertex an arc reaches, or at a source if none is.
            ins = hp.viterbi_inside(g, sources)
            reached = [v for v in range(g.n) if ins.inside[v] < math.inf]
            target = pick.choice([v for v in reached if ins.pi[v]] or reached)
            inside_stopped(ti, named(g, sources), g.name_of(target))
            outside("outside random", ti, named(g, sources), g.name_of(target))

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
        _, gamma_e = _utilities(ins, hp.viterbi_outside(g, ins, target))
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

    rng = Random(17)
    for k in range(300):
        if k % 2:
            g = random_hypergraph(rng)
            job = ["restrict", add_text(hp.serialize_hypergraph(g))]
        else:
            g, _ = random_weighted_instance(rng)
            names = [None if rng.random() < 0.5 else f"v{rng.randrange(g.n)}" for _ in range(g.n)]
            names = [None if name in names[:v] else name for v, name in enumerate(names)]
            job = ["unnamed restrict", names, [[a.head, a.tails, a.length] for a in g.arcs]]
        some = [v for v in range(g.n) if rng.random() < 0.6]
        some += rng.choices(some, k=len(some) // 3) if some else []
        rng.shuffle(some)
        for keep in ([], some, rng.sample(range(g.n), g.n)):
            add("restrict random", [*job, keep])

    mutant_seeds = Random(20)
    for seed in SEEDS:
        instances = [(inst, [(inst.sources, inst.target)]) for inst in gen.charts(seed)]
        horn, queries = gen.horn(seed)
        instances.append((horn, [(q.sources, q.target) for q in queries]))
        grammar = gen.grammar(seed)
        instances.append((grammar.hypergraph, [(grammar.hypergraph.sources, grammar.hypergraph.target)]))
        for inst, inst_queries in instances:
            ti = add_text(gen.hypergraph_text(inst))
            add("hypergraph parse", ["parse", ti, None])
            for _ in range(MUTANTS_PER_TEXT):
                add("hypergraph parse", ["parse", ti, mutant_seeds.randrange(2**32)])
            for sources, target in inst_queries:
                srcs = [[inst.names[v], c] for v, c in sources]
                add("reduce benchmark", ["reduce", ti, srcs, inst.names[target]])
                add("inside benchmark", ["inside", ti, srcs])
                inside_stopped(ti, srcs, inst.names[target])
                outside("outside benchmark", ti, srcs, inst.names[target])
                add("prune benchmark", ["prune", ti, srcs, inst.names[target], CHART_BEAM])
        add("grammar pipeline benchmark", ["grammar", add_text(grammar.text)])
    for text in GRAMMAR_PARSE_CASES.values():
        add("grammar parse cases", ["grammar text", add_text(text)])
    for text in PARSE_CASES.values():
        add("hypergraph parse", ["parse", add_text(text), None])
    for path in sorted((ROOT / "tests/golden/cli").glob("*.hg")):
        add("hypergraph parse", ["parse", add_text(path.read_text(encoding="utf-8")), None])

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

    # prune at the boundary beam of each arc and vertex and the float just
    # below it. Past the first 100 random graphs, only those where rounding
    # puts a tail's utility above its arc's are taken (about 1 in 170): at
    # the arc's boundary beam the arc is flagged kept, its tail is not, and
    # the output drops the arc.
    rng = Random(16)
    taken = 0
    while taken < 130:
        g, sources = random_weighted_instance(rng)
        ins = hp.viterbi_inside(g, sources)
        target = rng.choice([v for v in range(g.n) if ins.inside[v] < math.inf])
        gamma_v, gamma_e = _utilities(ins, hp.viterbi_outside(g, ins, target))
        if taken >= 100 and not any(
            gamma_v[t] > gamma_e[i] for i in g.arc_indices for t, _ in g._dtails[i]
        ):
            continue
        taken += 1
        ti = add_text(hp.serialize_hypergraph(g, sources, target))
        for beam in _boundary_beams(hp, g, sources, target):
            for report in ("text", "json"):
                argv = ["prune", "--beam", repr(beam), "--report", report, "in.hg"]
                add("prune beams", ["cli", argv, {"in.hg": ti}])

    rng = Random(18)
    for _ in range(20):
        g = random_hypergraph(rng)
        ti = add_text(hp.serialize_hypergraph(g, random_sources(rng, g), rng.randrange(g.n)))
        for call in ID_CALLS:
            out_of_range = (0, g.num_arcs + 1) if call == "arc" else (g.n, g.n + 1)
            for bad in (True, 1.5, None, "3", -1, *out_of_range):
                add("vertex ids", ["vertex id", ti, call, bad])

    rng = Random(19)
    for _ in range(10):
        g, sources = random_weighted_instance(rng)
        ins = hp.viterbi_inside(g, sources)
        target = rng.choice([v for v in range(g.n) if ins.inside[v] < math.inf])
        ti = add_text(hp.serialize_hypergraph(g, sources, target))
        for call in NUMBER_CALLS:
            for x in NUMBERS:
                add("numbers", ["number", ti, call, x])
    return {"texts": texts, "jobs": jobs}, groups


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
    if not argv:
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 2
    data, groups = build_jobs()
    if argv[1:]:
        unknown = set(argv[1:]).difference(groups)
        if unknown:
            print(f"unknown groups {sorted(unknown)}; the groups are {sorted(set(groups))}",
                  file=sys.stderr)
            return 2
        chosen = [j for j, group in enumerate(groups) if group in argv[1:]]
        data["jobs"] = [data["jobs"][j] for j in chosen]
        groups = [groups[j] for j in chosen]
    with tempfile.TemporaryDirectory(prefix="differential-") as tmp:
        tmp_dir = Path(tmp)
        trees = {"REV": extract(argv[0], tmp_dir / "rev"), "checkout": ROOT / "src"}
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
        outputs = {side: json.loads(out.read_text(encoding="utf-8")) for side, (_, out) in procs.items()}
    results = {side: output["results"] for side, output in outputs.items()}
    counts: dict[str, list] = {}
    shown = 0
    for j, (group, rev, got) in enumerate(zip(groups, results["REV"], results["checkout"])):
        differs = got != rev
        counts.setdefault(group, [0, 0, 0.0, 0.0])
        counts[group][0] += differs
        counts[group][1] += 1
        counts[group][2] += outputs["REV"]["seconds"][j]
        counts[group][3] += outputs["checkout"]["seconds"][j]
        if differs and shown < 5:
            shown += 1
            print(f"differs: {group} job {data['jobs'][j][:2]}\n  REV: {rev[:300]}\n"
                  f"  now: {got[:300]}")
    total = 0
    for group, (bad, runs, rev_s, now_s) in counts.items():
        print(f"{group}: {bad} of {runs} differ ({rev_s:.1f} s on REV, {now_s:.1f} s here)")
        total += bad
    print(f"total: {total} differences against {argv[0]}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
