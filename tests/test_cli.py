from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from hyperpaths import (
    InternalInvariantError,
    Query,
    parse_grammar,
    parse_hypergraph,
    prune_relatively_useless,
    reach_from,
    reduce,
    serialize_hypergraph,
    viterbi_inside,
    viterbi_outside,
)
from hyperpaths import cli
from hyperpaths.cli import main

from support import random_hypergraph, random_sources

UNREACHABLE_TEXT = """\
vertex omega
vertex U
vertex S
arc S <- U omega @ 1
source omega 0
target S
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys, f1_file):
    code, out, err = run(capsys, "validate", f1_file)
    assert code == 0 and out == "" and err == ""


def test_validate_parse_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.hg"
    bad.write_text("arc A <- @ 1\n", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "line 1" in err


def test_usage_error_exit_1(capsys, f1_file):
    code, _, err = run(capsys, "prune", "--beam", "soup", f1_file)
    assert code == 1 and "beam" in err


def test_internal_invariant_exit_3(capsys, monkeypatch, f1_file):
    def broken_pass(g, sources, stop=None):
        raise InternalInvariantError("extraction keys decreased: cost function not superior")

    monkeypatch.setattr("hyperpaths.inside.viterbi_inside", broken_pass)
    code, out, err = run(capsys, "inside", f1_file)
    assert (code, out) == (3, "")
    assert err == "internal error: extraction keys decreased: cost function not superior\n"


def test_unknown_subcommand_exit_1(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_reach_from_lists_names(capsys, f1_file):
    code, out, _ = run(capsys, "reach-from", f1_file)
    assert code == 0
    assert out.splitlines() == ["omega", "A", "B", "S"]


def test_reach_to_lists_names(capsys, f1_file):
    code, out, _ = run(capsys, "reach-to", f1_file)
    assert code == 0
    assert out.splitlines() == ["omega", "A", "B", "S"]


def test_reduce_emits_graph(capsys, f1_file):
    code, out, _ = run(capsys, "reduce", f1_file)
    assert code == 0
    parsed = parse_hypergraph(out)
    assert parsed.graph.num_arcs == 4
    assert parsed.target == parsed.graph.id_of("S")


def test_reduce_unreachable_emits_empty(capsys, tmp_path):
    path = tmp_path / "u.hg"
    path.write_text(UNREACHABLE_TEXT, encoding="utf-8")
    code, out, err = run(capsys, "reduce", str(path))
    assert code == 0
    assert out == ""
    assert "unreachable" in err


def test_inside_table(capsys, f1_file):
    code, out, _ = run(capsys, "inside", f1_file)
    assert code == 0
    rows = dict(line.split()[0:2] for line in out.splitlines())
    assert rows == {"omega": "0", "A": "1", "B": "2", "S": "3.5"}


def test_inside_unreachable_target_exit_2(capsys, tmp_path):
    path = tmp_path / "u.hg"
    path.write_text(UNREACHABLE_TEXT, encoding="utf-8")
    code, out, err = run(capsys, "inside", str(path))
    assert code == 2
    assert "target unreachable" in err
    assert "omega 0 0" in out


def test_best_tree(capsys, f1_file):
    code, out, _ = run(capsys, "best-tree", "--vertex", "S", f1_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "(3 (1) (2))"
    assert lines[1] == "3.5"


def test_best_tree_unreachable_exit_2(capsys, tmp_path):
    path = tmp_path / "u.hg"
    path.write_text(UNREACHABLE_TEXT, encoding="utf-8")
    code, _, err = run(capsys, "best-tree", "--vertex", "S", str(path))
    assert code == 2 and "unreachable" in err


def _doubling_chain(k: int) -> str:
    """``X1 <- S*2``, ``X2 <- X1*2``, ... at length 0: the best tree of ``Xk``
    has k distinct arc nodes and 2**k - 1 unfolded ones."""
    lines = ["vertex S", "source S 0"]
    for j in range(1, k + 1):
        lines += [f"vertex X{j}", f"arc X{j} <- {'S' if j == 1 else f'X{j - 1}'}*2 @ 0"]
    return "\n".join(lines) + "\n"


def test_best_tree_refuses_a_tree_too_large_to_print(tmp_path):
    path = tmp_path / "chain.hg"
    path.write_text(_doubling_chain(64), encoding="utf-8")
    # In a child with a timeout: printing the unfolded tree would never end.
    proc = subprocess.run(
        [sys.executable, "-m", "hyperpaths.cli", "best-tree", "--vertex", "X64", str(path)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        f"error: the best tree of 'X64' has 64 distinct arc nodes but {2**64 - 1} unfolded, "
        f"more than the {cli.MAX_PRINTED_ARC_NODES} best-tree prints\n"
    )


def test_best_tree_prints_a_tree_at_the_cap(capsys, monkeypatch, tmp_path):
    path = tmp_path / "chain.hg"
    path.write_text(_doubling_chain(3), encoding="utf-8")
    monkeypatch.setattr(cli, "MAX_PRINTED_ARC_NODES", 7)
    code, out, _ = run(capsys, "best-tree", "--vertex", "X3", str(path))
    assert (code, out) == (0, "(3 (2 (1) (1)) (2 (1) (1)))\n0\n")
    monkeypatch.setattr(cli, "MAX_PRINTED_ARC_NODES", 6)
    code, out, err = run(capsys, "best-tree", "--vertex", "X3", str(path))
    assert (code, out) == (1, "")
    assert "3 distinct arc nodes but 7 unfolded" in err


def test_outside_table(capsys, f1_file):
    code, out, _ = run(capsys, "outside", f1_file)
    assert code == 0
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()}
    assert rows["S"] == ["0", "0"]
    assert rows["A"] == ["2.5", "3"]
    assert rows["B"] == ["1.5", "3"]
    assert rows["omega"] == ["3.5", "2"]


def test_prune_beam_one_drops_e4(capsys, f1_file):
    code, out, err = run(capsys, "prune", "--beam", "1.0", f1_file)
    assert code == 0
    parsed = parse_hypergraph(out)
    assert parsed.graph.num_arcs == 3
    lengths = [parsed.graph.arc(i).length for i in parsed.graph.arc_indices]
    assert 3.0 not in lengths
    assert "arc 4 gamma 5 keep 0" in err
    assert "best 3.5" in err


def test_prune_unreachable_exit_2(capsys, tmp_path):
    path = tmp_path / "u.hg"
    path.write_text(UNREACHABLE_TEXT, encoding="utf-8")
    code, _, err = run(capsys, "prune", "--beam", "1", str(path))
    assert code == 2 and "unreachable" in err


def test_prune_runs_reach_from_only_for_infinite_target(capsys, monkeypatch, f1_file, tmp_path):
    calls = []

    def counting_reach_from(*args):
        calls.append(args)
        return reach_from(*args)

    # The CLI imports reach_from from its module when it needs it.
    monkeypatch.setattr("hyperpaths.reachability.reach_from", counting_reach_from)
    code, _, _ = run(capsys, "prune", "--beam", "1", f1_file)
    assert code == 0 and len(calls) == 0
    path = tmp_path / "u.hg"
    path.write_text(UNREACHABLE_TEXT, encoding="utf-8")
    code, _, err = run(capsys, "prune", "--beam", "1", str(path))
    assert code == 2 and err == "target unreachable\n" and len(calls) == 1


def test_prune_json_report(capsys, f1_file):
    code, out, err = run(capsys, "prune", "--beam", "1.0", "--report", "json", f1_file)
    assert code == 0
    report = json.loads(err)
    assert report["best"] == 3.5
    vertices = {row["name"]: row for row in report["vertices"]}
    assert set(vertices) == {"omega", "A", "B", "S"}
    assert vertices["A"]["inside"] == 1.0
    assert vertices["A"]["outside"] == 2.5
    assert vertices["A"]["gamma"] == 3.5
    assert all(row["keep"] for row in report["vertices"])
    arcs = {row["index"]: row for row in report["arcs"]}
    assert arcs[4]["gamma"] == 5.0 and arcs[4]["keep"] is False
    assert arcs[3]["keep"] is True
    assert arcs[4]["tails"] == [["A", 2]]


def test_prune_json_reports_inf_as_string(capsys, tmp_path):
    text = "arc S <- omega @ 1\narc D <- omega @ 1\nsource omega 0\ntarget S\n"
    path = tmp_path / "d.hg"
    path.write_text(text, encoding="utf-8")
    code, _, err = run(capsys, "prune", "--beam", "inf", "--report", "json", str(path))
    assert code == 0
    report = json.loads(err)
    vertices = {row["name"]: row for row in report["vertices"]}
    assert vertices["D"]["gamma"] == "inf"
    assert vertices["D"]["keep"] is False


def test_prune_json_report_is_json_dumps_byte_for_byte(capsys, tmp_path):
    # Names that json escapes: a quote, a backslash, control characters,
    # DEL, non-ASCII and an astral character (a surrogate pair). One vertex
    # is underivable, so the report also holds "inf" and false.
    q, b, e, s, c, x = 'q"uote', "back\\slash", "café", "snow☃", "clef\U0001d11e", "ctl\x01\x7f"
    text = (
        f"arc {q} <- w @ 0.5\narc {b} <- {q}*2 w @ 0.25\narc {e} <- {b} @ 1e-3\n"
        f"arc {s} <- {e} {c} @ 1\narc {c} <- {x} @ 0\narc {s} <- {b} {q} @ 3\n"
        f"arc {s} <- {e}*3 @ 0\nsource w 0\ntarget {s}\n"
    )
    path = tmp_path / "names.hg"
    path.write_text(text, encoding="utf-8")
    parsed = parse_hypergraph(text)
    g, query = parsed.graph, parsed.query()
    ins = viterbi_inside(g, query.sources)
    outs = viterbi_outside(g, ins, query.target)

    def value(x):
        return "inf" if x == float("inf") else x

    for beam in ("0", "1", "inf"):
        pr = prune_relatively_useless(g, ins, outs, float(beam))
        report = {
            "vertices": [
                {"name": name, "inside": value(i), "outside": value(o),
                 "gamma": value(gamma), "keep": keep}
                for name, i, o, gamma, keep in zip(
                    g.names, ins.inside, outs.outside, pr.gamma_vertices, pr.keep_vertices
                )
            ],
            "arcs": [
                {"index": i, "head": g.name_of(g._heads[i]),
                 "tails": [[g.name_of(v), m] for v, m in g._tails[i]],
                 "length": g._lengths[i], "gamma": value(pr.gamma_arcs[i]),
                 "keep": pr.keep_arcs[i]}
                for i in g.arc_indices
            ],
            "best": value(ins.inside[query.target]),
        }
        code, _, err = run(capsys, "prune", "--beam", beam, "--report", "json", str(path))
        assert code == 0
        assert err == json.dumps(report) + "\n"
        assert "inf" in err and "\\ud834\\udd1e" in err and "\\u0001\\u007f" in err


def test_prune_inf_matches_reduce_bytes(capsys, f1_file, tmp_path):
    _, reduce_out, _ = run(capsys, "reduce", f1_file)
    _, prune_out, _ = run(capsys, "prune", "--beam", "inf", f1_file)
    assert prune_out == reduce_out

    rng = Random(500)
    compared = 0
    while compared < 12:
        g = random_hypergraph(rng)
        sources = random_sources(rng, g)
        target = rng.randrange(g.n)
        if reduce(g, Query(sources, target)).target is None:
            continue
        compared += 1
        path = tmp_path / f"r{compared}.hg"
        path.write_text(serialize_hypergraph(g, sources, target), encoding="utf-8")
        _, reduce_out, _ = run(capsys, "reduce", str(path))
        _, prune_out, _ = run(capsys, "prune", "--beam", "inf", str(path))
        assert prune_out == reduce_out


def test_pipeline_is_deterministic(capsys, f1_file):
    first = run(capsys, "prune", "--beam", "0.5", f1_file)
    second = run(capsys, "prune", "--beam", "0.5", f1_file)
    assert first == second


def test_from_grammar_and_map(capsys, f1_grammar_file, tmp_path):
    map_path = tmp_path / "grammar.map"
    code, out, _ = run(capsys, "from-grammar", "--map", str(map_path), f1_grammar_file)
    assert code == 0
    parsed = parse_hypergraph(out)
    assert parsed.graph.num_arcs == 4
    assert parsed.graph.names == ("A", "B", "S", "_OMEGA_")
    assert parsed.target == parsed.graph.id_of("S")
    assert map_path.read_text(encoding="utf-8") == "1 1\n2 2\n3 3\n4 4\n"


def test_from_grammar_default_map_path(capsys, f1_grammar_file):
    code, _, _ = run(capsys, "from-grammar", f1_grammar_file)
    assert code == 0
    assert Path(f1_grammar_file + ".map").exists()


def test_prune_grammar_end_to_end(capsys, f1_grammar_file):
    code, out, _ = run(capsys, "prune-grammar", "--beam", "1.0", f1_grammar_file)
    assert code == 0
    reduced = parse_grammar(out)
    assert len(reduced.productions) == 3
    assert reduced.start == "S"
    # the doubled-A production was the only one above the beam
    assert all(not (p.lhs == "S" and "tau" in str(p.rhs)) for p in reduced.productions)


def test_prune_grammar_empty_language_exit_2(capsys, tmp_path):
    path = tmp_path / "g.gr"
    path.write_text("0.5: S -> S a\n", encoding="utf-8")  # no terminating rule
    code, _, err = run(capsys, "prune-grammar", "--beam", "1", str(path))
    assert code == 2
    assert "derives nothing" in err or "unreachable" in err


def test_prune_grammar_overflow_exit_2(capsys, tmp_path):
    # Every level triples the derivation cost of A0 (about 691), so the start
    # symbol's cost overflows to inf although the grammar derives it. The
    # message is outside's, as for `prune` on tests/golden/cli/overflow.hg;
    # both pin today's behaviour of ROADMAP Open item 1.
    levels = "".join(f"1: A{k} -> A{k - 1} A{k - 1} A{k - 1}\n" for k in range(1, 700))
    path = tmp_path / "g.gr"
    path.write_text(f"1: S -> A699\n{levels}1e-300: A0 -> a\n", encoding="utf-8")
    code, out, err = run(capsys, "prune-grammar", "--beam", "1", str(path))
    assert (code, out, err) == (2, "", "target 'S' is unreachable\n")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: an overflowed inside cost reads as unreachable")
def test_inside_does_not_call_a_reached_target_unreachable(capsys):
    path = str(Path(__file__).parent / "golden" / "cli" / "overflow.hg")
    code, out, _ = run(capsys, "reach-from", path)
    assert code == 0 and "T" in out.splitlines()
    code, _, err = run(capsys, "inside", path)
    assert "target unreachable" not in err and code != 2


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("arc S <- w @ 1\nsource w 0\ntarget S\n"))
    code, out, _ = run(capsys, "inside", "-")
    assert code == 0
    assert "S 1 1" in out


def test_stdin_grammar_requires_map(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0.5: S -> a\n"))
    code, _, err = run(capsys, "from-grammar", "-")
    assert code == 1 and "--map" in err


def test_non_utf8_file_is_a_read_error(capsys, tmp_path):
    path = tmp_path / "latin1.hg"
    path.write_bytes(b"vertex \xff\xfe\n")
    code, out, err = run(capsys, "inside", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {path}: ") and "decode" in err


def test_unwritable_map_is_a_write_error_with_empty_stdout(capsys, f1_grammar_file, tmp_path):
    map_path = tmp_path / "missing" / "x.map"
    code, out, err = run(capsys, "from-grammar", "--map", str(map_path), f1_grammar_file)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {map_path}: ")
