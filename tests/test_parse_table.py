"""Recorded outcomes of ``parse_hypergraph`` on edge-case and malformed lines.

Each case is a small text. Its outcome is either the ``FormatError`` it
raises (type, message and line number) or, when it parses, the canonical
text of the parsed graph and query. The outcomes are in
``golden/parse_cases.json``; running this file as a script records them
again from the ``src/`` tree next to ``tests/``::

    python tests/test_parse_table.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
OUTCOMES = HERE / "golden" / "parse_cases.json"

# Declares every name of the "declared:" cases before their arc lines.
DECLARED = "vertex S\nvertex A\nvertex B\n"

# name -> input text
CASES: dict[str, str] = {
    # invalid names, at their first mention and on later lines or tokens
    "bad vertex name on line 1": "vertex a,b\n",
    "bad head name on line 1": "arc a:b <- A @ 1\n",
    "bad tail name on a later line": "vertex A\narc A <- A @ 1\narc A <- B(x) @ 1\n",
    "bad tail name after good tails": "arc S <- A B C) @ 1\n",
    "bad name repeated on two lines": "vertex A\narc A <- x@y @ 1\narc A <- x@y @ 1\n",
    "bad source name": "vertex A\nsource A)\n",
    "bad target name after good mentions": "arc A <- B @ 1\nsource B\ntarget A,\n",
    "bad name after the same valid prefix": "vertex A\narc A <- A @ 1\nvertex A:\n",
    # '<-' is reserved
    "<- as vertex": "vertex <-\n",
    "<- as tail": "vertex A\narc A <- <- @ 1\n",
    "<- as second tail": "arc A <- B <- @ 1\n",
    "<- as source": "vertex A\nsource <-\n",
    "<- as target": "target <-\n",
    # multiplicities
    "A*0": "arc S <- A*0 @ 1\n",
    "A*x": "arc S <- A*x @ 1\n",
    "A*1": "arc S <- A*1 @ 1\n",
    "A*1 of a known name": "vertex A\narc S <- A A*1 @ 1\n",
    "A*2 of a known name": "vertex A\narc S <- A*2 A @ 1\n",
    "A*0 of a known name": "vertex A\narc S <- A A*0 @ 1\n",
    "A*": "arc S <- A* @ 1\n",
    "*2": "arc S <- *2 @ 1\n",
    "A*-1": "arc S <- A*-1 @ 1\n",
    "A*1*2": "arc S <- A*1*2 @ 1\n",
    "bad multiplicity after a bad name": "arc S <- a,b A*0 @ 1\n",
    "bad name after a bad multiplicity": "arc S <- A*0 a,b @ 1\n",
    # comments and blank lines
    "# after tokens": "arc S <- A @ 1 # comment\nsource A # 2\ntarget S#x\n",
    "# hides the length": "arc S <- A # @ 1\n",
    "# after @": "vertex A\narc S <- A @ # 1\n",
    "# inside a name": "vertex A#B\n",
    "# only lines and blanks": "# head\n   # indented\n\n \t \nvertex A\n#\narc A <- A @ 1\n",
    "# then a bad line": "# comment\n\nvertex A\nfrobnicate # A\n",
    # lengths
    "length nan": "arc S <- A @ nan\n",
    "length NaN on line 2": "vertex A\narc S <- A @ NaN\n",
    "length inf": "arc S <- A @ inf\n",
    "length 1e999": "arc S <- A @ 1e999\n",
    "length -inf": "arc S <- A @ -inf\n",
    "length -1": "arc S <- A @ -1\n",
    "length -1e-300": "arc S <- A @ -1e-300\n",
    "length -0": "arc S <- A @ -0\n",
    "length -0.0": "arc S <- A @ -0.0\n",
    "length x": "arc S <- A @ x\n",
    "two lengths": "arc S <- A @ 1 2\n",
    "bad length after a bad tail": "arc S <- A*0 @ nan\n",
    # source costs
    "source cost nan": "vertex A\nsource A nan\n",
    "source cost inf": "vertex A\nsource A inf\n",
    "source cost -1": "vertex A\nsource A -1\n",
    "source cost -0": "vertex A\nsource A -0\n",
    "duplicate source": "vertex A\nsource A\nsource A 1\n",
    "source cost x": "vertex A\nsource A x\n",
    # directives with the wrong number of tokens, and a second target
    "arc without @": "arc S <- A B C D\n",
    "vertex with two names": "vertex A\nvertex B C\n",
    "source with two costs": "vertex A\nsource A 1 2\n",
    "target with two names": "vertex A\ntarget A B\n",
    "duplicate target": "vertex A\ntarget A\ntarget A\n",
    # '@' among the tails
    "@ as the only tail": "arc S <- @ @ 1\n",
    "@ as a later tail": "arc S <- A @ B @ 1\n",
    "@ twice before the length": "arc S <- A @ @ 1\n",
    # a name with and without '*1'
    "A*1 before bare A": "arc S <- A*1 @ 1\narc T <- A @ 2\n",
    "bare A before A*1": "arc S <- A @ 1\narc T <- A*1 @ 2\n",
    "A*1 then A in one arc": "arc S <- A*1 A @ 1\n",
    # heads first seen as tails, and the reverse
    "head first seen as a tail": "arc S <- A B @ 1\narc B <- A @ 2\narc A <- S @ 3\n",
    "tail first seen as a head": "arc A <- B @ 1\narc S <- A A*2 @ 2\n",
    # a vertex repeated in one tail list
    "repeated tail": "arc S <- A A @ 1\n",
    "repeated tail apart": "arc S <- A B A @ 1\n",
    "repeated tail with multiplicities": "arc S <- A*2 B A*3 B @ 1\n",
    "repeated tail is the head": "arc S <- S A S @ 1\n",
    # whitespace
    "tabs between tokens": "vertex\tA\narc\tS\t<-\tA\tB*2\t@\t1.5\nsource\tA\t0.25\ntarget\tS\n",
    "tabs and spaces mixed": " \tarc S\t <- \tA  @\t\t1 \t\n",
    # two-tail arc lines whose names are all declared before them
    "declared: plain": DECLARED + "arc S <- A B @ 1.5\narc A <- S S @ 0\n",
    "declared: length x": DECLARED + "arc S <- A B @ x\n",
    "declared: length nan": DECLARED + "arc S <- A B @ nan\n",
    "declared: length -NaN": DECLARED + "arc S <- A B @ -NaN\n",
    "declared: length -1": DECLARED + "arc S <- A B @ -1\n",
    "declared: length -1e-300": DECLARED + "arc S <- A B @ -1e-300\n",
    "declared: length -0": DECLARED + "arc S <- A B @ -0\n",
    "declared: length inf": DECLARED + "arc S <- A B @ inf\n",
    "declared: length -inf": DECLARED + "arc S <- A B @ -inf\n",
    "declared: length 1e999": DECLARED + "arc S <- A B @ 1e999\n",
    "declared: length 1_0": DECLARED + "arc S <- A B @ 1_0\n",
    "declared: @ before the last tail": DECLARED + "arc S <- A @ B 1\n",
    "declared: @ twice": DECLARED + "arc S <- A @ @ 1\n",
    "declared: @ as the first tail": DECLARED + "arc S <- @ A @ 1\n",
    "declared: no @": DECLARED + "arc S <- A B C 1\n",
    "declared: <- as a tail": DECLARED + "arc S <- A <- @ 1\n",
    "declared: -> for <-": DECLARED + "arc S -> A B @ 1\n",
    "declared: A*2": DECLARED + "arc S <- A*2 B @ 1\n",
    "declared: B*1": DECLARED + "arc S <- A B*1 @ 1\n",
    "declared: B*0": DECLARED + "arc S <- A B*0 @ 1\n",
    "declared: repeated tail": DECLARED + "arc A <- B B @ 1\narc S <- A A @ 2\n",
    "declared: head is new": DECLARED + "arc T <- A B @ 1\n",
    "declared: tail is new": DECLARED + "arc S <- A C @ 1\n",
    "declared: seven tokens, not an arc": DECLARED + "vertex A B C D E F\n",
    "declared: CRLF": DECLARED.replace("\n", "\r\n") + "arc S <- A B @ 1\r\narc B <- A A @ 2\r\n",
    "declared: trailing comment": DECLARED + "arc S <- A B @ 1 # note\narc B <- A S @ 2#x\n",
    "declared: comment after the arc lines": DECLARED + "arc S <- A B @ 1\n# end\n",
}


def outcome(text: str) -> dict:
    """What ``parse_hypergraph`` makes of ``text``."""
    # Imported here so that the script form can put src/ on the path first.
    from hyperpaths import FormatError, parse_hypergraph, serialize_hypergraph

    try:
        parsed = parse_hypergraph(text)
    except FormatError as exc:
        return {"error": type(exc).__name__, "message": str(exc), "line": exc.line}
    return {"text": serialize_hypergraph(parsed.graph, parsed.sources, parsed.target)}


def _recorded() -> dict:
    return json.loads(OUTCOMES.read_text(encoding="utf-8"))


def test_every_case_is_recorded():
    assert sorted(_recorded()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_parse_outcome(name):
    assert outcome(CASES[name]) == _recorded()[name]


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    recorded = {name: outcome(text) for name, text in CASES.items()}
    OUTCOMES.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} outcomes in {OUTCOMES}")
