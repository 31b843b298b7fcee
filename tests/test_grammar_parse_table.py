"""Recorded outcomes of ``parse_grammar`` on edge-case and malformed lines.

Each case is a small grammar text. Its outcome is either the
``GrammarError`` it raises (type and message) or, when it parses, the
grammar's nonterminals in order, its alphabet and its canonical text. The
outcomes are in ``golden/grammar_parse_cases.json``; running this file as a
script records them again from the ``src/`` tree next to ``tests/``::

    python tests/test_grammar_parse_table.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
OUTCOMES = HERE / "golden" / "grammar_parse_cases.json"

# name -> input text
CASES: dict[str, str] = {
    # invalid symbols in the start directive
    "bad start symbol": "start S,T\n0.5: S -> a\n",
    "start symbol with *": "start S*\n0.5: S -> a\n",
    "start symbol with @": "start S@\n0.5: S -> a\n",
    "start symbol with a colon": "start S:\n0.5: S -> a\n",
    "start symbol (": "start (\n0.5: S -> a\n",
    # invalid symbols on the lhs
    "lhs with *": "0.5: S* -> a\n",
    "lhs with @": "0.5: S@T -> a\n",
    "lhs with a comma": "0.5: S,T -> a\n",
    "lhs with (": "0.5: S( -> a\n",
    "lhs with a colon": "0.5: S:T -> a\n",
    "lhs of two symbols": "0.5: S T -> a\n",
    "empty lhs": "0.5: -> a\n",
    "bad lhs on a later line": "0.5: S -> a\n0.25: S -> b\n0.25: S) -> c\n",
    # invalid symbols in a flat rhs
    "flat rhs with *": "0.5: S -> a* b\n",
    "flat rhs with @": "0.5: S -> a b@c\n",
    "flat rhs with a colon": "0.5: S -> a:b\n",
    "flat rhs with a comma": "0.5: S -> a, b\n",
    "bad flat rhs on a later line": "0.5: S -> A\n0.5: A -> a\n0.5: A -> @\n",
    # invalid symbols in a tree rhs
    "tree label with *": "0.5: S -> f*(a)\n",
    "tree leaf with *": "0.5: S -> f(a*, b)\n",
    "tree leaf with @": "0.5: S -> f(a, b@c)\n",
    "tree leaf with a colon": "0.5: S -> f(a:b)\n",
    "tree with no children": "0.5: S -> f()\n",
    "tree opening with (": "0.5: S -> (a)\n",
    "tree missing )": "0.5: S -> f(a\n",
    "tree missing a comma": "0.5: S -> f(a b)\n",
    "tree with a trailing )": "0.5: S -> f(a))\n",
    "tree with a trailing symbol": "0.5: S -> f(a) b\n",
    "tree ending after a comma": "0.5: S -> f(a,\n",
    "lone )": "0.5: S -> a )\n",
    "nonterminal as an internal node": "0.5: S -> a\n0.5: T -> S(a)\n",
    "nonterminal as a leaf of a tree": "0.5: S -> f(T, a)\n0.5: T -> b\n",
    # '->' and '<-' are reserved in grammars
    "-> as a flat rhs symbol": "0.5: S -> a -> b\n",
    "-> as a tree leaf": "0.5: S -> f(->)\n",
    "-> as start": "start ->\n0.5: S -> a\n",
    "-> as lhs": "0.5: -> -> a\n",
    "<- as a rhs symbol": "0.5: S -> <- a\n",
    "<- as lhs and start": "start <-\n0.5: <- -> a\n",
    "<- as a tree leaf": "0.5: S -> f(<-)\n",
    # start directives
    "duplicate start": "start S\nstart S\n0.5: S -> a\n",
    "start without a name": "start\n0.5: S -> a\n",
    "start with two names": "start S T\n0.5: S -> a\n",
    "start that is never a lhs": "start T\n0.5: S -> a\n",
    "start after the productions": "0.5: S -> a\n0.5: T -> S\nstart T\n",
    "start as a lhs": "0.5: start -> a\n",
    # line shape
    "missing ->": "0.5: S a\n",
    "missing colon": "S -> a\n",
    "no productions": "# nothing here\n\n",
    "start only": "start S\n",
    "empty rhs": "0.5: S ->\n",
    "comment after a rhs": "0.5: S -> a # b*c\n",
    "comment hides the arrow": "0.5: S # -> a\n",
    # weights
    "weight x": "x: S -> a\n",
    "empty weight": ": S -> a\n",
    "weight nan": "nan: S -> a\n",
    "weight 0": "0: S -> a\n",
    "weight -0": "-0: S -> a\n",
    "weight -1": "-1: S -> a\n",
    "weight inf": "inf: S -> a\n",
    "weight 1e999": "1e999: S -> a\n",
    "weight 1e-400": "1e-400: S -> a\n",
    "weight 2 above 1": "2: S -> a\n",
    "weight 1": "1: S -> a\n",
    "bad weight on a later line": "0.5: S -> a\n0.5: S -> b\n0: S -> c\n",
    # nonterminal order is the order of first appearance as a lhs
    "nonterminal order": (
        "0.5: B -> b\n0.5: A -> a B\n0.5: B -> A\n0.5: C -> c\n0.5: A -> C\n"
        "0.5: D -> f(A, d)\n0.5: B -> D D\n"
    ),
    "nonterminal order with a start directive last": (
        "0.5: Z -> A\n0.5: A -> a\n0.5: Y -> Z\nstart Y\n"
    ),
}


def outcome(text: str) -> dict:
    """What ``parse_grammar`` makes of ``text``."""
    # Imported here so that the script form can put src/ on the path first.
    from hyperpaths import GrammarError, parse_grammar, serialize_grammar

    try:
        grammar = parse_grammar(text)
    except GrammarError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {
        "nonterminals": list(grammar.nonterminals),
        "alphabet": sorted(grammar.alphabet),
        "text": serialize_grammar(grammar),
    }


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
