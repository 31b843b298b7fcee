"""What ``import hyperpaths`` and a CLI run load.

The package resolves its public names on first use, so a graph command
never imports the grammar layer or ``json``; no command imports
``dataclasses``; each command imports only the package modules it runs,
and only a command that reads or writes graph text imports ``textio``;
loading a grammar into its hypergraph imports only ``core`` and
``grammar``; and the lazy names still behave like the eager ones did.
"""

from __future__ import annotations

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import hyperpaths

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
F1 = HERE / "golden" / "cli" / "f1.hg"
F1_GRAMMAR = HERE / "golden" / "cli" / "f1.gr"

# Runs the CLI as ``python -m hyperpaths.cli`` does, then prints its exit
# code and which of the unwanted modules it left loaded.
_RUN_CLI = """
import runpy, sys
try:
    runpy.run_module("hyperpaths.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
unwanted = ("hyperpaths.grammar", "json", "dataclasses")
print("exit", code, "loaded", *[m for m in unwanted if m in sys.modules])
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["prune", "--beam", "1", str(F1)],
        ["inside", str(F1)],
        ["best-tree", "--vertex", "S", str(F1)],
    ],
    ids=["help", "prune", "inside", "best-tree"],
)
def test_graph_commands_load_no_grammar_oracle_or_json(argv):
    assert _run_cli(argv) == "exit 0 loaded"


@pytest.mark.parametrize("command", ["from-grammar", "prune-grammar"])
def test_grammar_commands_load_no_oracle_json_or_dataclasses(command, tmp_path):
    extra = ["--map", str(tmp_path / "f1.map")] if command == "from-grammar" else ["--beam", "1"]
    assert _run_cli([command, *extra, str(F1_GRAMMAR)]) == "exit 0 loaded hyperpaths.grammar"


def _run_cli(argv: list[str], script: str = _RUN_CLI) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    return proc.stdout.splitlines()[-1]


# Runs the CLI as above, then prints its exit code, the package modules it
# loaded beyond the two every command needs (the CLI itself runs as
# ``__main__``), and whether it loaded json.
_RUN_CLI_MODULES = """
import runpy, sys
try:
    runpy.run_module("hyperpaths.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
base = {"hyperpaths", "hyperpaths.core"}
assert base <= set(sys.modules)
extra = sorted(m for m in sys.modules if m.startswith("hyperpaths.") and m not in base)
loaded = [m.split(".")[1] for m in extra] + ["json"][: "json" in sys.modules]
print("exit", code, "loaded", *loaded)
"""

UNREACHABLE = HERE / "golden" / "cli" / "unreachable.hg"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--help"], "exit 0 loaded"),
        (["validate", F1], "exit 0 loaded textio"),
        (["reach-from", F1], "exit 0 loaded reachability textio"),
        (["reach-to", F1], "exit 0 loaded reachability textio"),
        (["reduce", F1], "exit 0 loaded reachability textio"),
        (["inside", F1], "exit 0 loaded inside textio"),
        (["best-tree", "--vertex", "S", F1], "exit 0 loaded inside textio"),
        (["outside", F1], "exit 0 loaded inside outside textio"),
        (["prune", "--beam", "1", F1], "exit 0 loaded inside outside textio"),
        (["prune", "--beam", "1", "--report", "json", F1],
         "exit 0 loaded inside outside textio json"),
        (["prune", "--beam", "1", UNREACHABLE],
         "exit 2 loaded inside outside reachability textio"),
        (["from-grammar", "--map", "MAP", F1_GRAMMAR], "exit 0 loaded grammar textio"),
        (["prune-grammar", "--beam", "1", F1_GRAMMAR], "exit 0 loaded grammar inside outside"),
    ],
    ids=["help", "validate", "reach-from", "reach-to", "reduce", "inside", "best-tree",
         "outside", "prune", "prune-json", "prune-unreachable", "from-grammar", "prune-grammar"],
)
def test_each_command_loads_only_the_modules_it_runs(argv, expected, tmp_path):
    # reach_from loads only for a target whose inside cost is infinite.
    argv = [str(tmp_path / "f1.map") if a == "MAP" else str(a) for a in argv]
    assert _run_cli(argv, _RUN_CLI_MODULES) == expected


# In a fresh interpreter, as the benchmark's set-up probe does: a grammar
# file's text to its hypergraph, then the package modules that loaded.
_GRAMMAR_SETUP = """
import sys
import hyperpaths
with open(sys.argv[1], encoding="utf-8") as fh:
    hyperpaths.to_hypergraph(hyperpaths.parse_grammar(fh.read()))
print(*sorted(m for m in sys.modules if m.startswith("hyperpaths")))
"""


def test_grammar_setup_loads_only_core_and_grammar():
    assert _run_cli([str(F1_GRAMMAR)], _GRAMMAR_SETUP).split() == [
        "hyperpaths", "hyperpaths.core", "hyperpaths.grammar"
    ]


# In a fresh interpreter: names and submodules resolve on first use.
_RESOLVE = """
import sys
import hyperpaths
loaded = sorted(m for m in sys.modules if m.startswith("hyperpaths."))
print(*loaded, hyperpaths.reach_from.__module__, hyperpaths.Wrtg.__module__,
      hyperpaths.core.__name__, hyperpaths.core.Hypergraph is hyperpaths.Hypergraph)
"""


def test_lazy_names_behave_like_eager_ones():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _RESOLVE], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.split() == [
        "hyperpaths.reachability", "hyperpaths.grammar", "hyperpaths.core", "True"
    ]

    namespace: dict = {}
    exec("from hyperpaths import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(hyperpaths.__all__)
    assert set(hyperpaths.__all__) <= set(dir(hyperpaths))
    assert hyperpaths.GrammarError is hyperpaths.grammar.GrammarError
    with pytest.raises(AttributeError):
        hyperpaths.no_such_name
    with pytest.raises(ModuleNotFoundError):
        import_module("hyperpaths.oracle")  # the brute-force oracle lives in tests/
