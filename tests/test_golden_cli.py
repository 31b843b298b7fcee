"""Byte-for-byte replay of recorded CLI transcripts.

Every case runs ``python -m hyperpaths.cli`` in a fresh process, in a
scratch directory holding copies of the inputs under ``golden/cli/``, and
compares stdout, stderr, the exit code and any file the command writes with
``golden/cli/transcripts.json``. Running this file as a script records the
transcripts again from the ``src/`` tree next to ``tests/``::

    python tests/test_golden_cli.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
INPUTS = HERE / "golden" / "cli"
TRANSCRIPTS = INPUTS / "transcripts.json"

BEAMS = ("0", "1", "inf")


def _graph_cases(file: str, vertex: str) -> dict[str, tuple[list[str], list[str]]]:
    cases = {
        f"{cmd} {file}": ([cmd, file], [])
        for cmd in ("validate", "reach-from", "reach-to", "reduce", "inside", "outside")
    }
    cases[f"best-tree {file}"] = (["best-tree", "--vertex", vertex, file], [])
    for beam in BEAMS:
        for report in ("text", "json"):
            cases[f"prune {beam} {report} {file}"] = (
                ["prune", "--beam", beam, "--report", report, file],
                [],
            )
    return cases


def _grammar_cases(file: str) -> dict[str, tuple[list[str], list[str]]]:
    cases = {f"from-grammar {file}": (["from-grammar", file], [file + ".map"])}
    for beam in BEAMS:
        cases[f"prune-grammar {beam} {file}"] = (["prune-grammar", "--beam", beam, file], [])
    return cases


# name -> (argv, files the command writes)
CASES: dict[str, tuple[list[str], list[str]]] = {
    **_graph_cases("f1.hg", "S"),
    **_graph_cases("random.hg", "v8"),
    **_graph_cases("unreachable.hg", "S"),
    **_graph_cases("overflow.hg", "T"),
    **_graph_cases("sparse.hg", "v12"),
    **_grammar_cases("f1.gr"),
    **_grammar_cases("empty.gr"),
    **_grammar_cases("sparse.gr"),
    "bad beam": (["prune", "--beam", "soup", "f1.hg"], []),
    "negative beam": (["prune", "--beam", "-1", "f1.hg"], []),
    "nan beam": (["prune", "--beam", "nan", "f1.hg"], []),
    "unknown vertex": (["best-tree", "--vertex", "NOPE", "f1.hg"], []),
    "inside without a source line": (["inside", "noquery.hg"], []),
    "reach-to without a target line": (["reach-to", "noquery.hg"], []),
    "missing file": (["inside", "no-such-file.hg"], []),
}


def transcript(argv: list[str], outputs: list[str]) -> dict:
    """Run one CLI command on copies of the inputs and capture everything."""
    with tempfile.TemporaryDirectory() as tmp:
        for path in INPUTS.iterdir():
            if path.suffix in (".hg", ".gr"):
                shutil.copy(path, tmp)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "hyperpaths.cli", *argv],
            cwd=tmp,
            env=env,
            capture_output=True,
            timeout=60,
        )
        files = {name: (Path(tmp) / name).read_bytes().decode("utf-8") for name in outputs}
    return {
        "argv": argv,
        "stdout": proc.stdout.decode("utf-8"),
        "stderr": proc.stderr.decode("utf-8"),
        "exit": proc.returncode,
        "files": files,
    }


def _recorded() -> dict:
    return json.loads(TRANSCRIPTS.read_text(encoding="utf-8"))


def test_every_case_is_recorded():
    assert sorted(_recorded()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_transcript(name):
    argv, outputs = CASES[name]
    assert transcript(argv, outputs) == _recorded()[name]


if __name__ == "__main__":
    recorded = {name: transcript(*CASES[name]) for name in sorted(CASES)}
    TRANSCRIPTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} transcripts in {TRANSCRIPTS}")
