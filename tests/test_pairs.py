"""``tests/pairs.py`` runs both of its modes end to end.

Each run compares a copy of ``src/`` with itself, so the script deletes no
``__pycache__`` in the checkout.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("tree")
    shutil.copytree(HERE.parent / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _rows(tree: Path, *args: str) -> list[str]:
    """The report's rows of one pair, after its title and header lines and
    before its last line, which names the rows that meet the claim rule."""
    proc = subprocess.run([sys.executable, str(HERE / "pairs.py"), str(tree), str(tree),
                           "--pairs", "1", *args], capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    *rows, last = proc.stdout.splitlines()[2:]
    for row in rows:
        assert re.search(r" [01] of 1$", row), row
    # With one pair, a row meets the rule when new was faster: its IQR is 0.
    claimed = [row.split("  ")[0].rstrip() for row in rows if row.endswith(" 1 of 1")]
    prefix = "rows where new is better in at least 9 of 10 pairs by a median gap above the old IQR: "
    assert last == prefix + (", ".join(claimed) or "none")
    return rows


def test_query_mode_prints_each_query_phase_and_pass(tree):
    rows = _rows(tree, "--workload", "grammar", "--passes", "1")
    names = {row.split("  ")[0].rstrip() for row in rows}
    assert "query 0 (0.0625)" in names
    assert {"core.restrict", "pass"} <= names


def test_startup_mode_prints_one_row(tree):
    [row] = _rows(tree, "--probe", "import")
    assert row.startswith("probe import ")
