"""``tests/pairs.py`` runs both of its modes end to end, and scales the
query mode's times by the host-speed probe taken before each query.

Each run compares a copy of ``src/`` with itself, so the script deletes no
``__pycache__`` in the checkout.
"""

from __future__ import annotations

import itertools
import json
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


def test_query_mode_scales_each_time_by_the_probe_before_its_query(tmp_path, monkeypatch,
                                                                   capsys):
    """With a clock that ticks once a read and probes that each give the
    factor 1/1024, every query row reads the factor, and every phase row its
    whole number of ticks (fewer than 1024) times the factor. Unscaled, each
    row would be a whole number of ticks, at least 1."""
    import pairs

    monkeypatch.setattr(sys, "path", [str(HERE.parent / "perfbench"), *sys.path])
    import run
    import spans

    ticks = itertools.count()
    monkeypatch.setattr(spans, "clock", lambda: float(next(ticks)))
    probes = [0]

    def scale(self) -> float:
        probes[0] += 1
        return 2.0 ** -10

    monkeypatch.setattr(run.Harness, "scale", scale)
    monkeypatch.chdir(tmp_path)
    pairs.child("grammar", 2718, 1)
    rows = json.loads(capsys.readouterr().out)
    queries = [name for name in rows if name.startswith("query ")]
    assert queries and probes[0] == 2 * len(queries), "a probe before each query, each way"
    assert all(rows[name] == 2.0 ** -10 for name in queries)
    assert {"core.restrict", "pass"} <= set(rows)
    for name, value in rows.items():
        assert 0 < value < 1 and (value * 1024).is_integer(), name
