"""The benchmark's traffic runs against the current API.

``perfbench/`` calls the library and walks its results; an API change that
breaks it should fail here, not only when the benchmark runs. This runs
``tests/census.py``'s ``traffic`` at seed 3, without its line tracer: every
workload's ``load`` and ``check_load``, each query with its check and each
CLI command with its check, then every golden CLI transcript through
``hyperpaths.cli.main``. Any check that fails raises."""

from __future__ import annotations

from census import ROOT, traffic


def test_benchmark_traffic_runs_and_checks(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    traffic(3)
