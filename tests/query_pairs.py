"""Per-phase and per-query times of two source trees, compared in alternating pairs.

Usage, from the repository root::

    python tests/query_pairs.py OLD_TREE NEW_TREE [--workload charts|horn|grammar]
        [--seed S] [--pairs N] [--passes P]

Each tree is a checkout with the package under ``src/``. Each run is a
fresh interpreter with one tree's ``src/`` on ``PYTHONPATH`` and this
checkout's ``perfbench/`` on ``sys.path``. It builds the workload's inputs
for ``--seed``, loads its resident state, checks one untimed pass of its
queries in full, as the benchmark's warm-up does, and then runs ``P``
passes untraced and ``P`` passes through ``perfbench/spans.Tracer``,
collecting garbage before each query, as the benchmark's passes do. A run
reports each query's median untraced seconds, and per phase (span name,
such as ``core.restrict``) and for the whole pass the median traced
seconds a pass spends in it.

A pair runs both trees back to back, and the tree that goes first
alternates. The script prints, per phase and per query, the median over
the runs of each tree and in how many pairs the new tree was faster. It
writes only to a temporary directory, with ``PYTHONDONTWRITEBYTECODE=1``,
and only reads ``perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def child(tree: str, workload: str, seed: int, passes: int, work: str) -> None:
    """One run: print the medians as one JSON object."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import hyperpaths
    from spans import Tracer, clock, direct
    from workloads import WORKLOADS

    if not Path(hyperpaths.__file__).resolve().is_relative_to(Path(tree).resolve()):
        raise SystemExit(f"imported {hyperpaths.__file__}, not the tree {tree}")
    wl = WORKLOADS[workload](seed, Path(work))
    state = wl.load(direct)
    wl.check_load(state)
    for q in wl.queries:
        wl.check(state, q, wl.query(direct, state, q))
    labels = [f"query {k} ({q!r})" for k, q in enumerate(wl.queries)]
    times: dict[str, list[float]] = {label: [] for label in labels}
    for _ in range(passes):
        for label, q in zip(labels, wl.queries):
            gc.collect()
            t0 = clock()
            wl.query(direct, state, q)
            times[label].append(clock() - t0)
    tracer = Tracer()
    for p in range(passes):
        first = len(tracer.spans)
        for k, q in enumerate(wl.queries):
            gc.collect()
            span = tracer.begin("pass", p * len(wl.queries) + k)
            wl.query(tracer.call, state, q)
            tracer.end(span)
        spent: dict[str, float] = {}
        for name, start, end, *_ in tracer.spans[first:]:
            spent[name] = spent.get(name, 0.0) + end - start
        for name, s in spent.items():
            times.setdefault(name, []).append(s)
    print(json.dumps({name: statistics.median(xs) for name, xs in times.items()}))


def _run(tree: Path, args, work: Path) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", str(tree / "src"),
            args.workload, str(args.seed), str(args.passes), str(work)]
    proc = subprocess.run(argv, env=env, cwd=work, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: run failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        tree, workload, seed, passes, work = sys.argv[2:]
        child(tree, workload, int(seed), int(passes), work)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", choices=["charts", "horn", "grammar"], default="grammar")
    parser.add_argument("--seed", type=int, default=2718)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args()
    trees = [args.old.resolve(), args.new.resolve()]
    try:  # one core, as the benchmark runs
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass
    runs: list[list[dict[str, float]]] = [[], []]
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(args.pairs):
            for side in (0, 1) if k % 2 == 0 else (1, 0):
                work = Path(tmp) / f"{k}-{side}"
                work.mkdir()
                runs[side].append(_run(trees[side], args, work))
    print(f"workload {args.workload}, seed {args.seed}, {args.passes} passes a run, "
          f"{args.pairs} pairs; old {trees[0]}, new {trees[1]}")
    print(f"{'':36} {'old ms':>9} {'new ms':>9} {'change':>8}  new better")
    names = [name for name in runs[0][0] if all(name in run for run in runs[0] + runs[1])]
    phases = sorted(n for n in names if not n.startswith("query "))
    for name in [n for n in names if n.startswith("query ")] + phases:
        old, new = ([run[name] for run in side] for side in runs)
        a, b = statistics.median(old), statistics.median(new)
        better = sum(y < x for x, y in zip(old, new))
        print(f"{name:36} {a * 1e3:9.3f} {b * 1e3:9.3f} {(b / a - 1) * 100:+7.1f}%  "
              f"{better} of {args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
