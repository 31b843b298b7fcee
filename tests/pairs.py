"""Times of two source trees, compared in alternating pairs.

Usage::

    python tests/pairs.py OLD_TREE NEW_TREE [--pairs N] [--seed S]
        [--workload charts|horn|grammar [--passes P] | --probe grammar|horn|import | --cli ARG ...]

A tree needs only the package under ``src/``: both trees run this
checkout's ``perfbench/``. Every run is a fresh interpreter on one core with
one tree's ``src/`` on ``PYTHONPATH``, ``PYTHONDONTWRITEBYTECODE=1`` and no
``__pycache__`` under that ``src/`` (the script deletes it before each run).
Before any timed run, one run per tree checks that it imports that tree.

With ``--workload`` a run loads the workload for ``--seed``, checks one
pass of its queries, as the benchmark's warm-up does, then runs ``P``
passes untraced and ``P`` through ``perfbench/spans.Tracer``, collecting
garbage before each query. It reports each query's median untraced time
and the median time a traced pass spends in each phase (span name, such as
``core.restrict``) and in the whole ``pass``. Otherwise one row times each
run from spawn to the ``ready`` line of ``perfbench/setup_probe.py`` for
the probe's input, as the benchmark's ``setup_s`` is (``import`` loads
none), or with ``--cli`` to the exit of ``python -m hyperpaths.cli ARG
...``, where ``{grammar}`` and ``{horn}`` name the benchmark's input files.

A pair runs both trees back to back, alternating which goes first. Each row
prints each tree's median and quartiles and in how many pairs new was faster.
A last line names the rows that meet both halves of the claim rule: new
faster in at least 9 of 10 pairs, and the medians further apart than the
old tree's interquartile range; or ``none``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def child(workload: str, seed: int, passes: int) -> None:
    """One query-mode run in the current directory: print the medians as one
    JSON object, the queries first and then the phases by name."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from spans import Tracer, clock, direct
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, Path.cwd())
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
    names = labels + sorted(set(times) - set(labels))
    print(json.dumps({name: statistics.median(times[name]) for name in names}))


def _run(tree: Path, argv: list[str], work: Path, until_ready: bool = False) -> tuple[float, bytes]:
    """Run ``python ARGV`` in ``work`` with ``tree``'s package: its stdout, and the
    seconds from spawn to its ``ready`` line if ``until_ready``, else to its exit."""
    for cache in (tree / "src").rglob("__pycache__"):
        shutil.rmtree(cache)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=work, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    out = proc.stdout.readline() if until_ready else b""
    dt = time.perf_counter() - t0
    out += proc.communicate()[0]
    if proc.returncode != 0 or until_ready and out != b"ready\n":
        raise SystemExit(f"{tree}: python {' '.join(argv)} exited {proc.returncode}: {out!r}")
    return dt if until_ready else time.perf_counter() - t0, out


def _inputs(seed: int, work: Path) -> dict[str, str]:
    """The benchmark's grammar and horn files for ``seed``, by name."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen

    grammar, horn = work / "rules.gr", work / "horn.hg"
    grammar.write_text(gen.grammar(seed).text, encoding="utf-8")
    horn.write_text(gen.hypergraph_text(gen.horn(seed)[0]), encoding="utf-8")
    return {"grammar": str(grammar), "horn": str(horn)}


def _quartiles(xs: list[float]) -> list[float]:
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3


def _cell(xs: list[float]) -> str:
    """Median and quartiles of ``xs`` seconds, in ms."""
    q1, q2, q3 = _quartiles(xs)
    return f"{q2 * 1e3:9.3f} {f'{q1 * 1e3:.3f}-{q3 * 1e3:.3f}':>17}"


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        workload, seed, passes = sys.argv[2:]
        child(workload, int(seed), int(passes))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2718)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--workload", choices=["charts", "horn", "grammar"])
    parser.add_argument("--passes", type=int, default=5)
    mode.add_argument("--probe", choices=["grammar", "horn", "import"], default="grammar")
    mode.add_argument("--cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    trees = [args.old.resolve(), args.new.resolve()]
    sys.dont_write_bytecode = True  # importing perfbench/ here writes nothing
    try:  # one core, as the benchmark runs
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass
    runs: list[list[dict[str, float]]] = [[], []]
    with tempfile.TemporaryDirectory() as tmp:
        for tree in trees:
            out = _run(tree, ["-c", "import hyperpaths; print(hyperpaths.__file__)"], Path(tmp))[1]
            if not Path(out.decode().strip()).resolve().is_relative_to(tree / "src"):
                raise SystemExit(f"{tree}: imported {out.decode().strip()}, not this tree")
        if args.workload:
            title, row, ready = f"workload {args.workload}, {args.passes} passes a run", None, False
            argv = [__file__, "--child", args.workload, str(args.seed), str(args.passes)]
        else:
            title, files = "start-up", _inputs(args.seed, Path(tmp))
            if args.cli:
                row, ready = " ".join(["cli", *args.cli]), False
                argv = ["-m", "hyperpaths.cli", *[a.format(**files) for a in args.cli]]
            else:
                row, ready = f"probe {args.probe}", True
                argv = [str(ROOT / "perfbench" / "setup_probe.py")]
                argv += [] if args.probe == "import" else [args.probe, files[args.probe]]
        for k in range(args.pairs):
            for side in (0, 1) if k % 2 == 0 else (1, 0):
                work = Path(tmp) / f"{k}-{side}"
                work.mkdir()
                dt, out = _run(trees[side], argv, work, until_ready=ready)
                runs[side].append({row: dt} if row else json.loads(out.splitlines()[-1]))
    print(f"{title}, seed {args.seed}, {args.pairs} pairs; old {trees[0]}, new {trees[1]}")
    print(f"{'':36} {'old ms':>9} {'old q1-q3':>17} {'new ms':>9} {'new q1-q3':>17} "
          f"{'change':>8}  new better")
    claimed = []
    for name in runs[0][0]:
        old, new = ([run[name] for run in side] for side in runs)
        change = (statistics.median(new) / statistics.median(old) - 1) * 100
        better = sum(y < x for x, y in zip(old, new))
        print(f"{name:36} {_cell(old)} {_cell(new)} {change:+7.1f}%  {better} of {len(old)}")
        q1, q2, q3 = _quartiles(old)
        if 10 * better >= 9 * len(old) and q2 - statistics.median(new) > q3 - q1:
            claimed.append(name)
    # Either half alone is met by noise on some of several dozen rows.
    print("rows where new is better in at least 9 of 10 pairs by a median gap above "
          f"the old IQR: {', '.join(claimed) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
