"""Start-up time of two source trees, compared in alternating pairs.

Usage, from the repository root::

    python tests/startup_pairs.py OLD_TREE NEW_TREE [--pairs N] [--seed S]
        [--probe grammar|horn|import] [--cli ARG ...]

Each tree is a checkout with the package under ``src/``. Without ``--cli``
each run is ``perfbench/setup_probe.py`` of its tree, timed from spawn to
its ``ready`` line, as the benchmark's ``setup_s`` is: ``grammar`` loads
the benchmark's grammar for ``--seed`` into its hypergraph, ``horn`` parses
the horn graph, ``import`` only imports the package. With ``--cli`` each
run is ``python -m hyperpaths.cli ARG ...``, timed from spawn to exit; the
arguments ``{grammar}`` and ``{horn}`` stand for those inputs' files.

Every run is a fresh interpreter with ``PYTHONDONTWRITEBYTECODE=1`` and no
``__pycache__`` under either tree, so each module compiles from source, as
on a host that writes no bytecode. A pair runs both trees back to back, and
the tree that goes first alternates. The script prints each tree's
quartiles and in how many pairs the new tree was faster. It generates the
inputs with this checkout's ``perfbench/gen.py`` and writes only to a
temporary directory.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _inputs(seed: int, work: Path) -> dict[str, str]:
    """The benchmark's grammar and horn files for ``seed``, by name."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen

    grammar, horn = work / "rules.gr", work / "horn.hg"
    grammar.write_text(gen.grammar(seed).text, encoding="utf-8")
    horn.write_text(gen.hypergraph_text(gen.horn(seed)[0]), encoding="utf-8")
    return {"grammar": str(grammar), "horn": str(horn)}


def _run(tree: Path, argv: list[str], until_ready: bool) -> float:
    """Seconds from spawning ``argv`` with ``tree``'s package until its
    ``ready`` line or, if not ``until_ready``, its exit."""
    for part in ("src", "perfbench"):
        for cache in (tree / part).rglob("__pycache__"):
            shutil.rmtree(cache)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=tree, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE if until_ready else subprocess.DEVNULL,
    )
    if until_ready:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.close()
    if proc.wait() != 0 or until_ready and line != b"ready\n":
        raise SystemExit(f"{tree}: {' '.join(argv)} failed")
    return dt if until_ready else time.perf_counter() - t0


def _quartiles(xs: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return f"median {q2 * 1e3:.1f} ms, quartiles {q1 * 1e3:.1f}-{q3 * 1e3:.1f} ms"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=2718)
    parser.add_argument("--probe", choices=["grammar", "horn", "import"], default="grammar")
    parser.add_argument("--cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    trees = [args.old.resolve(), args.new.resolve()]
    try:  # one core, as the benchmark runs
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        files = _inputs(args.seed, Path(tmp))
        if args.cli:
            argv = ["-m", "hyperpaths.cli", *[a.format(**files) for a in args.cli]]
        else:
            argv = ["perfbench/setup_probe.py"]
            if args.probe != "import":
                argv += [args.probe, files[args.probe]]
        times: list[list[float]] = [[], []]
        for k in range(args.pairs):
            for side in (0, 1) if k % 2 == 0 else (1, 0):
                times[side].append(_run(trees[side], argv, not args.cli))
    print("python", *argv)
    for name, tree, xs in zip(("old", "new"), trees, times):
        print(f"{name} {tree}: {_quartiles(xs)}")
    better = sum(new < old for old, new in zip(*times))
    print(f"new better in {better} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
