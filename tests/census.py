"""Line census: which executable lines of ``src/hyperpaths`` the benchmark's
traffic never runs.

Usage, from the repository root::

    python tests/census.py [SEED]

Under ``sys.settrace`` it runs, in this process and at one seed (default 3),
every workload of ``perfbench/workloads.py``: ``load``, ``check_load``, every
query once with its ``check``, and every CLI command of ``cli`` through
``hyperpaths.cli.main`` with its check. Then it replays every recorded CLI
transcript of ``tests/golden/cli/transcripts.json`` through ``main`` in a
scratch directory holding copies of the golden inputs. It prints, per
module, the executable lines (those with bytecode) that never ran, then the
public functions of ``hyperpaths.__all__`` that this traffic never calls
from outside the package. That list flags names for review, not for
deletion: ``build``, for one, is the validating entry point for library
users. It reads ``perfbench/`` and writes only to temporary directories.
This is a script, not a pytest module.
"""

from __future__ import annotations

import inspect
import io
import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hyperpaths"
GOLDEN = ROOT / "tests" / "golden" / "cli"


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that some code object of it has bytecode for."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def spans(missed: list[int], lines: list[int]) -> list[str]:
    """``missed`` as runs ``a-b`` of lines that are consecutive among ``lines``."""
    nxt = dict(zip(lines, lines[1:]))
    runs: list[list[int]] = []  # [first, last] per run
    for line in missed:
        if runs and nxt.get(runs[-1][1]) == line:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return [str(a) if a == b else f"{a}-{b}" for a, b in runs]


def run_cli(argv: list[str]) -> tuple[str, str]:
    from hyperpaths.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        main(argv)
    return out.getvalue(), err.getvalue()


def traffic(seed: int) -> None:
    """The benchmark's calls and checks, then the golden CLI transcripts."""
    from spans import direct
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory(prefix=f"census-{name}-") as work:
            wl = workload(seed, Path(work))
            state = wl.load(direct)
            wl.check_load(state)
            for q in wl.queries:
                wl.check(state, q, wl.query(direct, state, q))
            for _, argv, check in wl.cli(state):
                check(*run_cli(argv))
    cwd = os.getcwd()
    for case in json.loads((GOLDEN / "transcripts.json").read_text(encoding="utf-8")).values():
        with tempfile.TemporaryDirectory(prefix="census-cli-") as tmp:
            for path in GOLDEN.iterdir():
                if path.suffix in (".hg", ".gr"):
                    shutil.copy(path, tmp)
            os.chdir(tmp)
            try:
                run_cli(case["argv"])
            finally:
                os.chdir(cwd)


def main(argv: list[str]) -> int:
    seed = int(argv[0]) if argv else 3
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}
    entered = set()  # code objects of package frames whose caller is outside it

    def trace(frame, event, arg):  # only package frames get a line tracer
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        caller = frame.f_back
        if caller is None or not caller.f_code.co_filename.startswith(prefix):
            entered.add(frame.f_code)
        seen = ran.setdefault(filename, set())
        seen.add(frame.f_lineno)

        def line(frame, event, arg):
            seen.add(frame.f_lineno)
            return line

        return line

    sys.settrace(trace)
    try:
        traffic(seed)
    finally:
        sys.settrace(None)
    total = never = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - ran.get(str(path), set()))
        total, never = total + len(lines), never + len(missed)
        print(f"{path.name}: {len(missed)} of {len(lines)} executable lines never ran")
        if missed:
            print("  " + ", ".join(spans(missed, sorted(lines))))
    print(f"total: {never} of {total} executable lines never ran (seed {seed})")
    import hyperpaths

    public = [(name, getattr(hyperpaths, name)) for name in hyperpaths.__all__]
    uncalled = [n for n, f in public if inspect.isfunction(f) and f.__code__ not in entered]
    print("public functions never called from outside the package:", ", ".join(uncalled) or "none")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
