"""Benchmark of the hyperpaths library and CLI.

Usage, from the repository root::

    python3 perfbench/run.py --workload charts|horn|grammar --seed N \
        --seconds S --trace 0|1

Inputs are generated from ``--seed`` by ``gen.py``; the program sees only
their text. Load is a closed loop with one client in one process: one query
at a time, at most one CLI child alive at a time.

With ``--trace 0`` the run measures the end-to-end metrics: set-up time in
fresh interpreters, in-process query latency and throughput after an
untimed, fully checked warm-up pass, and the wall time and peak memory of
the workload's CLI commands. With ``--trace 1`` it runs the same queries
untraced and then traced, and reports per-layer self time and counters from
spans taken around each call into the library, plus the tracing overhead.
Every output is checked (``checks.py``); the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``layer_map.json`` says which end-to-end metric each layer metric should
move, on which workload.

Host-speed scaling. On a shared host the speed of Python code swings by
20-45 % in stretches of 10-30 s, longer than a run, so raw times from runs
minutes apart differ by more than any useful regression bound. The run
therefore stays on one core and, right before each timed interval, times a
fixed probe that shares no code with the library (``hostprobe.py``):
in-process before each query, and in a fresh interpreter before each set-up
or CLI child, since process start-up responds to the host's swings less
than warm code does. Each interval is reported times ``nominal / probe``:
the time it would take with the host at nominal speed. A change to the
library cannot move a probe. Raw figures are printed as ``raw`` lines, and
with ``--trace 1`` the raw query figures and the median probe times are
per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path

import hostprobe
from spans import Tracer, clock, direct

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 5
CLI_ROUNDS = 3
MIN_SAMPLES = 110  # so that at least ten samples lie beyond p90
CHILD_TIMEOUT_S = 60
PROBE_REPEATS = 3
PROBE_WINDOW = 5
CHILD_PROBE_WINDOW = 3
# The probes' times on a core of a 2-core x86-64 VM, between its fast and
# slow spells.
PROBE_NOMINAL_S = 0.002
CHILD_PROBE_NOMINAL_S = 0.125

END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "throughput_kt_per_s": "kt/s",
    "cli_total_s": "s",
    "cli_peak_rss_mb": "MB",
}

FUNCTIONS = {
    "textio.parse_hypergraph": ("bytes_in",),
    "textio.serialize_hypergraph": ("bytes_out",),
    "core.restrict": ("calls", "vertices_in", "arcs_in", "vertices_out", "arcs_out", "arcs_kept_frac"),
    "reachability.reach_from": ("touches",),
    "reachability.reach_to": ("touches",),
    "reachability.reduce": (),
    "inside.viterbi_inside": ("binds",),
    "inside.extract_best_tree": (),
    "outside.viterbi_outside": (),
    "outside.prune_relatively_useless": ("vertices_in", "arcs_in", "vertices_out", "arcs_out", "arcs_kept_frac"),
    "grammar.parse_grammar": ("bytes_in",),
    "grammar.to_hypergraph": (),
    "grammar.after_restriction": (),
    "grammar.from_pruned": (),
    "grammar.serialize_grammar": ("bytes_out",),
    "grammar.best_derivation": (),
}
LAYERS = ("textio", "core", "reachability", "inside", "outside", "grammar", "cli")
CLI_COMMANDS = (
    "prune", "prune_json", "best-tree", "inside", "reduce", "outside",
    "from-grammar", "prune-grammar", "prune-grammar_inf",
)
COUNTER_UNITS = {"bytes_in": "bytes", "bytes_out": "bytes", "arcs_kept_frac": "ratio"}
RAW = {"raw.query_p50_ms": "ms", "raw.query_p90_ms": "ms", "raw.throughput_kt_per_s": "kt/s"}


def per_layer_spec() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    spec = {f"{layer}.self_s": "s" for layer in LAYERS}
    for fn, counters in FUNCTIONS.items():
        spec[f"{fn}.s"] = "s"
        for c in counters:
            spec[f"{fn}.{c}"] = COUNTER_UNITS.get(c, "count")
    spec["cli.startup.s"] = "s"
    for cmd in CLI_COMMANDS:
        spec[f"cli.{cmd}.s"] = "s"
        spec[f"cli.{cmd}.peak_rss_mb"] = "MB"
        spec[f"cli.{cmd}.stderr_bytes"] = "bytes"
    spec.update({
        "query.samples": "count",
        "trace.overhead_frac": "ratio",
        "trace.overhead.query_p50_ms": "ms",
        "trace.overhead.query_p90_ms": "ms",
        "trace.overhead.throughput_kt_per_s": "kt/s",
        **RAW,
        "host.probe_ms": "ms",
        "host.child_probe_ms": "ms",
    })
    return spec


def probe() -> float:
    """Seconds ``hostprobe.work()`` takes now, the best of a few runs: noise
    only ever adds time, and a rare full collection of the cyclic GC, which
    would scan the resident heap, lands in one run at most."""
    best = math.inf
    for _ in range(PROBE_REPEATS):
        t0 = clock()
        hostprobe.work()
        best = min(best, clock() - t0)
    return best


class Harness:
    """One run's counts of attempted and failed operations (the first few
    failures are shown), its host-speed probes, and the environment its
    children run in."""

    def __init__(self, env: dict) -> None:
        self.attempted = 0
        self.failed = 0
        self.env = env
        self.probes: list[float] = []
        self.child_probes: list[float] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, what: str, exc: BaseException | None = None) -> None:
        self.attempted += 1
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {what}", file=sys.stderr)
            if exc is not None:
                traceback.print_exception(exc, file=sys.stderr)

    def scale(self) -> float:
        """Probe the host now; the factor that brings times to nominal speed.

        The host's speed holds for seconds at a time, so the median of the
        last few probes estimates it with less jitter than one probe does.
        """
        self.probes.append(probe())
        return PROBE_NOMINAL_S / statistics.median(self.probes[-PROBE_WINDOW:])

    def child_scale(self) -> float:
        """The same for a child process: time a fresh interpreter's probe."""
        t0 = clock()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "hostprobe.py")], stdin=subprocess.DEVNULL, env=self.env
        )
        code, _ = wait_child(proc)
        if code != 0:
            raise RuntimeError(f"child probe exited {code}")
        self.child_probes.append(clock() - t0)
        return CHILD_PROBE_NOMINAL_S / statistics.median(self.child_probes[-CHILD_PROBE_WINDOW:])


def wait_child(proc: subprocess.Popen):
    """Reap ``proc`` with its own rusage; kill it if it overruns."""
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def measure_setup(setup_args: list[str], harness: Harness) -> tuple[float, float]:
    """Median seconds, scaled and raw, from spawning a fresh interpreter
    until it has imported the package and loaded the resident inputs."""
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        f = harness.child_scale()
        t0 = clock()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), *setup_args],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=harness.env,
        )
        line = proc.stdout.readline()
        dt = clock() - t0
        proc.stdout.close()
        code, _ = wait_child(proc)
        if line != b"ready\n" or code != 0:
            harness.fail(f"setup probe exited {code}")
        else:
            harness.ok()
            scaled.append(dt * f)
            raw.append(dt)
    if not raw:
        return math.nan, math.nan
    return statistics.median(scaled), statistics.median(raw)


class Timing:
    """Query latencies, scaled and raw, and per pass the input size covered
    and the time taken."""

    def __init__(self) -> None:
        self.scaled: list[float] = []
        self.raw: list[float] = []
        self.passes: list[tuple[int, float, float]] = []  # size, scaled s, raw s

    def summary(self) -> dict[str, float]:
        """Latency deciles over all queries; throughput as the median pass's."""
        out = {}
        for k, (kind, xs) in enumerate((("", self.scaled), ("raw.", self.raw)), start=1):
            d = statistics.quantiles(xs, n=10, method="inclusive")
            out[f"{kind}query_p50_ms"] = d[4] * 1e3
            out[f"{kind}query_p90_ms"] = d[8] * 1e3
            out[f"{kind}throughput_kt_per_s"] = statistics.median(p[0] / p[k] for p in self.passes) / 1e3
        return out


def run_passes(wl, state, call, seconds, passes, fingerprints, harness, tracer=None) -> Timing:
    """Full passes over the query list, each query timed alone.

    Runs at least ``passes`` passes and, when ``seconds`` is given, keeps
    going until that much time has passed.
    """
    t = Timing()
    deadline = clock() + (seconds or 0.0)
    while len(t.passes) < passes or (seconds and clock() < deadline):
        size, scaled, raw = 0, 0.0, 0.0
        for k, q in enumerate(wl.queries):
            gc.collect()
            f = harness.scale()
            if tracer:
                tracer.scale = f
                span = tracer.begin("bench.query", len(t.passes) * len(wl.queries) + k)
            t0 = clock()
            try:
                res = wl.query(call, state, q)
            except Exception as exc:  # counted, reported, and the run goes on
                if tracer:
                    tracer.end(span)
                harness.fail(f"query {k}", exc)
                continue
            dt = clock() - t0
            if tracer:
                tracer.end(span)
            if fingerprints.get(k) is not None and wl.fingerprint(res) == fingerprints[k]:
                harness.ok()
            else:
                harness.fail(f"query {k}: result differs from the checked one")
            t.scaled.append(dt * f)
            t.raw.append(dt)
            size += wl.sizes[k]
            scaled += dt * f
            raw += dt
        t.passes.append((size, scaled, raw))
    return t


def warm_up(wl, state, harness) -> dict[int, object]:
    """One untimed pass that checks every query in full."""
    fingerprints: dict[int, object] = {}
    for k, q in enumerate(wl.queries):
        try:
            fingerprints[k] = wl.check(state, q, wl.query(direct, state, q))
            harness.ok()
        except Exception as exc:
            fingerprints[k] = None
            harness.fail(f"warm-up query {k}", exc)
    return fingerprints


def run_cli(wl, state, work: Path, harness: Harness, tracer=None) -> dict:
    """Each CLI command ``CLI_ROUNDS`` times in a fresh interpreter.

    The first run of a command is checked in full against the in-process
    result; later runs must print the same bytes. Returns per command the
    scaled and raw wall times, peak RSS and stderr size.
    """
    out_path, err_path = work / "stdout", work / "stderr"
    result: dict[str, dict] = {}

    def child(name: str, args: list[str]):
        f = harness.child_scale()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            if tracer:
                tracer.scale = f
                span = tracer.begin(f"cli.{name}", "cli")
            t0 = clock()
            proc = subprocess.Popen(
                [sys.executable, "-m", "hyperpaths.cli", *args],
                stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=harness.env,
            )
            code, usage = wait_child(proc)
            dt = clock() - t0
            if tracer:
                tracer.end(span)
        row = result.setdefault(name, {"s": [], "raw_s": [], "rss": [], "stderr": 0})
        row["s"].append(dt * f)
        row["raw_s"].append(dt)
        row["rss"].append(usage.ru_maxrss / 1024.0)
        err_text = err_path.read_text("utf-8")
        row["stderr"] = len(err_text.encode())
        return code, out_path.read_text("utf-8"), err_text

    for _ in range(CLI_ROUNDS):
        code, _, _ = child("startup", ["--help"])
        if code == 0:
            harness.ok()
        else:
            harness.fail(f"--help exited {code}")
    first: dict[str, tuple[str, str]] = {}
    for _ in range(CLI_ROUNDS):
        for name, args, check in wl.cli(state):
            code, out, err = child(name, args)
            if code != 0:
                harness.fail(f"cli {name} exited {code}: {err[-500:]}")
                continue
            try:
                if name not in first:
                    check(out, err)
                    first[name] = (out, err)
                elif first[name] != (out, err):
                    raise AssertionError("output differs from the first, checked run")
                harness.ok()
            except Exception as exc:
                harness.fail(f"cli {name}", exc)
    return result


def cli_totals(cli: dict) -> dict[str, float]:
    cmds = [name for name in cli if name != "startup"]
    return {
        "cli_total_s": sum(statistics.median(cli[c]["s"]) for c in cmds),
        "raw.cli_total_s": sum(statistics.median(cli[c]["raw_s"]) for c in cmds),
        "cli_peak_rss_mb": max(max(cli[c]["rss"]) for c in cmds),
        "cli_startup_s": statistics.median(cli["startup"]["s"]),
    }


def layer_metrics(tracer, passes: int, cli: dict) -> dict[str, float]:
    """Per-layer numbers for one round: the traced set-up once, one pass
    over the queries (the mean of the traced passes), each CLI command once
    (its median over the rounds)."""

    def weight(span) -> float:
        return 1.0 / passes if isinstance(span[4], int) else 1.0

    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name, s in tracer.self_times(weight).items():
        layer = name.split(".", 1)[0]
        if layer in LAYERS and layer != "cli":
            out[f"{layer}.self_s"] += s
    totals = tracer.totals(weight)
    for fn, counters in FUNCTIONS.items():
        agg = totals.get(fn, {})
        out[f"{fn}.s"] = agg.get("s", 0.0)
        for c in counters:
            if c == "arcs_kept_frac":
                out[f"{fn}.{c}"] = agg["arcs_out"] / agg["arcs_in"] if agg.get("arcs_in") else 0.0
            else:
                out[f"{fn}.{c}"] = agg.get(c, 0.0)
    out["cli.self_s"] = sum(statistics.median(row["s"]) for row in cli.values())
    out["cli.startup.s"] = statistics.median(cli["startup"]["s"])
    for cmd in CLI_COMMANDS:
        row = cli.get(cmd)
        out[f"cli.{cmd}.s"] = statistics.median(row["s"]) if row else 0.0
        out[f"cli.{cmd}.peak_rss_mb"] = max(row["rss"]) if row else 0.0
        out[f"cli.{cmd}.stderr_bytes"] = row["stderr"] if row else 0
    return out


def measure(wl, args, src: Path, work: Path, base: Path) -> int:
    harness = Harness(dict(os.environ, PYTHONPATH=str(src)))
    min_passes = math.ceil(MIN_SAMPLES / len(wl.queries))
    raw: dict[str, float] = {}

    if args.trace == 0:
        setup_s, raw["raw.setup_s"] = measure_setup(wl.setup_args, harness)
        state = wl.load(direct)
    else:
        tracer = Tracer()
        tracer.scale = harness.scale()
        span = tracer.begin("bench.setup", "setup")
        state = wl.load(tracer.call)
        tracer.end(span)
    wl.check_load(state)
    fingerprints = warm_up(wl, state, harness)

    seconds = args.seconds if args.trace == 0 else args.seconds / 2
    timing = run_passes(wl, state, direct, seconds, min_passes, fingerprints, harness)
    if len(timing.scaled) < MIN_SAMPLES:
        print(f"error: only {len(timing.scaled)} queries completed", file=sys.stderr)
        return 1
    summary = timing.summary()
    print(f"workload {args.workload}, seed {args.seed}: {len(timing.scaled)} timed queries "
          f"in {len(timing.passes)} passes of {len(wl.queries)}")

    if args.trace == 0:
        cli = cli_totals(run_cli(wl, state, work, harness))
        report = {"setup_s": setup_s, **summary, **cli}
        raw.update({k: v for k, v in report.items() if k.startswith("raw.")})
        raw["cli_startup_s"] = cli["cli_startup_s"]
        report = {name: report[name] for name in END_TO_END}
        units = END_TO_END
    else:
        passes = len(timing.passes)
        traced = run_passes(wl, state, tracer.call, None, passes, fingerprints, harness, tracer)
        cli = run_cli(wl, state, work, harness, tracer)
        report = layer_metrics(tracer, passes, cli)
        tsum = traced.summary()
        report["query.samples"] = len(timing.scaled)
        report["trace.overhead_frac"] = sum(traced.scaled) / sum(timing.scaled) - 1.0
        for name in ("query_p50_ms", "query_p90_ms", "throughput_kt_per_s"):
            report[f"trace.overhead.{name}"] = tsum[name] - summary[name]
        report.update({name: summary[name] for name in RAW})
        report["host.probe_ms"] = statistics.median(harness.probes) * 1e3
        report["host.child_probe_ms"] = statistics.median(harness.child_probes) * 1e3
        units = per_layer_spec()
        tracer.dump(base / f"trace-{args.workload}-{args.seed}.jsonl")

    failed_frac = harness.failed / max(1, harness.attempted)
    for name, value in report.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(f"metric failed_frac = {failed_frac:.6g} ratio "
          f"({harness.failed} of {harness.attempted} operations)")
    for name, value in raw.items():
        print(f"raw {name} = {value:.6g}")
    print(json.dumps({
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in report.items()},
    }))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("charts", "horn", "grammar"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "hyperpaths" / "__init__.py").is_file():
        print(f"error: no hyperpaths package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    # One core for the whole run, children included, so that every probe
    # samples the core the timed work runs on: the host's speed swings differ
    # from core to core. The load is one closed-loop client, so one core is
    # all it can use.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"warning: running unpinned: {exc}", file=sys.stderr)
    base = root / ".perfbench_work"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(WORKLOADS[args.workload](args.seed, work), args, src, work, base)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
