"""In-memory spans around the benchmark's calls into the library.

A span has a name ``<layer>.<function>``, start and end times, the index of
the span that encloses it and the id of the query it belongs to. Counters
taken from each call's public result are stored with the span, and so is
the host-speed scale in force when it was recorded (see ``run.py``), which
self times and totals apply. Nothing is written until :meth:`Tracer.dump`
at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

clock = time.perf_counter


def direct(name, fn, *args, **kwargs):
    """The untraced call: the same pipeline code, no recording."""
    return fn(*args, **kwargs)


def _counts(name: str, args, res) -> dict[str, float]:
    """Work counters for one call, read from its arguments and public result."""
    if name == "textio.parse_hypergraph":
        return {"bytes_in": len(args[0]), "arcs_out": res.graph.num_arcs}
    if name == "textio.serialize_hypergraph":
        return {"bytes_out": len(res)}
    if name == "core.restrict":
        g = args[0]
        return {
            "vertices_in": g.n,
            "arcs_in": g.num_arcs,
            "vertices_out": res.graph.n,
            "arcs_out": res.graph.num_arcs,
        }
    if name in ("reachability.reach_from", "reachability.reach_to"):
        return {"touches": res.touches}
    if name == "reachability.reduce":
        return {"arcs_in": args[0].num_arcs, "arcs_out": res.graph.num_arcs}
    if name == "inside.viterbi_inside":
        return {"binds": res.binds}
    if name == "outside.prune_relatively_useless":
        g = args[0]
        return {
            "vertices_in": g.n,
            "arcs_in": g.num_arcs,
            "vertices_out": res.graph.n,
            "arcs_out": res.graph.num_arcs,
        }
    if name == "grammar.parse_grammar":
        return {"bytes_in": len(args[0]), "productions_out": len(res.productions)}
    if name == "grammar.serialize_grammar":
        return {"bytes_out": len(res)}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # name, start, end, parent, query, counts, scale
        self._open: list[int] = []
        self.scale = 1.0

    def begin(self, name: str, query) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, clock(), 0.0, parent, query, {}, self.scale])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int, counts: dict | None = None) -> None:
        span = self.spans[index]
        span[2] = clock()
        self._open.pop()
        if counts:
            span[5] = counts

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span; the counters are read after it closes."""
        parent = self._open[-1] if self._open else -1
        query = self.spans[parent][4] if parent >= 0 else None
        start = clock()
        res = fn(*args, **kwargs)
        end = clock()
        self.spans.append([name, start, end, parent, query, _counts(name, args, res), self.scale])
        return res

    def self_times(self, weight) -> dict[str, float]:
        """Weighted seconds per span name, minus the time child spans cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: dict[str, float] = defaultdict(float)
        for k, span in enumerate(self.spans):
            out[span[0]] += weight(span) * span[6] * (span[2] - span[1] - child[k])
        return dict(out)

    def totals(self, weight) -> dict[str, dict[str, float]]:
        """Per span name: weighted call count, seconds and counters."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            w = weight(span)
            agg = out.setdefault(span[0], defaultdict(float))
            agg["calls"] += w
            agg["s"] += w * span[6] * (span[2] - span[1])
            for key, value in span[5].items():
                agg[key] += w * value
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, query, counts, scale in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "query": query,
                            "counts": counts,
                            "scale": scale,
                        }
                    )
                    + "\n"
                )
