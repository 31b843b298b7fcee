"""A fixed piece of Python work whose duration tracks the host's speed.

It shares no code with the library. It mixes the two kinds of work the
library's parsers and Dijkstra loops do: filling a dict with new strs, and
pushing and popping float-keyed tuples on a heap. ``run.py`` times
``work()`` in-process before each query; ``python3 hostprobe.py`` runs a
larger dose in a fresh interpreter, timed before each child process.
"""

import heapq

CHILD_ROUNDS = 25


def work(rounds: int = 1) -> int:
    n = 0
    for _ in range(rounds):
        d = {}
        for i in range(4000):
            d[i] = str(i)
        for v in d.values():
            n += len(v)
        heap: list[tuple[float, int]] = []
        x = 0.0
        for i in range(1500):
            x = (x * 1.618 + 0.5) % 97.0
            heapq.heappush(heap, (x, i))
        while heap:
            n += heapq.heappop(heap)[1]
    return n


if __name__ == "__main__":
    work(CHILD_ROUNDS)
