"""A fixed pure-Python reference loop that gauges the machine's current speed.

On a shared host the same code runs 10-30% slower or faster from one minute
to the next, because other tenants load the caches, memory bus and cores.
The benchmark runs this loop next to every item and scales the item's time
by how long the loop took then against `UNIT_S`, the loop's time on the
machine the benchmark was recorded on.  The loop touches no graphck code, so
a change to the program moves the scaled times exactly as it moves the raw
ones, while a change in the machine's speed moves both the item and the loop
and cancels out.

The work mimics graphck's own: string-keyed successor dicts, reachability by
an explicit stack, frozensets collected in sets, and sorting, over a working
set of a few hundred KiB.
"""

from __future__ import annotations

import gc
import time

UNIT_S = 0.00033  # seconds one `unit()` takes on the recording machine (typical)

_N = 40
_VERTS = [f"v{i}" for i in range(_N)]
_SUCC = {v: tuple(_VERTS[(i * k + 1) % _N] for k in (3, 7, 11)) for i, v in enumerate(_VERTS)}
_TABLE = {(i, j): i ^ j for i in range(64) for j in range(64)}


def unit() -> int:
    """One fixed piece of work, about a third of a millisecond long."""
    found = set()
    for v in _VERTS:
        reach, stack = {v}, [v]
        while stack:
            for w in _SUCC[stack.pop()]:
                if w not in reach:
                    reach.add(w)
                    stack.append(w)
        found.add(frozenset(reach))
    acc = sum(_TABLE[i & 63, (i * 37) & 63] for i in range(0, 4096, 7))
    return acc + len(sorted(found, key=len))


def measure(units: int) -> float:
    """Seconds per unit, timed over `units` units run back to back.

    The collector is off meanwhile: a collection would walk the program's
    own objects, and the loop's speed would then depend on the program."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(units):
            unit()
        return (time.perf_counter() - t0) / units
    finally:
        if collecting:
            gc.enable()
