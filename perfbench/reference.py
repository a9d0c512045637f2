"""A fixed task, timed between jobs to track the host's speed.

Shared 2-core hosts drift by 10-25% over tens of seconds, for every process
alike, which swamps the changes the benchmark is meant to resolve.  The task
below does the kind of work a wsat job does, in a forked child like a job:
fresh allocations (a dict of tuples) and bit-mask closures to a fixed point
with dict lookups and tuple sorting.  It never changes, so its time measures
only the machine.  The benchmark reports its end-to-end figures scaled to
the host speed at which this task takes NOMINAL_S seconds, and keeps the raw
figures in its record.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import sys
import time
from itertools import combinations

NOMINAL_S = 0.025  # the task's typical time on the 2-core box the bounds were set on


def _tables(n: int = 12, rules: int = 6, seed: int = 20211102):
    rng = random.Random(seed)
    universe = list(combinations(range(n), 2))
    ranks = {e: i for i, e in enumerate(universe)}
    table = []
    for _ in universe:
        entry = []
        for _ in range(rules):
            req = 0
            for e in rng.sample(universe, 3):
                req |= 1 << ranks[e]
            entry.append(req)
        table.append(entry)
    starts = [sum(1 << i for i in rng.sample(range(len(universe)), 12))
              for _ in range(100)]
    return universe, ranks, table, starts


_UNIVERSE, _RANKS, _TABLE, _STARTS = _tables()


def _close(mask: int) -> int:
    full = (1 << len(_TABLE)) - 1
    while mask != full:
        added = False
        for rank, entry in enumerate(_TABLE):
            bit = 1 << rank
            if mask & bit:
                continue
            for req in entry:
                if req & mask == req:
                    mask |= bit
                    added = True
                    break
        if not added:
            break
    return mask


def task() -> int:
    """The fixed work; returns a checksum so nothing is optimised away."""
    table = {(i % 97, i % 89, i): [i] * 3 for i in range(20_000)}
    total = len(table)
    for start in _STARTS:
        closed = _close(start)
        edges = sorted((e for e in _UNIVERSE if closed >> _RANKS[e] & 1),
                       key=lambda e: (e[1], e[0]))
        total += len(edges) + sum(_RANKS[e] for e in edges[:5])
    return total


def time_task() -> float:
    """Wall time of the task in a forked child, from fork to exit."""
    sys.stdout.flush()
    sys.stderr.flush()
    gc.freeze()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            task()
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    return time.perf_counter() - start


def host_speed(samples: list[float]) -> float:
    """NOMINAL_S over the 10%-trimmed mean of the task's times in a run.

    On a shared host the task's times are bimodal.  A job that spans many
    samples sees their time average, which the mean follows and the median
    does not; the trim drops the rare stalls.
    """
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return NOMINAL_S / statistics.fmean(ordered[cut:len(ordered) - cut])
