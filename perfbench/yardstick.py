"""A fixed computation that measures how fast the host runs Python right now.

The benchmark's hosts change speed by tens of percent for seconds to
minutes at a time, whatever runs on them.  Timing this computation next to
each timed question gives the host's speed at that moment, and dividing by
it takes that speed out of the question's time.

The computation is general interpreter work: grouping tuples into a dict of
lists, sorting tuples and building small dicts.  Of four candidates timed
between the answers of the benchmark's workloads (Fraction row reduction,
integer rows with gcd reduction, a minimum over vertex permutations, and
this one), this one followed the speed changes of the LP workloads best
and those of the others nearly as well as the best.  It uses only the
standard library and nothing of flexdp, so no change to flexdp can change
its cost.
"""
from __future__ import annotations

import random
import time

# Nominal seconds of one `run()`.  A time divided by a measured `run()` and
# multiplied by this reads as seconds on a host where `run()` takes exactly
# REFERENCE_S.
REFERENCE_S = 0.1
ROUNDS = 100

_rng = random.Random(20251013)
_KEYS = [(_rng.randrange(50), _rng.randrange(50)) for _ in range(3000)]


def _round() -> int:
    groups: dict[int, list[tuple[int, int]]] = {}
    for key in _KEYS:
        groups.setdefault(key[0], []).append(key)
    ranked = sorted((len(v), k, tuple(v[:3])) for k, v in groups.items())
    records = [{"index": i, "name": str(i), "pair": (i, i + 1)} for i in range(1500)]
    return len(ranked) + len(records)


def run() -> tuple[float, float]:
    """Run the computation once; (wall seconds, CPU seconds of this process)."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _ in range(ROUNDS):
        _round()
    return time.perf_counter() - wall0, time.process_time() - cpu0
