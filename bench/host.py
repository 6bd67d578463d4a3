"""Host-speed calibration for the timed metrics.

On a shared host the speed of one core moves by up to 2x over seconds to
minutes, and CPU time moves with wall time, so neither can tell a slower
program from a slower host. The benchmark therefore times a fixed piece
of pure-Python work, ``calibrate()``, next to the work it measures, and
reports each timing as it would read on a host that runs the calibration
in ``REFERENCE_S`` seconds: a timing ``t`` is reported as
``t / slowdown(c)``, where ``c`` is the calibration time taken beside it.
The calibration uses no evarg code, so a change to evarg moves the
adjusted figures exactly as it moves the raw ones. Only computing time is
adjusted this way; time spent waiting on an endpoint's fixed delay does
not follow the host's speed.

The calibration walks a shuffled table of small records and counts into a
dict, as corpus selection and scoring do. Its working set is a few MB, so
it slows with cache and memory contention about as much as the pipeline
does (a tight loop over a small dict slowed about twice as much).
"""

from __future__ import annotations

import gc
import random
import time

REFERENCE_S = 0.04  # seconds calibrate() takes on a quiet 2.0 GHz core


def _table(n: int = 40_000) -> tuple[dict, ...]:
    # Dicts of strings and ints are not tracked by the garbage collector,
    # so the table adds nothing to the collections of the measured program.
    records = [
        {"id": f"r{i}", "type": f"type{i % 37}", "role": f"role{i % 11}", "n": i % 5}
        for i in range(n)
    ]
    random.Random(0).shuffle(records)
    return tuple(records)


_TABLE = _table()


def calibrate() -> float:
    """Seconds taken by one pass over the table; the collector is paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict[str, int] = {}
        for rec in _TABLE:
            key = rec["type"] + ":" + rec["role"]
            counts[key] = counts.get(key, 0) + rec["n"]
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def slowdown(calibration_s: float) -> float:
    """How many times slower than the reference host a calibration ran."""
    return calibration_s / REFERENCE_S
