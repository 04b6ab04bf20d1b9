"""A fixed pure-Python kernel that measures how fast the machine is right now.

On a shared machine the speed of one core drifts by a factor of up to two
over tens of seconds, and the same run of the same code can take twice as
long a minute later.  The benchmark therefore times this kernel next to
every operation and scales the operation's wall time by
``REFERENCE_MS / kernel time``: the time the operation would have taken on a
machine on which the kernel takes ``REFERENCE_MS``.  The kernel does the
kinds of work the library does (Fraction arithmetic, sorting, building
tuples and dicts, JSON), so a slow spell slows it about as much as it slows
an operation.  It never calls the library, so a change to the library
cannot change it.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

# about the kernel's median time under CPython 3.11 on a 2-vCPU Intel Xeon
# virtual machine, where it ranged from 3.9 to 6.2 ms
REFERENCE_MS = 5.0
REPEATS = 3

_rng = random.Random("calibrate")
_FRACTIONS = [Fraction(_rng.randint(1, 10**6), _rng.randint(1, 1000)) for _ in range(300)]
_INTS = [_rng.randint(0, 10**9) for _ in range(3000)]
_DOC = {"ints": _INTS, "fractions": [str(x) for x in _FRACTIONS]}


def _kernel() -> int:
    total = Fraction(0)
    for x in _FRACTIONS:
        total += x
    sorted(_INTS)
    sorted(_FRACTIONS[:200])
    rows = [tuple(range(i % 7, i % 7 + 8)) for i in range(3000)]
    index = {row: i for i, row in enumerate(rows)}
    return len(json.loads(json.dumps(_DOC))) + len(index) + total.denominator


def kernel_ms() -> float:
    """The kernel's wall time now: the fastest of a few back-to-back runs,
    so an interrupt in one of them does not count."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        _kernel()
        best = min(best, (time.perf_counter_ns() - t0) / 1e6)
    return best


def scale(wall_ms: float, before_ms: float, after_ms: float) -> float:
    """`wall_ms` at reference speed, from the kernel times taken just before
    and just after it."""
    return wall_ms * 2 * REFERENCE_MS / (before_ms + after_ms)
