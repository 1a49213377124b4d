"""How fast the machine runs the benchmark's kind of code right now.

On a shared host the same exact-arithmetic work can take twice as long
for seconds or minutes at a time, and each core has its own slow and
fast phases.  A run cannot wait such a phase out, so every query the
benchmark times is paired with this fixed reference loop, timed in the
same thread just before it, every so often inside it where it is long,
and just after it.  A query's time is then reported on the reference
machine's scale:

    reported = measured * REFERENCE_S / (mean time of those loops)

The loop is the benchmark's own code and never calls omlprob, so a
change to the program moves the measured time and not the reference.
REFERENCE_S is what the loop takes on the machine the bounds were set
on (2-vCPU KVM guest, Python 3.11, fast phase); it only fixes the scale.

Set-up is mostly interpreter start and imports, which the slow phase
stretches by about 1.25x against 1.7x for the loop, so set-up has a
reference of its own: a fresh interpreter that imports a fixed set of
standard modules, timed just before and just after each set-up.  On
that machine the ratio of the two kept within 2% over a minute in which
set-up alone moved by 12%.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.0025
ROUNDS = 1200

START_REFERENCE_S = 0.05
START_ARGV = [sys.executable, "-c",
              "import argparse, fractions, itertools, json, random"]


def _work():
    """Fraction sums and a dict of tuple keys, like omlprob's inner loops."""
    acc = Fraction(0)
    table = {}
    for i in range(1, ROUNDS):
        acc += Fraction(1, i % 11 + 1)
        key = (i % 37, i % 5)
        table[key] = table.get(key, 0) + 1
    return acc, len(table)


def reference_s() -> float:
    """Seconds the reference loop takes now; the best of two tries, so a
    single interrupt does not count as a slow phase."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t0)
    return best


def start_reference_s() -> float:
    """Seconds the set-up reference takes now: start a fresh interpreter
    that imports the standard modules in START_ARGV."""
    t0 = time.perf_counter()
    subprocess.run(START_ARGV, check=True)
    return time.perf_counter() - t0


def scale(measured_s: float, refs, nominal_s: float = REFERENCE_S) -> float:
    """`measured_s` on the reference scale, given the reference's times
    taken just before, during and just after the measured region and
    its time `nominal_s` on the reference machine."""
    return measured_s * nominal_s * len(refs) / sum(refs)
