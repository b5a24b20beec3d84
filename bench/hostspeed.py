"""Host speed, measured with a fixed reference block.

The shared host runs Python at speeds that drift by up to 1.6x over
minutes, for the whole process.  A fixed reference block, timed now and
then during a run, measures that speed.  Times measured between samples
are scaled to the speed at which one block takes REFERENCE_S; the raw
times stay in the run record.
"""
from __future__ import annotations

import statistics
import time
from itertools import combinations, combinations_with_replacement
from math import comb

perf_counter = time.perf_counter

REFERENCE_S = 0.025
REFERENCE_INTERVAL_S = 0.5

_REF_MONOMIALS = [
    tuple(c.count(i) for i in range(5))
    for c in combinations_with_replacement(range(5), 4)
]
_REF_GENERATORS = [(2, 0, 0, 1, 0), (0, 1, 1, 0, 0), (1, 0, 2, 0, 0),
                   (0, 0, 0, 2, 1), (0, 1, 0, 0, 2)]
_REF_SUPPORTS = [frozenset(s) for s in ((1, 2), (2, 5), (3, 4, 6), (1, 7), (5, 6, 8))]


def reference_block() -> float:
    """Time a fixed pure-Python block shaped like the package's inner loops
    (divisibility scans, subset tests, a binomial base search) but
    independent of the package, so no change to the package moves it."""
    t0 = perf_counter()
    count = 0
    for _ in range(180):
        for m in _REF_MONOMIALS:
            for g in _REF_GENERATORS:
                for a, b in zip(g, m):
                    if a > b:
                        break
                else:
                    count += 1
                    break
        for combo in combinations(range(1, 9), 3):
            s = frozenset(combo)
            if not any(sup <= s for sup in _REF_SUPPORTS):
                count += 1
        b = 0
        while comb(b + 1, 2) <= 30000:
            b += 1
        count += b
    return perf_counter() - t0


class HostSpeed:
    """Reference-block samples taken during a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        self.samples.append(reference_block())
        self._last = perf_counter()

    def sample_if_due(self) -> None:
        if perf_counter() - self._last >= REFERENCE_INTERVAL_S:
            self.sample()

    def scale(self) -> float:
        """Factor that turns a time measured now into reference-speed time."""
        return REFERENCE_S / statistics.median(self.samples)
