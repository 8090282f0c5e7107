"""A fixed calibration kernel, timed beside the program to cancel host speed.

The host's speed swings by up to 2x within seconds and stays low for tens of
seconds at a time, so a raw time of one run says as much about the other
tenants as about the program.  The kernel below does the kind of work the
program does (exact Fraction elimination, bitmask and dict churn) but calls
no coxstrata code, so it runs at the host's current speed and is untouched by
any change to the program.  An operation's reference time is its measured
time scaled by REF_S over the kernel's time in the samples taken just before
and just after it: the time it would take when the kernel takes REF_S.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The kernel's time on a quiet 2-core x86-64 host, in seconds; only a scale.
REF_S = 0.014


def _matrix(n: int = 9, m: int = 13, seed: int = 12345) -> list[list[int]]:
    rows, x = [], seed
    for _ in range(n):
        row = []
        for _ in range(m):
            x = (1103515245 * x + 12345) % 2**31
            row.append(x % 7 - 3)
        rows.append(row)
    return rows


MATRIX = _matrix()


def kernel() -> tuple[int, int]:
    """Row-reduce MATRIX over Fraction, then churn a set and a dict of masks."""
    rows = [[Fraction(v) for v in r] for r in MATRIX]
    pivots = 0
    for c in range(len(rows[0])):
        p = next((i for i in range(pivots, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[pivots], rows[p] = rows[p], rows[pivots]
        inv = 1 / rows[pivots][c]
        rows[pivots] = [v * inv for v in rows[pivots]]
        for i in range(len(rows)):
            if i != pivots and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pivots])]
        pivots += 1
    seen, weights = set(), {}
    for k in range(4000):
        mask = (k * 2654435761) & 0xFFFFF
        weights[mask] = bin(mask).count("1")
        seen.add(mask | (mask >> 3))
    return pivots, len(seen)


def calibrate() -> float:
    """Seconds for two runs of the kernel."""
    start = time.perf_counter()
    kernel()
    kernel()
    return time.perf_counter() - start


class Clock:
    """Calibration samples interleaved with a pass's operations.

    before_op() is called just before each operation starts its timer; it
    takes a sample when every_s seconds have passed since the last one, and
    before a pass's first operation (so every_s=0 samples before every
    operation).  scales() ends a pass: it
    takes one more sample and returns, per operation since the last call,
    REF_S over the mean of the samples either side of it.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.samples: list[float] = []
        self.marks: list[int] = []  # per operation: its preceding sample
        self.due = 0.0

    def sample(self) -> float:
        s = calibrate()
        self.samples.append(s)
        self.due = time.perf_counter() + self.every_s
        return s

    def before_op(self) -> None:
        if time.perf_counter() >= self.due:
            self.sample()
        self.marks.append(len(self.samples) - 1)

    def scales(self) -> list[float]:
        self.sample()
        out = [2 * REF_S / (self.samples[m] + self.samples[m + 1]) for m in self.marks]
        self.marks = []
        self.due = 0.0  # the next pass may run on another CPU: sample afresh
        return out
