"""Exact linear algebra over the integers.

One fraction-free core: `IncrementalSpan` keeps a row space in reduced
integer echelon form.  Elimination is cross-multiplication as in Bareiss
(1968), but each row is then divided by its gcd instead of by the
previous pivot, which keeps entries as small as the row space allows.
Rank and kernels are thin functions over it, and a solve is a kernel
vector: the one integer relation between a target and a basis.  Matrices
are small (rows are root coordinate vectors), so clarity wins over
asymptotics; no floating point anywhere.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Sequence

IntVec = tuple[int, ...]


def _normalised(v: list[int]) -> list[int]:
    """v divided by the gcd of its entries, first nonzero entry positive."""
    g = gcd(*v)
    if next(x for x in v if x) < 0:
        g = -g
    return v if g == 1 else [x // g for x in v]


class IncrementalSpan:
    """Row space of integer vectors in reduced integer echelon form.

    Each stored row is primitive (gcd 1) with a positive pivot, and is
    zero in every other row's pivot column; rows are kept sorted by
    pivot.  All arithmetic is on Python ints, so nothing overflows.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def _reduce(self, vec: Sequence[int]) -> list[int]:
        """A nonzero multiple of vec minus span rows, zero in every pivot."""
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            f = v[p]
            if f:
                a = row[p]
                v = [a * x - f * y for x, y in zip(v, row)]
        return v

    def add(self, vec: Sequence[int]) -> bool:
        """Add vec to the span; return True iff it enlarged the span."""
        v = self._reduce(vec)
        if not any(v):
            return False
        v = _normalised(v)
        p = next(c for c, x in enumerate(v) if x)
        a = v[p]
        for i, row in enumerate(self.rows):
            f = row[p]
            if f:
                self.rows[i] = _normalised([a * x - f * y for x, y in zip(row, v)])
        at = sum(1 for q in self.pivots if q < p)
        self.rows.insert(at, v)
        self.pivots.insert(at, p)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def kernel(self) -> list[IntVec]:
        """Primitive integer basis of {x : row . x == 0 for every row}.

        One vector per free column, zero in every other free column; each
        is primitive with its first nonzero entry positive.
        """
        free = [c for c in range(self.dim) if c not in self.pivots]
        kernel: list[IntVec] = []
        for f in free:
            used = [(row, p) for row, p in zip(self.rows, self.pivots) if row[f]]
            # Star-unpack lists, not generators: a tuple built from a
            # generator is resized, and each one freed then stays in
            # CPython's tuple free list, which raises peak memory.
            den = lcm(*[row[p] for row, p in used])
            x = [0] * self.dim
            x[f] = den
            for row, p in used:
                x[p] = -row[f] * (den // row[p])
            kernel.append(tuple(_normalised(x)))
        return kernel


def _span_of(rows: Iterable[Sequence[int]], dim: int) -> IncrementalSpan:
    span = IncrementalSpan(dim)
    for r in rows:
        span.add(r)
    return span


def bareiss_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of an integer matrix (0 for no rows)."""
    rows = list(rows)
    return _span_of(rows, len(rows[0])).rank if rows else 0


def integer_kernel(rows: Sequence[Sequence[int]], dim: int) -> list[IntVec]:
    """Primitive integer basis of {x : row . x == 0 for every row}.

    Returns dim - rank vectors; for an empty row list, the standard basis.
    """
    return _span_of(rows, dim).kernel()
