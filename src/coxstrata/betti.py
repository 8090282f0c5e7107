"""Closed-form stratum counts and their generating-series verification.

Three independent routes to the same numbers: lattice enumeration
(flats module), the closed-form expressions implemented here, and exact
truncated bivariate series expansion.  Exceptional rows are stored
constants, cross-validated by enumeration in the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import InvalidRank, InvariantViolation, RankOutOfRange
from .rootsys import CartanType

EXCEPTIONAL_ROWS: dict[str, tuple[int, ...]] = {
    "G2": (1, 6, 1),
    "F4": (1, 120, 122, 24, 1),
    "E6": (1, 639, 2001, 1530, 390, 36, 1),
    "E7": (1, 8821, 36435, 33411, 10395, 1281, 63, 1),
    "E8": (1, 440880, 2221780, 2091600, 661542, 85680, 4900, 120, 1),
}


@lru_cache(maxsize=None)
def stirling(n: int, k: int) -> int:
    """Set partitions of an n-set into k nonempty blocks; S(0,0)=1."""
    if n < 0 or k < 0:
        raise ValueError("stirling arguments must be nonnegative")
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    return k * stirling(n - 1, k) + stirling(n - 1, k - 1)


def bell(n: int) -> int:
    """Total number of set partitions of an n-set."""
    return sum(stirling(n, k) for k in range(n + 1))


def _f_a(r: int, k: int) -> int:
    return stirling(r + 1, k + 1)


def _f_b(r: int, k: int) -> int:
    return sum(comb(r, i) * stirling(r - i, k) * 2 ** (r - k - i) for i in range(r - k + 1))


def _f_d(r: int, k: int) -> int:
    total = sum(comb(r, i) * stirling(i, k) * 2 ** (i - k) for i in range(k, r + 1))
    if k <= r - 1:
        total -= r * stirling(r - 1, k) * 2 ** (r - 1 - k)
    return total


def dowling(n: int) -> int:
    """Row sum of the signed-partition counts (the B-family analogue of Bell)."""
    return sum(_f_b(n, k) for k in range(n + 1))


def f_closed_form(ctype: CartanType | str, k: int) -> int:
    """Number of codimension-k strata for an irreducible type."""
    if isinstance(ctype, str):
        ctype = CartanType.parse(ctype)
    if not ctype.is_irreducible:
        raise InvalidRank("closed forms are per irreducible factor")
    family, r = ctype.factors[0]
    if not 0 <= k <= r:
        raise RankOutOfRange(f"k={k} outside [0, {r}]")
    if family == "A":
        return _f_a(r, k)
    if family in ("B", "C"):
        return _f_b(r, k)
    if family == "D":
        return _f_d(r, k)
    return exceptional_table(ctype, k)


def exceptional_table(ctype: CartanType | str, k: int) -> int:
    """Stored stratum counts for G2, F4, E6, E7, E8."""
    if isinstance(ctype, str):
        ctype = CartanType.parse(ctype)
    name = str(ctype)
    if name not in EXCEPTIONAL_ROWS:
        raise InvalidRank(f"{name} is not an exceptional type")
    row = EXCEPTIONAL_ROWS[name]
    if not 0 <= k < len(row):
        raise RankOutOfRange(f"k={k} outside [0, {len(row) - 1}]")
    return row[k]


def betti_row_closed_form(ctype: CartanType | str) -> list[int]:
    if isinstance(ctype, str):
        ctype = CartanType.parse(ctype)
    return [f_closed_form(ctype, k) for k in range(ctype.rank + 1)]


class TruncatedSeries2:
    """Bivariate power series in (q, t), exact Fractions, fixed truncation.

    coeffs[a][b] is the coefficient of q^a t^b; arithmetic is exact
    modulo terms of q-degree > max_q or t-degree > max_t.
    """

    def __init__(self, max_q: int, max_t: int, coeffs=None):
        self.max_q = max_q
        self.max_t = max_t
        if coeffs is None:
            coeffs = [[Fraction(0)] * (max_t + 1) for _ in range(max_q + 1)]
        self.coeffs = coeffs

    @classmethod
    def zero(cls, max_q: int, max_t: int) -> "TruncatedSeries2":
        return cls(max_q, max_t)

    @classmethod
    def term(cls, max_q: int, max_t: int, c, a: int = 0, b: int = 0) -> "TruncatedSeries2":
        s = cls(max_q, max_t)
        if a <= max_q and b <= max_t:
            s.coeffs[a][b] = Fraction(c)
        return s

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        a, b = key
        return self.coeffs[a][b]

    def _like(self) -> "TruncatedSeries2":
        return TruncatedSeries2(self.max_q, self.max_t)

    def __add__(self, other: "TruncatedSeries2") -> "TruncatedSeries2":
        out = self._like()
        for a in range(self.max_q + 1):
            for b in range(self.max_t + 1):
                out.coeffs[a][b] = self.coeffs[a][b] + other.coeffs[a][b]
        return out

    def __sub__(self, other: "TruncatedSeries2") -> "TruncatedSeries2":
        out = self._like()
        for a in range(self.max_q + 1):
            for b in range(self.max_t + 1):
                out.coeffs[a][b] = self.coeffs[a][b] - other.coeffs[a][b]
        return out

    def __mul__(self, other: "TruncatedSeries2") -> "TruncatedSeries2":
        out = self._like()
        for a1 in range(self.max_q + 1):
            row = self.coeffs[a1]
            for b1 in range(self.max_t + 1):
                c = row[b1]
                if not c:
                    continue
                for a2 in range(self.max_q + 1 - a1):
                    orow = other.coeffs[a2]
                    target = out.coeffs[a1 + a2]
                    for b2 in range(self.max_t + 1 - b1):
                        if orow[b2]:
                            target[b1 + b2] += c * orow[b2]
        return out

    def scale(self, c) -> "TruncatedSeries2":
        out = self._like()
        f = Fraction(c)
        for a in range(self.max_q + 1):
            for b in range(self.max_t + 1):
                out.coeffs[a][b] = self.coeffs[a][b] * f
        return out

    def exp(self) -> "TruncatedSeries2":
        """exp of a series with zero constant term (nilpotent powers)."""
        if self.coeffs[0][0] != 0:
            raise InvariantViolation("exp needs zero constant term")
        one = TruncatedSeries2.term(self.max_q, self.max_t, 1)
        out = one
        power = one
        for n in range(1, self.max_q + self.max_t + 1):
            power = power * self
            out = out + power.scale(Fraction(1, factorial(n)))
        return out

    def shift_down(self, dq: int, dt: int) -> "TruncatedSeries2":
        """Exact division by the monomial q^dq t^dt; raises unless divisible."""
        for a in range(min(dq, self.max_q + 1)):
            if any(self.coeffs[a]):
                raise InvariantViolation("not divisible by the q power")
        for a in range(self.max_q + 1):
            if any(self.coeffs[a][:dt]):
                raise InvariantViolation("not divisible by the t power")
        out = TruncatedSeries2(self.max_q - dq, self.max_t - dt)
        for a in range(out.max_q + 1):
            for b in range(out.max_t + 1):
                out.coeffs[a][b] = self.coeffs[a + dq][b + dt]
        return out


def _exp_t_minus_one(max_q: int, max_t: int, scale_t: int = 1) -> TruncatedSeries2:
    """e^(scale_t * t) - 1 as a series in t only."""
    s = TruncatedSeries2(max_q, max_t)
    for b in range(1, max_t + 1):
        s.coeffs[0][b] = Fraction(scale_t**b, factorial(b))
    return s


def series_coefficients(family: str, max_r: int) -> list[list[int]]:
    """Table fhat[r][k] read off the family's exact generating series.

    A family: coefficient of q^k t^r times (r+1)!, from
    (exp(q(e^t - 1)) - 1) / (q t).  B (= C) family: coefficient of
    q^k t^r times r!, from exp(t + q(e^(2t) - 1)/2).  D family: the
    same extraction from (e^t - t) exp(q(e^(2t) - 1)/2).
    """
    if family not in ("A", "B", "D"):
        raise InvalidRank(f"series defined for families A, B, D, not {family!r}")
    mq, mt = max_r + 1, max_r + 1
    if family == "A":
        inner = _exp_t_minus_one(mq, mt).scale(1) * TruncatedSeries2.term(mq, mt, 1, a=1)
        numer = inner.exp() - TruncatedSeries2.term(mq, mt, 1)
        series = numer.shift_down(1, 1)
        weight = lambda r: factorial(r + 1)
    elif family == "B":
        half = _exp_t_minus_one(mq, mt, scale_t=2).scale(Fraction(1, 2))
        arg = half * TruncatedSeries2.term(mq, mt, 1, a=1) + TruncatedSeries2.term(mq, mt, 1, b=1)
        series = arg.exp()
        weight = lambda r: factorial(r)
    else:
        half = _exp_t_minus_one(mq, mt, scale_t=2).scale(Fraction(1, 2))
        expq = (half * TruncatedSeries2.term(mq, mt, 1, a=1)).exp()
        front = _exp_t_minus_one(mq, mt) + TruncatedSeries2.term(mq, mt, 1) - TruncatedSeries2.term(mq, mt, 1, b=1)
        series = front * expq
        weight = lambda r: factorial(r)
    table: list[list[int]] = []
    for r in range(max_r + 1):
        row = []
        for k in range(r + 1):
            c = series[k, r] * weight(r)
            if c.denominator != 1:
                raise InvariantViolation("series coefficient not integral")
            row.append(int(c))
        table.append(row)
    return table
