"""Closed-form stratum counts and their generating-series verification.

Three independent routes to the same numbers: lattice enumeration
(flats module), the closed-form expressions implemented here, and the
coefficients of each family's exponential generating function, computed
in integers.  Exceptional rows are stored constants, cross-validated by
enumeration in the test suite.
"""

from __future__ import annotations

from collections import deque
from math import comb
from typing import Iterator

from .errors import InvalidRank
from .rootsys import CartanType

EXCEPTIONAL_ROWS: dict[str, tuple[int, ...]] = {
    "G2": (1, 6, 1),
    "F4": (1, 120, 122, 24, 1),
    "E6": (1, 639, 2001, 1530, 390, 36, 1),
    "E7": (1, 8821, 36435, 33411, 10395, 1281, 63, 1),
    "E8": (1, 440880, 2221780, 2091600, 661542, 85680, 4900, 120, 1),
}


def _stirling_rows(n: int) -> Iterator[list[int]]:
    """Rows S(0, 0..0) to S(n, 0..n) of the triangle, keeping only the current row."""
    row = [1]
    yield row
    for _ in range(n):  # S(m, k) = k * S(m - 1, k) + S(m - 1, k - 1)
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, len(row))] + [1]
        yield row


def _last_stirling_row(n: int) -> list[int]:
    return deque(_stirling_rows(n), maxlen=1).pop()


def stirling(n: int, k: int) -> int:
    """Set partitions of an n-set into k nonempty blocks; S(0,0)=1."""
    if n < 0 or k < 0:
        raise ValueError("stirling arguments must be nonnegative")
    return _last_stirling_row(n)[k] if k <= n else 0


def bell(n: int) -> int:
    """Total number of set partitions of an n-set."""
    if n < 0:
        raise ValueError("bell argument must be nonnegative")
    return sum(_last_stirling_row(n))


def _classical_row(family: str, r: int) -> list[int]:
    """Codimension-k counts, k = 0..r, for family A, B (= C) or D of rank r.

    A: S(r + 1, k + 1).  B: sum over m of C(r, m) S(m, k) 2^(m - k).  D: the
    B sum less r S(r - 1, k) 2^(r - 1 - k), i.e. the B sum without m = r - 1.
    """
    if family == "A":
        return _last_stirling_row(r + 1)[1:]
    out = [0] * (r + 1)
    for m, row in enumerate(_stirling_rows(r)):
        weight = 0 if family == "D" and m == r - 1 else comb(r, m)
        for k, s in enumerate(row):
            out[k] += weight * s << (m - k)
    return out


def dowling(n: int) -> int:
    """Row sum of the signed-partition counts (the B-family analogue of Bell)."""
    return sum(_classical_row("B", n))


def betti_row_closed_form(ctype: CartanType | str) -> list[int]:
    """Stratum counts by codimension for an irreducible type."""
    if isinstance(ctype, str):
        ctype = CartanType.parse(ctype)
    if not ctype.is_irreducible:
        raise InvalidRank("closed forms are per irreducible factor")
    family, r = ctype.factors[0]
    if family not in "ABCD":
        return list(EXCEPTIONAL_ROWS[str(ctype)])
    return _classical_row("B" if family == "C" else family, r)


def _egf_term(a: list[list[int]], b: list[list[int]], n: int) -> list[int]:
    """[t^n/n!] of A*B: sum over k of C(n,k) * a_k * b_(n-k), polynomials in q."""
    out = [0] * (max(len(a[k]) + len(b[n - k]) for k in range(n + 1)) - 1)
    for k in range(n + 1):
        c = comb(n, k)
        for i, x in enumerate(a[k]):
            if x:
                for j, y in enumerate(b[n - k]):
                    out[i + j] += c * x * y
    return out


def _egf_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Product of two exponential generating functions, as many terms as both have."""
    return [_egf_term(a, b, n) for n in range(min(len(a), len(b)))]


def _egf_exp(g: list[list[int]], n: int) -> list[list[int]]:
    """Terms f_0..f_n of exp(G - g_0), from F' = G'F: f_(m+1) = sum C(m,k) g_(k+1) f_(m-k)."""
    f = [[1]]
    for m in range(n):
        f.append(_egf_term(g[1:], f, m))
    return f


def series_coefficients(family: str, max_r: int) -> list[list[int]]:
    """Table fhat[r][k] read off the family's exponential generating function.

    Each series is F = sum f_n(q) t^n/n! with integer polynomials f_n, so
    every value is an integer.  A family: fhat[r][k] = [q^(k+1)] f_(r+1) of
    exp(q(e^t - 1)).  B (= C) family: [q^k] f_r of exp(t + q(e^(2t) - 1)/2).
    D family: [q^k] f_r of (e^t - t) exp(q(e^(2t) - 1)/2).
    """
    if family not in ("A", "B", "D"):
        raise InvalidRank(f"series defined for families A, B, D, not {family!r}")
    n = max_r + 1
    if family == "A":
        f = _egf_exp([[0]] + [[0, 1]] * n, n)
        return [f[r + 1][1 : r + 2] for r in range(n)]
    half = [[0]] + [[0, 2 ** (m - 1)] for m in range(1, n + 1)]  # q(e^(2t) - 1)/2
    if family == "B":
        f = _egf_exp([[0], [1, 1]] + half[2:], max_r)  # g_1 gains the t
    else:
        e_t_minus_t = [[1], [0]] + [[1]] * (max_r - 1)
        f = _egf_mul(e_t_minus_t, _egf_exp(half, max_r))
    return [f[r][: r + 1] for r in range(n)]
