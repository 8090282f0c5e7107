"""Closed-form stratum counts and their generating-series verification.

Three independent routes to the same numbers: lattice enumeration
(flats module), the closed-form expressions implemented here, and the
coefficients of each family's exponential generating function, computed
in integers.  Exceptional rows are stored constants, cross-validated by
enumeration in the test suite.
"""

from __future__ import annotations

from math import comb

from .errors import InvalidRank, RankOutOfRange
from .rootsys import CartanType

EXCEPTIONAL_ROWS: dict[str, tuple[int, ...]] = {
    "G2": (1, 6, 1),
    "F4": (1, 120, 122, 24, 1),
    "E6": (1, 639, 2001, 1530, 390, 36, 1),
    "E7": (1, 8821, 36435, 33411, 10395, 1281, 63, 1),
    "E8": (1, 440880, 2221780, 2091600, 661542, 85680, 4900, 120, 1),
}


# Rows S(n, 0..n) of the triangle computed so far, grown by a loop so that
# no recursion depth grows with n.
_STIRLING_ROWS: list[list[int]] = [[1]]


def stirling(n: int, k: int) -> int:
    """Set partitions of an n-set into k nonempty blocks; S(0,0)=1."""
    if n < 0 or k < 0:
        raise ValueError("stirling arguments must be nonnegative")
    rows = _STIRLING_ROWS
    while len(rows) <= n:
        prev = rows[-1]  # S(n, k) = k * S(n - 1, k) + S(n - 1, k - 1)
        rows.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, len(prev))] + [1])
    return rows[n][k] if k <= n else 0


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
