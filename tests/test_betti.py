from __future__ import annotations

from itertools import combinations

import pytest

from coxstrata.betti import (
    EXCEPTIONAL_ROWS,
    _egf_exp,
    _egf_mul,
    bell,
    betti_row_closed_form,
    dowling,
    series_coefficients,
    stirling,
)
from coxstrata.errors import InvalidRank


def partitions_into_blocks(n: int, k: int) -> int:
    """Brute-force oracle: count set partitions of {1..n} into k blocks."""

    def rec(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for size in range(len(rest) + 1):
            for chosen in combinations(rest, size):
                block = (first,) + chosen
                remaining = [x for x in rest if x not in chosen]
                for other in rec(remaining):
                    yield [block] + other

    return sum(1 for p in rec(list(range(1, n + 1))) if len(p) == k)


def test_stirling_against_brute_force():
    for n in range(7):
        for k in range(n + 2):
            assert stirling(n, k) == partitions_into_blocks(n, k), (n, k)


def test_stirling_examples():
    assert stirling(0, 0) == 1
    assert stirling(4, 2) == 7
    assert stirling(3, 3) == 1
    assert stirling(5, 0) == 0


def test_bell_and_dowling():
    assert bell(0) == 1
    assert [bell(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]
    for n in (-1, -3):
        with pytest.raises(ValueError):
            bell(n)
    assert dowling(2) == 6
    assert [dowling(n) for n in range(6)] == [1, 2, 6, 24, 116, 648]


def test_closed_form_examples():
    assert betti_row_closed_form("A5")[2] == 90
    assert betti_row_closed_form("B4")[2] == 58
    assert betti_row_closed_form("D5")[1] == 81
    assert betti_row_closed_form("C3")[1] == 13
    assert betti_row_closed_form("A3") == [1, 7, 6, 1]
    assert betti_row_closed_form("D6") == [1, 268, 1051, 920, 275, 30, 1]


def test_closed_form_edges():
    for name in ["A4", "B4", "C4", "D4", "G2", "F4", "E7"]:
        row = betti_row_closed_form(name)
        assert row[0] == 1 and row[-1] == 1
    with pytest.raises(InvalidRank):
        betti_row_closed_form("A1xA1")


def test_d3_equals_a3():
    assert betti_row_closed_form("D3") == betti_row_closed_form("A3")


def test_b_equals_c():
    for r in range(2, 8):
        assert betti_row_closed_form(f"B{r}") == betti_row_closed_form(f"C{r}")


def test_exceptional_table_values():
    assert betti_row_closed_form("E6")[1] == 639
    assert betti_row_closed_form("E8")[2] == 2221780
    assert betti_row_closed_form("G2")[2] == 1
    assert betti_row_closed_form("E7")[3] == 33411
    for name, row in EXCEPTIONAL_ROWS.items():
        assert row[0] == row[-1] == 1


def test_bell_dowling_row_sums():
    for r in range(1, 8):
        assert sum(betti_row_closed_form(f"A{r}")) == bell(r + 1)
    for r in range(2, 8):
        assert sum(betti_row_closed_form(f"B{r}")) == dowling(r)


def test_series_against_closed_forms():
    for family, types in [("A", "A"), ("B", "B"), ("D", "D")]:
        table = series_coefficients(family, 12)
        for r in range(1, 13):
            name = f"{types}{r}"
            if types == "B" and r < 2 or types == "D" and r < 3:
                continue
            assert table[r] == betti_row_closed_form(name), (family, r)


def test_series_examples():
    ta = series_coefficients("A", 3)
    assert ta[2][1] == 3
    tb = series_coefficients("B", 3)
    assert tb[2][1] == 4
    td = series_coefficients("D", 4)
    assert td[4][2] == 34
    with pytest.raises(InvalidRank):
        series_coefficients("E", 3)


def test_egf_helpers_on_known_series():
    n = 8
    ones = _egf_exp([[0], [1]] + [[0]] * (n - 1), n)  # exp(t)
    assert ones == [[1]] * (n + 1)
    assert _egf_mul(ones, ones) == [[2**m] for m in range(n + 1)]
    touchard = _egf_exp([[0]] + [[0, 1]] * n, n)  # exp(q(e^t - 1))
    assert [sum(p) for p in touchard] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]
