from __future__ import annotations

import random
from fractions import Fraction

from coxstrata.linalg import (
    IncrementalSpan,
    bareiss_rank,
    integer_kernel,
    solve_in_basis,
)


def naive_rank(rows):
    """Independent oracle: Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_bareiss_rank_examples():
    assert bareiss_rank([]) == 0
    assert bareiss_rank([[0, 0]]) == 0
    assert bareiss_rank([[1, 2], [2, 4]]) == 1
    assert bareiss_rank([[1, 2], [3, 4]]) == 2
    assert bareiss_rank([[2, 0, 0], [0, 3, 0], [2, 3, 0]]) == 2


def test_bareiss_rank_random_against_oracle():
    rng = random.Random(1)
    for _ in range(200):
        rows = [
            [rng.randrange(-3, 4) for _ in range(rng.randrange(1, 6))]
            for _ in range(rng.randrange(1, 6))
        ]
        width = max(len(r) for r in rows)
        rows = [r + [0] * (width - len(r)) for r in rows]
        assert bareiss_rank(rows) == naive_rank(rows)


def test_incremental_span_membership():
    span = IncrementalSpan(3)
    assert span.add([1, 0, 0])
    assert not span.add([2, 0, 0])
    assert span.add([0, 1, 1])
    assert span.contains([3, 2, 2])
    assert not span.contains([0, 0, 1])
    assert span.rank == 2


def test_solve_in_basis():
    basis = [[1, 0, 1], [0, 2, 0]]
    coeffs = solve_in_basis(basis, [3, 4, 3])
    assert coeffs == [Fraction(3), Fraction(2)]
    assert solve_in_basis(basis, [0, 0, 1]) is None
    assert solve_in_basis([], [0, 0]) == []
    assert solve_in_basis([], [1, 0]) is None


def test_integer_kernel_annihilates_and_spans():
    rng = random.Random(2)
    for _ in range(100):
        dim = rng.randrange(1, 6)
        rows = [[rng.randrange(-2, 3) for _ in range(dim)] for _ in range(rng.randrange(0, 4))]
        kernel = integer_kernel(rows, dim)
        assert len(kernel) == dim - naive_rank(rows) if rows else dim
        for k in kernel:
            for r in rows:
                assert sum(a * b for a, b in zip(k, r)) == 0
        assert naive_rank(kernel) == len(kernel)


def _root_rows(type_str):
    from coxstrata.rootsys import build_root_system

    rs = build_root_system(type_str)
    return [rs.roots[i] for i in rs.positives]


def _random_matrices(rng):
    """Random small integer matrices, and random row subsets of root systems."""
    for _ in range(150):
        dim = rng.randrange(1, 7)
        yield dim, [[rng.randrange(-5, 6) for _ in range(dim)] for _ in range(rng.randrange(0, 8))]
    for name in ("G2", "F4", "E6", "E7", "E8", "B4", "C3"):
        roots = _root_rows(name)
        for _ in range(20):
            yield len(roots[0]), rng.sample(roots, rng.randrange(0, min(9, len(roots))))


def test_echelon_core_against_fraction_oracle():
    rng = random.Random(3)
    for dim, rows in _random_matrices(rng):
        span = IncrementalSpan(dim)
        for r in rows:
            span.add(r)
        rank = naive_rank(rows) if rows else 0
        assert span.rank == rank == (bareiss_rank(rows) if rows else 0)
        kernel = integer_kernel(rows, dim)
        assert len(kernel) == dim - rank
        assert naive_rank(kernel) == len(kernel) if kernel else True
        for k in kernel:
            assert all(sum(a * b for a, b in zip(k, r)) == 0 for r in rows)
        probe = [rng.randrange(-4, 5) for _ in range(dim)]
        inside = [sum(rng.randrange(-3, 4) * r[j] for r in rows) for j in range(dim)]
        for vec in (probe, inside):
            expected = naive_rank(rows + [vec]) == rank if rows else not any(vec)
            assert span.contains(vec) == expected
        greedy = IncrementalSpan(dim)
        basis = [r for r in rows if greedy.add(r)]
        for target in (probe, inside):
            system = IncrementalSpan(len(basis) + 1)
            for j in range(dim):
                system.add([b[j] for b in basis] + [target[j]])
            solved = system.solve() if basis else None
            if basis and span.contains(target):
                nums, den = solved
                assert den > 0
                assert [sum(n * b[j] for n, b in zip(nums, basis)) for j in range(dim)] == [
                    den * t for t in target
                ]
                assert solve_in_basis(basis, target) == [Fraction(n, den) for n in nums]
            else:
                assert solved is None
                assert (solve_in_basis(basis, target) is None) == any(target)


def test_solve_returns_numerators_over_one_denominator():
    span = IncrementalSpan(3)
    # 2x + y = 1, x - y = 0: x = y = 1/3
    span.add([2, 1, 1])
    span.add([1, -1, 0])
    nums, den = span.solve()
    assert den > 0 and [Fraction(n, den) for n in nums] == [Fraction(1, 3)] * 2
    inconsistent = IncrementalSpan(2)
    inconsistent.add([1, 1])
    inconsistent.add([2, 3])
    assert inconsistent.solve() is None
    assert IncrementalSpan(3).solve() is None
