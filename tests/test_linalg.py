from __future__ import annotations

import math
import random
from fractions import Fraction

from conftest import fraction_rank, fraction_solve
from coxstrata.linalg import IncrementalSpan, bareiss_rank, integer_kernel
from coxstrata.strata import _relation


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
        assert bareiss_rank(rows) == fraction_rank(rows)


def test_incremental_span_membership():
    span = IncrementalSpan(3)
    assert span.add([1, 0, 0])
    assert not span.add([2, 0, 0])
    assert span.add([0, 1, 1])
    assert span.rank == 2


def test_integer_kernel_annihilates_and_spans():
    rng = random.Random(2)
    for _ in range(100):
        dim = rng.randrange(1, 6)
        rows = [[rng.randrange(-2, 3) for _ in range(dim)] for _ in range(rng.randrange(0, 4))]
        kernel = integer_kernel(rows, dim)
        assert len(kernel) == dim - fraction_rank(rows) if rows else dim
        for k in kernel:
            for r in rows:
                assert sum(a * b for a, b in zip(k, r)) == 0
        assert fraction_rank(kernel) == len(kernel)


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
        rank = fraction_rank(rows) if rows else 0
        assert span.rank == rank == (bareiss_rank(rows) if rows else 0)
        kernel = integer_kernel(rows, dim)
        assert len(kernel) == dim - rank
        assert fraction_rank(kernel) == len(kernel) if kernel else True
        for k in kernel:
            assert all(sum(a * b for a, b in zip(k, r)) == 0 for r in rows)
        probe = [rng.randrange(-4, 5) for _ in range(dim)]
        inside = [sum(rng.randrange(-3, 4) * r[j] for r in rows) for j in range(dim)]
        greedy = IncrementalSpan(dim)
        independent = [r for r in rows if greedy.add(r)]
        # rows itself may be dependent, which leaves no unique relation
        for basis in (independent, rows):
            dependent = fraction_rank(basis) < len(basis) if basis else False
            for target in (probe, inside):
                outside = fraction_rank(rows + [target]) != rank if rows else any(target)
                x = _relation(target, basis)
                solved = fraction_solve(basis, target)
                assert (x is None) == (outside or dependent) == (solved is None)
                if x is None:
                    continue
                assert x[0] > 0 and math.gcd(*x) == 1
                assert all(
                    x[0] * t + sum(c * b[j] for c, b in zip(x[1:], basis)) == 0
                    for j, t in enumerate(target)
                )
                assert [Fraction(-c, x[0]) for c in x[1:]] == solved
