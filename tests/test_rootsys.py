from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PROPERTY_TYPES, additive_closure_by_tuple_sums, fraction_solve, root_indices
from coxstrata.errors import InvalidId, InvalidRank, InvariantViolation, NotAdditivelyClosed
from coxstrata.goodsub import is_k_step_good
from coxstrata.rootsys import (
    CartanType,
    _irreducible_type,
    additive_closure,
    build_root_system,
    classify_subsystem,
    closure,
    is_closed,
    reflect,
    subsystem_rank,
)
from coxstrata.verify import POSITIVE_COUNTS as POSITIVE_COUNT_OF_FAMILY

POSITIVE_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10, "A5": 15,
    "B2": 4, "B3": 9, "B4": 16, "B5": 25,
    "C2": 4, "C3": 9, "C4": 16,
    "D3": 6, "D4": 12, "D5": 20,
    "G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120,
}


def reflect_oracle(rs, mirror, target):
    """Direct reflection formula over Fraction, independent of reflect()."""
    mv, tv = rs.roots[mirror], rs.roots[target]
    scale = Fraction(2 * sum(a * b for a, b in zip(tv, mv)), sum(a * a for a in mv))
    image = tuple(Fraction(t) - scale * m for t, m in zip(tv, mv))
    assert all(x.denominator == 1 for x in image)
    return rs.index[tuple(int(x) for x in image)]


def span_oracle(rs, mask):
    """Brute-force span membership over Fraction for every root."""
    rows = [[Fraction(x) for x in rs.roots[i]] for i in rs.positive_indices(mask)]

    def in_span(vec):
        m = [r[:] for r in rows] + [[Fraction(x) for x in vec]]
        # vec is in the span iff adding it does not raise the rank
        def rank(mat):
            mat = [r[:] for r in mat]
            rk = 0
            for c in range(rs.ambient):
                piv = next((i for i in range(rk, len(mat)) if mat[i][c]), None)
                if piv is None:
                    continue
                mat[rk], mat[piv] = mat[piv], mat[rk]
                for i in range(len(mat)):
                    if i != rk and mat[i][c]:
                        f = mat[i][c] / mat[rk][c]
                        mat[i] = [a - f * b for a, b in zip(mat[i], mat[rk])]
                rk += 1
            return rk

        return rank(m) == rank(rows) if rows else all(x == 0 for x in vec)

    out = 0
    for p in range(rs.d):
        if in_span(rs.roots[rs.positives[p]]):
            out |= 1 << p
    return out


def test_cartan_type_validation():
    for bad in ["A0", "B1", "C1", "D2", "E5", "E9", "F3", "G3", "H2"]:
        with pytest.raises(InvalidRank):
            CartanType.parse(bad)
    assert str(CartanType.parse("a3")) == "A3"
    assert CartanType.parse("A1xA1").rank == 2
    # canonical ordering makes equality decidable
    assert CartanType((("B", 2), ("A", 1))) == CartanType((("A", 1), ("B", 2)))


def test_positive_counts_and_invariants():
    for name, d in POSITIVE_COUNTS.items():
        rs = build_root_system(name)
        assert rs.d == d, name
        assert len(rs.roots) == 2 * d
        # negation pairs up the halves
        assert all(rs.neg[rs.neg[i]] == i for i in range(2 * d))
        assert sorted(rs.positives + [rs.neg[i] for i in rs.positives]) == list(range(2 * d))
        # every positive root is a nonnegative integer combination of simples
        for i in rs.positives:
            assert all(c >= 0 for c in rs.simple_coefficients[i])
        assert rs.labels[0] == 1 and all(m >= 1 for m in rs.labels)


def test_simple_coefficients_solve_the_simple_root_basis():
    # The reflection walk carries the coefficients; a linear solve is the
    # independent route.
    for name in ["A1", "A5", "B4", "C4", "D5", "G2", "F4", "E6", "E7", "E8"]:
        rs = build_root_system(name)
        basis = [rs.roots[i] for i in rs.simples]
        for v, coeffs in zip(rs.roots, rs.simple_coefficients):
            assert fraction_solve(basis, v) == list(coeffs), (name, v)


def test_highest_root_dominates_every_root():
    for name in ["A3", "B3", "C3", "D4", "G2", "F4", "E6"]:
        rs = build_root_system(name)
        theta_coeffs = rs.simple_coefficients[rs.highest]
        for i in range(2 * rs.d):
            diff = [t - c for t, c in zip(theta_coeffs, rs.simple_coefficients[i])]
            assert all(x >= 0 for x in diff), (name, i)


def test_a1_basics():
    rs = build_root_system("A1")
    assert rs.d == 1
    assert rs.highest == rs.simples[0]
    assert rs.labels == [1, 1]


def test_a2_positive_roots():
    rs = build_root_system("A2")
    coords = {tuple(rs.roots[i]) for i in rs.positives}
    assert coords == {(1, -1, 0), (0, 1, -1), (1, 0, -1)}


def test_e8_generated_count():
    assert build_root_system("E8").d == 120


def test_reflect_examples():
    rs = build_root_system("A2")
    a1, a2 = rs.simples
    assert tuple(rs.roots[reflect(rs, a1, a2)]) == (1, 0, -1)
    for i in range(6):
        assert reflect(rs, i, i) == rs.neg[i]


def test_reflect_matches_matrix_oracle():
    rng = random.Random(3)
    for name in ["A3", "B3", "C3", "D4", "G2", "F4"]:
        rs = build_root_system(name)
        for _ in range(40):
            m = rng.randrange(2 * rs.d)
            t = rng.randrange(2 * rs.d)
            assert reflect(rs, m, t) == reflect_oracle(rs, m, t)


def test_reflect_is_bijection():
    for name in ["A2", "B2", "G2", "D4"]:
        rs = build_root_system(name)
        for m in range(2 * rs.d):
            images = [reflect(rs, m, t) for t in range(2 * rs.d)]
            assert sorted(images) == list(range(2 * rs.d))


def test_g2_short_long_reflection_derived():
    rs = build_root_system("G2")
    short, long_ = rs.simples  # Bourbaki layout: alpha1 short, alpha2 long
    assert sum(x * x for x in rs.roots[short]) < sum(x * x for x in rs.roots[long_])
    assert reflect(rs, short, long_) == reflect_oracle(rs, short, long_)


def test_closure_examples():
    rs = build_root_system("A2")
    a1 = rs.index[(1, -1, 0)]
    a2 = rs.index[(0, 1, -1)]
    assert closure(rs, [a1]) == rs.as_mask([a1])
    assert closure(rs, [a1, a2]) == rs.full_mask

    b2 = build_root_system("B2")
    lo = b2.index[(1, -1)]
    hi = b2.index[(1, 1)]
    assert closure(b2, [lo, hi]) == b2.full_mask


def test_closure_matches_span_oracle():
    rng = random.Random(4)
    for name in ["A2", "A3", "B2", "B3", "C3", "D3", "G2"]:
        rs = build_root_system(name)
        for _ in range(25):
            mask = rng.randrange(1 << rs.d)
            assert closure(rs, mask) == span_oracle(rs, mask), (name, mask)


def test_closure_idempotent_monotone_closed():
    rng = random.Random(5)
    for name in ["A3", "B3", "G2", "D4"]:
        rs = build_root_system(name)
        for _ in range(30):
            small = rng.randrange(1 << rs.d)
            big = small | rng.randrange(1 << rs.d)
            cs, cb = closure(rs, small), closure(rs, big)
            assert closure(rs, cs) == cs
            assert cs & cb == cs  # monotone
            assert is_closed(rs, cs)  # span-closed is additively closed
            assert subsystem_rank(rs, cs) == subsystem_rank(rs, small)


def test_is_closed_examples():
    rs = build_root_system("A2")
    a1 = rs.index[(1, -1, 0)]
    a2 = rs.index[(0, 1, -1)]
    theta = rs.index[(1, 0, -1)]
    assert not is_closed(rs, [a1, a2])
    assert is_closed(rs, [theta])

    b2 = build_root_system("B2")
    long_roots = [b2.index[(1, -1)], b2.index[(1, 1)]]
    assert is_closed(b2, long_roots)


def _is_closed_by_tuple_sums(rs, mask):
    """Reference: the sum of every pair of member roots, as coordinate tuples."""
    members = {rs.roots[i] for i in root_indices(rs, mask)}
    for u in members:
        for v in members:
            s = tuple(a + b for a, b in zip(u, v))
            if s in rs.index and s not in members:
                return False
    return True


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "D4"])
def test_is_closed_agrees_with_tuple_sums_on_every_subset(name):
    rs = build_root_system(name)
    for mask in range(1 << rs.d):
        expected = _is_closed_by_tuple_sums(rs, mask)
        assert is_closed(rs, mask) == expected, mask
        assert is_closed(rs, root_indices(rs, mask)) == expected, mask
        assert is_closed(rs, [rs.neg[i] for i in rs.positive_indices(mask)]) == expected, mask


def test_subsystem_rank_examples():
    rs = build_root_system("A3")
    assert subsystem_rank(rs, 0) == 0
    a1 = rs.index[(1, -1, 0, 0)]
    a3 = rs.index[(0, 0, 1, -1)]
    assert subsystem_rank(rs, [a1, a3]) == 2
    a2full = build_root_system("A2")
    assert subsystem_rank(a2full, a2full.full_mask) == 2


def test_classify_examples():
    rs = build_root_system("A3")
    a1 = rs.index[(1, -1, 0, 0)]
    a3 = rs.index[(0, 0, 1, -1)]
    assert classify_subsystem(rs, closure(rs, [a1, a3])) == CartanType.parse("A1xA1")

    d4 = build_root_system("D4")
    assert classify_subsystem(d4, d4.full_mask) == CartanType.parse("D4")

    b2 = build_root_system("B2")
    longs = closure(b2, [b2.index[(1, -1)]]) | closure(b2, [b2.index[(1, 1)]])
    assert classify_subsystem(b2, longs) == CartanType.parse("A1xA1")


def test_classify_full_systems():
    for name in ["A4", "B4", "C4", "D5", "G2", "F4", "E6", "E7", "E8"]:
        rs = build_root_system(name)
        assert classify_subsystem(rs, rs.full_mask) == CartanType.parse(name)
    # D3 is span-isomorphic to A3; the classifier canonicalizes 3-node paths
    d3 = build_root_system("D3")
    assert classify_subsystem(d3, d3.full_mask) == CartanType.parse("A3")


def test_classify_maximal_rank_subsystems():
    # Drop one node of the affine diagram: additively closed, not span-closed.
    # E8's A8 has E6's 36 positive roots, so only the rank tells them apart.
    expected = {
        "E8": ["E8", "D8", "A8", "A1xA7", "A1xA2xA5", "A4xA4", "A3xD5", "A2xE6", "A1xE7"],
        "F4": ["F4", "A1xC3", "A2xA2", "A1xA3", "B4"],
        "G2": ["G2", "A2", "A1xA1"],
        "C4": ["C4", "A1xC3", "B2xB2", "A1xC3", "C4"],
    }
    for name, types in expected.items():
        rs = build_root_system(name)
        nodes = [rs.index[v] for v in rs.affine_roots]
        got = [
            str(classify_subsystem(rs, additive_closure(rs, nodes[:i] + nodes[i + 1 :])))
            for i in range(rs.rank + 1)
        ]
        assert got == types, name


def test_irreducible_type_rejects_impossible_counts():
    with pytest.raises(InvariantViolation, match="rank 3, 5 positive roots and 5 short"):
        _irreducible_type(3, 5, 5)
    with pytest.raises(InvariantViolation):
        _irreducible_type(3, 9, 4)  # B3 and C3 have 3 and 6 short positive roots


def test_classify_requires_span_closed():
    rs = build_root_system("A2")
    a1 = rs.index[(1, -1, 0)]
    a2 = rs.index[(0, 1, -1)]
    with pytest.raises(NotAdditivelyClosed):
        classify_subsystem(rs, rs.as_mask([a1, a2]))


def test_classify_subsystems_of_b3_c3():
    b3 = build_root_system("B3")
    eps1 = b3.index[(1, 0, 0)]
    assert classify_subsystem(b3, closure(b3, [eps1])) == CartanType.parse("A1")
    e12 = [b3.index[(1, -1, 0)], b3.index[(1, 1, 0)]]
    assert classify_subsystem(b3, closure(b3, e12)) == CartanType.parse("B2")

    c3 = build_root_system("C3")
    e12c = [c3.index[(1, -1, 0)], c3.index[(1, 1, 0)]]
    assert classify_subsystem(c3, closure(c3, e12c)) == CartanType.parse("B2")


def test_additive_closure_vs_span_closure():
    rs = build_root_system("B2")
    # the long A1xA1 is additively closed but not span-closed
    longs = rs.as_mask([rs.index[(1, -1)], rs.index[(1, 1)]])
    assert additive_closure(rs, longs) == longs
    assert closure(rs, longs) == rs.full_mask


@pytest.mark.parametrize("name", PROPERTY_TYPES + ["E6"])
def test_additive_closure_matches_tuple_sums(name):
    rs = build_root_system(name)
    rng = random.Random(name)
    for _ in range(60):
        indices = rng.sample(range(2 * rs.d), rng.randrange(min(6, 2 * rs.d) + 1))
        assert additive_closure(rs, indices) == additive_closure_by_tuple_sums(rs, indices), indices


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "D4"])
def test_classify_refuses_exactly_the_subsets_the_span_guard_refused(name):
    # The guard was `closure(mask) != mask and not closed`; span-closed sets
    # are additively closed, so additive closedness alone decides.
    rs = build_root_system(name)
    for mask in range(1 << rs.d):
        refused = closure(rs, mask) != mask and not _is_closed_by_tuple_sums(rs, mask)
        try:
            classify_subsystem(rs, mask)
        except NotAdditivelyClosed:
            assert refused, mask
        else:
            assert not refused, mask


def test_out_of_range_subsets_are_refused():
    rs = build_root_system("A2")  # positions 0..2, root indices 0..5
    calls = [
        closure,
        is_closed,
        classify_subsystem,
        additive_closure,
        subsystem_rank,
        lambda rs, subset: is_k_step_good(rs, subset, 1),
    ]
    for call in calls:
        for bad in (1 << 5, 1 << 3, -1, [99], [6], [-1], [0, 6]):
            with pytest.raises(InvalidId):
                call(rs, bad)
        call(rs, rs.full_mask)
        call(rs, [0, 5])


@pytest.mark.parametrize("mirror, target", [(-1, 0), (0, -1), (6, 0), (0, 6)])
def test_reflect_refuses_an_out_of_range_root_index(mirror, target):
    rs = build_root_system("A2")  # root indices 0..5
    with pytest.raises(InvalidId):
        reflect(rs, mirror, target)


@pytest.mark.parametrize("idx", [-1, 6])
def test_position_refuses_an_out_of_range_root_index(idx):
    rs = build_root_system("A2")
    with pytest.raises(InvalidId):
        rs.position(idx)


def test_one_root_system_per_type():
    # A string is memoized as its parsed type, so its lazy tables are built once.
    e7 = build_root_system(CartanType.parse("E7"))
    assert build_root_system("E7") is e7
    assert build_root_system("e7") is e7
    assert build_root_system(" e 7 ") is e7
    assert build_root_system("E6") is not e7


def test_deterministic_indexing():
    a = build_root_system.__wrapped__(CartanType.parse("B3"))
    b = build_root_system.__wrapped__(CartanType.parse("B3"))
    assert [tuple(v) for v in a.roots] == [tuple(v) for v in b.roots]
    assert a.positives == b.positives


@st.composite
def root_subsets(draw):
    """A type and two random positive-root masks, the second containing the first."""
    rs = build_root_system(draw(st.sampled_from(PROPERTY_TYPES)))
    positions = st.integers(0, rs.d - 1)
    small = sum(1 << p for p in draw(st.sets(positions, max_size=5)))
    extra = sum(1 << p for p in draw(st.sets(positions, max_size=3)))
    return rs, small, small | extra


@settings(max_examples=150, deadline=None)
@given(root_subsets())
def test_closure_idempotent_and_monotone(case):
    rs, small, big = case
    cs = closure(rs, small)
    assert closure(rs, cs) == cs
    assert cs & small == small
    assert cs & closure(rs, big) == cs


@settings(max_examples=150, deadline=None)
@given(root_subsets())
def test_classified_factors_add_up(case):
    rs, small, _ = case
    for sub in (closure(rs, small), additive_closure(rs, small)):
        factors = classify_subsystem(rs, sub).factors
        assert sum(r for _, r in factors) == subsystem_rank(rs, sub)
        assert sum(POSITIVE_COUNT_OF_FAMILY[f](r) for f, r in factors) == bin(sub).count("1")
