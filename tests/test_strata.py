from __future__ import annotations

import math
import random
import signal
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PROPERTY_TYPES, fraction_rank, fraction_solve, pos_of_coords
from coxstrata.errors import (
    InvalidId,
    InvariantViolation,
    LatticeMismatch,
    NotInVariety,
    SpanDeficient,
)
from coxstrata.flats import IntersectionLattice, build_lattice, leq
from coxstrata.linalg import IncrementalSpan
from coxstrata.rootsys import build_root_system, closure
from coxstrata.strata import (
    ExtendedPoint,
    Functional,
    Rejection,
    StratumResult,
    _relation,
    _stratum,
    fin_set,
    generate_relations,
    h_translate,
    limit_point,
    membership,
    relation_support,
    stratum_of,
)
from coxstrata.weyl import weyl_act_point


def a2_point(rs, x1, x2, x12):
    """Point with given values at alpha1, alpha2, alpha1+alpha2 (None = inf)."""
    vals = [None] * 3
    vals[pos_of_coords(rs, (1, -1, 0))] = None if x1 is None else Fraction(x1)
    vals[pos_of_coords(rs, (0, 1, -1))] = None if x2 is None else Fraction(x2)
    vals[pos_of_coords(rs, (1, 0, -1))] = None if x12 is None else Fraction(x12)
    return ExtendedPoint(tuple(vals))


def a2_hypersurface_value(rs, point):
    """The defining trinomial evaluated on homogeneous coordinates.

    Coordinates ordered (alpha1, alpha2, alpha1+alpha2); a finite value v
    becomes [1 : v] and infinity becomes [0 : 1].
    """
    def hom(v):
        return (1, v) if v is not None else (0, 1)

    x0, x1 = hom(point.values[pos_of_coords(rs, (1, -1, 0))])
    y0, y1 = hom(point.values[pos_of_coords(rs, (0, 1, -1))])
    z0, z1 = hom(point.values[pos_of_coords(rs, (1, 0, -1))])
    return x1 * y0 * z0 + x0 * y1 * z0 - x0 * y0 * z1


def test_fin_set_examples(lattice_of):
    rs, _ = lattice_of("A2")
    assert fin_set(rs, a2_point(rs, 1, 2, 3)) == rs.full_mask
    assert fin_set(rs, a2_point(rs, 1, None, None)) == 1 << pos_of_coords(rs, (1, -1, 0))
    assert fin_set(rs, a2_point(rs, None, None, None)) == 0


def test_membership_fixtures(lattice_of):
    rs, lat = lattice_of("A2")
    res = membership(rs, lat, a2_point(rs, 1, 2, 3))
    assert isinstance(res, StratumResult)
    assert lat.flat(res.flat_id).rank == rs.rank  # open stratum

    out = membership(rs, lat, a2_point(rs, 1, 2, 5))
    assert isinstance(out, Rejection) and out.relation is not None

    out = membership(rs, lat, a2_point(rs, 1, 2, None))
    assert isinstance(out, Rejection)
    assert out.forced_position == pos_of_coords(rs, (1, 0, -1))


def test_membership_agrees_with_hypersurface(lattice_of):
    # every point pattern over a small value grid, checked against the
    # defining equation of the A2 compactification
    rs, lat = lattice_of("A2")
    grid = [None, Fraction(0), Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)]
    for x1, x2, x12 in product(grid, repeat=3):
        point = a2_point(rs, x1, x2, x12)
        ours = isinstance(membership(rs, lat, point), StratumResult)
        assert ours == (a2_hypersurface_value(rs, point) == 0), (x1, x2, x12)


def test_stratum_of_examples(lattice_of):
    rs, lat = lattice_of("A2")
    theta_pos = pos_of_coords(rs, (1, 0, -1))
    fid = stratum_of(rs, lat, a2_point(rs, None, None, 7))
    assert lat.flat(fid).mask == 1 << theta_pos
    assert lat.flat(fid).rank == 1

    # the all-infinity point sits in the zero-dimensional stratum, whose
    # flat is the empty subsystem (lattice bottom)
    fid = stratum_of(rs, lat, a2_point(rs, None, None, None))
    assert fid == lat.bottom

    fid = stratum_of(rs, lat, a2_point(rs, 4, -9, -5))
    assert fid == lat.top

    with pytest.raises(NotInVariety):
        stratum_of(rs, lat, a2_point(rs, 1, 2, 5))


def test_membership_witness_evaluates_all_finite_coords(lattice_of):
    rng = random.Random(47)
    for name in ["A3", "B3", "G2"]:
        rs, lat = lattice_of(name)
        for _ in range(25):
            fid = rng.randrange(len(lat))
            point = _member_of_flat(rs, lat, fid, rng)
            res = membership(rs, lat, point)
            assert isinstance(res, StratumResult)
            mask = lat.flat(fid).mask
            for p in range(rs.d):
                value = res.witness.evaluate(rs, p)
                if mask >> p & 1:
                    assert value == point.values[p]
                else:
                    # flats are span-closed, so everything else is off-span
                    assert value is None


def test_h_translate_examples(lattice_of):
    rs, lat = lattice_of("A2")
    p = a2_point(rs, 1, None, None)
    # alpha1(y) = 5 for y = (5, 0, 0): alpha1 = e1 - e2
    q = h_translate(rs, p, [5, 0, 0])
    assert q.values[pos_of_coords(rs, (1, -1, 0))] == 6
    assert q.values[pos_of_coords(rs, (0, 1, -1))] is None

    full = a2_point(rs, 1, 2, 3)
    assert h_translate(rs, full, [0, 0, 0]) == full


def test_h_translate_preserves_stratum(lattice_of):
    rng = random.Random(23)
    for name in ["A2", "B2", "G2"]:
        rs, lat = lattice_of(name)
        for _ in range(100):
            fid = rng.randrange(len(lat))
            point = _member_of_flat(rs, lat, fid, rng)
            y = [rng.randrange(-5, 6) for _ in range(rs.ambient)]
            assert stratum_of(rs, lat, h_translate(rs, point, y)) == fid


def _member_of_flat(rs, lat, fid, rng):
    mask = lat.flat(fid).mask
    h = [Fraction(rng.randrange(-4, 5)) for _ in range(rs.ambient)]
    vals = [None] * rs.d
    for p in rs.positions(mask):
        root = rs.roots[rs.positives[p]]
        vals[p] = sum(Fraction(a) * c for a, c in zip(root, h))
    return ExtendedPoint(tuple(vals))


def test_limit_point_example(lattice_of):
    rs, lat = lattice_of("A2")
    p1 = pos_of_coords(rs, (1, -1, 0))
    p2 = pos_of_coords(rs, (0, 1, -1))
    pt = pos_of_coords(rs, (1, 0, -1))
    witness = Functional((p1,), (Fraction(5),))
    a2_root = rs.index[(0, 1, -1)]
    point = limit_point(rs, witness, a2_root, 1000)
    assert point.values[p1] == 5
    assert point.values[p2] == 1000
    assert point.values[pt] == 1005
    assert stratum_of(rs, lat, point) == lat.top


def test_limit_point_divergence_pattern(lattice_of):
    # exactly the coordinates outside the target subsystem grow with t
    rs, lat = lattice_of("A2")
    p1 = pos_of_coords(rs, (1, -1, 0))
    flat_mask = 1 << p1
    witness = Functional((p1,), (Fraction(5),))
    lam0 = rs.index[(0, 1, -1)]
    a = limit_point(rs, witness, lam0, 10)
    b = limit_point(rs, witness, lam0, 11)
    for p in range(rs.d):
        moving = a.values[p] != b.values[p]
        assert moving == (not flat_mask >> p & 1)


def test_limit_point_span_deficient(lattice_of):
    rs, lat = lattice_of("A3")
    atom_root = rs.simples[0]
    witness = Functional((rs.pos_of[atom_root],), (Fraction(1),))
    # rank(atom) + one root cannot span a rank-3 space
    with pytest.raises(SpanDeficient):
        limit_point(rs, witness, rs.simples[2], 7)


def _a2_witness(lattice_of):
    rs, _ = lattice_of("A2")  # positions 0..2, root indices 0..5
    return rs, Functional((pos_of_coords(rs, (1, -1, 0)),), (Fraction(5),))


def test_limit_point_refuses_an_out_of_range_lam0(lattice_of):
    rs, witness = _a2_witness(lattice_of)
    with pytest.raises(InvalidId):
        limit_point(rs, witness, -6, 10)


def test_limit_point_refuses_a_within_mask_past_the_positives(lattice_of):
    rs, witness = _a2_witness(lattice_of)
    with pytest.raises(InvalidId):
        limit_point(rs, witness, rs.index[(0, 1, -1)], 10, within=0b1011)


def test_limit_point_refuses_a_negative_within_mask(lattice_of):
    # A negative mask has no highest bit, so a walk over its set bits would
    # never end; the alarm turns such a hang into a failure.
    rs, witness = _a2_witness(lattice_of)

    def hang(signum, frame):
        raise TimeoutError("limit_point did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(InvalidId):
            limit_point(rs, witness, rs.index[(0, 1, -1)], 10, within=-1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("position", [-1, 3])
def test_evaluate_refuses_an_out_of_range_position(lattice_of, position):
    rs, _ = lattice_of("A2")
    with pytest.raises(InvalidId):
        Functional((0,), (Fraction(1),)).evaluate(rs, position)


def test_limit_chains_realize_closure_order(lattice_of):
    # for every cover x < y, stratum-x points are limits of stratum-y points
    rng = random.Random(29)
    for name in ["A2", "A3", "B2"]:
        rs, lat = lattice_of(name)
        for lo, hi in lat.covers:
            lo_mask = lat.flat(lo).mask
            hi_mask = lat.flat(hi).mask
            assert leq(lat, lo, hi)
            target = _member_of_flat(rs, lat, lo, rng)
            basis_positions = []
            span = IncrementalSpan(rs.ambient)
            for p in rs.positions(lo_mask):
                if span.add(rs.roots[rs.positives[p]]):
                    basis_positions.append(p)
            witness = Functional(
                tuple(basis_positions),
                tuple(target.values[p] for p in basis_positions),
            )
            # lo is a flat, so a root of hi outside it is off lo's span
            lam0_pos = next(p for p in rs.positions(hi_mask) if not lo_mask >> p & 1)
            lam0 = rs.positives[lam0_pos]
            approach = limit_point(rs, witness, lam0, 997, within=hi_mask)
            assert stratum_of(rs, lat, approach) == hi
            # finite coordinates on the lower flat agree with the target
            for p in rs.positions(lo_mask):
                assert approach.values[p] == target.values[p]


def test_generate_relations_examples(lattice_of):
    rs1, _ = lattice_of("A1")
    assert generate_relations(rs1) == []

    rs, _ = lattice_of("A2")
    rels = generate_relations(rs)
    assert len(rels) == 1
    support = relation_support(rels[0])
    assert len(support) == 3

    rsb, _ = lattice_of("B2")
    relsb = generate_relations(rsb)
    assert len(relsb) == 2
    from coxstrata.linalg import bareiss_rank

    assert bareiss_rank(relsb) == 2


def _relations_by_solving(rs):
    """Reference: solve each root over the greedy basis, then clear denominators."""
    span = IncrementalSpan(rs.ambient)
    basis_positions = [p for p in range(rs.d) if span.add(rs.roots[rs.positives[p]])]
    basis = [rs.roots[rs.positives[p]] for p in basis_positions]
    relations = []
    for p in range(rs.d):
        if p in basis_positions:
            continue
        coeffs = fraction_solve(basis, rs.roots[rs.positives[p]])
        den = math.lcm(*(c.denominator for c in coeffs))
        rel = [0] * rs.d
        rel[p] = den
        for b, c in zip(basis_positions, coeffs):
            rel[b] -= int(c * den)
        relations.append(tuple(rel))
    return relations


@pytest.mark.parametrize(
    "name",
    [f"A{r}" for r in range(1, 9)]
    + [f"{f}{r}" for f in "BC" for r in range(2, 7)]
    + [f"D{r}" for r in range(3, 9)]
    + ["G2", "F4", "E6", "E7", "E8"],
)
def test_relations_equal_the_solved_reference(name):
    rs = build_root_system(name)
    assert generate_relations(rs) == _relations_by_solving(rs)


def test_relations_vanish_on_embedded_space(lattice_of):
    rng = random.Random(31)
    for name in ["A3", "B3", "C3", "D4", "G2"]:
        rs, _ = lattice_of(name)
        rels = generate_relations(rs)
        assert len(rels) == rs.d - rs.rank
        for _ in range(10):
            h = [Fraction(rng.randrange(-6, 7)) for _ in range(rs.ambient)]
            values = [
                sum(Fraction(a) * c for a, c in zip(rs.roots[rs.positives[p]], h))
                for p in range(rs.d)
            ]
            for rel in rels:
                assert sum(c * values[p] for p, c in enumerate(rel)) == 0


def _linked_positions(rs, mask):
    """Positions of the flat's roots that are not orthogonal to another of its roots.

    Such a root lies in an irreducible component of rank >= 2, so some
    relation among the flat's roots involves it.
    """
    pos = rs.positions(mask)
    vec = {p: rs.roots[rs.positives[p]] for p in pos}
    return [
        p for p in pos if any(q != p and sum(a * b for a, b in zip(vec[p], vec[q])) for q in pos)
    ]


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_rejection_relation_is_a_fundamental_circuit(lattice_of, name):
    # Points built like the benchmark's reject_relation queries: the values
    # of a functional on a flat, with one linked root's value moved by 1.
    rng = random.Random(53)
    rs, lat = lattice_of(name)
    roots = [rs.roots[i] for i in rs.positives]
    flats = [f for f in lat.flats if _linked_positions(rs, f.mask)]
    for _ in range(40):
        flat = rng.choice(flats)
        bump = rng.choice(_linked_positions(rs, flat.mask))
        h = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(rs.ambient)]
        values = [None] * rs.d
        for p in rs.positions(flat.mask):
            values[p] = sum(a * c for a, c in zip(roots[p], h)) + (1 if p == bump else 0)
        res = membership(rs, lat, ExtendedPoint(tuple(values)))
        assert isinstance(res, Rejection) and res.relation is not None
        rel = res.relation
        support = relation_support(rel)
        # The greedy basis takes roots in position order, so the root that
        # broke its relation is the last of the relation's support.
        assert rel[support[-1]] > 0
        assert math.gcd(*rel) == 1
        assert all(sum(rel[q] * roots[q][j] for q in support) == 0 for j in range(rs.ambient))
        assert all(flat.mask >> q & 1 for q in support)
        for q in support:
            rest = [roots[s] for s in support if s != q]
            assert fraction_rank(rest) == len(rest)
        assert sum(rel[q] * values[q] for q in support) != 0


@st.composite
def points(draw):
    """A type and a point: a functional's values on a random support, maybe moved."""
    rs = build_root_system(draw(st.sampled_from(PROPERTY_TYPES)))
    positions = st.integers(0, rs.d - 1)
    support = sum(1 << p for p in draw(st.sets(positions, max_size=6)))
    if draw(st.booleans()):
        support = closure(rs, support)
    fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
    h = [draw(fractions) for _ in range(rs.ambient)]
    values = [None] * rs.d
    for p in rs.positions(support):
        values[p] = sum(a * c for a, c in zip(rs.roots[rs.positives[p]], h))
    for p in draw(st.sets(st.sampled_from(rs.positions(support) or [0]), max_size=2)):
        if values[p] is not None:
            values[p] += draw(fractions)
    return rs, ExtendedPoint(tuple(values))


@settings(max_examples=300, deadline=None)
@given(points())
def test_membership_agrees_with_the_fraction_reference(lattice_of, case):
    # A point is in the variety iff its finite support S is span-closed and
    # some h has root_q(h) == v_q for every q in S.
    rs, point = case
    _, lat = lattice_of(str(rs.ctype))
    roots = [rs.roots[i] for i in rs.positives]
    finite = point.finite_positions()
    on_support = [roots[q] for q in finite]
    rank = fraction_rank(on_support)
    span_closed = all(
        fraction_rank(on_support + [roots[q]]) > rank for q in range(rs.d) if q not in finite
    )
    columns = [[roots[q][j] for q in finite] for j in range(rs.ambient)]
    h = fraction_solve(columns, [point.values[q] for q in finite], unique=False)
    if h is not None:
        assert all(sum(a * c for a, c in zip(roots[q], h)) == point.values[q] for q in finite)
    res = membership(rs, lat, point)
    assert isinstance(res, StratumResult) == (span_closed and h is not None)
    if isinstance(res, StratumResult):
        assert lat.flat(res.flat_id).mask == sum(1 << q for q in finite)


def test_relation_support_dichotomy(lattice_of):
    # a relation meets a good subsystem fully or misses it in >= 2 spots
    for name in ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2"]:
        rs, lat = lattice_of(name)
        rels = generate_relations(rs)
        for fid in lat.by_rank[rs.rank - 1]:
            mask = lat.flats[fid].mask
            for rel in rels:
                outside = [p for p in relation_support(rel) if not mask >> p & 1]
                assert len(outside) != 1, (name, fid, rel)


def test_grid_sweep_counts_match_whitney(lattice_of):
    # full sweep over a fixed value grid: every member lands in exactly
    # one stratum, every flat is hit, and per-rank hit counts match the
    # Whitney numbers
    from coxstrata.flats import whitney_second

    grids = {
        "A2": [None, Fraction(0), Fraction(1), Fraction(-1)],
        "B2": [None, Fraction(0), Fraction(1), Fraction(-1)],
        "A3": [None, Fraction(0), Fraction(1)],
        "D3": [None, Fraction(0), Fraction(1)],
        "G2": [None, Fraction(0), Fraction(1)],
        "B3": [None, Fraction(0)],
        "C3": [None, Fraction(0)],
    }
    for name, grid in grids.items():
        rs, lat = lattice_of(name)
        hit = {}
        for combo in product(grid, repeat=rs.d):
            res = membership(rs, lat, ExtendedPoint(combo))
            if isinstance(res, StratumResult):
                hit.setdefault(res.flat_id, 0)
                hit[res.flat_id] += 1
        assert set(hit) == set(range(len(lat))), name
        by_rank = {}
        for fid in hit:
            by_rank.setdefault(lat.flat(fid).rank, set()).add(fid)
        for rank, fids in by_rank.items():
            assert len(fids) == whitney_second(lat, rs.rank - rank), (name, rank)


def test_membership_invariant_under_actions(lattice_of):
    rng = random.Random(37)
    for name in ["A2", "B2", "D3"]:
        rs, lat = lattice_of(name)
        for _ in range(60):
            fid = rng.randrange(len(lat))
            point = _member_of_flat(rs, lat, fid, rng)
            word = [rng.randrange(1, rs.rank + 1) for _ in range(rng.randrange(0, 5))]
            moved = weyl_act_point(rs, word, point)
            res = membership(rs, lat, moved)
            assert isinstance(res, StratumResult)
            assert lat.flat(res.flat_id).rank == lat.flat(fid).rank


def _two_step_stratum(rs, point):
    """Reference: a greedy span basis, then one relation solve per finite root."""
    fin = fin_set(rs, point)
    span_closed = closure(rs, fin)
    if span_closed != fin:
        forced = (span_closed & ~fin).bit_length() - 1
        return Rejection("finite support is not span-closed", forced_position=forced)
    finite = point.finite_positions()
    span = IncrementalSpan(rs.ambient)
    basis_positions = [p for p in finite if span.add(rs.roots[rs.positives[p]])]
    basis = [rs.roots[rs.positives[p]] for p in basis_positions]
    for p in finite:
        x = _relation(rs.roots[rs.positives[p]], basis)
        positions = [p, *basis_positions]
        if sum(c * point.values[q] for c, q in zip(x, positions)):
            relation = [0] * rs.d
            for c, q in zip(x, positions):
                relation[q] += c
            return Rejection("finite values violate a root relation", relation=tuple(relation))
    values = tuple(point.values[p] for p in basis_positions)
    return fin, Functional(tuple(basis_positions), values)


def _functional_values(rs, mask, h):
    return tuple(
        sum(a * c for a, c in zip(rs.roots[rs.positives[p]], h)) if mask >> p & 1 else None
        for p in range(rs.d)
    )


@pytest.mark.parametrize("name", ["A3", "B4", "C3", "D5", "G2", "F4"])
def test_echelon_stratum_equals_the_two_step_reference(lattice_of, name):
    """`membership` finds the support in `id_of`; the reference and `_stratum`
    (the CLI's route) run the span closure.  Members, broken relations and
    supports that are not span-closed must agree field by field."""
    rs, lat = lattice_of(name)
    rng = random.Random(61)
    fractions = [Fraction(n, d) for n in range(-7, 8) for d in (1, 2, 3, 5)]
    linked = [f for f in lat.flats if _linked_positions(rs, f.mask)]
    points = [ExtendedPoint((None,) * rs.d)]
    for _ in range(60):
        h = [rng.choice(fractions) for _ in range(rs.ambient)]
        points.append(ExtendedPoint(_functional_values(rs, rng.choice(lat.flats).mask, h)))
        points.append(ExtendedPoint(_functional_values(rs, rs.full_mask, h)))
        flat = rng.choice(linked)
        values = list(_functional_values(rs, flat.mask, h))
        values[rng.choice(_linked_positions(rs, flat.mask))] += rng.choice(fractions) or 1
        points.append(ExtendedPoint(tuple(values)))
        values = list(_functional_values(rs, rs.full_mask, h))
        values[rng.randrange(rs.rank, rs.d)] += Fraction(1, rng.randrange(1, 4))
        points.append(ExtendedPoint(tuple(values)))
        subset = rng.getrandbits(rs.d)
        points.append(ExtendedPoint(_functional_values(rs, subset, h)))
    kinds = set()
    for point in points:
        ours, reference = _stratum(rs, point), _two_step_stratum(rs, point)
        assert ours == reference, point
        kinds.add(reference.reason if isinstance(reference, Rejection) else "member")
        res = membership(rs, lat, point)
        if isinstance(reference, Rejection):
            assert res == reference
        else:
            assert res == StratumResult(lat.id_of[reference[0]], reference[1])
    assert len(kinds) == 3


def test_membership_on_a_lattice_without_the_support_flat_is_an_invariant_violation(lattice_of):
    rs, lat = lattice_of("A3")
    levels = [[lat.flats[i].mask for i in ids] for ids in lat.by_rank]
    missing = next(m for m in levels[2] if bin(m).count("1") == 3)  # an A2
    levels[2].remove(missing)
    bare = IntersectionLattice(rs, levels, lat.covers)
    with pytest.raises(InvariantViolation, match="not a flat of the lattice"):
        membership(rs, bare, ExtendedPoint(_functional_values(rs, missing, [1, 2, 3, 4])))
    not_closed = ExtendedPoint(_functional_values(rs, missing & (missing - 1), [1, 2, 3, 4]))
    assert membership(rs, bare, not_closed) == _stratum(rs, not_closed)


def test_h_translate_equals_the_fraction_sum(lattice_of):
    rng = random.Random(67)
    for name in ["A3", "B4", "G2", "F4"]:
        rs, lat = lattice_of(name)
        for _ in range(40):
            point = _member_of_flat(rs, lat, rng.randrange(len(lat)), rng)
            y = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(rs.ambient)]
            expected = tuple(
                None if v is None
                else v + sum(Fraction(a) * c for a, c in zip(rs.roots[rs.positives[p]], y))
                for p, v in enumerate(point.values)
            )
            assert h_translate(rs, point, y) == ExtendedPoint(expected)


@pytest.mark.parametrize("extra", [-1, 1])
def test_point_length_is_checked_by_every_point_operation(lattice_of, extra):
    rs, lat = lattice_of("A2")
    point = ExtendedPoint((Fraction(1),) * (rs.d + extra))
    message = f"point has {rs.d + extra} coordinates, expected {rs.d}"
    with pytest.raises(InvalidId, match=message):
        weyl_act_point(rs, [1], point)
    with pytest.raises(InvalidId, match=message):
        weyl_act_point(rs, [], point)
    with pytest.raises(InvalidId, match=message):
        h_translate(rs, point, [0] * rs.ambient)
    with pytest.raises(InvalidId, match=message):
        membership(rs, lat, point)


def test_membership_refuses_a_lattice_of_another_type(lattice_of):
    rs, _ = lattice_of("A2")
    _, other = lattice_of("B2")
    point = ExtendedPoint((None,) * rs.d)
    with pytest.raises(LatticeMismatch):
        membership(rs, other, point)
    with pytest.raises(LatticeMismatch):
        stratum_of(rs, other, point)
    # Same type, separately built: accepted.
    assert stratum_of(rs, build_lattice(build_root_system("A2")), point) == 0
