from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from conftest import (
    PROPERTY_TYPES,
    apply_perm_to_mask,
    flat_level,
    index_position,
    orbit_masks,
    pos_of_coords,
    positive_perms,
)
from coxstrata import build_root_system, flats
from coxstrata.betti import betti_row_closed_form
from coxstrata.errors import InvariantViolation, LatticeMismatch, MalformedWord
from coxstrata.flats import IntersectionLattice, join, walk, walk_level, whitney_second
from coxstrata.rootsys import classify_subsystem, closure, reflect
from coxstrata.strata import ExtendedPoint
from coxstrata.weyl import (
    OrbitRecord,
    flat_types,
    orbit_of_flat,
    orbit_types,
    parabolic_summary,
    weyl_act_point,
    weyl_order,
)


def test_weyl_order_values():
    # The reference for the derivation from the root heights: the
    # classical orders by formula and the five exceptional constants.
    expected = {"G2": 12, "F4": 1152, "E6": 51840, "E7": 2903040, "E8": 696729600}
    for r in range(1, 9):
        expected[f"A{r}"] = factorial(r + 1)
    for r in range(2, 8):
        expected[f"B{r}"] = expected[f"C{r}"] = 2**r * factorial(r)
    for r in range(3, 9):
        expected[f"D{r}"] = 2 ** (r - 1) * factorial(r)
    expected["A1xA1"] = 4
    assert len(expected) == 32
    assert {name: weyl_order(name) for name in expected} == expected


def test_weyl_order_by_orbit_stabilizer():
    # Cross-check the derived orders: every orbit size times its
    # stabilizer order must give |W|, which fails unless the size divides it.
    for name in ["A3", "B3", "G2", "D4"]:
        rs = build_root_system(name)
        summary = parabolic_summary(rs, walk(rs))
        for recs in summary.per_rank:
            for rec in recs:
                assert rec.size * rec.stabilizer_order == summary.weyl_order


def test_orbit_examples(lattice_of):
    rs, lat = lattice_of("A2")
    atoms = lat.atoms()
    assert orbit_of_flat(rs, lat, atoms[0]) == set(atoms)
    assert orbit_of_flat(rs, lat, lat.bottom) == {lat.bottom}
    assert orbit_of_flat(rs, lat, lat.top) == {lat.top}

    g2, latg = lattice_of("G2")
    orbits = {frozenset(orbit_of_flat(g2, latg, a)) for a in latg.atoms()}
    assert sorted(len(o) for o in orbits) == [3, 3]


def test_orbit_members_share_rank_and_type(lattice_of):
    for name in ["B3", "D4", "G2"]:
        rs, lat = lattice_of(name)
        for fid in (lat.by_rank[1][0], lat.by_rank[rs.rank - 1][0]):
            base = lat.flat(fid)
            base_type = classify_subsystem(rs, base.mask)
            for other in orbit_of_flat(rs, lat, fid):
                f = lat.flat(other)
                assert f.rank == base.rank
                assert classify_subsystem(rs, f.mask) == base_type


def test_parabolic_summary_orbit_types(lattice_of):
    # The Moebius identity cannot tell B3 from C3; these fixed types can.
    expected = {
        "F4": [
            ["1"],
            ["A1", "A1"],
            ["A1xA1", "A2", "A2", "B2"],
            ["A1xA2", "A1xA2", "B3", "C3"],
            ["F4"],
        ],
        "E6": [
            ["1"],
            ["A1"],
            ["A1xA1", "A2"],
            ["A1xA1xA1", "A1xA2", "A3"],
            ["A1xA1xA2", "A2xA2", "A1xA3", "A4", "D4"],
            ["A1xA2xA2", "A1xA4", "A5", "D5"],
            ["E6"],
        ],
    }
    for name, per_rank in expected.items():
        rs = build_root_system(name)
        summary = parabolic_summary(rs, walk(rs))
        got = [[str(rec.cartan_type) for rec in recs] for recs in summary.per_rank]
        assert got == per_rank, name


def test_parabolic_summary_counts():
    a2, b2, g2 = (build_root_system(name) for name in ("A2", "B2", "G2"))
    summary = parabolic_summary(a2, walk(a2))
    assert summary.class_count == 3 <= 4

    summ = parabolic_summary(b2, walk(b2))
    assert [len(r) for r in summ.per_rank] == [1, 2, 1]
    assert sorted(rec.size for rec in summ.per_rank[1]) == [2, 2]
    assert summ.class_count == 4

    summg = parabolic_summary(g2, walk(g2))
    assert [rec.size for rec in summg.per_rank[1]] == [3, 3]
    assert all(rec.stabilizer_order == 4 for rec in summg.per_rank[1])


def test_orbit_sums_match_whitney(lattice_of):
    for name in ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
                 "D3", "D4", "G2", "F4"]:
        rs, lat = lattice_of(name)
        summary = parabolic_summary(rs, walk(rs))
        for rank, recs in enumerate(summary.per_rank):
            assert sum(rec.size for rec in recs) == whitney_second(lat, rs.rank - rank)
        assert summary.class_count <= 2**rs.rank


def _partition_of_levels(rs, lat):
    """Oracle: split each lattice level into orbits, least unvisited flat id first."""
    w = weyl_order(rs.ctype)
    per_rank = []
    for rank_ids in lat.by_rank:
        remaining = set(rank_ids)
        records = []
        while remaining:
            rep = min(remaining)
            orbit = orbit_of_flat(rs, lat, rep)
            assert orbit <= remaining
            cartan_type = classify_subsystem(rs, lat.flat(rep).mask)
            records.append(OrbitRecord(rep, len(orbit), w // len(orbit), cartan_type))
            remaining -= orbit
        per_rank.append(tuple(records))
    return tuple(per_rank)


@pytest.mark.parametrize(
    "name",
    [f"A{r}" for r in range(1, 8)]
    + [f"B{r}" for r in range(2, 7)]
    + [f"C{r}" for r in range(2, 6)]
    + [f"D{r}" for r in range(3, 8)]
    + ["G2", "F4", "E6"],
)
def test_parabolic_summary_equals_partition_of_lattice_levels(name, lattice_of):
    rs, lat = lattice_of(name)
    summary = parabolic_summary(rs, walk(rs))
    # The levels the lattice keeps give the summary that a fresh walk gives.
    assert parabolic_summary(rs, map(lat.level, range(rs.rank + 1))) == summary
    assert summary.per_rank == _partition_of_levels(rs, lat)
    # The walk that numbers the representatives numbers every flat as the lattice does.
    for k, ids in enumerate(lat.by_rank):
        offset, masks = flat_level(rs, k)
        assert ids == list(range(offset, offset + len(masks)))
        assert masks == [lat.flat(fid).mask for fid in ids]


def _levels(lat):
    return [[lat.flats[fid].mask for fid in ids] for ids in lat.by_rank]


def _unlabelled(lat):
    """The lattice from its levels and covers alone, as a library caller may make it."""
    return IntersectionLattice(lat.rs, _levels(lat), lat.covers)


@pytest.mark.parametrize("name", ["A3", "A4", "B3", "B4", "C3", "D4", "D5", "G2", "F4"])
def test_orbit_of_flat_equals_python_int_orbits(name, lattice_of):
    rs, lat = lattice_of(name)
    walked = _unlabelled(lat)
    for f in lat.flats:
        expected = {lat.id_of[m] for m in orbit_masks(rs, f.mask)}
        assert orbit_of_flat(rs, lat, f.id) == expected
        assert orbit_of_flat(rs, walked, f.id) == expected


@pytest.mark.parametrize("change", ["lacks", "extra"])
def test_a_level_that_differs_from_the_walk_has_no_orbits(change, lattice_of):
    rs, lat = lattice_of("B3")
    levels = _levels(lat)
    if change == "lacks":
        del levels[2][3]
    else:
        # A rank-2 flat with one root dropped is no flat.
        extra = next(m & (m - 1) for m in levels[2] if bin(m).count("1") > 2)
        assert extra not in levels[2]
        levels[2] = sorted(levels[2] + [extra])
    bad = IntersectionLattice(rs, levels, [])
    # Every rank reads one checked walk, so each refuses and names the first rank that differs.
    for k in range(rs.rank + 1):
        with pytest.raises(InvariantViolation, match="rank-2 level differs from the walk of B3"):
            orbit_of_flat(rs, bad, bad.by_rank[k][0])
    with pytest.raises(InvariantViolation):
        list(flat_types(bad))


def test_a_walk_whose_first_ids_differ_from_the_lattice_is_refused(lattice_of, monkeypatch):
    # Every rank has the walk's masks, but the walk puts rank 3 one id later.
    rs, lat = lattice_of("B3")
    first = flats._first
    monkeypatch.setattr("coxstrata.flats._first", lambda rs, k: first(rs, k) + (k == 3))
    bare = _unlabelled(lat)
    with pytest.raises(InvariantViolation, match="rank-3 level differs from the walk of B3"):
        bare.level(0)


def test_orbit_of_flat_refuses_a_lattice_of_another_type(lattice_of):
    rs, _ = lattice_of("A2")
    _, other = lattice_of("B2")
    with pytest.raises(LatticeMismatch):
        orbit_of_flat(rs, other, 0)


@pytest.mark.parametrize("name", ["A4", "B4", "C4", "D5", "G2", "F4", "E6"])
def test_orbit_labels_partition_each_level_into_w_orbits(name, lattice_of):
    rs, lat = lattice_of(name)
    for k in range(rs.rank + 1):
        level = walk_level(rs, k)
        first, labels, types = level.first, level.label.tolist(), orbit_types(rs, level)
        assert len(types) == len(level.orbits)
        for i, (place, size, mask) in enumerate(level.orbits):
            orbit = orbit_of_flat(rs, lat, first + place)
            assert lat.flat(first + place).mask == mask
            assert {first + q for q, lab in enumerate(labels) if lab == i} == orbit
            assert len(orbit) == size
            assert types[i] == classify_subsystem(rs, mask)
    expected = [classify_subsystem(rs, f.mask) for f in lat.flats]
    assert list(flat_types(lat)) == list(flat_types(_unlabelled(lat))) == expected


@pytest.mark.parametrize("name", ["E8", "B9"])
def test_multiword_walk_equals_python_int_orbits(name):
    # d > 64: each mask is two uint64 words.
    rs = build_root_system(name)
    for k in range(4):
        expected = set()
        for J in combinations(rs.simples, k):
            start = closure(rs, J)
            if start not in expected:
                expected |= orbit_masks(rs, start)
        assert flat_level(rs, k)[1] == sorted(expected), (name, k)


def test_e7_orbit_sizes_give_the_stored_row():
    rs = build_root_system("E7")
    summary = parabolic_summary(rs, walk(rs))
    sizes = [sum(rec.size for rec in recs) for recs in summary.per_rank]
    assert sizes == list(reversed(betti_row_closed_form("E7")))
    assert summary.class_count == 32


def test_join_is_equivariant(lattice_of):
    rng = random.Random(13)
    for name in ["A3", "B3", "G2"]:
        rs, lat = lattice_of(name)
        perms = positive_perms(rs)
        for _ in range(150):
            x, y = rng.randrange(len(lat)), rng.randrange(len(lat))
            perm = perms[rng.randrange(len(perms))]
            j = join(lat, x, y)
            wx = lat.id_of[apply_perm_to_mask(perm, lat.flat(x).mask)]
            wy = lat.id_of[apply_perm_to_mask(perm, lat.flat(y).mask)]
            wj = lat.id_of[apply_perm_to_mask(perm, lat.flat(j).mask)]
            assert join(lat, wx, wy) == wj


def test_point_action_examples(lattice_of):
    rs, _ = lattice_of("A2")
    p1 = pos_of_coords(rs, (1, -1, 0))
    p2 = pos_of_coords(rs, (0, 1, -1))
    pt = pos_of_coords(rs, (1, 0, -1))
    vals = [None] * 3
    vals[p1], vals[p2], vals[pt] = Fraction(5), Fraction(7), Fraction(12)
    point = ExtendedPoint(tuple(vals))

    moved = weyl_act_point(rs, [1], point)
    assert moved.values[p1] == -5
    assert moved.values[p2] == 12
    assert moved.values[pt] == 7

    ident = weyl_act_point(rs, [], point)
    assert ident == point

    all_inf = ExtendedPoint((None, None, None))
    for word in ([1], [2], [1, 2, 1], [2, 1, 2, 1]):
        assert weyl_act_point(rs, word, all_inf) == all_inf


def test_point_action_is_group_action(lattice_of):
    rs, _ = lattice_of("B2")
    vals = tuple(Fraction(v) for v in (3, 1, 4, 1))
    point = ExtendedPoint(vals)
    # s_i is an involution
    for i in (1, 2):
        assert weyl_act_point(rs, [i, i], point) == point
    # (s1 s2) applied then (s2 s1) undoes it
    moved = weyl_act_point(rs, [1, 2], point)
    assert weyl_act_point(rs, [2, 1], moved) == point
    # braid relation for B2: s1 s2 s1 s2 = s2 s1 s2 s1
    assert weyl_act_point(rs, [1, 2, 1, 2], point) == weyl_act_point(
        rs, [2, 1, 2, 1], point
    )


def _act_point_by_reflect(rs, word, point):
    """Reference: the point action root by root, each letter's image of
    every positive root taken from `reflect` on coordinates."""
    values = list(point.values)
    for letter in reversed(word):
        mirror = rs.simples[letter - 1]
        new_values = []
        for idx in rs.positives:
            image = reflect(rs, mirror, idx)
            val = values[index_position(rs, image)]
            new_values.append(val if image in rs.pos_of or val is None else -val)
        values = new_values
    return ExtendedPoint(tuple(values))


@pytest.mark.parametrize("name", PROPERTY_TYPES + ["E6", "E7", "E8"])
def test_point_action_matches_the_reflect_reference(name):
    rs = build_root_system(name)
    rng = random.Random(name)
    for _ in range(60):
        values = tuple(
            None if rng.random() < 0.3 else Fraction(rng.randint(-20, 20), rng.randint(1, 5))
            for _ in range(rs.d)
        )
        word = [rng.randint(1, rs.rank) for _ in range(rng.randrange(12))]
        point = ExtendedPoint(values)
        assert weyl_act_point(rs, word, point) == _act_point_by_reflect(rs, word, point), word


def test_malformed_word(lattice_of):
    rs, _ = lattice_of("A2")
    with pytest.raises(MalformedWord):
        weyl_act_point(rs, [3], ExtendedPoint((None, None, None)))
    with pytest.raises(MalformedWord):
        weyl_act_point(rs, [0], ExtendedPoint((None, None, None)))
