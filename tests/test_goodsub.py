from __future__ import annotations

import numpy as np
import pytest

from conftest import additive_closure_by_tuple_sums, orbit_masks
from coxstrata.betti import betti_row_closed_form
from coxstrata.errors import InvalidId, MalformedDescriptor, NotClassical, NotGood, StarViolation
from coxstrata.flats import key_masks, walk_level, whitney_second
from coxstrata.goodsub import (
    bds_candidates,
    bds_covers_all,
    descriptors_of,
    is_k_step_good,
    param_F,
    param_G,
    star_check,
    star_sets,
)
from coxstrata.rootsys import CartanType, build_root_system, classify_subsystem, closure


def test_is_k_step_good_examples(lattice_of):
    rs, _ = lattice_of("A2")
    theta = rs.index[(1, 0, -1)]
    a1, a2 = rs.simples
    assert is_k_step_good(rs, [theta], 1)
    assert not is_k_step_good(rs, [a1, a2], 0)

    b2, _ = lattice_of("B2")
    longs = b2.as_mask([b2.index[(1, -1)], b2.index[(1, 1)]])
    # rank 2 but its span closure is the whole system
    assert not is_k_step_good(b2, longs, 0)
    assert closure(b2, longs) == b2.full_mask


def test_every_flat_is_k_step_good(lattice_of):
    for name in ["A3", "B3", "D4", "G2"]:
        rs, lat = lattice_of(name)
        for f in lat.flats:
            assert is_k_step_good(rs, f.mask, rs.rank - f.rank)


def _good(lat) -> list[int]:
    """The good subsystems: the masks of the rank r-1 flats."""
    return [lat.flats[fid].mask for fid in lat.by_rank[lat.rs.rank - 1]]


def test_good_subsystem_examples(lattice_of):
    rs, lat = lattice_of("A2")
    goods = _good(lat)
    assert len(goods) == 3
    types = {classify_subsystem(rs, m) for m in goods}
    assert types == {CartanType.parse("A1")}

    assert len(_good(lattice_of("G2")[1])) == 6
    assert len(_good(lattice_of("B3")[1])) == 13


def test_bds_candidates_examples(lattice_of):
    rs, _ = lattice_of("A2")
    cands = bds_candidates(rs)
    assert len(cands) == 3
    assert all(classify_subsystem(rs, m) == CartanType.parse("A1") for _, m in cands)

    g2, _ = lattice_of("G2")
    cands = bds_candidates(g2)
    assert len(cands) == 3  # labels (1, 3, 2): all pairs coprime
    assert all(classify_subsystem(g2, m) == CartanType.parse("A1") for _, m in cands)

    b2, _ = lattice_of("B2")
    for _, m in bds_candidates(b2):
        assert is_k_step_good(b2, m, 1)


def test_bds_coprime_filter():
    from coxstrata.rootsys import build_root_system
    from itertools import combinations
    from math import gcd

    rs = build_root_system("F4")
    pairs = {ij for ij, _ in bds_candidates(rs)}
    expected = {
        (i, j)
        for i, j in combinations(range(rs.rank + 1), 2)
        if gcd(rs.labels[i], rs.labels[j]) == 1
    }
    assert pairs == expected
    assert (1, 3) not in pairs  # labels 2 and 4 share a factor


def test_bds_covers_all_small_types(lattice_of):
    for name in ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
                 "D3", "D4", "G2", "F4"]:
        rs, lat = lattice_of(name)
        assert bds_covers_all(rs, lat.level(rs.rank - 1)), name


@pytest.mark.parametrize("name", ["B3", "D4", "F4"])
def test_bds_covers_all_fails_when_an_orbit_loses_its_candidates(name, monkeypatch):
    rs = build_root_system(name)
    level = walk_level(rs, rs.rank - 1)
    candidates = bds_candidates(rs)
    assert bds_covers_all(rs, level)
    for _, mask in candidates:
        orbit = orbit_masks(rs, mask)
        kept = [c for c in candidates if c[1] not in orbit]
        monkeypatch.setattr("coxstrata.goodsub.bds_candidates", lambda rs: kept)
        assert not bds_covers_all(rs, level), rs.positions(mask)


@pytest.mark.parametrize("cut", ["row", "tail"])
@pytest.mark.parametrize("name", ["A3", "B3", "C4", "D4", "G2", "F4"])
def test_bds_covers_all_fails_when_a_candidate_is_missing_from_the_level(name, cut):
    # Without its row a candidate would read a neighbour's label, and
    # without the rows from its place on it would fall past the last mask.
    rs = build_root_system(name)
    level = walk_level(rs, rs.rank - 1)
    masks = key_masks(level.keys)
    assert bds_covers_all(rs, level)
    for mask in {m for _, m in bds_candidates(rs)}:
        places = np.arange(len(masks))
        keep = places != masks.index(mask) if cut == "row" else places < masks.index(mask)
        short = level._replace(keys=level.keys[keep], label=level.label[keep])
        assert not bds_covers_all(rs, short), rs.positions(mask)


def test_parabolic_characterization(lattice_of):
    # each good subsystem's type appears among the candidate types
    for name in ["A3", "B3", "C3", "D4", "G2", "F4"]:
        rs, lat = lattice_of(name)
        cand_types = {classify_subsystem(rs, m) for _, m in bds_candidates(rs)}
        for fid in lat.by_rank[rs.rank - 1]:
            assert classify_subsystem(rs, lat.flats[fid].mask) in cand_types


@pytest.mark.parametrize("name", ["A1", "A4", "B3", "C4", "D5", "G2", "F4", "E6", "E7", "E8"])
def test_bds_candidates_match_the_tuple_sum_closure(name):
    rs = build_root_system(name)
    nodes = [rs.index[v] for v in rs.affine_roots]
    for (i, j), mask in bds_candidates(rs):
        keep = [node for n, node in enumerate(nodes) if n not in (i, j)]
        assert mask == additive_closure_by_tuple_sums(rs, keep), (i, j)


def test_star_check_type_a():
    assert star_check("A3", {(1, 1), (2, 3)})
    assert not star_check("A3", {(1, 2), (1, 3)})  # shared i
    assert not star_check("A3", {(1, 3), (2, 3)})  # shared j
    assert star_check("A3", set())
    with pytest.raises(MalformedDescriptor):
        star_check("A3", {(3, 1)})
    with pytest.raises(MalformedDescriptor):
        star_check("A3", {(0, 1)})


def test_star_check_type_b():
    assert star_check("B3", {(1,), (2, 3, "+")})
    assert not star_check("B3", {(1,), (1, 2, "-")})  # singleton blocks its index
    assert not star_check("B3", {(1, 2, "+"), (1, 2, "-")})  # same pair twice
    assert star_check("B2", {(1,), (2,)})
    with pytest.raises(MalformedDescriptor):
        star_check("B2", {(2, 1, "+")})
    # Entries that do not compare with the others, and an unhashable one.
    for P in ([(1, 2, "+"), (1, 2, 3)], [(1,), ("x",)], [(1,), [2]]):
        with pytest.raises(MalformedDescriptor):
            star_check("B3", P)


def test_star_check_type_d_fixture():
    good = {(1, 2, "-"), (2, 3, "-"), (3, 4, "-"), (3, 4, "+")}
    assert star_check("D4", good)
    # two pairs carrying both signs
    assert not star_check("D4", {(1, 2, "+"), (1, 2, "-"), (3, 4, "+"), (3, 4, "-")})
    # chain into the double pair must be minus-signed
    assert not star_check("D4", {(1, 2, "+"), (2, 3, "+"), (2, 3, "-")})
    assert star_check("D4", {(1, 2, "-"), (2, 3, "+"), (2, 3, "-")})
    # nothing may continue past the double pair
    assert not star_check("D4", {(2, 3, "+"), (2, 3, "-"), (3, 4, "-")})
    # a repeated descriptor, alone or next to its twin
    repeats = (
        [(1, 2, "-"), (1, 2, "-")],
        [(1, 2, "+"), (1, 2, "-"), (1, 2, "+")],
        [(1, 2, "+"), (1, 2, "-"), (1, 2, "-")],
    )
    for P in repeats:
        assert not star_check("D4", P), P
    d4 = build_root_system("D4")
    with pytest.raises(StarViolation):
        param_G(d4, repeats[0])
    with pytest.raises(NotClassical):
        star_check("G2", set())


@pytest.mark.parametrize(
    "name, P",
    [("A3", [(1, 2), (3, 3), (1, 2)]), ("B3", [(1,), (1,)]), ("C3", [(2, 3, "+"), (2, 3, "+")])],
)
def test_star_check_rejects_a_repeated_descriptor(name, P):
    assert star_check(name, set(P))
    assert not star_check(name, P)


def test_param_f_examples(lattice_of):
    a2, _ = lattice_of("A2")
    theta_mask = 1 << a2.pos_of[a2.index[(1, 0, -1)]]
    assert param_F(a2, theta_mask) == frozenset({(1, 2)})

    d4, _ = lattice_of("D4")
    assert param_F(d4, d4.full_mask) == frozenset(
        {(1, 2, "-"), (2, 3, "-"), (3, 4, "-"), (3, 4, "+")}
    )

    a3, _ = lattice_of("A3")
    sub = closure(a3, [a3.simples[0], a3.simples[2]])
    assert param_F(a3, sub) == frozenset({(1, 1), (3, 3)})


def test_param_f_rejects_non_good(lattice_of):
    a2, _ = lattice_of("A2")
    with pytest.raises(NotGood):
        param_F(a2, a2.as_mask([a2.simples[0], a2.simples[1]]))
    g2, _ = lattice_of("G2")
    with pytest.raises(NotClassical):
        param_F(g2, g2.full_mask)


def test_param_g_examples(lattice_of):
    a2, _ = lattice_of("A2")
    theta_mask = 1 << a2.pos_of[a2.index[(1, 0, -1)]]
    assert param_G(a2, {(1, 2)}) == theta_mask
    assert param_G(a2, iter([(1, 2)])) == theta_mask  # read once, by the star check too

    b2, _ = lattice_of("B2")
    eps1_mask = 1 << b2.pos_of[b2.index[(1, 0)]]
    assert param_G(b2, {(1,)}) == eps1_mask

    a3, _ = lattice_of("A3")
    got = param_G(a3, {(1, 1), (2, 3)})
    # alpha_1 + alpha_{2,3} is again a root, so the additive closure is the
    # rank-2 block subsystem on {1, 2, 4}, of type A2, and F recovers P.
    expected = a3.as_mask(
        [a3.simples[0], a3.index[(0, 1, 0, -1)], a3.index[(1, 0, 0, -1)]]
    )
    assert got == expected
    assert classify_subsystem(a3, got) == CartanType.parse("A2")
    assert param_F(a3, got) == frozenset({(1, 1), (2, 3)})

    with pytest.raises(StarViolation):
        param_G(a3, {(1, 2), (1, 3)})


def test_round_trips_and_counts(lattice_of):
    cases = (
        [(f"A{r}", r) for r in range(1, 6)]
        + [(f"B{r}", r) for r in (2, 3, 4)]
        + [(f"C{r}", r) for r in (2, 3, 4)]
        + [("D3", 3), ("D4", 4), ("D5", 5)]
    )
    for name, r in cases:
        rs, lat = lattice_of(name)
        for k in range(r + 1):
            sets = list(star_sets(name, r - k))
            assert len(sets) == betti_row_closed_form(name)[k] == whitney_second(lat, k)
            for P in sets:
                assert param_F(rs, param_G(rs, P)) == P
            for fid in lat.by_rank[r - k]:
                mask = lat.flats[fid].mask
                assert param_G(rs, param_F(rs, mask)) == mask


@pytest.mark.parametrize("name", ["A6", "B5", "C5", "D5", "D6"])
def test_every_flat_round_trips_through_its_parameter_set(name, lattice_of):
    # The star-set round trips above stop at rank 4; these reach the type D
    # chain step at ranks 5 and 6.
    rs, lat = lattice_of(name)
    for f in lat.flats:
        P = param_F(rs, f.mask)
        assert len(P) == f.rank, sorted(P)
        assert star_check(name, P), sorted(P)
        assert param_G(rs, P) == f.mask, sorted(P)


def test_descriptors_of_roundtrip():
    # Each positive root is one descriptor, which generates that root alone
    # and is a star set of size one on its own.
    names = (
        [f"A{r}" for r in range(1, 7)]
        + [f"{f}{r}" for f in "BC" for r in range(2, 6)]
        + [f"D{r}" for r in range(3, 7)]
    )
    for name in names:
        rs = build_root_system(name)
        singles = []
        for p in range(rs.d):
            (desc,) = descriptors_of(rs, 1 << p)
            assert param_G(rs, {desc}) == 1 << p, (name, desc)
            singles.append(frozenset({desc}))
        assert sorted(star_sets(name, 1), key=sorted) == sorted(singles, key=sorted), name
    # The order of star_sets: shorter descriptors first, then lexicographic.
    b3 = [
        (1,), (2,), (3,),
        (1, 2, "+"), (1, 2, "-"), (1, 3, "+"), (1, 3, "-"), (2, 3, "+"), (2, 3, "-"),
    ]
    assert list(star_sets("B3", 1)) == [frozenset({d}) for d in b3]
    d4 = [
        (1, 2, "+"), (1, 2, "-"), (1, 3, "+"), (1, 3, "-"), (1, 4, "+"), (1, 4, "-"),
        (2, 3, "+"), (2, 3, "-"), (2, 4, "+"), (2, 4, "-"), (3, 4, "+"), (3, 4, "-"),
    ]
    assert list(star_sets("D4", 1)) == [frozenset({d}) for d in d4]


@pytest.mark.parametrize("mask", [-1, 1 << 9])
def test_descriptors_of_refuses_an_out_of_range_mask(mask):
    with pytest.raises(InvalidId):
        descriptors_of(build_root_system("A2"), mask)
