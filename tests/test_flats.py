from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

import coxstrata
from conftest import flat_level, join_by_closure
from coxstrata.betti import betti_row_closed_form
from coxstrata.errors import (
    InvalidId,
    InvariantViolation,
    MagnitudeOverflow,
    RankOutOfRange,
    ResourceLimit,
)
from coxstrata.flats import (
    IntersectionLattice,
    Level,
    _expand_flat,
    _images,
    _keys,
    _moves,
    brute_force_flats,
    build_lattice,
    char_poly,
    check_flat_budget,
    enumerate_rank_counts,
    flat_id,
    join,
    key_masks,
    leq,
    mobius_table,
    parabolic_flat,
    walk_level,
    walk_rank_counts,
    whitney_second,
)
from coxstrata.rootsys import build_root_system, classify_subsystem, closure

# Stratum counts by codimension, as published for small ranks.
KNOWN_ROWS = {
    "A1": [1, 1],
    "A2": [1, 3, 1],
    "A3": [1, 7, 6, 1],
    "A4": [1, 15, 25, 10, 1],
    "A5": [1, 31, 90, 65, 15, 1],
    "B2": [1, 4, 1],
    "B3": [1, 13, 9, 1],
    "B4": [1, 40, 58, 16, 1],
    "B5": [1, 121, 330, 170, 25, 1],
    "D4": [1, 24, 34, 12, 1],
    "D5": [1, 81, 190, 110, 20, 1],
    "G2": [1, 6, 1],
    "F4": [1, 120, 122, 24, 1],
}


def test_enumeration_reproduces_known_rows(lattice_of):
    for name, row in KNOWN_ROWS.items():
        _, lat = lattice_of(name)
        assert lat.betti_row() == row, name


def test_counts_only_sweep_agrees(lattice_of):
    for name in ["A3", "B3", "D4", "G2"]:
        rs, lat = lattice_of(name)
        assert enumerate_rank_counts(rs) == lat.rank_counts


def test_b_and_c_lattices_have_identical_counts(lattice_of):
    for r in (2, 3, 4, 5):
        _, latb = lattice_of(f"B{r}")
        _, latc = lattice_of(f"C{r}")
        assert latb.rank_counts == latc.rank_counts


def test_rank_one_flats_are_root_lines(lattice_of):
    for name in ["A3", "B3", "D4", "G2", "F4"]:
        rs, lat = lattice_of(name)
        assert lat.rank_counts[1] == rs.d
        assert all(
            bin(lat.flats[f].mask).count("1") >= 1 for f in lat.atoms()
        )


def test_flat_iteration_order_contract(lattice_of):
    for name in ["B3", "D4"]:
        _, lat = lattice_of(name)
        keys = [(f.rank, f.mask) for f in lat.flats]
        assert keys == sorted(keys)
        assert [f.id for f in lat.flats] == list(range(len(lat.flats)))


def test_flats_match_brute_force_oracle(lattice_of):
    for name in ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2"]:
        rs, lat = lattice_of(name)
        enum = [[lat.flats[i].mask for i in ids] for ids in lat.by_rank]
        assert brute_force_flats(rs) == enum, name


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "F4", "E6"])
def test_atom_of_is_the_flat_of_one_root(name, lattice_of):
    rs, lat = lattice_of(name)
    assert len(rs.roots) == 2 * rs.d
    for i in range(len(rs.roots)):
        assert lat.atom_of(i) == lat.id_of[closure(rs, [i])], i


def test_join_examples(lattice_of):
    rs, lat = lattice_of("A3")
    a1 = lat.atom_of(rs.index[(1, -1, 0, 0)])
    a2 = lat.atom_of(rs.index[(0, 1, -1, 0)])
    j = join(lat, a1, a2)
    flat = lat.flat(j)
    assert flat.rank == 2
    expected = {(1, -1, 0, 0), (0, 1, -1, 0), (1, 0, -1, 0)}
    assert {tuple(rs.roots[i]) for i in rs.positive_indices(flat.mask)} == expected

    rs2, lat2 = lattice_of("A2")
    x = lat2.atom_of(rs2.index[(1, -1, 0)])
    y = lat2.atom_of(rs2.index[(0, 1, -1)])
    assert join(lat2, x, y) == lat2.top
    for fid in range(len(lat2)):
        assert join(lat2, lat2.bottom, fid) == fid


def test_join_is_least_upper_bound(lattice_of):
    rng = random.Random(11)
    for name in ["A3", "B3", "D4"]:
        _, lat = lattice_of(name)
        n = len(lat)
        for _ in range(300):
            x, y = rng.randrange(n), rng.randrange(n)
            j = join(lat, x, y)
            assert leq(lat, x, j) and leq(lat, y, j)
            assert join(lat, y, x) == j
            assert join(lat, x, x) == x
            z = rng.randrange(n)
            if leq(lat, x, z) and leq(lat, y, z):
                assert leq(lat, j, z)
            assert lat.flat(j).rank >= max(lat.flat(x).rank, lat.flat(y).rank)


@pytest.mark.parametrize(
    "name", ["A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4"]
)
def test_join_by_covers_equals_join_by_closure_on_every_pair(name, lattice_of):
    _, lat = lattice_of(name)
    for x, y in combinations_with_replacement(range(len(lat)), 2):
        expected = join_by_closure(lat, x, y)
        assert join(lat, x, y) == expected and join(lat, y, x) == expected, (x, y)


@pytest.mark.parametrize("name", ["D6", "E6"])
def test_join_by_covers_equals_join_by_closure_on_seeded_pairs(name, lattice_of):
    _, lat = lattice_of(name)
    rng = random.Random(67)
    for _ in range(2000):
        x, y = rng.randrange(len(lat)), rng.randrange(len(lat))
        assert join(lat, x, y) == join_by_closure(lat, x, y), (x, y)


def test_join_on_a_lattice_without_covers_is_an_invariant_violation(lattice_of):
    rs, lat = lattice_of("A2")
    bare = IntersectionLattice(rs, [[lat.flats[i].mask for i in ids] for ids in lat.by_rank], [])
    a, b = bare.atoms()[:2]
    assert join(bare, a, bare.bottom) == a
    with pytest.raises(InvariantViolation, match="no upper cover"):
        join(bare, a, b)


def test_leq_examples(lattice_of):
    _, lat = lattice_of("A2")
    a, b = lat.atoms()[:2]
    assert all(leq(lat, lat.bottom, f) for f in range(len(lat)))
    assert not leq(lat, a, b) and not leq(lat, b, a)
    assert leq(lat, a, join(lat, a, b))


def test_invalid_ids(lattice_of):
    _, lat = lattice_of("A2")
    with pytest.raises(InvalidId):
        leq(lat, 0, len(lat))
    with pytest.raises(InvalidId):
        join(lat, -1 - len(lat), 0)


def test_mobius_examples(lattice_of):
    _, lat = lattice_of("A2")
    mu = mobius_table(lat)
    assert mu[lat.bottom] == 1
    assert all(mu[a] == -1 for a in lat.atoms())
    assert mu[lat.top] == 2

    _, latb = lattice_of("B2")
    assert mobius_table(latb)[latb.top] == 3


def test_mobius_sums_vanish_on_intervals(lattice_of):
    for name in ["A3", "B3", "G2"]:
        _, lat = lattice_of(name)
        mu = mobius_table(lat)
        for upper in lat.flats:
            if upper.id == lat.bottom:
                continue
            total = sum(
                mu[z.id]
                for z in lat.flats
                if z.mask & upper.mask == z.mask
            )
            assert total == 0, (name, upper.id)


def test_mobius_sign_alternation(lattice_of):
    for name in ["A3", "B3", "D4", "G2", "F4"]:
        _, lat = lattice_of(name)
        mu = mobius_table(lat)
        for f in lat.flats:
            assert mu[f.id] != 0
            assert (mu[f.id] > 0) == (f.rank % 2 == 0), (name, f.id)


def test_char_poly_examples(lattice_of):
    _, lat1 = lattice_of("A1")
    assert char_poly(lat1) == (-1, 1)  # t - 1
    _, lat2 = lattice_of("A2")
    assert char_poly(lat2) == (2, -3, 1)  # t^2 - 3t + 2
    _, latb = lattice_of("B2")
    assert char_poly(latb) == (3, -4, 1)  # t^2 - 4t + 3


def test_char_poly_factors_for_reflection_arrangements(lattice_of):
    # the B3 characteristic polynomial is (t-1)(t-3)(t-5)
    _, lat = lattice_of("B3")
    assert char_poly(lat) == (-15, 23, -9, 1)


def test_whitney_examples(lattice_of):
    _, lat3 = lattice_of("A3")
    assert whitney_second(lat3, 1) == 7
    _, latd = lattice_of("D4")
    assert whitney_second(latd, 2) == 34
    _, latf = lattice_of("F4")
    assert whitney_second(latf, 2) == 122

    _, lat2 = lattice_of("A2")
    with pytest.raises(RankOutOfRange):
        whitney_second(lat2, 3)


def test_atom_mobius_equals_minus_one_and_w1(lattice_of):
    # |w_1| equals the number of hyperplanes
    for name in ["A3", "B3", "G2"]:
        rs, lat = lattice_of(name)
        assert char_poly(lat)[rs.rank - 1] == -rs.d


def test_resource_limit():
    rs = build_root_system("A3")
    with pytest.raises(ResourceLimit):
        build_lattice(rs, max_flats=3)


def test_budget_admits_requested_type():
    rs = build_root_system("B4")
    lat = build_lattice(rs, max_flats=200)
    assert len(lat) == 116


def test_budget_is_checked_against_the_exact_flat_count(monkeypatch):
    rs = build_root_system("B4")
    check_flat_budget(rs.ctype, 116)
    check_flat_budget(rs.ctype, None)
    monkeypatch.setattr("coxstrata.flats._sweep", _no_sweep)
    monkeypatch.setattr("coxstrata.flats._images", _no_sweep)
    for route in (build_lattice, enumerate_rank_counts, walk_rank_counts):
        with pytest.raises(ResourceLimit, match=r"^flat budget 115 exceeded: B4 has 116 flats$"):
            route(rs, max_flats=115)


def _no_sweep(*args, **kwargs):
    raise AssertionError("the flat sweep started")


def test_covers_connect_adjacent_ranks(lattice_of):
    for name in ["A3", "B3", "G2"]:
        _, lat = lattice_of(name)
        for lo, hi in lat.covers:
            assert lat.flat(hi).rank == lat.flat(lo).rank + 1
            assert leq(lat, lo, hi)
        # every non-bottom flat is covered by something below it
        covered = {hi for _, hi in lat.covers}
        assert covered == {f.id for f in lat.flats if f.id != lat.bottom}


# Every irreducible type with at most 5,000 flats.
SMALL_TYPES = [
    t
    for t in [f"A{r}" for r in range(1, 9)] + [f"B{r}" for r in range(2, 8)]
    + [f"C{r}" for r in range(2, 8)] + [f"D{r}" for r in range(3, 8)] + ["G2", "F4", "E6"]
    if sum(betti_row_closed_form(t)) <= 5000
]


def _lattice_by_expansion(rs):
    """Oracle: every flat expanded by _expand_flat, level by level, ids by (rank, mask)."""
    levels, children = [[0]], {}
    for _ in range(rs.rank):
        for mask in levels[-1]:
            children[mask] = _expand_flat(rs, mask)
        levels.append(sorted({c for mask in levels[-1] for c in children[mask]}))
    ids = {mask: i for i, mask in enumerate(m for level in levels for m in level)}
    covers = sorted((ids[m], ids[c]) for m, kids in children.items() for c in kids)
    return levels, covers


@pytest.mark.parametrize("name", SMALL_TYPES)
def test_walk_and_transported_covers_equal_expansion_of_every_flat(name, lattice_of):
    rs, lat = lattice_of(name)
    levels, covers = _lattice_by_expansion(rs)
    assert [[lat.flats[i].mask for i in ids] for ids in lat.by_rank] == levels
    assert lat.covers == covers


def _walk_by_orbit(rs, k):
    """Oracle: rank k walked by one BFS per W-orbit, each from the least
    parabolic flat that no earlier orbit met, orbits numbered by least place."""

    def fresh(cand, old):  # the distinct rows of cand that are no rows of old, sorted
        rows = np.concatenate([old, cand])
        is_cand = np.arange(len(rows)) >= len(old)
        order = np.lexsort((is_cand, *rows.T[::-1]))
        rows, is_cand = rows[order], is_cand[order]
        return rows[is_cand & np.append(True, (rows[1:] != rows[:-1]).any(axis=1))]

    simple_sets = (sum(1 << j for j in J) for J in combinations(range(rs.rank), k))
    todo, orbits = _keys(rs, sorted({parabolic_flat(rs, J) for J in simple_sets})), []
    while len(todo):
        prev, frontier, layers = todo[:0], todo[:1], []
        while len(frontier):
            layers.append(frontier)
            prev, frontier = frontier, fresh(_images(rs, frontier), np.concatenate([prev, frontier]))
        orbits.append(np.concatenate(layers))
        todo = fresh(todo, orbits[-1])
    walk = np.concatenate(orbits)
    order = np.lexsort(walk.T[::-1])
    label = np.repeat(np.arange(len(orbits)), [len(o) for o in orbits])[order]
    _, least, size = np.unique(label, return_index=True, return_counts=True)
    by_least = np.argsort(least)
    least, size, label = least[by_least], size[by_least], np.argsort(by_least)[label]
    keys = walk[order]
    first = sum(betti_row_closed_form(rs.ctype)[::-1][:k])
    return Level(first, keys, label, list(zip(least.tolist(), size.tolist(), key_masks(keys[least]))))


def _assert_same_level(level, oracle):
    assert level.first == oracle.first
    assert level.keys.dtype == oracle.keys.dtype and level.keys.shape == oracle.keys.shape
    assert level.keys.tobytes() == oracle.keys.tobytes()
    assert level.label.dtype == oracle.label.dtype == np.int64
    assert level.label.tolist() == oracle.label.tolist()
    assert level.orbits == oracle.orbits


@pytest.mark.parametrize(
    "name",
    [f"A{r}" for r in range(1, 7)]
    + [f"B{r}" for r in range(2, 6)]
    + [f"C{r}" for r in range(2, 6)]
    + ["D4", "D5", "G2", "F4", "E6"],
)
def test_one_bfs_per_rank_equals_one_bfs_per_orbit(name):
    rs = build_root_system(name)
    for k in range(rs.rank + 1):
        _assert_same_level(walk_level(rs, k), _walk_by_orbit(rs, k))


@pytest.mark.parametrize("name, orbits", [("A3", 1), ("B3", 2)])
def test_rank_one_starts_merge_into_their_orbits(name, orbits):
    # Each simple root is a rank-1 parabolic flat: 3 starts, one BFS.
    rs = build_root_system(name)
    assert len({parabolic_flat(rs, 1 << j) for j in range(rs.rank)}) == 3
    level = walk_level(rs, 1)
    assert len(level.orbits) == orbits
    assert sorted(set(level.label.tolist())) == list(range(orbits))
    _assert_same_level(level, _walk_by_orbit(rs, 1))


def test_moves_refuses_a_level_with_a_key_dropped():
    rs = build_root_system("B4")
    level = walk_level(rs, 2)
    assert _moves(rs, level).shape == (4, len(level.keys))
    broken = level._replace(keys=np.delete(level.keys, 5, axis=0), label=np.delete(level.label, 5))
    with pytest.raises(InvariantViolation, match="^reflection [0-3] of B4 moves a flat off its level$"):
        _moves(rs, broken)


def test_moves_refuses_an_orbit_split_in_two():
    rs = build_root_system("B4")
    level = walk_level(rs, 2)
    least = next(place for place, size, _ in level.orbits if size > 1)
    label = level.label.copy()
    label[least] = len(level.orbits)
    with pytest.raises(InvariantViolation, match="^reflection [0-3] of B4 moves a flat off its orbit$"):
        _moves(rs, level._replace(label=label))


def test_the_walk_does_not_import_numpy_ma():
    # A plain np.unique(x) imports numpy.ma on first use: that took the first
    # A6 walk of a fresh process from about 2 ms to 6-9 ms.
    code = (
        "import sys\n"
        "from coxstrata.flats import walk_rank_counts\n"
        "from coxstrata.rootsys import build_root_system\n"
        "walk_rank_counts(build_root_system('A6'))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(coxstrata.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("name", ["A4", "B4", "F4", "E8"])
def test_flat_id_finds_each_flat_of_its_rank_and_nothing_else(name):
    # E8's masks are two uint64 words; its ranks 0-2 stand for the whole lattice.
    rs = build_root_system(name)
    rng = random.Random(7)
    first = 0
    for k in range(3 if name == "E8" else rs.rank + 1):
        offset, level = flat_level(rs, k)
        assert offset == first
        places = rng.sample(range(len(level)), min(len(level), 5))
        for place, mask in ((p, level[p]) for p in places):
            assert flat_id(rs, k, mask) == offset + place
            if k < rs.rank:
                assert flat_id(rs, k + 1, mask) is None
            if bin(mask).count("1") > 2:
                # A flat with one root dropped is no flat.
                assert flat_id(rs, k, mask & (mask - 1)) is None
        first += len(level)


def test_workers_do_not_change_output():
    # D5 frontiers are large enough that the pool actually engages
    rs = build_root_system("D5")
    serial = enumerate_rank_counts(rs, workers=1)
    assert enumerate_rank_counts(rs, workers=2) == serial == walk_rank_counts(rs)


def _fraction_span(rows):
    """Oracle: membership in the rational span of rows, by Fraction elimination."""
    echelon = []

    def reduce(vec):
        v = [Fraction(x) for x in vec]
        for p, row in echelon:
            if v[p]:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    for r in rows:
        v = reduce(r)
        p = next((c for c, x in enumerate(v) if x), None)
        if p is not None:
            echelon.append((p, [x / v[p] for x in v]))
    return lambda vec: not any(reduce(vec))


def test_expand_flat_children_are_closures_of_one_more_root(lattice_of):
    """Children of every flat equal {closure(mask | 1 << p) : p outside the mask}."""
    for name in ["A3", "B3", "C3", "D4", "G2", "F4", "B4"]:
        rs, lat = lattice_of(name)
        roots = [rs.roots[i] for i in rs.positives]
        for flat in lat.flats:
            flat_roots = [roots[p] for p in rs.positions(flat.mask)]
            expected = set()
            covered = flat.mask
            for p in range(rs.d):
                # A root in an earlier closure has that same closure: both
                # spans have dimension rank + 1 and one contains the other.
                if covered >> p & 1:
                    continue
                in_span = _fraction_span(flat_roots + [roots[p]])
                child = sum(1 << x for x in range(rs.d) if in_span(roots[x]))
                expected.add(child)
                covered |= child
            children = _expand_flat(rs, flat.mask)
            assert len(children) == len(set(children)), (name, flat.id)
            assert set(children) == expected, (name, flat.id)


@pytest.mark.parametrize("name", ["A7", "B6", "C6", "D6"])
def test_enumeration_matches_closed_form_row(name):
    counts = enumerate_rank_counts(build_root_system(name))
    assert list(reversed(counts)) == betti_row_closed_form(name)


def test_magnitude_guard_rejects_oversized_kernel():
    rs = build_root_system("B3")
    assert rs._kernel_images([(1, 0, 0)]).shape == (rs.d, 1)
    for big in (1 << 61, 1 << 70):
        with pytest.raises(MagnitudeOverflow):
            rs._kernel_images([(big, 0, 0)])


def test_magnitude_guard_survives_python_O():
    code = (
        "from coxstrata.errors import MagnitudeOverflow\n"
        "from coxstrata.rootsys import build_root_system\n"
        "try:\n"
        "    build_root_system('B3')._kernel_images([(1 << 61, 0, 0)])\n"
        "except MagnitudeOverflow:\n"
        "    print('raised')\n"
    )
    src = str(Path(coxstrata.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "raised"


def test_enumerate_rank_counts_clamps_workers(monkeypatch):
    sizes = []

    class SerialPool:
        """Stands in for ProcessPoolExecutor: records its size, maps in process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self):
            pass

    # B5's largest level (330 flats) engages a pool of up to 5 workers.
    rs = build_root_system("B5")
    row = walk_rank_counts(rs)
    monkeypatch.setattr("coxstrata.flats.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    for workers, pool in [(0, []), (1, []), (3, [3]), (64, [4])]:
        sizes.clear()
        assert enumerate_rank_counts(rs, workers=workers) == row, workers
        assert sizes == pool, workers
    monkeypatch.setattr("os.cpu_count", lambda: None)
    sizes.clear()
    assert enumerate_rank_counts(rs, workers=8) == row
    assert sizes == []


def exponents(family: str, n: int) -> list[int]:
    """Exponents of the irreducible Weyl group of the given type."""
    if family == "A":
        return list(range(1, n + 1))
    if family in "BC":
        return list(range(1, 2 * n, 2))
    if family == "D":
        return list(range(1, 2 * n - 2, 2)) + [n - 1]
    return {
        ("E", 6): [1, 4, 5, 7, 8, 11],
        ("E", 7): [1, 5, 7, 9, 11, 13, 17],
        ("E", 8): [1, 7, 11, 13, 17, 19, 23, 29],
        ("F", 4): [1, 5, 7, 11],
        ("G", 2): [1, 5],
    }[family, n]


@pytest.mark.parametrize("name", ["A4", "B4", "C4", "D5", "G2", "F4", "D6", "E6"])
def test_mobius_is_product_over_classified_factors(name, lattice_of):
    # mu(0, X) = prod over the irreducible factors of X of prod(-e_i): a
    # route to mu through classify_subsystem that shares nothing with the
    # recursion.
    rs, lat = lattice_of(name)
    mu = mobius_table(lat)
    for f in lat.flats:
        expected = 1
        for family, n in classify_subsystem(rs, f.mask).factors:
            for e in exponents(family, n):
                expected *= -e
        assert mu[f.id] == expected, (name, f.id)


@pytest.mark.parametrize(
    "name",
    [f"A{r}" for r in range(1, 9)]
    + [f"B{r}" for r in range(2, 9)]
    + [f"C{r}" for r in range(2, 9)]
    + [f"D{r}" for r in range(3, 9)]
    + ["G2", "F4", "E6", "E7", "E8"],
)
def test_parabolic_flat_is_the_closure_of_its_simple_roots(name):
    rs = build_root_system(name)
    for simple_set in range(1 << rs.rank):
        J = [s for j, s in enumerate(rs.simples) if simple_set >> j & 1]
        assert parabolic_flat(rs, simple_set) == closure(rs, J), J
