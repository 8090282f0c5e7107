"""Acceptance suite: one test per criterion, with a pass/fail line each.

Criterion 2's huge-type row is opt-in: set COXSTRATA_E8=1 to run the
full enumeration and the orbit walk (about 9 minutes of CPU; memory
stays per-level, under 400 MB).
"""

from __future__ import annotations

import os
import random
import time
from fractions import Fraction
import pytest

from conftest import apply_perm_to_mask, pos_of_coords, positive_perms
from coxstrata.betti import (
    EXCEPTIONAL_ROWS,
    bell,
    betti_row_closed_form,
    dowling,
    series_coefficients,
)
from coxstrata.cohomology import GradedClass, cup, factor_degree2, poincare_poly
from coxstrata.flats import (
    brute_force_flats,
    build_lattice,
    enumerate_rank_counts,
    join,
    leq,
    walk,
    whitney_second,
)
from coxstrata.goodsub import (
    bds_candidates,
    bds_covers_all,
    is_k_step_good,
    param_F,
    param_G,
    star_sets,
)
from coxstrata.linalg import IncrementalSpan
from coxstrata.rootsys import build_root_system, subsystem_rank
from coxstrata.strata import (
    ExtendedPoint,
    Functional,
    StratumResult,
    h_translate,
    limit_point,
    membership,
    stratum_of,
)
from coxstrata.weyl import parabolic_summary, weyl_act_point

TABLE_A = {1: [1, 1], 2: [1, 3, 1], 3: [1, 7, 6, 1], 4: [1, 15, 25, 10, 1], 5: [1, 31, 90, 65, 15, 1]}
TABLE_BC = {2: [1, 4, 1], 3: [1, 13, 9, 1], 4: [1, 40, 58, 16, 1], 5: [1, 121, 330, 170, 25, 1]}
TABLE_D = {4: [1, 24, 34, 12, 1], 5: [1, 81, 190, 110, 20, 1], 6: [1, 268, 1051, 920, 275, 30, 1]}

RANK_LE_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4", "G2", "F4"]
RANK_LE_3 = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2"]


def _report(n: int, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_classical_tables():
    start = time.monotonic()
    for r, row in TABLE_A.items():
        lat = build_lattice(build_root_system(f"A{r}"))
        assert lat.betti_row() == row, f"A{r}"
    for family in ("B", "C"):
        for r, row in TABLE_BC.items():
            lat = build_lattice(build_root_system(f"{family}{r}"))
            assert lat.betti_row() == row, f"{family}{r}"
    for r, row in TABLE_D.items():
        lat = build_lattice(build_root_system(f"D{r}"))
        assert lat.betti_row() == row, f"D{r}"
    elapsed = time.monotonic() - start
    _report(1, elapsed < 30, f"classical tables exact in {elapsed:.1f}s (< 30s)")


def test_criterion_2_exceptional_tables(lattice_of):
    start = time.monotonic()
    for name in ("G2", "F4", "E6"):
        counts = enumerate_rank_counts(build_root_system(name))
        assert list(reversed(counts)) == list(EXCEPTIONAL_ROWS[name]), name
    small_elapsed = time.monotonic() - start
    assert small_elapsed < 60, f"G2+F4+E6 took {small_elapsed:.1f}s"

    start = time.monotonic()
    counts = enumerate_rank_counts(build_root_system("E7"))
    e7_elapsed = time.monotonic() - start
    assert list(reversed(counts)) == list(EXCEPTIONAL_ROWS["E7"])
    assert e7_elapsed < 900, f"E7 took {e7_elapsed:.1f}s"
    _report(2, True, f"G2/F4/E6 in {small_elapsed:.1f}s (<60s), E7 in {e7_elapsed:.1f}s (<900s)")


@pytest.mark.skipif(
    not os.environ.get("COXSTRATA_E8"),
    reason="extended opt-in criterion: set COXSTRATA_E8=1 (about 9 minutes of CPU)",
)
def test_criterion_2_extended_e8_row():
    rs = build_root_system("E8")
    counts = enumerate_rank_counts(rs, max_flats=None)
    row = list(reversed(counts))
    _report(2, row == list(EXCEPTIONAL_ROWS["E8"]), f"E8 row {row}")
    sizes = [sum(rec.size for rec in recs) for recs in parabolic_summary(rs, walk(rs)).per_rank]
    orbit_row = list(reversed(sizes))
    _report(2, orbit_row == list(EXCEPTIONAL_ROWS["E8"]), f"E8 orbit sizes {orbit_row}")


def test_criterion_3_triple_agreement():
    tables = {f: series_coefficients(f, 7) for f in "ABD"}
    min_rank = {"A": 1, "B": 2, "C": 2, "D": 3}
    for family in "ABCD":
        series_family = "B" if family == "C" else family
        for r in range(min_rank[family], 8):
            closed = betti_row_closed_form(f"{family}{r}")
            assert tables[series_family][r] == closed, (family, r)
            if r <= 6:
                lat_row = list(
                    reversed(enumerate_rank_counts(build_root_system(f"{family}{r}")))
                )
                assert lat_row == closed, (family, r)
    _report(3, True, "closed form = series (r<=7) = enumeration (r<=6), A/B/C/D, exact")


def test_criterion_4_bell_dowling_sums():
    for r in range(1, 8):
        assert sum(betti_row_closed_form(f"A{r}")) == bell(r + 1), r
    for r in range(2, 8):
        assert sum(betti_row_closed_form(f"B{r}")) == dowling(r), r
    _report(4, True, "row sums are Bell(r+1) and Dowling(r) for r<=7, exact")


def test_criterion_5_parametrization_bijections(lattice_of):
    cases = (
        [(f"A{r}", r) for r in range(1, 6)]
        + [(f"B{r}", r) for r in (2, 3, 4)]
        + [(f"C{r}", r) for r in (2, 3, 4)]
        + [("D3", 3), ("D4", 4)]
    )
    for name, r in cases:
        rs, lat = lattice_of(name)
        for k in range(r + 1):
            sets = list(star_sets(name, r - k))
            assert len(sets) == betti_row_closed_form(name)[k], (name, k)
            for P in sets:
                assert param_F(rs, param_G(rs, P)) == P, (name, k, sorted(P))
            for fid in lat.by_rank[r - k]:
                mask = lat.flats[fid].mask
                assert param_G(rs, param_F(rs, mask)) == mask, (name, k, fid)
    d4, _ = lattice_of("D4")
    fixture = frozenset({(1, 2, "-"), (2, 3, "-"), (3, 4, "-"), (3, 4, "+")})
    assert param_F(d4, d4.full_mask) == fixture
    _report(5, True, "G/F round trips and counts over all desk ranks, D4 fixture included")


def test_criterion_6_affine_candidate_coverage(lattice_of):
    for name in RANK_LE_4:
        rs, lat = lattice_of(name)
        assert all(is_k_step_good(rs, m, 1) for _, m in bds_candidates(rs)), name
        assert bds_covers_all(rs, lat.level(rs.rank - 1)), name
    _report(6, True, f"coprime-pair candidates good + cover all orbits: {', '.join(RANK_LE_4)}")


def test_criterion_7_poset_dictionary(lattice_of):
    for name in RANK_LE_3:
        rs, lat = lattice_of(name)
        enum = [[lat.flats[i].mask for i in ids] for ids in lat.by_rank]
        assert brute_force_flats(rs) == enum, name
        # order contract on all pairs: containment == span inclusion
        flats = lat.flats
        for x in flats:
            assert x.rank == subsystem_rank(rs, x.mask)
            for y in flats:
                span_incl = subsystem_rank(rs, x.mask | y.mask) == y.rank
                assert leq(lat, x.id, y.id) == span_incl, (name, x.id, y.id)
        # equivariance of the join on all pairs, for every generator
        perms = positive_perms(rs)
        for perm in perms:
            image = {f.id: lat.id_of[apply_perm_to_mask(perm, f.mask)] for f in flats}
            for x in flats:
                assert lat.flat(image[x.id]).rank == x.rank
                for y in flats:
                    assert image[join(lat, x.id, y.id)] == join(lat, image[x.id], image[y.id])
    _report(7, True, f"flats = maximal closed subsystems + equivariant order iso: {', '.join(RANK_LE_3)}")


def test_criterion_8_cohomology_ring(lattice_of):
    rng = random.Random(41)
    triples = 10_000
    for name in RANK_LE_4:
        rs, lat = lattice_of(name)
        n = len(lat)
        for _ in range(triples):
            a, b, c = (GradedClass.basis(lat, rng.randrange(n)) for _ in range(3))
            ab = cup(a, b)
            assert ab == cup(b, a)
            assert cup(ab, c) == cup(a, cup(b, c))
        for f in lat.flats:
            atoms = factor_degree2(lat, f.id)
            prod = GradedClass.basis(lat, lat.bottom)
            for atom in atoms:
                prod = cup(prod, GradedClass.basis(lat, atom))
            assert prod == GradedClass.basis(lat, f.id), (name, f.id)
        assert list(poincare_poly(lat)) == betti_row_closed_form(name), name
    _report(8, True, f"ring axioms on {triples} triples/type, degree-2 generation, Poincare rows")


def test_criterion_9_orbit_bookkeeping(lattice_of):
    for name in RANK_LE_4 + ["E6"]:
        rs, lat = lattice_of(name)
        summary = parabolic_summary(rs, map(lat.level, range(rs.rank + 1)))
        for rank, recs in enumerate(summary.per_rank):
            total = sum(rec.size for rec in recs)
            assert total == whitney_second(lat, rs.rank - rank), (name, rank)
            for rec in recs:
                assert rec.size * rec.stabilizer_order == summary.weyl_order
        assert summary.class_count <= 2**rs.rank, name
    _report(9, True, "orbit sums = W_k and class count <= 2^r up to rank 4 plus G2, F4, E6")


def test_criterion_10_membership(lattice_of):
    rs, lat = lattice_of("A2")
    p1 = pos_of_coords(rs, (1, -1, 0))
    p2 = pos_of_coords(rs, (0, 1, -1))
    pt = pos_of_coords(rs, (1, 0, -1))

    def point(x1, x2, x12):
        vals = [None] * 3
        for pos, v in ((p1, x1), (p2, x2), (pt, x12)):
            vals[pos] = None if v is None else Fraction(v)
        return ExtendedPoint(tuple(vals))

    def hypersurface(q):
        hom = lambda v: (1, v) if v is not None else (0, 1)
        x0, x1 = hom(q.values[p1])
        y0, y1 = hom(q.values[p2])
        z0, z1 = hom(q.values[pt])
        return x1 * y0 * z0 + x0 * y1 * z0 - x0 * y0 * z1

    fixtures = [
        (point(1, 2, 3), True),
        (point(1, 2, 5), False),
        (point(1, 2, None), False),
        (point(None, None, 7), True),
        (point(None, None, None), True),
    ]
    for q, expected in fixtures:
        got = isinstance(membership(rs, lat, q), StratumResult)
        assert got == expected == (hypersurface(q) == 0)
    assert lat.flat(stratum_of(rs, lat, point(None, None, 7))).mask == 1 << pt
    assert stratum_of(rs, lat, point(None, None, None)) == lat.bottom

    # randomized closure tests: limit_point / h_translate / weyl action
    rng = random.Random(43)
    samples = 1000
    for name in RANK_LE_3:
        rs, lat = lattice_of(name)
        for _ in range(samples):
            fid = rng.randrange(len(lat))
            flat = lat.flat(fid)
            h = [Fraction(rng.randrange(-4, 5)) for _ in range(rs.ambient)]
            vals = [None] * rs.d
            for p in rs.positions(flat.mask):
                root = rs.roots[rs.positives[p]]
                vals[p] = sum(Fraction(a) * c for a, c in zip(root, h))
            q = ExtendedPoint(tuple(vals))
            res = membership(rs, lat, q)
            assert isinstance(res, StratumResult) and res.flat_id == fid
            moved = h_translate(rs, q, [rng.randrange(-3, 4) for _ in range(rs.ambient)])
            word = [rng.randrange(1, rs.rank + 1) for _ in range(rng.randrange(0, 4))]
            moved = weyl_act_point(rs, word, moved)
            res2 = membership(rs, lat, moved)
            assert isinstance(res2, StratumResult)
            assert lat.flat(res2.flat_id).rank == flat.rank
            if flat.rank == rs.rank - 1:
                outside = [
                    i for i in rs.positives
                    if not flat.mask >> rs.pos_of[i] & 1
                ]
                lam0 = outside[rng.randrange(len(outside))]
                span = IncrementalSpan(rs.ambient)
                basis_pos = [
                    p for p in rs.positions(flat.mask)
                    if span.add(rs.roots[rs.positives[p]])
                ]
                witness = Functional(tuple(basis_pos), tuple(q.values[p] for p in basis_pos))
                approach = limit_point(rs, witness, lam0, rng.randrange(50, 500))
                res3 = membership(rs, lat, approach)
                assert isinstance(res3, StratumResult) and res3.flat_id == lat.top
    _report(10, True, f"A2 fixtures (hypersurface-checked) + {samples} samples/type, r<=3")
