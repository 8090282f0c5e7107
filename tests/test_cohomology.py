from __future__ import annotations

import random

import pytest

from coxstrata.cohomology import GradedClass, cup, factor_degree2, poincare_poly
from coxstrata.errors import LatticeMismatch
from coxstrata.flats import build_lattice
from coxstrata.rootsys import build_root_system


def test_cup_examples(lattice_of):
    rs, lat = lattice_of("A2")
    a1 = lat.atom_of(rs.index[(1, -1, 0)])
    a2 = lat.atom_of(rs.index[(0, 1, -1)])
    x1, x2 = GradedClass.basis(lat, a1), GradedClass.basis(lat, a2)
    assert cup(x1, x2) == GradedClass.basis(lat, lat.top)
    assert cup(x1, x1).is_zero()
    unit = GradedClass.basis(lat, lat.bottom)
    for fid in range(len(lat)):
        assert cup(unit, GradedClass.basis(lat, fid)) == GradedClass.basis(lat, fid)


def test_cup_bilinearity(lattice_of):
    _, lat = lattice_of("B2")
    a, b = lat.atoms()[:2]
    x = GradedClass.basis(lat, a).scale(2) + GradedClass.basis(lat, b).scale(-1)
    y = GradedClass.basis(lat, a) + GradedClass.basis(lat, b).scale(3)
    direct = cup(x, y)
    expanded = (
        cup(GradedClass.basis(lat, a), GradedClass.basis(lat, a)).scale(2)
        + cup(GradedClass.basis(lat, a), GradedClass.basis(lat, b)).scale(6)
        + cup(GradedClass.basis(lat, b), GradedClass.basis(lat, a)).scale(-1)
        + cup(GradedClass.basis(lat, b), GradedClass.basis(lat, b)).scale(-3)
    )
    assert direct == expanded


def test_grading_and_top_vanishing(lattice_of):
    rng = random.Random(17)
    for name in ["A3", "B3", "G2"]:
        rs, lat = lattice_of(name)
        n = len(lat)
        for _ in range(200):
            x = GradedClass.basis(lat, rng.randrange(n))
            y = GradedClass.basis(lat, rng.randrange(n))
            p = cup(x, y)
            dx, dy = x.degree(), y.degree()
            if not p.is_zero():
                assert p.degree() == dx + dy
            if dx + dy > 2 * rs.rank:
                assert p.is_zero()


def test_ring_axioms_random(lattice_of):
    rng = random.Random(19)
    for name in ["A3", "B3", "D4", "G2"]:
        _, lat = lattice_of(name)
        n = len(lat)
        for _ in range(500):
            a, b, c = (GradedClass.basis(lat, rng.randrange(n)) for _ in range(3))
            assert cup(a, b) == cup(b, a)
            assert cup(cup(a, b), c) == cup(a, cup(b, c))


def test_poincare_examples(lattice_of):
    _, lat1 = lattice_of("A1")
    assert poincare_poly(lat1) == (1, 1)
    _, lat2 = lattice_of("A2")
    assert poincare_poly(lat2) == (1, 3, 1)
    _, latf = lattice_of("F4")
    assert poincare_poly(latf) == (1, 120, 122, 24, 1)


def test_factor_degree2(lattice_of):
    for name in ["A2", "A3", "B2", "B3", "C3", "D4", "G2"]:
        _, lat = lattice_of(name)
        for f in lat.flats:
            atoms = factor_degree2(lat, f.id)
            assert len(atoms) == f.rank
            prod = GradedClass.basis(lat, lat.bottom)
            for a in atoms:
                prod = cup(prod, GradedClass.basis(lat, a))
            assert prod == GradedClass.basis(lat, f.id), (name, f.id)
    _, lat2 = lattice_of("A2")
    assert factor_degree2(lat2, lat2.bottom) == []


def test_degree2_dimension_matches_f(lattice_of):
    from coxstrata.betti import betti_row_closed_form

    for name in ["A3", "B3", "D4", "F4"]:
        rs, lat = lattice_of(name)
        row = betti_row_closed_form(name)
        for k in range(rs.rank + 1):
            dim = len(lat.by_rank[rs.rank - k])
            assert dim == row[k]


def test_lattice_mismatch():
    rs = build_root_system("A2")
    lat_a = build_lattice(rs)
    lat_b = build_lattice(rs)
    with pytest.raises(LatticeMismatch):
        cup(GradedClass.basis(lat_a, 0), GradedClass.basis(lat_b, 0))


def test_zero_class_and_degree(lattice_of):
    _, lat = lattice_of("A2")
    zero = GradedClass.zero(lat)
    assert zero.is_zero() and zero.degree() is None
    mixed = GradedClass.basis(lat, lat.bottom) + GradedClass.basis(lat, lat.top)
    assert mixed.degree() is None
    assert GradedClass.basis(lat, lat.top).degree() == 2 * lat.rs.rank
