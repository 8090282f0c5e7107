"""Invariant suites behind the `verify` command.

Each suite yields (check name, passed, detail) triples; the CLI prints
every check, one line each, and exits 1 if any of them failed.
Sample sizes are chosen so a quick battery stays desk-scale.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

from . import betti
from .cohomology import GradedClass, cup, factor_degree2, poincare_poly
from .flats import (
    BRUTE_FORCE_MAX_POSITIVE,
    brute_force_flats,
    build_lattice,
    char_poly,
    enumerable,
    enumerate_rank_counts,
    mobius_table,
    walk,
    whitney_second,
)
from .goodsub import (
    bds_candidates,
    bds_covers_all,
    is_k_step_good,
    param_F,
    param_G,
    star_sets,
)
from .rootsys import (
    CartanType,
    RootSystem,
    closure,
    is_closed,
    reflect,
    subsystem_rank,
)
from .strata import (
    ExtendedPoint,
    StratumResult,
    generate_relations,
    h_translate,
    membership,
    relation_support,
    stratum_of,
)
from .weyl import parabolic_summary, weyl_act_point

Check = tuple[str, bool, str]

POSITIVE_COUNTS = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "G": lambda r: 6,
    "F": lambda r: 24,
    "E": lambda r: {6: 36, 7: 63, 8: 120}[r],
}

QUICK_TYPES = [
    "A1", "A2", "A3", "A4",
    "B2", "B3", "B4",
    "C2", "C3", "C4",
    "D3", "D4",
    "G2",
]
FULL_EXTRA_TYPES = ["F4", "E6", "E7"]

# Lattices with more flats skip the Moebius recursion (quadratic) and cup products.
_SLOW_CHECK_FLAT_LIMIT = 6000


def _check(name: str, ok: bool, detail: str = "") -> Check:
    return (name, bool(ok), detail)


def rootsys_checks(rs: RootSystem, rng: random.Random) -> Iterator[Check]:
    family, r = rs.ctype.factors[0]
    yield _check(
        "positive-count", rs.d == POSITIVE_COUNTS[family](r), f"d={rs.d}"
    )
    theta = rs.roots[rs.highest]
    acc = [0] * rs.ambient
    for m, si in zip(rs.labels[1:], rs.simples):
        acc = [a + m * x for a, x in zip(acc, rs.roots[si])]
    yield _check("labels-sum-to-highest", tuple(acc) == theta)
    theta_coeffs = rs.simple_coefficients[rs.highest]
    coeff_ok = all(c <= t for cs in rs.simple_coefficients for c, t in zip(cs, theta_coeffs))
    yield _check("highest-root-dominates", coeff_ok)
    mirrors = rng.sample(range(2 * rs.d), min(4, 2 * rs.d))
    bij = all(
        sorted(reflect(rs, m, t) for t in range(2 * rs.d)) == list(range(2 * rs.d))
        for m in mirrors
    )
    yield _check("reflection-permutes-roots", bij)
    invol = all(
        reflect(rs, m, reflect(rs, m, t)) == t
        for m in mirrors
        for t in rng.sample(range(2 * rs.d), min(6, 2 * rs.d))
    )
    yield _check("reflection-involutive", invol)
    yield _check(
        "self-reflection-negates",
        all(reflect(rs, m, m) == rs.neg[m] for m in range(2 * rs.d)),
    )
    for trial in range(3):
        sample = rng.sample(range(rs.d), rng.randrange(0, min(rs.d, 4) + 1))
        mask = sum(1 << p for p in sample)
        clo = closure(rs, mask)
        ok = (
            closure(rs, clo) == clo
            and clo & mask == mask
            and is_closed(rs, clo)
            and subsystem_rank(rs, clo) == subsystem_rank(rs, mask)
        )
        yield _check(f"closure-props-{trial}", ok, f"mask={mask:#x}")


def lattice_checks(rs: RootSystem, counts: list[int], lat=None) -> Iterator[Check]:
    """Checks on the sweep's rank counts and, when given, the walk-built lattice.

    The Betti row of each route must equal the closed form; the Moebius
    checks also need a small lattice.
    """
    row = list(reversed(counts))
    expected = betti.betti_row_closed_form(rs.ctype)
    rows = [row] if lat is None else [row, lat.betti_row()]
    yield _check("betti-row-matches-closed-form", all(r == expected for r in rows), f"{rows}")
    yield _check("rank1-flats-are-root-lines", counts[1] == rs.d)
    yield _check("unique-bottom-and-top", counts[0] == 1 and counts[rs.rank] == 1)
    if lat is not None and len(lat) <= _SLOW_CHECK_FLAT_LIMIT:
        mu = mobius_table(lat)
        alt = all(
            (mu[f.id] > 0) == (f.rank % 2 == 0) and mu[f.id] != 0 for f in lat.flats
        )
        yield _check("mobius-sign-alternation", alt)
        atoms_ok = all(mu[a] == -1 for a in lat.atoms())
        yield _check("mobius-atoms", atoms_ok)
        cp = char_poly(lat)
        yield _check("char-poly-monic", cp[rs.rank] == 1, f"{cp}")
    family = rs.ctype.factors[0][0]
    if family == "A":
        yield _check(
            "bell-row-sum", sum(row) == betti.bell(rs.rank + 1), f"sum={sum(row)}"
        )
    if family in ("B", "C"):
        yield _check(
            "dowling-row-sum", sum(row) == betti.dowling(rs.rank), f"sum={sum(row)}"
        )


def poset_dictionary_checks(rs: RootSystem, lat) -> Iterator[Check]:
    if rs.d > BRUTE_FORCE_MAX_POSITIVE:
        return
    brute = brute_force_flats(rs)
    enum = [[lat.flats[i].mask for i in ids] for ids in lat.by_rank]
    yield _check("flats-equal-maximal-closed-subsystems", brute == enum)


def goodsub_checks(rs: RootSystem, lat) -> Iterator[Check]:
    cands = bds_candidates(rs)
    yield _check(
        "affine-candidates-are-good",
        all(is_k_step_good(rs, m, 1) for _, m in cands),
        f"{len(cands)} candidates",
    )
    yield _check("affine-candidates-cover-orbits", bds_covers_all(rs, lat.level(rs.rank - 1)))
    family, r = rs.ctype.factors[0]
    # The descriptors are the d positive roots and star_sets searches their
    # C(d, k) subsets, so the check runs only while d stays small.
    if family in "ABCD" and rs.d <= 16:
        good = True
        for k in range(r + 1):
            sets = list(star_sets(rs.ctype, r - k))
            if len(sets) != whitney_second(lat, k):
                good = False
                break
            for P in sets:
                if param_F(rs, param_G(rs, P)) != P:
                    good = False
                    break
            for fid in lat.by_rank[r - k]:
                m = lat.flats[fid].mask
                if param_G(rs, param_F(rs, m)) != m:
                    good = False
                    break
        yield _check("parametrization-bijections", good)


def weyl_checks(rs: RootSystem, counts: list[int], levels) -> Iterator[Check]:
    summary = parabolic_summary(rs, levels)
    sizes = [sum(rec.size for rec in recs) for recs in summary.per_rank]
    yield _check("orbit-sizes-sum-to-rank-counts", sizes == counts, f"{sizes}")
    divides = all(
        rec.size * rec.stabilizer_order == summary.weyl_order
        for recs in summary.per_rank
        for rec in recs
    )
    yield _check("orbit-stabilizer-relation", divides)
    yield _check(
        "class-count-bound",
        summary.class_count <= 2**rs.rank,
        f"{summary.class_count} <= {2 ** rs.rank}",
    )


def cohomology_checks(rs: RootSystem, lat, rng: random.Random, triples: int = 300) -> Iterator[Check]:
    n = len(lat.flats)
    ok = True
    for _ in range(triples):
        a, b, c = (GradedClass.basis(lat, rng.randrange(n)) for _ in range(3))
        if cup(cup(a, b), c) != cup(a, cup(b, c)) or cup(a, b) != cup(b, a):
            ok = False
            break
    yield _check("ring-axioms-sampled", ok, f"{triples} triples")
    gen_ok = True
    for f in lat.flats:
        atoms = factor_degree2(lat, f.id)
        prod = GradedClass.basis(lat, lat.bottom)
        for a in atoms:
            prod = cup(prod, GradedClass.basis(lat, a))
        if prod != GradedClass.basis(lat, f.id):
            gen_ok = False
            break
    yield _check("degree2-generation", gen_ok)
    yield _check(
        "poincare-equals-betti-row",
        list(poincare_poly(lat)) == lat.betti_row(),
    )


def strata_checks(rs: RootSystem, lat, rng: random.Random, samples: int = 60) -> Iterator[Check]:
    rels = generate_relations(rs)
    yield _check("relation-count", len(rels) == rs.d - rs.rank)
    vanish = all(
        all(
            sum(c * _root_value(rs, p, h) for p, c in enumerate(rel) if c) == 0
            for rel in rels
        )
        for h in _h_samples(rs, rng, 3)
    )
    yield _check("relations-vanish-on-embedded-space", vanish)
    if rs.d <= BRUTE_FORCE_MAX_POSITIVE:
        support_ok = True
        for fid in lat.by_rank[rs.rank - 1]:
            good_mask = lat.flats[fid].mask
            for rel in rels:
                outside = [p for p in relation_support(rel) if not good_mask >> p & 1]
                if outside and len(outside) < 2:
                    support_ok = False
        yield _check("relation-support-dichotomy", support_ok)
    ok = True
    for _ in range(samples):
        point, fid = _random_member(rs, lat, rng)
        res = membership(rs, lat, point)
        if not isinstance(res, StratumResult) or res.flat_id != fid:
            ok = False
            break
        shifted = h_translate(rs, point, [rng.randrange(-3, 4) for _ in range(rs.ambient)])
        if stratum_of(rs, lat, shifted) != fid:
            ok = False
            break
        word = [rng.randrange(1, rs.rank + 1) for _ in range(rng.randrange(0, 4))]
        moved = weyl_act_point(rs, word, point)
        if not isinstance(membership(rs, lat, moved), StratumResult):
            ok = False
            break
    yield _check("membership-closure-under-actions", ok, f"{samples} samples")


def _root_value(rs: RootSystem, position: int, h: list[Fraction]) -> Fraction:
    root = rs.roots[rs.positives[position]]
    return sum(Fraction(a) * c for a, c in zip(root, h))


def _h_samples(rs: RootSystem, rng: random.Random, count: int):
    return [
        [Fraction(rng.randrange(-5, 6)) for _ in range(rs.ambient)] for _ in range(count)
    ]


def _random_member(rs: RootSystem, lat, rng: random.Random):
    fid = rng.randrange(len(lat.flats))
    flat = lat.flats[fid]
    values: list = [None] * rs.d
    h = [Fraction(rng.randrange(-4, 5)) for _ in range(rs.ambient)]
    for p in rs.positions(flat.mask):
        values[p] = _root_value(rs, p, h)
    return ExtendedPoint(tuple(values)), fid


def verify_type(type_str: str, level: str = "quick", allow_huge: bool = False) -> list[Check]:
    """Run every applicable invariant suite for one type.

    The rank counts come from the closure sweep, a route independent of
    the W-orbit walk that builds the lattice and the orbit table; the
    checks compare both with the closed-form row; each rank is walked once,
    and the goodsub and orbit checks read the lattice's levels.  E7 and E8
    build no lattice: the orbit checks read walk(rs), one group at a time.
    `flats.enumerable` refuses a type over the flat budget before its root system is built.
    """
    rng = random.Random(0)
    rs, budget = enumerable(CartanType.parse(type_str), allow_huge)
    checks = list(rootsys_checks(rs, rng))
    counts = enumerate_rank_counts(rs, max_flats=budget)
    if str(rs.ctype) in ("E7", "E8"):
        checks += list(lattice_checks(rs, counts))
        checks += list(weyl_checks(rs, counts, walk(rs)))
    else:
        lat = build_lattice(rs, max_flats=budget)
        checks += list(lattice_checks(rs, counts, lat))
        checks += list(poset_dictionary_checks(rs, lat))
        checks += list(goodsub_checks(rs, lat))
        checks += list(weyl_checks(rs, counts, map(lat.level, range(rs.rank + 1))))
        if len(lat) <= _SLOW_CHECK_FLAT_LIMIT:
            triples = 300 if level == "quick" else 2000
            checks += list(cohomology_checks(rs, lat, rng, triples))
        samples = 60 if level == "quick" else 300
        checks += list(strata_checks(rs, lat, rng, samples))
    return [(f"{rs.ctype}:{name}", ok, detail) for name, ok, detail in checks]


def verify_battery(level: str = "quick", allow_huge: bool = False) -> list[Check]:
    """The standard battery: quick covers r <= 4 plus G2; full adds F4, E6, E7.

    With allow_huge, full also runs E8 and no type has a flat budget.
    """
    types = list(QUICK_TYPES)
    if level == "full":
        types += FULL_EXTRA_TYPES + (["E8"] if allow_huge else [])
    out: list[Check] = []
    for t in types:
        out.extend(verify_type(t, level, allow_huge=allow_huge))
    return out
