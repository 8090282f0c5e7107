"""Reflection-group action on roots, flats and points.

Group elements are never materialized: everything is driven by the
simple-reflection generators, as the root system's `gather` table of
position permutations, and the orbit-stabilizer relation for stabilizer
orders.  `weyl_act_point` reads one row of that table per letter.
Every W-orbit comes from the one numpy orbit engine in `flats`, as a
walked `flats.Level`: `orbit_types` types each of its orbits once, and
`orbit_of_flat` and `flat_types` read the levels that the lattice keeps
(`IntersectionLattice.level`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvariantViolation, LatticeMismatch, MalformedWord
from .flats import IntersectionLattice, Level
from .rootsys import CartanType, RootSystem, build_root_system, classify_subsystem


def weyl_order(ctype: CartanType | str) -> int:
    """Order of the reflection group: prod(e_i + 1) over each factor's exponents
    (Solomon 1963), the dual partition of its positive roots by height: e_i
    counts the heights of at least i positive roots (Kostant 1959)."""
    if isinstance(ctype, str):
        ctype = CartanType.parse(ctype)
    order = 1
    for family, r in ctype.factors:
        by_height = Counter(build_root_system(CartanType(((family, r),))).heights)
        for i in range(1, r + 1):
            order *= 1 + sum(n >= i for h, n in by_height.items() if h > 0)
    return order


def orbit_of_flat(rs: RootSystem, lat: IntersectionLattice, fid: int) -> set[int]:
    """The W-orbit of flat fid: the ids of its rank that carry its label."""
    if lat.rs.ctype != rs.ctype:
        raise LatticeMismatch(f"lattice of {lat.rs.ctype} given with a root system of {rs.ctype}")
    level = lat.level(lat.flat(fid).rank)
    label = level.label
    return set((level.first + np.flatnonzero(label == label[fid - level.first])).tolist())


@dataclass(frozen=True)
class OrbitRecord:
    representative: int
    size: int
    stabilizer_order: int
    cartan_type: CartanType


@dataclass(frozen=True)
class OrbitSummary:
    """W-orbit decomposition of the flats, grouped by flat rank."""

    per_rank: tuple[tuple[OrbitRecord, ...], ...]
    weyl_order: int

    @property
    def class_count(self) -> int:
        return sum(len(rows) for rows in self.per_rank)


def orbit_types(rs: RootSystem, level: Level) -> list[CartanType]:
    """The Cartan type of each W-orbit of a walked level, classified once, at
    its least flat: W permutes the roots, so a flat's type is its orbit's."""
    return [classify_subsystem(rs, mask) for _, _, mask in level.orbits]


def flat_types(lat: IntersectionLattice) -> Iterator[CartanType]:
    """The Cartan type of every flat, in id order, by its W-orbit's type."""
    for level in map(lat.level, range(len(lat.by_rank))):
        yield from map(orbit_types(lat.rs, level).__getitem__, level.label.tolist())


def parabolic_summary(rs: RootSystem, levels: Iterable[Level]) -> OrbitSummary:
    """One record per W-orbit of flats, from the walk's levels of ranks 0..r;
    a representative is its orbit's least mask."""
    w = weyl_order(rs.ctype)

    def records(level: Level) -> tuple[OrbitRecord, ...]:
        out = []
        for (place, size, _), ctype in zip(level.orbits, orbit_types(rs, level)):
            if w % size:
                raise InvariantViolation("orbit size must divide the group order")
            out.append(OrbitRecord(level.first + place, size, w // size, ctype))
        return tuple(out)

    # map drops each level before the next is walked; a loop would hold two (E8: 250 MB, not 199).
    return OrbitSummary(tuple(map(records, levels)), w)


def weyl_act_point(rs: RootSystem, word: Sequence[int], point):
    """Act on an extended point by a word in simple reflections.

    The word lists 1-based simple-root indices; the leftmost letter acts
    last.  The component at a positive root lambda becomes the component
    at w^-1(lambda), negated when w^-1(lambda) is negative (with -inf
    treated as inf).  Each letter reads its row of `rs.gather`.
    """
    from .strata import ExtendedPoint

    for letter in word:
        if not 1 <= letter <= rs.rank:
            raise MalformedWord(f"letter {letter} outside 1..{rs.rank}")
    point.check_length(rs.d)
    values = list(point.values)
    for letter in reversed(word):
        # s_i permutes the positive roots other than alpha_i and negates alpha_i.
        values = [values[q] for q in rs.gather[letter - 1].tolist()]
        own = rs.pos_of[rs.simples[letter - 1]]
        values[own] = None if values[own] is None else -values[own]
    return ExtendedPoint(tuple(values))
