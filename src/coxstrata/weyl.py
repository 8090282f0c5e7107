"""Reflection-group action on roots, flats and points.

Group elements are never materialized: everything is driven by the
simple-reflection generators, with orbit BFS over flats and the
orbit-stabilizer relation for stabilizer orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Sequence

from .errors import InvariantViolation, MalformedWord
from .flats import IntersectionLattice
from .rootsys import CartanType, RootSystem, classify_subsystem

_EXCEPTIONAL_ORDERS = {
    ("E", 6): 51840,
    ("E", 7): 2903040,
    ("E", 8): 696729600,
    ("F", 4): 1152,
    ("G", 2): 12,
}


def weyl_order(ctype: CartanType | str) -> int:
    """Order of the reflection group of the given type."""
    if isinstance(ctype, str):
        ctype = CartanType.parse(ctype)
    order = 1
    for family, r in ctype.factors:
        if family == "A":
            order *= factorial(r + 1)
        elif family in ("B", "C"):
            order *= 2**r * factorial(r)
        elif family == "D":
            order *= 2 ** (r - 1) * factorial(r)
        else:
            order *= _EXCEPTIONAL_ORDERS[(family, r)]
    return order


def _simple_perms(rs: RootSystem) -> list[list[int]]:
    return [rs.positive_perm(s) for s in rs.simples]


def orbit_of_flat(rs: RootSystem, lat: IntersectionLattice, fid: int) -> set[int]:
    """Flat ids reachable from fid under the simple reflections."""
    perms = _simple_perms(rs)
    start = lat.flat(fid)
    seen_masks = {start.mask}
    orbit = {fid}
    frontier = [start.mask]
    while frontier:
        new = []
        for mask in frontier:
            for perm in perms:
                image = rs.apply_perm_to_mask(perm, mask)
                if image not in seen_masks:
                    seen_masks.add(image)
                    orbit.add(lat.id_of[image])
                    new.append(image)
        frontier = new
    return orbit


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


def parabolic_summary(rs: RootSystem, lat: IntersectionLattice) -> OrbitSummary:
    """Partition all flats into orbits; one record per orbit.

    Orbit representatives are the least unvisited flat ids, so the
    summary is deterministic.  Stabilizer orders come from the
    orbit-stabilizer relation with the hardcoded group order.
    """
    w = weyl_order(rs.ctype)
    per_rank = []
    for rank_ids in lat.by_rank:
        remaining = set(rank_ids)
        records = []
        while remaining:
            rep = min(remaining)
            orbit = orbit_of_flat(rs, lat, rep)
            if not orbit <= remaining:
                raise InvariantViolation("orbit escaped its rank level")
            size = len(orbit)
            if w % size:
                raise InvariantViolation("orbit size must divide the group order")
            records.append(
                OrbitRecord(rep, size, w // size, classify_subsystem(rs, lat.flat(rep).mask))
            )
            remaining -= orbit
        per_rank.append(tuple(records))
    return OrbitSummary(tuple(per_rank), w)


def weyl_act_point(rs: RootSystem, word: Sequence[int], point):
    """Act on an extended point by a word in simple reflections.

    The word lists 1-based simple-root indices; the leftmost letter acts
    last.  The component at a positive root lambda becomes the component
    at w^-1(lambda), negated when w^-1(lambda) is negative (with -inf
    treated as inf).
    """
    from .strata import ExtendedPoint

    for letter in word:
        if not 1 <= letter <= rs.rank:
            raise MalformedWord(f"letter {letter} outside 1..{rs.rank}")
    values = list(point.values)
    for letter in reversed(word):
        mirror = rs.simples[letter - 1]
        perm = rs.reflection_perm(mirror)
        new_values = []
        for pos in range(rs.d):
            image = perm[rs.positives[pos]]
            qpos = rs.pos_of.get(image)
            if qpos is not None:
                new_values.append(values[qpos])
            else:
                val = values[rs.pos_of[rs.neg[image]]]
                new_values.append(None if val is None else -val)
        values = new_values
    return ExtendedPoint(tuple(values))
