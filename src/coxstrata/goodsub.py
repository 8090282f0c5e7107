"""Maximal closed root subsystems and their classical parametrizations.

A rank-(r-k) subsystem is "k-step good" exactly when it is span-closed,
so goodness tests are one closure call.  Candidates of rank r-1 are
produced Borel-de Siebenthal style by deleting coprime-label node pairs
from the affine diagram.  For classical types, k-step good subsystems
are encoded by small descriptor sets subject to per-type star
conditions; descriptors are:

    type A    (i, j)       the run of consecutive simple roots i..j
    type B/C  (i,)         the i-th coordinate root (doubled in C)
              (i, j, s)    e_i + e_j for s='+', e_i - e_j for s='-'
    type D    (i, j, s)    same pair encoding, i < j
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from math import gcd
from typing import Iterable, Iterator

from .errors import InvariantViolation, MalformedDescriptor, NotClassical, NotGood, StarViolation
from .flats import Level, key_masks, parabolic_flat
from .rootsys import (
    CartanType,
    RootSystem,
    additive_closure,
    closure,
    subsystem_rank,
)

Descriptor = tuple


def is_k_step_good(rs: RootSystem, subset: int | Iterable[int], k: int) -> bool:
    """Maximal closed subsystem of rank r-k, i.e. span-closed of that rank."""
    mask = rs.as_mask(subset)
    return subsystem_rank(rs, mask) == rs.rank - k and closure(rs, mask) == mask


def bds_candidates(rs: RootSystem) -> list[tuple[tuple[int, int], int]]:
    """Subsystems generated by deleting a coprime-label affine node pair.

    Returns ((i, j), mask) for every unordered pair of affine-diagram
    nodes with coprime labels; duplicates across Weyl orbits are kept.
    """
    out = []
    node_roots = [rs.index[v] for v in rs.affine_roots]
    for i, j in combinations(range(rs.rank + 1), 2):
        if gcd(rs.labels[i], rs.labels[j]) != 1:
            continue
        keep = [node_roots[n] for n in range(rs.rank + 1) if n not in (i, j)]
        out.append(((i, j), additive_closure(rs, keep)))
    return out


def bds_covers_all(rs: RootSystem, level: Level) -> bool:
    """Every candidate is good and every good subsystem is W-conjugate to one.

    A good candidate is a flat of the walk's rank-(r-1) level, so its place
    there names its W-orbit; the candidates must be found and name every orbit.
    """
    masks = key_masks(level.keys)
    places = {mask: bisect_left(masks, mask) for _, mask in bds_candidates(rs)}
    if not all(masks[p : p + 1] == [m] and is_k_step_good(rs, m, 1) for m, p in places.items()):
        return False
    return len({level.label[p] for p in places.values()}) == len(level.orbits)


def classical_omit_node(rs: RootSystem, i: int) -> int:
    """Subsystem generated by the simple roots but the i-th: their flat Phi_J."""
    family = rs.ctype.factors[0][0]
    if family not in "ABCD":
        raise NotClassical(f"{rs.ctype} is not classical")
    if not 1 <= i <= rs.rank:
        raise MalformedDescriptor(f"node {i} outside 1..{rs.rank}")
    return parabolic_flat(rs, (1 << rs.rank) - 1 - (1 << (i - 1)))


# -- descriptor plumbing -----------------------------------------------------


def _family(rs_or_type) -> tuple[str, int]:
    ctype = rs_or_type.ctype if isinstance(rs_or_type, RootSystem) else rs_or_type
    if isinstance(ctype, str):
        ctype = CartanType.parse(ctype)
    if not ctype.is_irreducible:
        raise NotClassical("parametrization is per irreducible type")
    return ctype.factors[0]


def _descriptor_root(rs: RootSystem, family: str, desc: Descriptor) -> int:
    m = rs.ambient
    v = [0] * m
    if family == "A":
        i, j = desc
        v[i - 1], v[j] = 1, -1
    elif len(desc) == 1:
        v[desc[0] - 1] = 2 if family == "C" else 1
    else:
        i, j, s = desc
        v[i - 1], v[j - 1] = 1, (1 if s == "+" else -1)
    return rs.index[tuple(v)]


def _root_descriptor(rs: RootSystem, family: str, index: int) -> Descriptor:
    v = rs.roots[index]
    support = [(c + 1, x) for c, x in enumerate(v) if x]
    if family == "A":
        (i, _), (j, _) = support
        return (i, j - 1)
    if len(support) == 1:
        return (support[0][0],)
    (i, xi), (j, xj) = support
    return (i, j, "+" if xi == xj else "-")


def descriptors_of(rs: RootSystem, mask: int) -> set[Descriptor]:
    """Descriptor set of the positive roots of a classical subsystem."""
    family, _ = _family(rs)
    if family not in "ABCD":
        raise NotClassical(f"{rs.ctype} is not classical")
    return {_root_descriptor(rs, family, i) for i in rs.positive_indices(mask)}


def _validate(family: str, rank: int, P: Iterable[Descriptor]) -> list[Descriptor]:
    descs = sorted(P)
    for d in descs:
        if family == "A":
            ok = len(d) == 2 and 1 <= d[0] <= d[1] <= rank
        elif len(d) == 1:
            ok = family in "BC" and 1 <= d[0] <= rank
        else:
            ok = (
                len(d) == 3
                and 1 <= d[0] < d[1] <= rank
                and d[2] in ("+", "-")
            )
        if not ok:
            raise MalformedDescriptor(f"bad descriptor {d!r} for type {family}{rank}")
    return descs


def star_check(ptype: CartanType | str, P: Iterable[Descriptor]) -> bool:
    """Check the star conditions of the matching classical family."""
    family, rank = _family(ptype)
    if family not in "ABCD":
        raise NotClassical(f"{ptype} is not classical")
    descs = _validate(family, rank, P)
    if family == "A":
        firsts = [d[0] for d in descs]
        seconds = [d[1] for d in descs]
        return len(set(firsts)) == len(descs) and len(set(seconds)) == len(descs)
    if family in "BC":
        firsts = [d[0] for d in descs]
        seconds = [d[0] if len(d) == 1 else d[1] for d in descs]
        return len(set(firsts)) == len(descs) and len(set(seconds)) == len(descs)
    return _star_check_d(descs)


def _star_check_d(descs: list[Descriptor]) -> bool:
    pairs: dict[tuple[int, int], set[str]] = {}
    for i, j, s in descs:
        pairs.setdefault((i, j), set()).add(s)
    keys = list(pairs)
    firsts = [i for i, _ in keys]
    seconds = [j for _, j in keys]
    if len(set(firsts)) != len(keys) or len(set(seconds)) != len(keys):
        return False
    both = [ij for ij, signs in pairs.items() if len(signs) == 2]
    if len(both) > 1:
        return False
    if both:
        a, b = both[0]
        # No pair may continue the chain past the double pair.
        if any(i == b for i, _ in keys):
            return False
        # Every pair chained into the double pair must carry the minus sign.
        by_second = {j: (i, j) for i, j in keys}
        cur = a
        while cur in by_second:
            link = by_second[cur]
            if pairs[link] != {"-"}:
                return False
            cur = link[0]
    return True


def param_F(rs: RootSystem, subsystem: int | Iterable[int]) -> frozenset[Descriptor]:
    """Canonical descriptor set of a k-step good subsystem.

    Keeps, per type, the descriptors not shadowed by a shorter one with
    a shared endpoint; in type D the plus member of every chain pair
    except the last is dropped so the set has cardinality r-k.
    """
    family, rank = _family(rs)
    if family not in "ABCD":
        raise NotClassical(f"{rs.ctype} is not classical")
    mask = rs.as_mask(subsystem)
    if closure(rs, mask) != mask:
        raise NotGood("subsystem is not span-closed")
    descs = descriptors_of(rs, mask)

    if family == "A":
        kept = {
            (i, j)
            for (i, j) in descs
            if not any((i, jp) in descs for jp in range(i, j))
            and not any((ip, j) in descs for ip in range(i + 1, j + 1))
        }
        return frozenset(kept)

    singles = {d[0] for d in descs if len(d) == 1}
    pair_points = {(d[0], d[1]) for d in descs if len(d) == 3}

    if family in "BC":
        kept: set[Descriptor] = {(i,) for i in singles}
        for d in descs:
            if len(d) != 3:
                continue
            i, j, s = d
            left_hit = i in singles or any((i, jp) in pair_points for jp in range(i + 1, j))
            right_hit = j in singles or any((ip, j) in pair_points for ip in range(i + 1, j))
            if not left_hit and not right_hit:
                kept.add(d)
        return frozenset(kept)

    kept = set()
    for i, j, s in descs:
        left_hit = any((i, jp) in pair_points for jp in range(i + 1, j))
        right_hit = any((ip, j) in pair_points for ip in range(i + 1, j))
        if not left_hit and not right_hit:
            kept.add((i, j, s))
    by_pair: dict[tuple[int, int], set[str]] = {}
    for i, j, s in kept:
        by_pair.setdefault((i, j), set()).add(s)
    chain = sorted(ij for ij, signs in by_pair.items() if len(signs) == 2)
    for (i1, j1), (i2, j2) in zip(chain, chain[1:]):
        if j1 != i2:
            raise InvariantViolation("chain pairs must share endpoints")
    for i, j in chain[:-1]:
        kept.discard((i, j, "+"))
    return frozenset(kept)


def param_G(rs: RootSystem, P: Iterable[Descriptor]) -> int:
    """Subsystem generated by a star-valid descriptor set.

    Additive closure in type A, span closure in types B, C and D.
    """
    family, rank = _family(rs)
    if not star_check(rs.ctype, P):
        raise StarViolation(f"descriptor set {sorted(P)} fails the star conditions")
    roots = [_descriptor_root(rs, family, d) for d in P]
    if family == "A":
        return additive_closure(rs, roots)
    return closure(rs, roots)


def descriptor_universe(ctype: CartanType | str) -> list[Descriptor]:
    family, rank = _family(ctype)
    if family == "A":
        return [(i, j) for i in range(1, rank + 1) for j in range(i, rank + 1)]
    pairs = [
        (i, j, s)
        for i in range(1, rank + 1)
        for j in range(i + 1, rank + 1)
        for s in ("+", "-")
    ]
    if family in "BC":
        return [(i,) for i in range(1, rank + 1)] + pairs
    return pairs


def star_sets(ctype: CartanType | str, size: int) -> Iterator[frozenset[Descriptor]]:
    """All star-valid descriptor sets of the given cardinality."""
    universe = descriptor_universe(ctype)
    for combo in combinations(universe, size):
        if star_check(ctype, combo):
            yield frozenset(combo)
