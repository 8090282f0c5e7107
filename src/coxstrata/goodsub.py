"""Maximal closed root subsystems and their classical parametrizations.

A rank-(r-k) subsystem is "k-step good" exactly when it is span-closed,
so goodness tests are one closure call.  Candidates of rank r-1 are
produced Borel-de Siebenthal style by deleting coprime-label node pairs
from the affine diagram.  For classical types, k-step good subsystems
are encoded by small descriptor sets subject to one star condition for
all four families.  Each descriptor names one positive root, and a
descriptor is valid exactly when it is a key of its type's memoised table:

    type A    (i, j)       the run of consecutive simple roots i..j
    type B/C  (i,)         the i-th coordinate root (doubled in C)
              (i, j, s)    e_i + e_j for s='+', e_i - e_j for s='-', i < j
    type D    (i, j, s)    same pair encoding; D alone may double one pair,
                           holding both signs, and that pair ends its chain

A descriptor runs from a first to a second endpoint; (i,) is its own
second endpoint.  A parameter set keeps, for each first endpoint, the
descriptors with the smallest second endpoint (the shadow rule), so a
coordinate root (i,) is always kept and shadows every pair from i.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import Iterable, Iterator

from .errors import InvariantViolation, MalformedDescriptor, NotClassical, NotGood, StarViolation
from .flats import Level, key_masks
from .rootsys import (
    CartanType,
    RootSystem,
    additive_closure,
    build_root_system,
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

    A candidate found in the walk's rank-(r-1) level is a flat, hence good,
    and its place names its W-orbit; the candidates must name every orbit.
    """
    masks = key_masks(level.keys)
    places = {mask: bisect_left(masks, mask) for _, mask in bds_candidates(rs)}
    if not all(masks[p : p + 1] == [m] for m, p in places.items()):
        return False
    return len({level.label[p] for p in places.values()}) == len(level.orbits)


# -- descriptor plumbing -----------------------------------------------------


def _ends(desc: Descriptor) -> tuple[int, int]:
    """First and second endpoint; a coordinate root (i,) is its own second one."""
    return desc[0], desc[0] if len(desc) == 1 else desc[1]


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


@lru_cache(maxsize=None)
def _classical(ctype: CartanType | str) -> tuple[str, dict[Descriptor, int]]:
    """A classical type's family letter and its descriptors' positive positions."""
    if isinstance(ctype, str):
        return _classical(CartanType.parse(ctype))
    if not ctype.is_irreducible:
        raise NotClassical("parametrization is per irreducible type")
    family = ctype.factors[0][0]
    if family not in "ABCD":
        raise NotClassical(f"{ctype} is not classical")
    rs = build_root_system(ctype)
    return family, {_root_descriptor(rs, family, i): p for p, i in enumerate(rs.positives)}


def descriptors_of(rs: RootSystem, mask: int | Iterable[int]) -> set[Descriptor]:
    """Descriptor set of the positive roots of a classical subsystem."""
    descs = list(_classical(rs.ctype)[1])
    return {descs[p] for p in rs.positions(rs.as_mask(mask))}


def _doubled(descs: set[Descriptor]) -> set[Descriptor]:
    """Type D's doubled pairs: the '+' members whose '-' twin is present."""
    return {d for d in descs if d[-1] == "+" and (d[0], d[1], "-") in descs}


def star_check(ptype: CartanType | str, P: Iterable[Descriptor]) -> bool:
    """Check the star condition, one endpoint rule for every classical family.

    No descriptor repeats, and the endpoint pairs have distinct first and
    distinct second endpoints.  Only type D may double a pair (both signs),
    and at most one; it ends its chain: no pair starts at its second
    endpoint, and every pair chained into it carries only '-'.
    """
    family, table = _classical(ptype)
    descs = list(P)
    for d in descs:
        try:
            table[d]
        except (KeyError, TypeError):  # TypeError: an unhashable entry
            raise MalformedDescriptor(f"bad descriptor {d!r} for type {ptype}") from None
    ends = [_ends(d) for d in descs]
    firsts = {i for i, _ in ends}
    seconds = {j for _, j in ends}
    if len(firsts) == len(seconds) == len(descs):  # no endpoint is shared
        return True
    # Else one endpoint pair may be shared: by a type D doubled pair, or a repeat.
    if not len(firsts) == len(seconds) == len(descs) - 1 == len(set(ends)):
        return False
    present = set(descs)
    if family != "D" or len(present) < len(descs):
        return False
    ((a, b, _),) = _doubled(present)
    before = {j: i for i, j in ends}
    while a in before and (before[a], a, "-") in present:
        a = before[a]
    return b not in firsts and a not in before  # the chain ends at b; no '+' pair feeds it


def param_F(rs: RootSystem, subsystem: int | Iterable[int]) -> frozenset[Descriptor]:
    """Canonical descriptor set of a k-step good subsystem.

    Keeps each descriptor that no other one shadows: one with the same
    first endpoint and a smaller second one.  A coordinate root (i,) is
    its own second endpoint, so it is always kept and drops every pair
    from i.  Then each doubled pair whose second endpoint starts another
    kept descriptor loses its '+' member, so the set has cardinality r-k.
    """
    mask = rs.as_mask(subsystem)
    descs = descriptors_of(rs, mask)
    if closure(rs, mask) != mask:
        raise NotGood("subsystem is not span-closed")
    nearest: dict[int, int] = {}
    for i, j in map(_ends, descs):
        nearest[i] = min(j, nearest.get(i, j))
    kept = {d for d in descs if _ends(d)[1] == nearest[d[0]]}
    kept -= {d for d in _doubled(kept) if d[1] in nearest}
    if len(_doubled(kept)) > 1:
        raise InvariantViolation("a parameter set holds more than one doubled pair")
    return frozenset(kept)


def param_G(rs: RootSystem, P: Iterable[Descriptor]) -> int:
    """Subsystem generated by a star-valid descriptor set.

    Additive closure in type A, span closure in types B, C and D.  In
    type A every additively closed set of roots is span-closed, so the
    two closures agree there, and the additive one is cheaper.
    """
    family, table = _classical(rs.ctype)
    P = list(P)
    if not star_check(rs.ctype, P):
        raise StarViolation(f"descriptor set {sorted(P)} fails the star conditions")
    mask = sum(1 << table[d] for d in P)
    return additive_closure(rs, mask) if family == "A" else closure(rs, mask)


def star_sets(ctype: CartanType | str, size: int) -> Iterator[frozenset[Descriptor]]:
    """All star-valid descriptor sets of the given cardinality.

    A depth-first search over the sorted universe, so the sets come in
    the order of its `combinations`.  It takes a descriptor whose first
    and second endpoints are both new; in type D it may also take, once,
    the '-' twin of a '+' pair already taken.  Only a finished set that
    holds such a doubled pair still needs `star_check`.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    family, table = _classical(ctype)
    universe = sorted(table, key=lambda d: (len(d), d))

    def extend(start: int, chosen: list, firsts: set, seconds: set, doubled: bool):
        if len(chosen) == size:
            if not doubled or star_check(ctype, chosen):
                yield frozenset(chosen)
            return
        for n in range(start, len(universe) - size + len(chosen) + 1):
            d = universe[n]
            i, j = _ends(d)
            if i not in firsts and j not in seconds:
                yield from extend(n + 1, chosen + [d], firsts | {i}, seconds | {j}, doubled)
            elif family == "D" and not doubled and d[-1] == "-" and (i, j, "+") in chosen:
                yield from extend(n + 1, chosen + [d], firsts, seconds, True)

    yield from extend(0, [], set(), set(), False)
