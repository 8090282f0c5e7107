"""Intersection lattice of a reflection arrangement.

Flats are canonical span-closed root subsystems, stored as bit masks
over positive-root positions and graded by span dimension.

Every command that enumerates flats reads the W-orbit walk, one BFS per group
of ranks: `betti --method enum` and `member` read its BFS layers
(`walk_rank_counts`, `flat_id`), the others `walk` or `walk_level`, each rank
sorted into a `Level`.  `build_lattice` and the cache loader hand their
lattice the walk its levels came from; levels a library caller passes alone
are walked and checked when a rank is first read (`IntersectionLattice.level`).
The closure sweep `enumerate_rank_counts` is the independent second route to
the counts that `verify` checks against.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, repeat
from typing import Iterator, NamedTuple

import numpy as np

from .betti import betti_row_closed_form
from .errors import InvalidId, InvariantViolation, RankOutOfRange, ResourceLimit
from .linalg import integer_kernel
from .rootsys import CartanType, RootSystem, build_root_system

#: Default flat budget; admits every type through E7.  E8 (about 5.5M
#: flats) must be requested explicitly with max_flats=None or a higher cap.
DEFAULT_FLAT_BUDGET = 120_000

#: brute_force_flats tries all 2^d subsets of the positives, so it stops here.
BRUTE_FORCE_MAX_POSITIVE = 12


@dataclass(frozen=True)
class Flat:
    """One lattice element: a span-closed subsystem and its span dimension."""

    id: int
    rank: int
    mask: int


class Level(NamedTuple):
    """Rank k of the walk: the id of its first flat (the closed-form count of
    lower flats; a flat's id is it plus the flat's place), its sorted keys,
    each place's W-orbit label, and the sorted (place, size, mask) of each
    W-orbit's least flat; label i names the i-th of these orbits."""

    first: int
    keys: np.ndarray
    label: np.ndarray
    orbits: list[tuple[int, int, int]]


class IntersectionLattice:
    """All flats of the arrangement of a root system, with covers.

    Flat ids are dense and sorted by (rank, mask); queries are read-only
    after construction.  walk is list(walk(rs)), as build_lattice and the
    cache loader pass it; levels passed alone are checked rank by rank
    against the walk that the first level(k) runs.
    """

    def __init__(
        self,
        rs: RootSystem,
        levels: list[list[int]],
        covers: list[tuple[int, int]],
        walk: list[Level] | None = None,
    ):
        self.rs = rs
        if len(levels) != rs.rank + 1:
            raise InvariantViolation(f"{len(levels)} levels for the {rs.rank + 1} ranks of {rs.ctype}")
        self._walk = walk
        self.flats: list[Flat] = []
        self.by_rank: list[list[int]] = []
        for rank, masks in enumerate(levels):
            ids = range(len(self.flats), len(self.flats) + len(masks))
            self.flats += map(Flat, ids, repeat(rank), masks)
            self.by_rank.append(list(ids))
        self.id_of = {f.mask: f.id for f in self.flats}
        self.covers = covers
        self.rank_counts = [len(ids) for ids in self.by_rank]
        self._mobius: list[int] | None = None
        self._upper: list[list[int]] | None = None

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.flats)

    def flat(self, fid: int) -> Flat:
        if not 0 <= fid < len(self.flats):
            raise InvalidId(f"flat id {fid} out of range")
        return self.flats[fid]

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return self.by_rank[self.rs.rank][0]

    def atoms(self) -> list[int]:
        return list(self.by_rank[1]) if len(self.by_rank) > 1 else []

    def atom_of(self, root_index: int) -> int:
        """Flat id of the rank-1 flat through a given root: that root alone."""
        return self.id_of[self.rs.as_mask([root_index])]

    def betti_row(self) -> list[int]:
        """Stratum counts by codimension: entry k counts flats of rank r-k."""
        return list(reversed(self.rank_counts))

    def level(self, k: int) -> Level:
        """The walk's rank k, whose place p is the flat of id level.first + p."""
        if not 0 <= k <= self.rs.rank:
            raise RankOutOfRange(f"k={k} outside [0, {self.rs.rank}]")
        if self._walk is None:
            walked = list(walk(self.rs))
            for j, (level, ids) in enumerate(zip(walked, self.by_rank, strict=True)):
                if ids[:1] != [level.first] or key_masks(level.keys) != [self.flats[i].mask for i in ids]:
                    raise InvariantViolation(f"rank-{j} level differs from the walk of {self.rs.ctype}")
            self._walk = walked
        return self._walk[k]


def leq(lat: IntersectionLattice, x: int, y: int) -> bool:
    """Order test: subsystem containment."""
    mx, my = lat.flat(x).mask, lat.flat(y).mask
    return mx & my == mx


def join(lat: IntersectionLattice, x: int, y: int) -> int:
    """Least upper bound, by climbing the covers from the higher-rank flat.

    X v (an atom outside X) covers X in a geometric lattice, so X steps to
    its one upper cover holding the lowest root of Y - X until Y lies in X.
    """
    fy, fx = sorted((lat.flat(x), lat.flat(y)), key=lambda f: f.rank)
    if lat._upper is None:  # built on first use: most commands never join
        lat._upper = [[] for _ in lat.flats]
        for lo, hi in lat.covers:
            lat._upper[lo].append(hi)
    fid, mask = fx.id, fx.mask
    while rest := fy.mask & ~mask:
        low = rest & -rest
        fid = next((z for z in lat._upper[fid] if lat.flats[z].mask & low), None)
        if fid is None:
            raise InvariantViolation(f"no upper cover of flat {mask:#x} holds root bit {low:#x}")
        mask = lat.flats[fid].mask
    return fid


def mobius_table(lat: IntersectionLattice) -> list[int]:
    """mu(bottom, X) for every flat, by the defining recursion."""
    if lat._mobius is not None:
        return lat._mobius
    mu = [0] * len(lat.flats)
    mu[lat.bottom] = 1
    for rank in range(1, len(lat.by_rank)):
        for fid in lat.by_rank[rank]:
            mask = lat.flats[fid].mask
            total = 0
            for lower_rank in range(rank):
                for zid in lat.by_rank[lower_rank]:
                    zmask = lat.flats[zid].mask
                    if zmask & mask == zmask:
                        total += mu[zid]
            mu[fid] = -total
    lat._mobius = mu
    return mu


def char_poly(lat: IntersectionLattice) -> tuple[int, ...]:
    """Characteristic polynomial coefficients, ascending powers of t.

    Convention: p(t) = sum over flats of mu(bottom, X) * t^(r - rank X),
    so the polynomial is monic of degree r.
    """
    r = lat.rs.rank
    mu = mobius_table(lat)
    coeffs = [0] * (r + 1)
    for f in lat.flats:
        coeffs[r - f.rank] += mu[f.id]
    return tuple(coeffs)


def whitney_second(lat: IntersectionLattice, k: int) -> int:
    """Number of codimension-k strata: flats of rank r-k."""
    if not 0 <= k <= lat.rs.rank:
        raise RankOutOfRange(f"k={k} outside [0, {lat.rs.rank}]")
    return lat.rank_counts[lat.rs.rank - k]


# -- enumeration engine ----------------------------------------------------
#
# For a flat with span S and kernel matrix N (integer rows spanning the
# orthogonal complement of S), a root x lies in span(S + y) iff N x is
# rationally parallel to N y.  One matmul per flat gives all N-images;
# dividing each image by its gcd and fixing its sign makes parallel
# images equal, so each group of equal nonzero images is one child.


def _expand_flat(rs: RootSystem, mask: int) -> list[int]:
    """Masks of all flats covering the given flat, each discovered once."""
    rows = [rs.roots[i] for i in rs.positive_indices(mask)]
    images = rs._kernel_images(integer_kernel(rows, rs.ambient))
    g = np.gcd.reduce(images, axis=1)
    outside = np.flatnonzero(g)
    if not outside.size:
        return []
    canon = images[outside] // g[outside, None]
    lead = canon[np.arange(outside.size), np.argmax(canon != 0, axis=1)]
    canon *= np.sign(lead)[:, None]
    children: dict[tuple[int, ...], int] = {}
    for p, key in zip(outside.tolist(), map(tuple, canon.tolist())):
        children[key] = children.get(key, mask) | 1 << p
    return list(children.values())


def _worker_expand(type_str: str, masks: list[int]) -> list[list[int]]:
    # build_root_system is cached: a worker builds its root system once.
    rs = build_root_system(type_str)
    return [_expand_flat(rs, m) for m in masks]


def check_flat_budget(ctype: CartanType, max_flats: int | None) -> None:
    """Raise ResourceLimit if the type's closed-form flat count exceeds max_flats."""
    total = sum(betti_row_closed_form(ctype))
    if max_flats is not None and total > max_flats:
        raise ResourceLimit(f"flat budget {max_flats} exceeded: {ctype} has {total} flats")


def enumerable(ctype: CartanType, allow_huge: bool = False) -> tuple[RootSystem, int | None]:
    """The one gate to enumeration: the type's flat budget (None with allow_huge) and
    its root system, built only once the closed-form flat count is within budget."""
    budget = None if allow_huge else DEFAULT_FLAT_BUDGET
    check_flat_budget(ctype, budget)
    return build_root_system(ctype), budget


def _sweep(rs: RootSystem, workers: int) -> list[int]:
    """Level BFS over all flats by _expand_flat; returns the rank counts."""
    counts = [1]
    frontier = [0]
    pool = None
    try:
        for _ in range(rs.rank):
            if workers > 1 and len(frontier) >= 64 * workers and pool is None:
                from concurrent.futures import ProcessPoolExecutor  # loaded only where a pool starts
                pool = ProcessPoolExecutor(max_workers=workers)
            if pool is not None and len(frontier) >= 64 * workers:
                chunk = max(1, len(frontier) // (workers * 8))
                chunks = [frontier[i : i + chunk] for i in range(0, len(frontier), chunk)]
                batches = pool.map(_worker_expand, repeat(str(rs.ctype)), chunks)
                per_parent = (kids for batch in batches for kids in batch)
            else:
                per_parent = (_expand_flat(rs, m) for m in frontier)
            next_keys: set[int] = set()
            for kids in per_parent:
                next_keys.update(kids)
            frontier = sorted(next_keys)
            counts.append(len(frontier))
    finally:
        if pool is not None:
            pool.shutdown()
    return counts


# -- the W-orbit walk --------------------------------------------------------
#
# Every rank-k flat is W-conjugate to a parabolic flat closure(J) with k
# simple roots J (Orlik-Solomon), so one breadth-first walk under the simple
# reflections from all those flats at once meets every rank-k flat; W keeps
# ranks, so a walk from the parabolic flats of several ranks is their walks
# side by side.  A mask is a row of ceil(d/64) uint64 words, high word first,
# so np.lexsort(keys.T[::-1]) sorts rows by mask.  Each row carries the ordinal
# of its start as a label; where equal rows carry labels of different W-orbits,
# those orbits are one and a union-find over the starts merges them.  Simple
# reflections are involutions, so a BFS layer can only repeat the two before it.


def _keys(rs: RootSystem, masks: list[int]) -> np.ndarray:
    words = -(-rs.d // 64)
    shifts = range(64 * words - 64, -1, -64)
    rows = [[m >> s & 0xFFFF_FFFF_FFFF_FFFF for s in shifts] for m in masks]
    return np.array(rows, dtype=np.uint64).reshape(len(masks), words)


def key_masks(keys: np.ndarray) -> list[int]:
    """The Python-int mask of each row of keys."""
    masks = keys[:, 0].tolist()
    for j in range(1, keys.shape[1]):
        masks = [m << 64 | w for m, w in zip(masks, keys[:, j].tolist())]
    return masks


def _images(rs: RootSystem, keys: np.ndarray) -> np.ndarray:
    """Row i * r + s is the image of row i under simple reflection s.

    Rows go through 1,000 at a time: the bit arrays stay small and in
    cache on big levels.
    """
    n, words = keys.shape
    r, gather = rs.rank, rs.gather
    out = np.empty((n * r, words), np.uint64)
    for lo in range(0, n, 1000):
        little = np.ascontiguousarray(keys[lo : lo + 1000, ::-1], dtype="<u8")
        bits = np.unpackbits(little.view(np.uint8), axis=1, bitorder="little")
        moved = np.zeros((len(little), r, 64 * words), np.uint8)
        moved[:, :, : rs.d] = bits[:, gather]
        packed = np.packbits(moved, axis=2, bitorder="little").reshape(-1, 8 * words)
        out[lo * r : (lo + len(little)) * r] = packed.view("<u8")[:, ::-1]
    return out


def parabolic_flat(rs: RootSystem, simple_set: int) -> int:
    """closure(J) for the simple roots J whose ordinals are the set bits.

    The simple roots are a basis, so closure(J) is exactly the positives
    whose simple-root support lies in J: no solve is needed.
    """
    return sum(1 << p for p, support in enumerate(rs.simple_supports) if not support & ~simple_set)


def _rank_groups(rs: RootSystem) -> list[list[int]]:
    """Consecutive ranks walked by one BFS, each group holding no more flats (by the
    closed form) than the flat budget or the largest rank: one group up to E7, E8 four."""
    row, groups = betti_row_closed_form(rs.ctype)[::-1], [[0]]
    for k in range(1, len(row)):
        if sum(row[groups[-1][0] : k + 1]) > max(DEFAULT_FLAT_BUDGET, *row):
            groups.append([])
        groups[-1].append(k)
    return groups


def _bfs(rs: RootSystem, ranks: list[int]) -> Iterator[tuple[np.ndarray, ...]]:
    """One BFS from the parabolic flats of the given ranks: yields each new layer,
    sorted, with its start tags, the union-find, updated in place (only starts
    of one rank merge: equal masks have equal ranks), and each start's rank.  A
    layer stable-sorts the two before it with the new images, so a row met
    before leads its equals, and an image that leads them is new."""
    if not all(0 <= k <= rs.rank for k in ranks):
        raise RankOutOfRange(f"ranks {ranks} outside [0, {rs.rank}]")
    subsets = ((k, sum(1 << j for j in J)) for k in ranks for J in combinations(range(rs.rank), k))
    starts, start_rank = zip(*sorted({(parabolic_flat(rs, J), k) for k, J in subsets}))
    # find[a] is the least start of a's orbit so far, for every start a.
    find = np.arange(len(starts), dtype=np.min_scalar_type(len(starts)))
    frontier, tag = _keys(rs, list(starts)), find.copy()
    start_rank = np.array(start_rank, np.min_scalar_type(rs.rank))
    prev, prev_tag = frontier[:0], tag[:0]
    while len(frontier):
        yield frontier, tag, find, start_rank
        cand = np.concatenate([prev, frontier, _images(rs, frontier)])
        order = np.lexsort(cand.T[::-1])
        cand = cand[order]
        cand_tag = find[np.concatenate([prev_tag, tag, np.repeat(tag, rs.rank)])[order]]
        new = np.append(True, (cand[1:] != cand[:-1]).any(axis=1))
        meet = ~new[1:] & (cand_tag[1:] != cand_tag[:-1])
        for a, b in set(zip(cand_tag[:-1][meet].tolist(), cand_tag[1:][meet].tolist())):
            lo, hi = sorted((find[a], find[b]))
            find[find == hi] = lo
        keep = new & (order >= len(prev) + len(frontier))
        prev, prev_tag, frontier, tag = frontier, tag, cand[keep], cand_tag[keep]


def _first(rs: RootSystem, k: int) -> int:
    """The id of rank k's first flat: the flats of every lower rank come before."""
    return sum(betti_row_closed_form(rs.ctype)[::-1][:k])


def _level(rs: RootSystem, k: int, keys: np.ndarray, root: np.ndarray) -> Level:
    """Rank k's Level from its sorted keys and the orbit root (a start) of each."""
    # Number the orbits by their least place, the order they are returned in.
    heads, least = np.unique(root, return_index=True)
    number = np.zeros(heads.max() + 1, np.int64)
    number[heads[np.argsort(least)]] = np.arange(len(heads))
    label = number[root]
    least = np.sort(least)
    # Only the least flats become ints: E8's whole rank 2 would take 360 MB.
    orbits = list(zip(least.tolist(), np.bincount(label).tolist(), key_masks(keys[least])))
    return Level(_first(rs, k), keys, label, orbits)


def _levels(rs: RootSystem, ranks: list[int]) -> Iterator[Level]:
    """The Levels of a group of ranks from one BFS: its layers sorted by
    (rank, key) into one array, which each rank reads a contiguous slice of."""
    layers, tags, (find, *_), (start_rank, *_) = zip(*_bfs(rs, ranks))
    walk = np.concatenate(layers)
    del layers  # one copy of the group at a time keeps the peak RSS of E8 down
    tags = np.concatenate(tags)  # only after the del: before it, orbits E8 peaked 16 MB higher
    order = np.lexsort((*walk.T[::-1], start_rank[tags]))
    keys = walk[order]
    del walk
    root = find[tags[order]]
    del order, tags
    ends = [0, *np.cumsum(np.bincount(start_rank[root])[ranks]).tolist()]
    for k, lo, hi in zip(ranks, ends, ends[1:]):
        # Yielded unbound: the generator keeps no rank alive while the next is made.
        yield _level(rs, k, keys[lo:hi], root[lo:hi])


def walk_level(rs: RootSystem, k: int) -> Level:
    """Rank k of the walk: its BFS layers sorted into one array, and its orbits."""
    return next(_levels(rs, [k]))


def walk(rs: RootSystem) -> Iterator[Level]:
    """walk_level of ranks 0..r, one BFS per group of ranks, each made as it is read."""
    for ranks in _rank_groups(rs):
        yield from _levels(rs, ranks)


def flat_id(rs: RootSystem, k: int, mask: int) -> int | None:
    """The id of the rank-k flat with this mask, or None.  Each BFS layer is
    sorted, so the mask's place is the sum of its bisection points in them."""
    key, hits, below = tuple(_keys(rs, [rs.as_mask(mask)])[0]), False, 0
    for layer, *_ in _bfs(rs, [k]):
        place = bisect_left(layer, key, key=tuple)
        hits |= place < len(layer) and tuple(layer[place]) == key
        below += place
    return _first(rs, k) + below if hits else None


def walk_rank_counts(rs: RootSystem, *, max_flats: int | None = DEFAULT_FLAT_BUDGET) -> list[int]:
    """Per-rank flat counts: the ranks of each group's BFS layers, no Level."""
    check_flat_budget(rs.ctype, max_flats)
    layers = (layer for ranks in _rank_groups(rs) for layer in _bfs(rs, ranks))
    return sum(np.bincount(rank[tag], minlength=rs.rank + 1) for _, tag, _, rank in layers).tolist()


def _moves(rs: RootSystem, level: Level) -> np.ndarray:
    """Row s, column x: the place of s(x) in the sorted level.

    Raises InvariantViolation unless each s maps the level onto itself and
    keeps every flat in its W-orbit.
    """
    keys, n, r = level.keys, len(level.keys), rs.rank
    images = _images(rs, keys).reshape(n, r, -1)
    moves = np.empty((r, n), np.int64)
    for s in range(r):
        order = np.lexsort(images[:, s].T[::-1])
        if not np.array_equal(images[order, s], keys):
            raise InvariantViolation(f"reflection {s} of {rs.ctype} moves a flat off its level")
        moves[s, order] = np.arange(n)
        if not np.array_equal(level.label[moves[s]], level.label):
            raise InvariantViolation(f"reflection {s} of {rs.ctype} moves a flat off its orbit")
    return moves


def _cover_places(
    rs: RootSystem,
    orbits: list[tuple[int, int, int]],
    upper_masks: list[int],
    down: np.ndarray,
    up: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(place, upper place) of every cover from one level to the next.

    _expand_flat runs once per W-orbit, at its least flat.  W acts on the
    lattice, so a BFS over the orbit carries the covers: those of s(x) are
    s applied to those of x.
    """
    seen = np.zeros(down.shape[1], bool)
    los, his = [], []
    for least, _, mask in orbits:
        masks = _expand_flat(rs, mask)
        kids = [bisect_left(upper_masks, m) for m in masks]
        if [upper_masks[p] for p in kids if p < len(upper_masks)] != masks:
            raise InvariantViolation(f"a cover of flat {mask:#x} of {rs.ctype} is not a flat of the next rank")
        frontier, children = np.array([least]), np.array([kids])
        seen[least] = True
        while len(frontier):
            los.append(np.repeat(frontier, len(kids)))
            his.append(children.ravel())
            frontier, first = np.unique(down[:, frontier], return_index=True)
            children = up[:, children].reshape(-1, len(kids))[first]
            fresh = ~seen[frontier]
            frontier, children = frontier[fresh], children[fresh]
            seen[frontier] = True
    return np.concatenate(los), np.concatenate(his)


def build_lattice(
    rs: RootSystem, *, max_flats: int | None = DEFAULT_FLAT_BUDGET
) -> IntersectionLattice:
    """Enumerate all flats with covers, deterministically, by the W-orbit walk.

    Raises ResourceLimit when the flat count would exceed max_flats
    (pass None, or a larger cap, to opt in to huge types such as E8).
    """
    check_flat_budget(rs.ctype, max_flats)
    walks = list(walk(rs))
    levels = [key_masks(level.keys) for level in walks]
    moves = [_moves(rs, level) for level in walks]
    # Covers share one int object per id; 892,102 E7 covers would not.
    ids = list(range(sum(map(len, levels))))
    covers: list[tuple[int, int]] = []
    for k in range(rs.rank):
        lower, upper = walks[k], walks[k + 1]
        lo, hi = _cover_places(rs, lower.orbits, levels[k + 1], *moves[k : k + 2])
        order = np.lexsort((hi, lo))
        lo_ids = map(ids.__getitem__, (lower.first + lo[order]).tolist())
        covers += zip(lo_ids, map(ids.__getitem__, (upper.first + hi[order]).tolist()))
    return IntersectionLattice(rs, levels, covers, walks)


def enumerate_rank_counts(
    rs: RootSystem,
    *,
    max_flats: int | None = DEFAULT_FLAT_BUDGET,
    workers: int = 1,
) -> list[int]:
    """Per-rank flat counts by the closure sweep, with no W action.

    The second route to the counts, independent of the walk: `verify`
    compares the two.  Memory stays per level; with workers > 1 (clamped
    to [1, os.cpu_count()]) a process pool expands each large level.
    """
    check_flat_budget(rs.ctype, max_flats)
    return _sweep(rs, max(1, min(workers, os.cpu_count() or 1)))


def brute_force_flats(rs: RootSystem) -> list[list[int]]:
    """Independent oracle: flats via exhaustive closed-subsystem search.

    Enumerates every additively closed, negation-closed subset of the
    root system over all subsets of the positives, then keeps the
    subsets that are maximal among closed subsets of their span rank.
    Exponential in d: `verify` runs it on every type with at most
    BRUTE_FORCE_MAX_POSITIVE positive roots, A4 and D4 included.
    """
    from .rootsys import is_closed, subsystem_rank

    if rs.d > BRUTE_FORCE_MAX_POSITIVE:
        raise ResourceLimit(f"brute force capped at {BRUTE_FORCE_MAX_POSITIVE} positive roots")
    closed = [m for m in range(1 << rs.d) if is_closed(rs, m)]
    ranks = {m: subsystem_rank(rs, m) for m in closed}
    by_rank: list[list[int]] = [[] for _ in range(rs.rank + 1)]
    for m in closed:
        rho = ranks[m]
        maximal = not any(
            other != m and other & m == m and ranks[other] == rho for other in closed
        )
        if maximal:
            by_rank[rho].append(m)
    return [sorted(ms) for ms in by_rank]
