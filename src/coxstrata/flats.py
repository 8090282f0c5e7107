"""Intersection lattice of a reflection arrangement.

Flats are canonical span-closed root subsystems, stored as bit masks
over positive-root positions and graded by span dimension.  The lattice
is enumerated by level BFS: each rank-(k+1) flat is the span closure of
a rank-k flat plus one root outside it, deduplicated by mask.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
import numpy as np

from .betti import betti_row_closed_form
from .errors import InvalidId, InvalidSetting, RankOutOfRange, ResourceLimit
from .linalg import integer_kernel
from .rootsys import RootSystem, build_root_system, closure

#: Default flat budget; admits every type through E7.  E8 (about 5.5M
#: flats) must be requested explicitly with max_flats=None or a higher cap.
DEFAULT_FLAT_BUDGET = 120_000


@dataclass(frozen=True)
class Flat:
    """One lattice element: a span-closed subsystem and its span dimension."""

    id: int
    rank: int
    mask: int


class IntersectionLattice:
    """All flats of the arrangement of a root system, with covers.

    Flat ids are dense and sorted by (rank, mask); queries are read-only
    after construction.
    """

    def __init__(self, rs: RootSystem, levels: list[list[int]], covers: list[tuple[int, int]]):
        self.rs = rs
        self.flats: list[Flat] = []
        self.by_rank: list[list[int]] = []
        for rank, masks in enumerate(levels):
            ids = []
            for mask in masks:
                ids.append(len(self.flats))
                self.flats.append(Flat(len(self.flats), rank, mask))
            self.by_rank.append(ids)
        self.id_of = {f.mask: f.id for f in self.flats}
        self.covers = covers
        self.rank_counts = [len(ids) for ids in self.by_rank]
        self._mobius: list[int] | None = None
        self._join_cache: dict[int, int] = {}

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
        """Flat id of the rank-1 flat through a given root."""
        return self.id_of[closure(self.rs, [root_index])]

    def betti_row(self) -> list[int]:
        """Stratum counts by codimension: entry k counts flats of rank r-k."""
        return list(reversed(self.rank_counts))


def leq(lat: IntersectionLattice, x: int, y: int) -> bool:
    """Order test: subsystem containment."""
    mx, my = lat.flat(x).mask, lat.flat(y).mask
    return mx & my == mx


def join(lat: IntersectionLattice, x: int, y: int) -> int:
    """Least upper bound: span closure of the union."""
    united = lat.flat(x).mask | lat.flat(y).mask
    fid = lat.id_of.get(united)
    if fid is not None:
        return fid
    fid = lat._join_cache.get(united)
    if fid is None:
        fid = lat.id_of[closure(lat.rs, united)]
        lat._join_cache[united] = fid
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


def whitney_first(lat: IntersectionLattice, k: int) -> int:
    """Signed Whitney number: coefficient of t^(r-k) in char_poly."""
    if not 0 <= k <= lat.rs.rank:
        raise RankOutOfRange(f"k={k} outside [0, {lat.rs.rank}]")
    return char_poly(lat)[lat.rs.rank - k]


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


_WORKER_RS: RootSystem | None = None


def _worker_init(type_str: str) -> None:
    global _WORKER_RS
    _WORKER_RS = build_root_system(type_str)


def _worker_expand(masks: list[int]) -> list[list[int]]:
    assert _WORKER_RS is not None
    return [_expand_flat(_WORKER_RS, m) for m in masks]


def check_flat_budget(rs: RootSystem, max_flats: int | None) -> None:
    """Raise ResourceLimit, before any enumeration, if rs has more than max_flats flats."""
    total = sum(betti_row_closed_form(rs.ctype))
    if max_flats is not None and total > max_flats:
        raise ResourceLimit(f"flat budget {max_flats} exceeded: {rs.ctype} has {total} flats")


def _sweep(
    rs: RootSystem, workers: int | None, keep: bool
) -> tuple[list[list[int]] | None, list[int], list[tuple[int, int]] | None]:
    """Level BFS over all flats; returns (levels, rank counts, covers)."""
    workers = _resolve_workers(workers)
    levels: list[list[int]] | None = [[0]] if keep else None
    counts = [1]
    covers: list[tuple[int, int]] | None = [] if keep else None
    frontier = [0]
    id_base = 0
    pool: ProcessPoolExecutor | None = None
    try:
        for _ in range(rs.rank):
            next_keys: set[int] = set()
            next_covers: list[tuple[int, int]] = []
            if workers > 1 and len(frontier) >= 64 * workers and pool is None:
                pool = ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_worker_init,
                    initargs=(str(rs.ctype),),
                )
            if pool is not None and len(frontier) >= 64 * workers:
                chunk = max(1, len(frontier) // (workers * 8))
                chunks = [frontier[i : i + chunk] for i in range(0, len(frontier), chunk)]
                per_parent = (
                    kids for batch in pool.map(_worker_expand, chunks) for kids in batch
                )
            else:
                per_parent = (_expand_flat(rs, m) for m in frontier)
            for offset, kids in enumerate(per_parent):
                parent_id = id_base + offset
                for child in kids:
                    next_keys.add(child)
                    if keep:
                        next_covers.append((parent_id, child))
            new_masks = sorted(next_keys)
            counts.append(len(new_masks))
            id_base += len(frontier)
            if keep:
                assert levels is not None and covers is not None
                levels.append(new_masks)
                child_id = {m: id_base + i for i, m in enumerate(new_masks)}
                covers.extend((pid, child_id[m]) for pid, m in next_covers)
            frontier = new_masks
    finally:
        if pool is not None:
            pool.shutdown()
    return levels, counts, covers


def build_lattice(
    rs: RootSystem,
    *,
    max_flats: int | None = DEFAULT_FLAT_BUDGET,
    workers: int | None = None,
) -> IntersectionLattice:
    """Enumerate all flats with covers, deterministically.

    Raises ResourceLimit when the flat count would exceed max_flats
    (pass None, or a larger cap, to opt in to huge types such as E8).
    """
    check_flat_budget(rs, max_flats)
    levels, _, covers = _sweep(rs, workers, keep=True)
    assert levels is not None and covers is not None
    covers.sort()
    return IntersectionLattice(rs, levels, covers)


def enumerate_rank_counts(
    rs: RootSystem,
    *,
    max_flats: int | None = DEFAULT_FLAT_BUDGET,
    workers: int | None = None,
) -> list[int]:
    """Per-rank flat counts only; memory stays per-level (E8-friendly)."""
    check_flat_budget(rs, max_flats)
    _, counts, _ = _sweep(rs, workers, keep=False)
    return counts


def _resolve_workers(workers: int | None) -> int:
    """Worker count: the argument, else COXSTRATA_THREADS, else 1.

    The result is clamped to [1, os.cpu_count()]; a COXSTRATA_THREADS
    value that is not an integer >= 1 raises InvalidSetting.
    """
    if workers is None:
        env = os.environ.get("COXSTRATA_THREADS", "").strip()
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise InvalidSetting(f"COXSTRATA_THREADS must be an integer >= 1, got {env!r}")
    return max(1, min(workers, os.cpu_count() or 1))


def brute_force_flats(rs: RootSystem, max_positive: int = 12) -> list[list[int]]:
    """Independent oracle: flats via exhaustive closed-subsystem search.

    Enumerates every additively closed, negation-closed subset of the
    root system over all subsets of the positives, then keeps the
    subsets that are maximal among closed subsets of their span rank.
    Exponential in d; intended for r <= 3 cross-checks only.
    """
    from .rootsys import is_closed, subsystem_rank

    if rs.d > max_positive:
        raise ResourceLimit(f"brute force capped at {max_positive} positive roots")
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
