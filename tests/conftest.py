from __future__ import annotations

from fractions import Fraction

import pytest

from coxstrata import build_lattice, build_root_system
from coxstrata.flats import key_masks, walk_level
from coxstrata.rootsys import closure, reflect

# Types up to rank 4, plus G2 and F4, for the property tests.
PROPERTY_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4"]


@pytest.fixture(scope="session")
def lattice_of():
    """Session-wide cache of (root system, lattice) pairs by type string."""
    cache = {}

    def get(type_str: str):
        if type_str not in cache:
            rs = build_root_system(type_str)
            cache[type_str] = (rs, build_lattice(rs))
        return cache[type_str]

    return get


def flat_level(rs, k):
    """The id of the first rank-k flat and the sorted rank-k masks, from the walk."""
    level = walk_level(rs, k)
    return level.first, key_masks(level.keys)


def join_by_closure(lat, x, y):
    """Reference join: the flat of the span closure of the union of two flats."""
    return lat.id_of[closure(lat.rs, lat.flat(x).mask | lat.flat(y).mask)]


def pos_of_coords(rs, coords):
    """Positive position of the root with the given coordinates."""
    return index_position(rs, rs.index[tuple(coords)])


def index_position(rs, idx):
    """Positive position of root idx or of its negative."""
    return rs.pos_of.get(idx, rs.pos_of.get(rs.neg[idx]))


def root_indices(rs, mask):
    """Reference: the sorted indices of the mask's roots and their negatives."""
    pos = rs.positive_indices(mask)
    return sorted(pos + [rs.neg[i] for i in pos])


def additive_closure_by_tuple_sums(rs, indices):
    """Reference: the mask of the smallest negation-closed set containing the
    root indices that holds every root sum of its members, the sums taken
    as coordinate tuples."""
    members = set(indices) | {rs.neg[i] for i in indices}
    while True:
        current = [rs.roots[i] for i in members]
        sums = {rs.index.get(tuple(a + b for a, b in zip(u, v))) for u in current for v in current}
        new = sums - members - {None}
        if not new:
            return sum({1 << index_position(rs, i) for i in members})
        members |= new | {rs.neg[i] for i in new}


def positive_perms(rs):
    """Reference: each simple reflection as a permutation of positive
    positions (signs dropped), from `reflect` on coordinates."""
    return [[index_position(rs, reflect(rs, s, i)) for i in rs.positives] for s in rs.simples]


def apply_perm_to_mask(perm, mask):
    """Reference: the image of a mask under a permutation of positive positions."""
    out = 0
    while mask:
        p = (mask & -mask).bit_length() - 1
        out |= 1 << perm[p]
        mask &= mask - 1
    return out


def orbit_masks(rs, mask):
    """Reference: masks reachable from mask under the simple reflections,
    by a breadth-first search over Python-int masks."""
    perms = positive_perms(rs)
    seen = {mask}
    frontier = [mask]
    while frontier:
        new = []
        for m in frontier:
            for perm in perms:
                image = apply_perm_to_mask(perm, m)
                if image not in seen:
                    seen.add(image)
                    new.append(image)
        frontier = new
    return seen


def _gauss_jordan(rows, cols):
    """Reduced row echelon form over Fraction, and its pivot columns."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(cols):
        piv = next((i for i in range(len(pivots), len(m)) if m[i][c]), None)
        if piv is None:
            continue
        r = len(pivots)
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def fraction_rank(rows):
    """Reference rank of a matrix, by Gauss-Jordan over Fraction."""
    return len(_gauss_jordan(rows, len(rows[0]) if rows else 0)[1])


def fraction_solve(basis, target, unique=True):
    """Reference: c with sum(c_i * basis_i) == target, or None.

    Gauss-Jordan over Fraction on the augmented system B^T c = target,
    independent of the integer echelon core.  None when the system is
    inconsistent or, with `unique` set, when its solution is not unique;
    otherwise every free unknown is zero.
    """
    k = len(basis)
    augmented = [[b[j] for b in basis] + [t] for j, t in enumerate(target)]
    m, pivots = _gauss_jordan(augmented, k + 1)
    if k in pivots or (unique and len(pivots) < k):
        return None
    c = [Fraction(0)] * k
    for row, p in zip(m, pivots):
        c[p] = row[k]
    return c
