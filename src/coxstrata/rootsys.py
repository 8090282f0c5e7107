"""Root systems with exact integer coordinates.

All classical and exceptional irreducible types are realized in a fixed
ambient Z^m (half-integer families uniformly doubled), generated by
reflection closure from the simple roots.  Root subsets are bit masks
over positive-root positions; every subset operation treats the set as
closed under negation.  Root indices, positions and masks are checked
wherever they enter, and one out of range raises InvalidId.
Two tables answer every W action and closedness question: `gather`, each
simple reflection as a permutation of positive positions, and
`pair_sums`, the roots among alpha_p +- alpha_q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidId, InvalidRank, InvariantViolation, MagnitudeOverflow
from .errors import NotAdditivelyClosed
from .linalg import bareiss_rank, integer_kernel

RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def _check_factor(family: str, rank: int) -> None:
    if family not in RANK_BOUNDS:
        raise InvalidRank(f"unknown family {family!r}")
    lo, hi = RANK_BOUNDS[family]
    if rank < lo or (hi is not None and rank > hi):
        raise InvalidRank(f"{family}{rank} is not a valid type")


@dataclass(frozen=True, order=True)
class CartanType:
    """A product of irreducible types, canonically ordered."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        for family, rank in self.factors:
            _check_factor(family, rank)
        ordered = tuple(sorted(self.factors))
        if ordered != self.factors:
            object.__setattr__(self, "factors", ordered)

    @classmethod
    def parse(cls, text: str) -> "CartanType":
        factors = []
        for part in "".join(text.split()).split("x"):
            if not (part[:1].isalpha() and part[1:].isascii() and part[1:].isdecimal()):
                raise InvalidRank(f"cannot parse type string {text!r}")
            factors.append((part[0].upper(), int(part[1:])))
        return cls(tuple(factors))

    @property
    def rank(self) -> int:
        return sum(r for _, r in self.factors)

    @property
    def is_irreducible(self) -> bool:
        return len(self.factors) == 1

    def __str__(self) -> str:
        if not self.factors:
            return "1"  # empty product: the type of the zero subsystem
        return "x".join(f"{f}{r}" for f, r in self.factors)


def _simple_root_coords(family: str, rank: int) -> list[tuple[int, ...]]:
    """Simple roots in the standard coordinate realization, integer-scaled."""
    r = rank

    def e(i: int, m: int, c: int = 1) -> list[int]:
        v = [0] * m
        v[i] = c
        return v

    def diff(i: int, m: int) -> list[int]:
        v = [0] * m
        v[i], v[i + 1] = 1, -1
        return v

    if family == "A":
        return [tuple(diff(i, r + 1)) for i in range(r)]
    if family == "B":
        return [tuple(diff(i, r)) for i in range(r - 1)] + [tuple(e(r - 1, r))]
    if family == "C":
        return [tuple(diff(i, r)) for i in range(r - 1)] + [tuple(e(r - 1, r, 2))]
    if family == "D":
        last = [0] * r
        last[r - 2], last[r - 1] = 1, 1
        return [tuple(diff(i, r)) for i in range(r - 1)] + [tuple(last)]
    if family == "G":
        return [(1, -1, 0), (-2, 1, 1)]
    if family == "F":
        # Halves cleared by doubling every root uniformly.
        return [
            (0, 2, -2, 0),
            (0, 0, 2, -2),
            (0, 0, 0, 2),
            (1, -1, -1, -1),
        ]
    if family == "E":
        base = [
            (1, -1, -1, -1, -1, -1, -1, 1),
            (2, 2, 0, 0, 0, 0, 0, 0),
            (-2, 2, 0, 0, 0, 0, 0, 0),
            (0, -2, 2, 0, 0, 0, 0, 0),
            (0, 0, -2, 2, 0, 0, 0, 0),
            (0, 0, 0, -2, 2, 0, 0, 0),
            (0, 0, 0, 0, -2, 2, 0, 0),
            (0, 0, 0, 0, 0, -2, 2, 0),
        ]
        return [tuple(v) for v in base[:r]]
    raise InvalidRank(f"unknown family {family!r}")


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def _pairing(v: Sequence[int], mirror: Sequence[int]) -> int:
    """The Cartan integer 2(v, mirror)/(mirror, mirror)."""
    q, rem = divmod(2 * _dot(v, mirror), _dot(mirror, mirror))
    if rem:
        raise InvariantViolation("non-integral Cartan pairing")
    return q


def _reflect_coords(v: Sequence[int], mirror: Sequence[int]) -> tuple[int, ...]:
    q = _pairing(v, mirror)
    return tuple(a - q * b for a, b in zip(v, mirror))


def _in_range(what: str, value: int, top: int) -> int:
    if not 0 <= value <= top:
        raise InvalidId(f"{what} {value} outside 0..{top}")
    return value


class RootSystem:
    """An irreducible root system with deterministic root indexing.

    Roots are indexed by (height, lexicographic coordinates); positives
    occupy the upper half.  Construction is pure and the object is
    immutable afterwards, so instances are safe to share.
    """

    def __init__(self, ctype: CartanType):
        if not ctype.is_irreducible:
            raise InvalidRank("ambient root system must be irreducible")
        self.ctype = ctype
        family, rank = ctype.factors[0]
        self.rank = rank
        simple_coords = _simple_root_coords(family, rank)
        self.ambient = len(simple_coords[0])

        # Reflection closure of the simple roots; it reaches every root,
        # negatives included (s_a(a) = -a).  Reflecting v in simple root j
        # subtracts the pairing from v's j-th simple-root coefficient.
        coeff_of = {
            s: tuple(int(i == j) for i in range(rank)) for j, s in enumerate(simple_coords)
        }
        frontier = list(simple_coords)
        while frontier:
            new = []
            for v in frontier:
                for j, s in enumerate(simple_coords):
                    q = _pairing(v, s)
                    w = tuple(a - q * b for a, b in zip(v, s))
                    if w not in coeff_of:
                        coeffs = list(coeff_of[v])
                        coeffs[j] -= q
                        coeff_of[w] = tuple(coeffs)
                        new.append(w)
            frontier = new
        height = {v: sum(c) for v, c in coeff_of.items()}
        self.roots: list[tuple[int, ...]] = sorted(coeff_of, key=lambda v: (height[v], v))
        self.index = {v: i for i, v in enumerate(self.roots)}
        self.d = len(self.roots) // 2
        self.neg = [self.index[tuple(-x for x in v)] for v in self.roots]
        self.heights = [height[v] for v in self.roots]
        self.simple_coefficients = [coeff_of[v] for v in self.roots]
        self.positives = [i for i in range(2 * self.d) if self.heights[i] > 0]
        if len(self.positives) != self.d:
            raise InvariantViolation("roots do not split into positives and negatives")
        self.pos_of = {idx: p for p, idx in enumerate(self.positives)}
        # Bit j of a positive position's entry: the root uses simple root j.
        self.simple_supports = [
            sum(1 << j for j, c in enumerate(self.simple_coefficients[i]) if c)
            for i in self.positives
        ]
        self.simples = [self.index[v] for v in simple_coords]
        self.highest = max(range(2 * self.d), key=lambda i: self.heights[i])

        theta_coeffs = self.simple_coefficients[self.highest]
        if not all(m >= 1 for m in theta_coeffs):
            raise InvariantViolation("highest root misses a simple root")
        self.labels = [1] + list(theta_coeffs)

        # Affine diagram: node 0 is -theta, nodes 1..r the simple roots.
        affine = [tuple(-x for x in self.roots[self.highest])] + list(simple_coords)
        self.affine_roots = affine
        self.affine_adjacency = {}
        for i in range(rank + 1):
            for j in range(i + 1, rank + 1):
                aij = 2 * _dot(affine[i], affine[j])
                mult = (aij * aij) // (_dot(affine[i], affine[i]) * _dot(affine[j], affine[j]))
                if mult:
                    self.affine_adjacency[(i, j)] = mult

        self._pos_matrix = np.array(
            [self.roots[i] for i in self.positives], dtype=np.int64
        )
        self._row_l1 = max(sum(map(abs, v)) for v in self.roots)
        self.full_mask = (1 << self.d) - 1

    # -- subset plumbing ------------------------------------------------

    def root(self, idx: int) -> tuple[int, ...]:
        """The coordinates of root idx."""
        return self.roots[_in_range("root index", idx, 2 * self.d - 1)]

    def positive_root(self, p: int) -> tuple[int, ...]:
        """The coordinates of the positive root in position p."""
        return self.roots[self.positives[_in_range("position", p, self.d - 1)]]

    def as_mask(self, subset: int | Iterable[int]) -> int:
        """Normalize a positive-position mask or iterable of root indices."""
        if isinstance(subset, int):
            return _in_range("mask", subset, self.full_mask)
        mask = 0
        for idx in subset:
            mask |= 1 << self.position(idx)
        return mask

    def position(self, idx: int) -> int:
        """The positive position of root idx or of its negative."""
        _in_range("root index", idx, 2 * self.d - 1)
        return self.pos_of[max(idx, self.neg[idx])]  # positives hold the upper indices

    def positive_indices(self, mask: int) -> list[int]:
        mask = _in_range("mask", mask, self.full_mask)
        return [self.positives[p] for p in range(self.d) if mask >> p & 1]

    def positions(self, mask: int) -> list[int]:
        mask, out = _in_range("mask", mask, self.full_mask), []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    @cached_property
    def gather(self) -> np.ndarray:
        """Row s, column q: the position of +-s(alpha_q) for simple reflection s.

        s is an involution, so that is also the position s sends to q.
        """
        rows = [[self.position(reflect(self, s, t)) for t in self.positives] for s in self.simples]
        return np.array(rows)

    @cached_property
    def pair_sums(self) -> list[list[int]]:
        """Entry [p][q]: the mask of the roots among alpha_p + alpha_q and
        alpha_p - alpha_q, for positive positions p and q."""
        pos = [self.roots[i] for i in self.positives]
        table = []
        for u in pos:
            row = []
            for v in pos:
                mask = 0
                for w in (tuple(a + b for a, b in zip(u, v)), tuple(a - b for a, b in zip(u, v))):
                    idx = self.index.get(w)
                    if idx is not None:
                        mask |= 1 << self.position(idx)
                row.append(mask)
            table.append(row)
        return table

    def _kernel_images(self, kernel: Sequence[Sequence[int]]) -> np.ndarray:
        """Positive roots times the kernel vectors: a d x len(kernel) int64 array.

        Raises MagnitudeOverflow when an entry could exceed int64.
        """
        kmax = max(map(abs, chain.from_iterable(kernel)), default=0)
        if kmax * self._row_l1 >= 1 << 62:
            raise MagnitudeOverflow(
                f"kernel entry {kmax} times root size {self._row_l1} does not fit int64"
            )
        kmat = np.array(kernel, dtype=np.int64).reshape(len(kernel), self.ambient)
        return self._pos_matrix @ kmat.T

    def span_mask(self, vectors: Sequence[Sequence[int]]) -> int:
        """Mask of all roots lying in the rational span of the vectors."""
        kernel = integer_kernel(vectors, self.ambient)
        if len(kernel) == self.ambient:
            return 0
        hits = ~np.any(self._kernel_images(kernel), axis=1)
        return int.from_bytes(np.packbits(hits, bitorder="little").tobytes(), "little")

    def __repr__(self) -> str:
        return f"RootSystem({self.ctype}, d={self.d})"


@lru_cache(maxsize=None)
def build_root_system(ctype: CartanType | str) -> RootSystem:
    """The memoized root system of a single-factor type; a string is looked up as its parse."""
    if isinstance(ctype, str):
        return build_root_system(CartanType.parse(ctype))
    return RootSystem(ctype)


def reflect(rs: RootSystem, mirror: int, target: int) -> int:
    """Index of the reflection of root `target` in the mirror root's hyperplane."""
    return rs.index[_reflect_coords(rs.root(target), rs.root(mirror))]


def closure(rs: RootSystem, subset: int | Iterable[int]) -> int:
    """Span closure: all roots in the rational span of the subset."""
    mask = rs.as_mask(subset)
    vectors = [rs.roots[i] for i in rs.positive_indices(mask)]
    return rs.span_mask(vectors)


def _root_sums(rs: RootSystem, mask: int) -> int:
    """The roots among the sums of the negation-closed set's roots.

    Those sums are +-(alpha_p +- alpha_q) over pairs of its positions
    (2 alpha and 0 are never roots): the union of their pair_sums entries.
    """
    sums, positions = 0, rs.positions(mask)
    for i, p in enumerate(positions):
        row = rs.pair_sums[p]
        for q in positions[i + 1 :]:
            sums |= row[q]
    return sums


def is_closed(rs: RootSystem, subset: int | Iterable[int]) -> bool:
    """Additive closedness of a negation-closed root subset."""
    mask = rs.as_mask(subset)
    return not _root_sums(rs, mask) & ~mask


def subsystem_rank(rs: RootSystem, subset: int | Iterable[int]) -> int:
    """Dimension of the rational span of the subset (0 for empty)."""
    mask = rs.as_mask(subset)
    rows = [rs.roots[i] for i in rs.positive_indices(mask)]
    return bareiss_rank(rows)


def additive_closure(rs: RootSystem, subset: int | Iterable[int]) -> int:
    """Smallest negation-closed, additively closed subset containing the input."""
    mask, grown = 0, rs.as_mask(subset)
    while grown != mask:
        mask = grown
        grown |= _root_sums(rs, mask)
    return mask


def classify_subsystem(rs: RootSystem, subset: int | Iterable[int]) -> CartanType:
    """Cartan type of a closed subsystem, as a canonically ordered product.

    Any additively closed, negation-closed subset is itself a root
    system and is accepted, span-closed or not; NotAdditivelyClosed refuses a
    subset that is not additively closed.  Flats are the common case.
    Its irreducible components are the classes of its positive roots
    under "not orthogonal", and each is named by its rank and root counts.
    """
    mask = rs.as_mask(subset)
    if not is_closed(rs, mask):
        raise NotAdditivelyClosed("subsystem is not additively closed")
    left = [rs.roots[i] for i in rs.positive_indices(mask)]
    factors = []
    while left:
        comp, left = left[:1], left[1:]
        for v in comp:  # comp grows while it is scanned
            rest = []
            for w in left:
                (comp if _dot(v, w) else rest).append(w)
            left = rest
        norms = [_dot(v, v) for v in comp]
        factors.append(_irreducible_type(bareiss_rank(comp), len(comp), norms.count(min(norms))))
    return CartanType(tuple(factors))


_EXCEPTIONAL = {
    (6, 36, 36): ("E", 6),
    (7, 63, 63): ("E", 7),
    (8, 120, 120): ("E", 8),
    (4, 24, 12): ("F", 4),
    (2, 6, 3): ("G", 2),
}


def _irreducible_type(n: int, positive: int, short: int) -> tuple[str, int]:
    """Type of an irreducible root system of rank n with the given counts
    of positive roots and of short positive roots (all, if one length)."""
    if (n, positive, short) in _EXCEPTIONAL:
        return _EXCEPTIONAL[n, positive, short]
    if short == positive:
        if positive == n * (n + 1) // 2:
            return ("A", n)  # also D3
        if positive == n * (n - 1) and n >= 4:
            return ("D", n)
    elif positive == n * n:
        if n == 2 or short == n:
            return ("B", n)
        if short == n * (n - 1):
            return ("C", n)
    raise InvariantViolation(
        f"no irreducible root system has rank {n}, {positive} positive roots"
        f" and {short} short positive roots"
    )
