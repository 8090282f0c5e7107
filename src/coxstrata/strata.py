"""Points of the compactified space and their stratum bookkeeping.

A point assigns each positive root an exact rational or infinity (the
two standard affine charts of P^1; None encodes infinity).  Membership
in the compactification is a check on the finite part: the finite
support must be a flat's positive half (a lookup in the lattice's
`id_of`; the CLI, which holds no lattice, runs one span closure), and
the finite values must extend to a linear functional on its span (one
integer echelon over the rows [root | value]).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .errors import InvalidId, InvariantViolation, LatticeMismatch, NotInVariety, SpanDeficient
from .flats import IntersectionLattice
from .linalg import IncrementalSpan, IntVec, bareiss_rank, integer_kernel
from .rootsys import RootSystem, closure

Value = Fraction | None  # None is the infinity coordinate


@dataclass(frozen=True)
class ExtendedPoint:
    """Coordinates over the positive roots, in root-index order."""

    values: tuple[Value, ...]

    def finite_positions(self) -> list[int]:
        return [p for p, v in enumerate(self.values) if v is not None]

    def check_length(self, d: int) -> None:
        if len(self.values) != d:
            raise InvalidId(f"point has {len(self.values)} coordinates, expected {d}")


def _relation(target: Sequence[int], basis: Sequence[Sequence[int]]) -> IntVec | None:
    """The primitive x, x[0] > 0, with x[0] * target + sum(x[i] * basis[i - 1]) == 0.

    This is the one kernel vector of the integer matrix [target | basis].
    None unless that kernel is one-dimensional with x[0] != 0: the target
    lies outside the span, or the basis is dependent.
    """
    kernel = integer_kernel(list(zip(target, *basis)), len(basis) + 1)
    return kernel[0] if len(kernel) == 1 and kernel[0][0] else None


@dataclass(frozen=True)
class Functional:
    """A linear functional on the span of a flat, by values on a root basis."""

    basis_positions: tuple[int, ...]
    values: tuple[Fraction, ...]

    def evaluate(self, rs: RootSystem, position: int) -> Fraction | None:
        """Value at the positive root in the given position; None off-span.

        Over the relation x with the basis, it is -sum(x[i] * values[i - 1]) / x[0].
        """
        basis = [rs.positive_root(p) for p in self.basis_positions]
        x = _relation(rs.positive_root(position), basis)
        if x is None:
            return None
        return -sum((c * v for c, v in zip(x[1:], self.values)), Fraction(0)) / x[0]


@dataclass(frozen=True)
class StratumResult:
    flat_id: int
    witness: Functional


@dataclass(frozen=True)
class Rejection:
    """Normal non-membership outcome, carrying the first obstruction."""

    reason: str
    forced_position: int | None = None
    relation: tuple[int, ...] | None = None


def fin_set(rs: RootSystem, point: ExtendedPoint) -> int:
    """Mask of the positive-root positions whose coordinate is finite."""
    mask = 0
    for p in point.finite_positions():
        mask |= 1 << p
    return mask


def _support_rejection(rs: RootSystem, fin: int) -> Rejection | None:
    """The rejection of a finite support that is not span-closed, or None."""
    added = closure(rs, fin) & ~fin
    if not added:
        return None
    return Rejection("finite support is not span-closed", forced_position=added.bit_length() - 1)


def _witness(rs: RootSystem, point: ExtendedPoint) -> Functional | Rejection:
    """A witness on a span-closed finite support, or the first broken relation.

    The finite values must satisfy every rational linear relation among
    those roots.  In the echelon over the rows [root | value], a row with
    its pivot in a root column is the next greedy basis position; one with
    its pivot in the value column is the first broken relation.
    """
    span = IncrementalSpan(rs.ambient + 1)
    basis_positions: list[int] = []
    for p in point.finite_positions():
        v, root = point.values[p], rs.roots[rs.positives[p]]
        if not span.add([v.denominator * a for a in root] + [v.numerator]):
            continue
        if span.pivots[-1] == rs.ambient:
            x = _relation(root, [rs.roots[rs.positives[q]] for q in basis_positions])
            if x is None:
                raise InvariantViolation(f"root at position {p} lies outside the basis span")
            relation = [0] * rs.d
            for c, q in zip(x, [p, *basis_positions]):
                relation[q] = c
            return Rejection("finite values violate a root relation", relation=tuple(relation))
        basis_positions.append(p)
    return Functional(tuple(basis_positions), tuple(point.values[p] for p in basis_positions))


def _stratum(rs: RootSystem, point: ExtendedPoint) -> tuple[int, Functional] | Rejection:
    """The stratum's flat mask and a witness, or the first obstruction; no lattice needed."""
    point.check_length(rs.d)
    fin = fin_set(rs, point)
    result = _support_rejection(rs, fin) or _witness(rs, point)
    return result if isinstance(result, Rejection) else (fin, result)


def membership(
    rs: RootSystem, lat: IntersectionLattice, point: ExtendedPoint
) -> StratumResult | Rejection:
    """Decide membership; return the stratum flat and witness, or the obstruction.

    A span-closed finite support is a flat, so `id_of` decides; the span
    closure runs only on a support that is not a flat, to name its rejection.
    """
    if lat.rs.ctype != rs.ctype:
        raise LatticeMismatch(f"lattice of {lat.rs.ctype} given with a root system of {rs.ctype}")
    point.check_length(rs.d)
    fin = fin_set(rs, point)
    fid = lat.id_of.get(fin)
    result = _support_rejection(rs, fin) if fid is None else _witness(rs, point)
    if result is None:
        raise InvariantViolation(f"span-closed support {fin:#x} is not a flat of the lattice")
    return result if isinstance(result, Rejection) else StratumResult(fid, result)


def stratum_of(rs: RootSystem, lat: IntersectionLattice, point: ExtendedPoint) -> int:
    """Flat id whose subsystem's positive part is the point's finite support."""
    result = membership(rs, lat, point)
    if isinstance(result, Rejection):
        raise NotInVariety(result.reason)
    return result.flat_id


def h_translate(rs: RootSystem, point: ExtendedPoint, y: Sequence) -> ExtendedPoint:
    """Translate by an ambient vector: finite coordinates shift by root(y)."""
    point.check_length(rs.d)
    yvec = [Fraction(c) for c in y]
    if len(yvec) != rs.ambient:
        raise InvalidId(f"translation vector needs {rs.ambient} coordinates")
    den = lcm(*[c.denominator for c in yvec])
    num = [c.numerator * (den // c.denominator) for c in yvec]
    out = [
        None if v is None else v + Fraction(sum(map(mul, rs.roots[rs.positives[p]], num)), den)
        for p, v in enumerate(point.values)
    ]
    return ExtendedPoint(tuple(out))


def limit_point(
    rs: RootSystem,
    witness: Functional,
    lam0: int,
    t,
    within: int | None = None,
) -> ExtendedPoint:
    """The finite point with the witness's values on its basis and t at lam0.

    As t grows, coordinates at roots outside the witness's span grow
    linearly, so the limit lands in the target stratum.  With `within`
    set to a larger flat's mask, coordinates outside it are infinity and
    the construction happens inside that flat instead.
    """
    ext = Functional(
        witness.basis_positions + (rs.position(lam0),), witness.values + (Fraction(t),)
    )
    if within is None:
        if bareiss_rank([rs.positive_root(p) for p in ext.basis_positions]) != rs.rank:
            raise SpanDeficient("auxiliary root does not complete the span")
        within = rs.full_mask
    values: list[Value] = [None] * rs.d
    for p in rs.positions(within):
        values[p] = ext.evaluate(rs, p)
        if values[p] is None:
            raise SpanDeficient("a coordinate in the ambient flat is not determined")
    return ExtendedPoint(tuple(values))


def generate_relations(rs: RootSystem) -> list[tuple[int, ...]]:
    """Integer relations expressing each positive root over the simple roots.

    The simple roots are the first r positives (height 1); each later
    root contributes the relation root - sum(c_j * alpha_j) = 0 with its
    simple-root coefficients c_j.  Together they span the full
    (d - r)-dimensional relation lattice.
    """
    simple_positions = [rs.pos_of[i] for i in rs.simples]
    relations = []
    for p in range(rs.rank, rs.d):
        rel = [0] * rs.d
        rel[p] = 1
        for b, c in zip(simple_positions, rs.simple_coefficients[rs.positives[p]]):
            rel[b] = -c
        relations.append(tuple(rel))
    return relations


def relation_support(relation: Sequence[int]) -> list[int]:
    return [p for p, c in enumerate(relation) if c]
