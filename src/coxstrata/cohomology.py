"""Integral cohomology ring on the flat basis.

Basis classes are indexed by flats; the product of two basis classes is
the class of their join when ranks add, and zero otherwise, extended
bilinearly over Z.

`cup` is the library API and `verify`'s route to the ring axioms; both it
(through `join`, which climbs covers) and the `cup` command's atom x flat
table read the lattice's covers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvariantViolation, LatticeMismatch
from .flats import IntersectionLattice, join, whitney_second
from .linalg import IncrementalSpan


@dataclass
class GradedClass:
    """Sparse integer combination of flat basis classes ksi_X.

    The basis element for flat X sits in cohomological degree 2*rank(X);
    a class is homogeneous when all supported flats share a rank.
    """

    lattice: IntersectionLattice
    coefficients: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        self.coefficients = {f: c for f, c in self.coefficients.items() if c}

    @classmethod
    def basis(cls, lattice: IntersectionLattice, fid: int) -> "GradedClass":
        lattice.flat(fid)
        return cls(lattice, {fid: 1})

    @classmethod
    def zero(cls, lattice: IntersectionLattice) -> "GradedClass":
        return cls(lattice, {})

    def degree(self) -> int | None:
        """2 * common rank for homogeneous nonzero classes, else None."""
        ranks = {self.lattice.flat(f).rank for f in self.coefficients}
        return 2 * ranks.pop() if len(ranks) == 1 else None

    def __add__(self, other: "GradedClass") -> "GradedClass":
        if other.lattice is not self.lattice:
            raise LatticeMismatch("classes live over different lattices")
        out = dict(self.coefficients)
        for f, c in other.coefficients.items():
            out[f] = out.get(f, 0) + c
        return GradedClass(self.lattice, out)

    def scale(self, c: int) -> "GradedClass":
        return GradedClass(self.lattice, {f: c * v for f, v in self.coefficients.items()})

    def is_zero(self) -> bool:
        return not self.coefficients


def cup(a: GradedClass, b: GradedClass) -> GradedClass:
    """Bilinear product: joins with additive rank survive, the rest die."""
    if a.lattice is not b.lattice:
        raise LatticeMismatch("classes live over different lattices")
    lat = a.lattice
    out: dict[int, int] = {}
    for fx, cx in a.coefficients.items():
        rx = lat.flat(fx).rank
        for fy, cy in b.coefficients.items():
            fz = join(lat, fx, fy)
            if lat.flat(fz).rank == rx + lat.flat(fy).rank:
                out[fz] = out.get(fz, 0) + cx * cy
    return GradedClass(lat, out)


def poincare_poly(lat: IntersectionLattice) -> tuple[int, ...]:
    """Coefficients of sum_k W_k t^k (Betti numbers, codimension grading)."""
    r = lat.rs.rank
    return tuple(whitney_second(lat, k) for k in range(r + 1))


def factor_degree2(lat: IntersectionLattice, fid: int) -> list[int]:
    """Atoms whose iterated product is the basis class of the flat.

    Greedily picks positive roots of the flat's subsystem (ascending
    index) that enlarge the span; the resulting atoms are independent,
    so their joins add ranks and the product telescopes to ksi_X.
    """
    flat = lat.flat(fid)
    rs = lat.rs
    span = IncrementalSpan(rs.ambient)
    atoms = []
    for idx in rs.positive_indices(flat.mask):
        if span.add(rs.roots[idx]):
            atoms.append(lat.atom_of(idx))
    if len(atoms) != flat.rank:
        raise InvariantViolation("flat roots must span the flat rank")
    return atoms
