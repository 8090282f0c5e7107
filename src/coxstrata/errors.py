"""Exception types shared across the package."""

from __future__ import annotations


class CoxstrataError(Exception):
    """Base class for all package-specific errors."""


class InvalidRank(CoxstrataError):
    """Family/rank combination is not a valid Cartan type."""


class NotAdditivelyClosed(CoxstrataError):
    """A root subset is not additively closed."""


class ResourceLimit(CoxstrataError):
    """Configured enumeration budget exceeded."""


class InvalidId(CoxstrataError):
    """Flat id not present in the lattice."""


class RankOutOfRange(CoxstrataError):
    """Index k outside [0, rank]."""


class NotClassical(CoxstrataError):
    """Operation defined only for types A, B, C, D."""


class NotGood(CoxstrataError):
    """Subsystem is not maximal closed of its rank."""


class MalformedDescriptor(CoxstrataError):
    """Parameter-set descriptor out of bounds or ill-formed."""


class StarViolation(CoxstrataError):
    """Parameter set fails its star condition."""


class LatticeMismatch(CoxstrataError):
    """Arguments live over different lattices or root-system types."""


class MalformedWord(CoxstrataError):
    """Word contains an invalid simple-reflection index."""


class SpanDeficient(CoxstrataError):
    """Auxiliary root does not complete the subsystem span."""


class NotInVariety(CoxstrataError):
    """Raised by operations whose precondition is variety membership."""


class MagnitudeOverflow(CoxstrataError):
    """An integer would not fit the int64 arrays of the vectorised path."""


class InvariantViolation(CoxstrataError):
    """An internal consistency check failed (a bug, not bad input)."""
