"""Exception hierarchy. Everything raised on purpose derives from JointSparseError."""

from __future__ import annotations


class JointSparseError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(JointSparseError):
    """An argument is outside the mathematical domain of the operation."""


class AllZeroMatrix(JointSparseError):
    """The matrix has no eigenvalue above the zero threshold."""


class RankDeficient(JointSparseError):
    """A full-row-rank precondition failed (A A^T not invertible within tolerance)."""


class Infeasible(JointSparseError):
    """No feasible support exists within the requested cardinality budget."""


class EnumerationTooLarge(JointSparseError):
    """Combinatorial enumeration refused: problem exceeds the guard size."""


class DimGuardExceeded(JointSparseError):
    """Nullspace search dimension nullity*r exceeds the configured guard."""


class TrivialNullspace(JointSparseError):
    """Ker(A) = {0}: there is nothing to optimize over."""


class DuplicateNodes(JointSparseError):
    """Vandermonde nodes must be pairwise distinct."""


class MaxIterationsExceeded(JointSparseError):
    """Iteration budget exhausted before convergence.

    Carries the last iterate so callers can inspect how far the solver got.
    """

    def __init__(self, message: str, last=None):
        super().__init__(message)
        self.last = last
