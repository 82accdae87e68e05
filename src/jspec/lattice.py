"""The lattice of orthogonal projections on K^n.

A projection is a Hermitian idempotent matrix over K; both properties are
checked at construction, so a Projection value is trustworthy by type.  Each
subspace of K^n has exactly one such matrix, which makes projection equality
plain matrix equality, and lets meet and join be computed exactly: join is
the projection onto the sum of ranges, meet the projection onto the
intersection, found as the common kernel of the two complements.
"""

from __future__ import annotations

from typing import Optional, Sequence

from jspec.exactla import (
    Matrix,
    Scalarish,
    Subspace,
    _as_elem,
    _find_ctx,
    hstack,
    matrix_from_json,
    matrix_to_json,
    projection_onto,
    vstack,
)
from jspec.scalar import FieldContext


class Projection:
    """An orthogonal projection on K^n, stored as its matrix."""

    __slots__ = ("matrix", "_rank")

    def __init__(self, matrix: Matrix):
        if not matrix.is_square:
            raise ValueError("projection matrix must be square")
        if matrix.conj_transpose() != matrix:
            raise ValueError("projection matrix must be Hermitian")
        if matrix * matrix != matrix:
            raise ValueError("projection matrix must be idempotent")
        self.matrix = matrix
        self._rank: Optional[int] = None

    # -- structure ----------------------------------------------------------

    @property
    def n(self) -> int:
        return self.matrix.nrows

    @property
    def ctx(self) -> FieldContext:
        return self.matrix.ctx

    @property
    def rank(self) -> int:
        if self._rank is None:
            self._rank = self.matrix.rank()
        return self._rank

    def range(self) -> Subspace:
        return self.matrix.colspace()

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Projection):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"Projection(rank {self.rank} on K^{self.n})"

    def _same_space(self, other: "Projection") -> None:
        if self.n != other.n:
            raise ValueError(f"projections on K^{self.n} and K^{other.n}")

    # -- lattice operations ----------------------------------------------------

    def complement(self) -> "Projection":
        return Projection(Matrix.identity(self.n, self.ctx) - self.matrix)

    def join(self, other: "Projection") -> "Projection":
        """Projection onto Range(self) + Range(other)."""
        self._same_space(other)
        span = hstack(self.matrix, other.matrix)
        return Projection(projection_onto(span.colspace().basis))

    def meet(self, other: "Projection") -> "Projection":
        """Projection onto Range(self) ∩ Range(other).

        A vector lies in both ranges iff both complements kill it, so the
        intersection is the kernel of the stacked complements.
        """
        self._same_space(other)
        ident = Matrix.identity(self.n, self.ctx)
        stacked = vstack(ident - self.matrix, ident - other.matrix)
        return Projection(projection_onto(stacked.kernel_basis()))

    def leq(self, other: "Projection") -> bool:
        """Range containment: true iff self.matrix * other.matrix = self.matrix."""
        self._same_space(other)
        return self.matrix * other.matrix == self.matrix

    def is_orthogonal_to(self, other: "Projection") -> bool:
        self._same_space(other)
        return (self.matrix * other.matrix).is_zero()


# -- constructors ---------------------------------------------------------------


def make_projection(matrix: Matrix) -> Projection:
    """Wrap a matrix already known to be a projection; validates."""
    return Projection(matrix)


def rank_one(v: Sequence[Scalarish],
             ctx: Optional[FieldContext] = None) -> Projection:
    """The projection onto the line spanned by the nonzero vector v."""
    if ctx is None:
        ctx = _find_ctx(v)
    if ctx is None:
        raise ValueError("no FieldElem entries; pass ctx explicitly")
    col = [[_as_elem(x, ctx)] for x in v]
    if not any(r[0] for r in col):
        raise ValueError("rank_one needs a nonzero vector")
    return Projection(projection_onto(Matrix(col, ctx, ncols=1)))


def from_span(a: Matrix) -> Projection:
    """The projection onto the column space of a.

    Columns must be independent (a zero-column matrix is fine and gives the
    zero projection); dependent spanning sets are the caller's bug.
    """
    return Projection(projection_onto(a))


def zero_projection(n: int, ctx: FieldContext) -> Projection:
    return Projection(Matrix.zeros(n, n, ctx))


def identity_projection(n: int, ctx: FieldContext) -> Projection:
    return Projection(Matrix.identity(n, ctx))


# -- text form -------------------------------------------------------------------


def projection_to_json(p: Projection) -> dict:
    return {"matrix": matrix_to_json(p.matrix)}


def projection_from_json(obj: object,
                         ctx: Optional[FieldContext] = None) -> Projection:
    if not isinstance(obj, dict):
        raise ValueError("projection form must be a JSON object")
    if ("matrix" in obj) == ("span" in obj):
        raise ValueError('projection form needs exactly one of "matrix"/"span"')
    if "matrix" in obj:
        return Projection(matrix_from_json(obj["matrix"], ctx))
    span = matrix_from_json(obj["span"], ctx)
    return Projection(projection_onto(span.colspace().basis))
