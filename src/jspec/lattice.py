"""The lattice of orthogonal projections on K^n.

A Projection is built from a basis of its range; its matrix A (A*A)^{-1} A*
is Hermitian and idempotent by construction, so nothing is checked, and it
is built only when first read.  A matrix from outside (the "matrix" form
of a JSON file) comes in through make_projection, the one place that
checks it.
Each subspace of K^n has exactly one projection matrix, which makes
projection equality plain matrix equality.  Meet and join work on range
bases alone: join is the projection onto the sum of ranges, spanned by the
reduced column echelon basis (Matrix.colspace_basis) of the two range bases
side by side, and meet the projection onto the intersection of ranges,
read off the kernel of the two range bases side by side.
"""

from __future__ import annotations

from typing import Optional, Sequence

from jspec.exactla import (
    Matrix,
    _as_elem,
    _find_ctx,
    hstack,
    matrix_from_json,
    matrix_to_json,
    projection_onto,
)
from jspec.scalar import FieldContext, Scalarish


class Projection:
    """The orthogonal projection onto the span of basis (independent columns).

    Nothing checks the basis.  The matrix is built on first use (`.matrix`
    and every method that reads it, such as == and hash) and cached, and a
    dependent basis raises ValueError there; rank, n and ctx come from the
    basis, so they never build it.  The matrix carries g and the rows of
    the integral g P that `projection_onto` divides it out of
    (`Matrix.scaled`), and the pencil DP of `jspec.spectrum` runs on them
    as they are instead of eliminating the Gram matrix of the basis a
    second time.  Both are built in one call from the basis, which nothing
    changes, and a dependent basis raises before either exists, so it
    raises on every read.
    """

    __slots__ = ("basis", "_matrix")

    def __init__(self, basis: Matrix):
        self.basis = basis
        self._matrix: Optional[Matrix] = None

    # -- structure ----------------------------------------------------------

    @property
    def matrix(self) -> Matrix:
        if self._matrix is None:
            self._matrix = projection_onto(self.basis)
        return self._matrix

    @property
    def n(self) -> int:
        return self.basis.nrows

    @property
    def ctx(self) -> FieldContext:
        return self.basis.ctx

    @property
    def rank(self) -> int:
        return self.basis.ncols

    def is_zero(self) -> bool:
        return self.rank == 0

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
        return Projection(self.basis.conj_transpose().kernel_basis())

    def join(self, other: "Projection") -> "Projection":
        """Projection onto Range(self) + Range(other)."""
        self._same_space(other)
        return Projection(hstack(self.basis, other.basis).colspace_basis())

    def meet(self, other: "Projection") -> "Projection":
        """Projection onto Range(self) ∩ Range(other).

        Bp x lies in both ranges iff Bp x + Bq y = 0 for some y, so the
        x-halves of a kernel basis of [Bp | Bq] map onto a basis of the
        intersection: Bp x = 0 forces x = 0, then Bq y = 0 forces y = 0.
        """
        self._same_space(other)
        kernel = hstack(self.basis, other.basis).kernel_basis()
        top = Matrix._of(kernel.rows[:self.rank], self.ctx, kernel.ncols)
        return Projection(self.basis * top)

    def leq(self, other: "Projection") -> bool:
        """Range containment: true iff self.matrix * other.matrix = self.matrix."""
        self._same_space(other)
        return self.matrix * other.matrix == self.matrix

    def is_orthogonal_to(self, other: "Projection") -> bool:
        self._same_space(other)
        return (self.matrix * other.matrix).is_zero()


# -- constructors ---------------------------------------------------------------


def make_projection(matrix: Matrix) -> Projection:
    """The projection whose matrix is `matrix`, checked to be one."""
    if not matrix.is_square:
        raise ValueError("projection matrix must be square")
    if matrix.conj_transpose() != matrix:
        raise ValueError("projection matrix must be Hermitian")
    if matrix * matrix != matrix:
        raise ValueError("projection matrix must be idempotent")
    return Projection(matrix.colspace_basis())


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
    return Projection(Matrix(col, ctx, ncols=1))


def zero_projection(n: int, ctx: FieldContext) -> Projection:
    return Projection(Matrix.zeros(n, 0, ctx))


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
        return make_projection(matrix_from_json(obj["matrix"], ctx))
    return Projection(matrix_from_json(obj["span"], ctx).colspace_basis())
