"""Reference linear algebra: oracles for `jspec.exactla` and `jspec.lattice`.

- `det_leibniz`, the determinant by permutation expansion, checks
  `Matrix.det` (Bareiss).
- `rref_reference` is the Gauss-Jordan `Matrix.rref` ran before it
  updated only the live entries of each row: every row is rebuilt in full
  at every pivot, with a separate product and difference per entry.
- `projection_onto` is the projection formula jspec used before it moved
  to fraction-free integer elimination: one RREF of [a*a | a*] over K.
- `meet` is the meet jspec used before it intersected range bases: the
  kernel of the two complements I - P and I - Q stacked by `vstack`.

They are kept as oracles for the differential tests and are not used by
the package itself.
"""

from __future__ import annotations

from itertools import permutations

from jspec.exactla import Matrix, hstack
from jspec.lattice import Projection
from jspec.scalar import FieldElem


def det_leibniz(m: Matrix) -> FieldElem:
    """Determinant by permutation expansion."""
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    total = m.ctx.zero
    for perm in permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n)
                         if perm[a] > perm[b])
        term = m.ctx.one if inversions % 2 == 0 else -m.ctx.one
        for i in range(n):
            term = term * m.rows[i][perm[i]]
        total = total + term
    return total


def rref_reference(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    rows = [list(r) for r in m.rows]
    pivots: list[int] = []
    pr = 0
    for col in range(m.ncols):
        if pr == m.nrows:
            break
        piv = next((r for r in range(pr, m.nrows) if rows[r][col]), None)
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        inv = rows[pr][col].inv()
        rows[pr] = [x * inv for x in rows[pr]]
        for r in range(m.nrows):
            if r != pr and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[pr])]
        pivots.append(col)
        pr += 1
    return Matrix(rows, m.ctx, ncols=m.ncols), tuple(pivots)


def projection_onto(a: Matrix) -> Matrix:
    """a (a*a)^{-1} a*: one RREF of [a*a | a*] gives (a*a)^{-1} a*."""
    if a.ncols == 0:
        return Matrix.zeros(a.nrows, a.nrows, a.ctx)
    r = a.ncols
    a_star = a.conj_transpose()
    red, pivots = hstack(a_star * a, a_star).rref()
    if pivots[:r] != tuple(range(r)):
        # a*a is positive definite exactly when the columns are independent
        raise ValueError("columns are dependent")
    return a * Matrix([row[r:] for row in red.rows], a.ctx, ncols=a.nrows)


def vstack(a: Matrix, b: Matrix) -> Matrix:
    if a.ncols != b.ncols:
        raise ValueError("column count mismatch")
    return Matrix([list(r) for r in a.rows] + [list(r) for r in b.rows],
                  a.ctx, ncols=a.ncols)


def meet(p: Projection, q: Projection) -> Projection:
    """Range(p) ∩ Range(q): the vectors both complements kill."""
    ident = Matrix.identity(p.n, p.ctx)
    stacked = vstack(ident - p.matrix, ident - q.matrix)
    return Projection(stacked.kernel_basis())
