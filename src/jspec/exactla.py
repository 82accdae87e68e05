"""Exact dense linear algebra over K = Q(i, sqrt(d)).

Matrices are immutable row-major arrays of K-scalars and all computation is
exact: determinants by fraction-free elimination, rank and kernels by
Gauss-Jordan reduction, and column spaces canonicalized to a reduced
column echelon basis, so equal subspaces have equal bases.  Rank, kernel
and column space all run on `Matrix.rref`, whose Gauss-Jordan touches only
the live entries of a pivot step, the columns right of the pivot where the
pivot row is nonzero, and forms each update x - f*y with one fused
`scalar._sub_mul` (one gcd reduction instead of two).  `_bareiss` is the
one fraction-free elimination, on the integer form of `jspec.scalar`: it
gives `Matrix.det` on rows scaled into Z[i, sqrt(d)], the Gram
determinants, as Gauss-Jordan with a column step the last pivot and kernel
vector of the closed-form pencils of `jspec.spectrum`, and, as
Gauss-Jordan on the integral Gram matrix, the projection A (A*A)^{-1} A*
onto a column space, with one division per entry at the end.  The
projection matrix keeps the rows of the integral form it was divided out
of (`Matrix.scaled`), which the pencil DP reads as they are.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, prod
from typing import Iterable, Optional, Sequence

from jspec.scalar import (
    Automorphism,
    FieldContext,
    FieldElem,
    Scalarish,
    _dot4,
    _integral,
    _inverse4,
    _mul4,
    _quote_int,
    _reduced,
    _sub4,
    _sub_mul,
    format_scalar,
    parse_scalar,
)

Vector = tuple[FieldElem, ...]


def _as_elem(x: Scalarish, ctx: FieldContext) -> FieldElem:
    if isinstance(x, FieldElem):
        if x.ctx.d != ctx.d:
            raise ValueError(f"entry from d={x.ctx.d} in a d={ctx.d} matrix")
        return x
    if isinstance(x, (int, Fraction)):
        return ctx.elem(x)
    raise TypeError(f"cannot use {type(x).__name__} as a matrix entry")


def _find_ctx(entries: Iterable[object]) -> Optional[FieldContext]:
    for x in entries:
        if isinstance(x, FieldElem):
            return x.ctx
    return None


class Matrix:
    """An immutable nrows x ncols matrix over K.

    `scaled` is None, or an integral form (s, rows) of a Hermitian matrix
    M that its builder knew: s a real nonzero 4-int tuple in Z[sqrt d],
    and rows the rows of s M, with its entries as 4-int tuples in
    Z[i, sqrt d].  Only `projection_onto` sets it.
    """

    __slots__ = ("nrows", "ncols", "rows", "ctx", "scaled")

    def __init__(self, rows: Sequence[Sequence[Scalarish]],
                 ctx: Optional[FieldContext] = None,
                 ncols: Optional[int] = None):
        rows = [list(r) for r in rows]
        if ctx is None:
            ctx = _find_ctx(x for r in rows for x in r)
        if ctx is None:
            raise ValueError("no FieldElem entries; pass ctx explicitly")
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError(f"ncols={ncols} but rows have width {width}")
            ncols = width
        elif ncols is None:
            ncols = 0
        self.rows: tuple[tuple[FieldElem, ...], ...] = tuple(
            tuple(_as_elem(x, ctx) for x in r) for r in rows)
        self.nrows = len(rows)
        self.ncols = ncols
        self.ctx = ctx
        self.scaled: Optional[tuple] = None

    @classmethod
    def _of(cls, rows: Iterable[Sequence[FieldElem]], ctx: FieldContext,
            ncols: int, scaled: Optional[tuple] = None) -> "Matrix":
        """A matrix from rows of FieldElems over ctx, with no entry check.

        Only for matrices built here from entries of checked matrices:
        products, sums, transposes, RREF results and the like.  Outside
        input goes through __init__.
        """
        m = cls.__new__(cls)
        m.rows = tuple(map(tuple, rows))
        m.nrows = len(m.rows)
        m.ncols = ncols
        m.ctx = ctx
        m.scaled = scaled
        return m

    @classmethod
    def _of_columns(cls, cols: Sequence[Vector], ctx: FieldContext,
                    nrows: int) -> "Matrix":
        """`from_columns` for vectors of FieldElems over ctx, unchecked."""
        if not cols:
            return cls._of([()] * nrows, ctx, 0)
        return cls._of(zip(*cols), ctx, len(cols))

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, n: int, ctx: FieldContext) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)],
                   ctx)

    @classmethod
    def zeros(cls, nrows: int, ncols: int, ctx: FieldContext) -> "Matrix":
        return cls([[0] * ncols for _ in range(nrows)], ctx, ncols=ncols)

    @classmethod
    def diag(cls, entries: Sequence[Scalarish], ctx: FieldContext) -> "Matrix":
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)]
                    for i in range(n)], ctx)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[Scalarish]],
                     ctx: Optional[FieldContext] = None,
                     nrows: Optional[int] = None) -> "Matrix":
        if not cols:
            if nrows is None or ctx is None:
                raise ValueError("empty column list needs nrows and ctx")
            return cls([[] for _ in range(nrows)], ctx, ncols=0)
        return cls(list(zip(*cols)), ctx)

    # -- structure -----------------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, key: tuple[int, int]) -> FieldElem:
        i, j = key
        return self.rows[i][j]

    def col(self, j: int) -> Vector:
        return tuple(self.rows[i][j] for i in range(self.nrows))

    def columns(self) -> list[Vector]:
        return [self.col(j) for j in range(self.ncols)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.nrows, self.ncols, self.rows) == \
               (other.nrows, other.ncols, other.rows)

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self) -> str:
        body = "; ".join(", ".join(format_scalar(x) for x in row)
                         for row in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: [{body}])"

    def is_zero(self) -> bool:
        return not any(x for row in self.rows for x in row)

    # -- arithmetic ------------------------------------------------------------

    def _same_shape(self, other: "Matrix") -> None:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} vs "
                f"{other.nrows}x{other.ncols}")

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other)
        return Matrix._of([[x + y for x, y in zip(r, s)]
                           for r, s in zip(self.rows, other.rows)],
                          self.ctx, self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other)
        return Matrix._of([[x - y for x, y in zip(r, s)]
                           for r, s in zip(self.rows, other.rows)],
                          self.ctx, self.ncols)

    def __neg__(self) -> "Matrix":
        return Matrix._of([[-x for x in r] for r in self.rows],
                          self.ctx, self.ncols)

    def __mul__(self, other: object) -> "Matrix":
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError(
                    f"cannot multiply {self.nrows}x{self.ncols} by "
                    f"{other.nrows}x{other.ncols}")
            zero = self.ctx.zero
            out = []
            for i in range(self.nrows):
                row = []
                for j in range(other.ncols):
                    acc = zero
                    for k in range(self.ncols):
                        acc = acc + self.rows[i][k] * other.rows[k][j]
                    row.append(acc)
                out.append(row)
            return Matrix._of(out, self.ctx, other.ncols)
        if isinstance(other, (FieldElem, int, Fraction)):
            s = _as_elem(other, self.ctx)
            return Matrix._of([[x * s for x in r] for r in self.rows],
                              self.ctx, self.ncols)
        return NotImplemented

    def __rmul__(self, other: object) -> "Matrix":
        if isinstance(other, (FieldElem, int, Fraction)):
            return self * other
        return NotImplemented

    def matvec(self, v: Sequence[Scalarish]) -> Vector:
        if len(v) != self.ncols:
            raise ValueError(f"vector length {len(v)} != ncols {self.ncols}")
        vv = [_as_elem(x, self.ctx) for x in v]
        return tuple(
            sum((self.rows[i][k] * vv[k] for k in range(self.ncols)),
                self.ctx.zero)
            for i in range(self.nrows))

    def transpose(self) -> "Matrix":
        return Matrix._of(zip(*self.rows) if self.nrows else
                          [()] * self.ncols, self.ctx, self.nrows)

    def conj_transpose(self) -> "Matrix":
        return Matrix._of([[self.rows[i][j].conj() for i in range(self.nrows)]
                           for j in range(self.ncols)], self.ctx, self.nrows)

    # -- elimination -----------------------------------------------------------

    def det(self) -> FieldElem:
        """Exact determinant: `_bareiss` on rows scaled into Z[i, sqrt d]."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        scaled = [_integral(row) for row in self.rows]
        det = _bareiss([ints for _, ints in scaled], self.ctx.d)[0]
        return _reduced(*det, prod(den for den, _ in scaled), self.ctx)

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices.

        Gauss-Jordan that touches only entries that can change.  Left of a
        pivot in column col, the pivot row is zero, so the pivot step
        changes only col itself and the live columns j > col where the
        pivot row is nonzero.  The pivot row is scaled at its live entries
        (not at all when the pivot is already 1), and every other row with
        a nonzero col entry gets x - f*y at the live entries, fused into
        one `_sub_mul`, and a zero at col.  The RREF is unique, so this is
        the matrix a full-row update would give.
        """
        rows = [list(r) for r in self.rows]
        nrows, ncols = self.nrows, self.ncols
        zero, one = self.ctx.zero, self.ctx.one
        pivots: list[int] = []
        pr = 0
        for col in range(ncols):
            if pr == nrows:
                break
            piv = next((r for r in range(pr, nrows) if rows[r][col]), None)
            if piv is None:
                continue
            rows[pr], rows[piv] = rows[piv], rows[pr]
            top = rows[pr]
            live = [j for j in range(col + 1, ncols) if top[j]]
            if top[col] != one:
                inv = top[col].inv()
                for j in live:
                    top[j] = top[j] * inv
                top[col] = one
            for row in rows:
                f = row[col]
                if f and row is not top:
                    for j in live:
                        row[j] = _sub_mul(row[j], f, top[j])
                    row[col] = zero
            pivots.append(col)
            pr += 1
        return Matrix._of(rows, self.ctx, self.ncols), tuple(pivots)

    def rank(self) -> int:
        # Keep this on rref: the `witness` benchmark workload reaches the
        # traced `exactla.rref` boundary only through random_projection's
        # rank check, so a rank-only elimination would leave it unreached.
        return len(self.rref()[1])

    def kernel_basis(self) -> "Matrix":
        """Columns spanning the null space, one per free variable."""
        red, pivots = self.rref()
        free = [j for j in range(self.ncols) if j not in pivots]
        cols = []
        for f in free:
            v = [self.ctx.zero] * self.ncols
            v[f] = self.ctx.one
            for r, p in enumerate(pivots):
                v[p] = -red.rows[r][f]
            cols.append(tuple(v))
        return Matrix._of_columns(cols, self.ctx, self.ncols)

    def colspace_basis(self) -> "Matrix":
        """The reduced column echelon basis of the column space.

        The basis is unique per subspace, so two matrices have the same
        column space iff their colspace_basis() values are equal.
        """
        red, pivots = self.transpose().rref()
        return Matrix._of_columns(red.rows[:len(pivots)], self.ctx,
                                  self.nrows)


# -- module-level operations ---------------------------------------------------


def vdot(x: Sequence[Scalarish], y: Sequence[Scalarish],
         ctx: Optional[FieldContext] = None) -> FieldElem:
    """Inner product conj(x) . y, conjugate-linear in the first slot."""
    if len(x) != len(y):
        raise ValueError("vectors of different lengths")
    if ctx is None:
        ctx = _find_ctx(list(x) + list(y))
    if ctx is None:
        raise ValueError("no FieldElem entries; pass ctx explicitly")
    return sum((_as_elem(a, ctx).conj() * _as_elem(b, ctx)
                for a, b in zip(x, y)), ctx.zero)


def hstack(a: Matrix, b: Matrix) -> Matrix:
    if a.nrows != b.nrows:
        raise ValueError("row count mismatch")
    if a.ctx.d != b.ctx.d:
        raise ValueError(f"entry from d={b.ctx.d} in a d={a.ctx.d} matrix")
    return Matrix._of([r + s for r, s in zip(a.rows, b.rows)],
                      a.ctx, a.ncols + b.ncols)


def projection_onto(a: Matrix) -> Matrix:
    """The matrix of the orthogonal projection onto the column space of a.

    Computed as a (a*a)^{-1} a* on integers.  `_gram_elimination` makes
    the columns of a primitive and integral, which keeps their span and
    puts a and G = a*a in Z[i, sqrt d], raises for dependent columns, and
    turns [G | a*] into [g I | adj(G) a*] with g = det G.  So the Hermitian
    N = a adj(G) a* is g P, and each entry of P is that of N times the one
    inverse of g (`scalar._inverse4`).  The matrix keeps g and the rows of
    N as its `scaled` form.  No columns give g = 1, the zero N and the
    zero projection.
    """
    n, r, ctx = a.nrows, a.ncols, a.ctx
    d = ctx.d
    cols, det, m = _gram_elimination(a, d, adjoint=True)
    flip, norm = _inverse4(det, d)
    adj = [[row[r + l] for row in m] for l in range(n)]  # columns of adj(G) a*
    rows = [[None] * n for _ in range(n)]  # N, as 4-int tuples
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        a_i = [col[i] for col in cols]
        for l in range(i, n):
            x = rows[i][l] = _dot4(a_i, adj[l], d)
            rows[l][i] = (x[0], x[1], -x[2], -x[3])
            out[i][l] = _reduced(*_mul4(flip, x, d), norm, ctx)
            out[l][i] = out[i][l].conj()
    return Matrix._of(out, ctx, n, scaled=(det, tuple(map(tuple, rows))))


def _primitive_columns(a: Matrix) -> list[list[tuple]]:
    """The columns of a as 4-int tuples, cleared and made primitive.

    Each column is cleared of denominators (`_integral`) and divided by the
    gcd of its integer components.  That keeps its span and keeps det(a*a)
    from gaining the square of a common factor.
    """
    out = []
    for col in a.columns():
        ints = _integral(col)[1]
        g = gcd(*chain.from_iterable(ints))
        out.append([tuple(x // g for x in v) for v in ints] if g > 1
                   else ints)
    return out


def _gram_elimination(a: Matrix, d: int, adjoint: bool = False
                      ) -> tuple[list[list[tuple]], tuple, list[list]]:
    """The columns of a, det G for their Gram matrix G, and the rows.

    The columns of a are made primitive and integral
    (`_primitive_columns`), so G = a*a lies in Z[i, sqrt d], and a zero
    det G raises ValueError: the columns are dependent.  A zero leading
    minor of G means its first columns are dependent, so `_bareiss` never
    swaps rows here.  With `adjoint` it runs on the rows [G | a*], whose
    last columns end as adj(G) a*.  They are a* [a | I], of a's rank, so
    a singular G gives det 0 whatever `_bareiss` swaps in.
    """
    cols = _primitive_columns(a)
    conj = [[(x[0], x[1], -x[2], -x[3]) for x in col] for col in cols]
    m = [[_dot4(conj[j], col, d) for col in cols]
         + (conj[j] if adjoint else []) for j in range(len(cols))]
    det, rows, _ = _bareiss(m, d, jordan=adjoint)
    if not any(det):
        raise ValueError("columns are dependent")
    return cols, det, rows


def _bareiss(rows: list[list[tuple]], d: int,
             jordan: bool = False) -> tuple[tuple, list[list], list[int]]:
    """det B for n pivot columns B of n rows in Z[i, sqrt d], rows, order.

    Fraction-free elimination (Bareiss 1968) in place: step k sets each x
    right of column k in another row to (p x - f y) / p', with p the pivot,
    f the row's column-k entry, y the pivot row's and p' the last pivot, an
    exact division.  The step inverts p' once, 1 / p' = y' / N with an
    integer N (`scalar._inverse4`), so each update is one product by y'
    (none for a rational p', whose y' is 1) and four exact floor divisions
    by N.  A zero pivot swaps in a lower row and flips the sign.  With
    none, column k trades places with the first column past the leading
    n x n block A that has a nonzero entry in rows k..; `order` lists
    where each column started, and B = order[:n].  With none there either,
    column k and all columns past A lie in the span of the k pivot
    columns, so only the n - k - 1 columns of A after k can add to it, and
    the rank is below n: det = 0 at once, as with fewer columns than rows.
    So a square matrix stops at its first missing pivot, and B = A when A
    is nonsingular.  No rows give 1.  Without `jordan` only rows below a
    pivot are updated; with it every row is, and the columns R right of B
    end as p B^-1 R for the last pivot p (det B without row swaps).
    """
    n, sign, prev = len(rows), 1, (1, 0, 0, 0)
    width = len(rows[0]) if rows else 0
    order = list(range(width))
    if width < n:
        return (0, 0, 0, 0), rows, order
    for k in range(n):
        swap = next((r for r in range(k, n) if any(rows[r][k])), None)
        if swap is None:
            found = next(((r, j) for j in range(n, width)
                          for r in range(k, n) if any(rows[r][j])), None)
            if found is None:
                return (0, 0, 0, 0), rows, order
            swap, j = found
            for row in rows:
                row[k], row[j] = row[j], row[k]
            order[k], order[j] = order[j], order[k]
        if swap != k:
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        top, piv = rows[k], rows[k][k]
        inv, norm = _inverse4(prev, d)
        rational = inv == (1, 0, 0, 0)
        for row in rows if jordan else rows[k + 1:]:
            if row is not top:
                f = row[k]
                for j in range(k + 1, width):
                    x = _sub4(_mul4(piv, row[j], d), _mul4(f, top[j], d))
                    if not rational:
                        x = _mul4(x, inv, d)
                    row[j] = (x[0] // norm, x[1] // norm, x[2] // norm,
                              x[3] // norm)
        prev = piv
    return (prev if sign > 0 else tuple(-x for x in prev)), rows, order


def gram_schmidt(a: Matrix) -> Matrix:
    """Pairwise-orthogonal columns spanning the column space of a.

    No normalization (norms would leave K); dependent input columns are
    dropped.
    """
    us: list[Vector] = []
    norms: list[FieldElem] = []  # vdot(u, u) for each u, taken once
    for j in range(a.ncols):
        v = list(a.col(j))
        for u, norm in zip(us, norms):
            coef = vdot(u, v, a.ctx) / norm
            v = [x - coef * y for x, y in zip(v, u)]
        if any(v):
            us.append(tuple(v))
            norms.append(vdot(v, v, a.ctx))
    return Matrix._of_columns(us, a.ctx, a.nrows)


def automorphism_entrywise(f: Automorphism, m: Matrix) -> Matrix:
    """Apply a field automorphism to every entry (m itself for id)."""
    if f is Automorphism.ID:
        return m
    return Matrix._of([[f(x) for x in row] for row in m.rows],
                      m.ctx, m.ncols)


# -- text form -------------------------------------------------------------


def matrix_to_json(m: Matrix) -> dict:
    return {"d": m.ctx.d,
            "rows": [[format_scalar(x) for x in row] for row in m.rows]}


def matrix_from_json(obj: object, ctx: Optional[FieldContext] = None) -> Matrix:
    if not isinstance(obj, dict):
        raise ValueError("matrix form must be a JSON object")
    if "rows" not in obj:
        raise ValueError('matrix form needs a "rows" array')
    d = obj.get("d")
    if d is not None and (not isinstance(d, int) or isinstance(d, bool)):
        raise ValueError('"d" must be an integer')
    if ctx is None:
        if d is None:
            raise ValueError('matrix form needs a "d" field')
        ctx = FieldContext(d)
    elif d is not None and d != ctx.d:
        raise ValueError(
            f'matrix is over d={_quote_int(d)}, expected d={ctx.d}')
    rows = obj["rows"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError('"rows" must be an array of arrays')
    parsed = []
    for i, row in enumerate(rows):
        out = []
        for j, cell in enumerate(row):
            if not isinstance(cell, str):
                raise ValueError(f"entry ({i},{j}) is not a string")
            out.append(parse_scalar(cell, ctx))
        parsed.append(out)
    return Matrix(parsed, ctx)
