"""Determinants, elimination, subspaces and the projection formula."""

import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from jspec.exactla import (
    Matrix,
    _bareiss,
    _primitive_columns,
    automorphism_entrywise,
    gram_schmidt,
    hstack,
    matrix_from_json,
    matrix_to_json,
    projection_onto,
    vdot,
)
from jspec.scalar import (ALL_AUTOMORPHISMS, FieldContext, Automorphism,
                          _integral, _inverse4, _mul4, _sub_mul)
from fractions import Fraction
from reference_linalg import det_leibniz, rref_reference, vstack

K = FieldContext(2)
I_ = K.i
R_ = K.sqrt_d
POOL = [K.zero, K.one, -K.one, K.elem(2), K.elem(-2), I_, -I_, R_, -R_,
        1 + I_, 1 - I_, 1 + R_, 1 - R_]


def random_matrix(rng, nrows, ncols, ctx=K):
    pool = POOL if ctx is K else [ctx.zero, ctx.one, -ctx.one, ctx.i, ctx.sqrt_d]
    return Matrix([[rng.choice(pool) for _ in range(ncols)]
                   for _ in range(nrows)], ctx, ncols=ncols)


def random_independent(rng, nrows, ncols):
    while True:
        a = random_matrix(rng, nrows, ncols)
        if a.rank() == ncols:
            return a


# -- determinant ---------------------------------------------------------------


def test_det_fixed_values():
    assert Matrix.identity(3, K).det() == 1
    assert Matrix([[0, 1], [1, 0]], K).det() == -1
    assert Matrix([[1, R_], [R_, 2]], K).det() == 0
    assert Matrix([[K.one]], K).det() == 1
    assert Matrix([], K, ncols=0).det() == 1


def test_det_requires_square():
    with pytest.raises(ValueError):
        Matrix.zeros(2, 3, K).det()


def test_det_matches_leibniz_oracle():
    rng = random.Random(1001)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        assert m.det() == det_leibniz(m)


def test_det_is_multiplicative():
    rng = random.Random(1002)
    for _ in range(100):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        b = random_matrix(rng, n, n)
        assert (a * b).det() == a.det() * b.det()


def test_det_of_triangular_is_diagonal_product():
    m = Matrix([[1, R_, I_], [0, 2 + I_, R_], [0, 0, K.elem(Fraction(1, 3))]], K)
    assert m.det() == (2 + I_) * Fraction(1, 3)


# -- elimination ----------------------------------------------------------------


def test_rank_fixed_values():
    assert Matrix.diag([K.one, K.zero, K.zero], K).rank() == 1
    assert Matrix.identity(4, K).rank() == 4
    assert Matrix.zeros(3, 3, K).rank() == 0
    assert Matrix([[1, R_], [R_, 2]], K).rank() == 1


def test_kernel_basis():
    ker = Matrix([[K.one, K.one]], K).kernel_basis()
    assert ker.ncols == 1
    assert ker.colspace_basis() == Matrix([[K.one], [-K.one]], K).colspace_basis()
    assert Matrix.identity(3, K).kernel_basis().ncols == 0


def test_kernel_is_annihilated():
    rng = random.Random(1003)
    for _ in range(100):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        ker = m.kernel_basis()
        assert ker.ncols == m.ncols - m.rank()
        if ker.ncols:
            assert (m * ker).is_zero()
        assert ker.rank() == ker.ncols


# -- elimination against the full-row oracle --------------------------------------

FIELDS = {d: FieldContext(d) for d in (2, 3, 5, 999999937)}
RATIONALS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=5))


def rationals(ctx):
    return RATIONALS.map(ctx.elem)


def irrationals(ctx):
    """Scalars with a nonzero sqrt(d), i or sqrt(d)*i part."""
    return st.tuples(RATIONALS, RATIONALS, RATIONALS, RATIONALS).filter(
        lambda t: any(t[1:])).map(lambda t: ctx.elem(*t))


def scalars(ctx):
    return st.one_of(st.just(ctx.zero), rationals(ctx), irrationals(ctx))


@st.composite
def elimination_inputs(draw):
    """Matrices up to 6 x 8 with zero rows and columns and dependent rows."""
    ctx = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 8))
    rows = [[draw(scalars(ctx)) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(nrows):
        kind = draw(st.sampled_from(("free", "free", "zero", "dependent")))
        if kind == "zero":
            rows[i] = [ctx.zero] * ncols
        elif kind == "dependent" and i >= 1:
            f, g = draw(scalars(ctx)), draw(scalars(ctx))
            s, t = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            rows[i] = [f * x + g * y for x, y in zip(rows[s], rows[t])]
    for j in draw(st.lists(st.integers(0, max(ncols - 1, 0)), max_size=2)):
        for row in rows:
            if j < ncols:
                row[j] = ctx.zero
    return Matrix(rows, ctx, ncols=ncols)


@settings(max_examples=100, deadline=None)
@given(elimination_inputs())
def test_elimination_matches_full_row_oracle(m):
    """rref, rank, kernel and column space equal the full-row Gauss-Jordan."""
    red, pivots = rref_reference(m)
    assert m.rref() == (red, pivots)
    with mock.patch.object(Matrix, "rref", rref_reference):
        expected = (m.rank(), m.kernel_basis(), m.colspace_basis())
    assert (m.rank(), m.kernel_basis(), m.colspace_basis()) == expected


@st.composite
def det_inputs(draw):
    """Square matrices, n = 0..5, over d = 2, 3 and 999999937.

    Entries are fractional and often non-real, so rows get different
    scales and the pivots leave the reals.  The top of some leading
    columns is zeroed, which forces row swaps, and some rows are zero or
    combinations of earlier rows, which makes the matrix singular.
    """
    ctx = FIELDS[draw(st.sampled_from((2, 3, 999999937)))]
    n = draw(st.integers(0, 5))
    rows = [[draw(scalars(ctx)) for _ in range(n)] for _ in range(n)]
    for j in range(draw(st.integers(0, n))):
        for i in range(draw(st.integers(0, max(n - 1, 0)))):
            rows[i][j] = ctx.zero
    for i in range(n):
        kind = draw(st.sampled_from(("free",) * 6 + ("zero", "dependent")))
        if kind == "zero":
            rows[i] = [ctx.zero] * n
        elif kind == "dependent" and i >= 1:
            f, g = draw(scalars(ctx)), draw(scalars(ctx))
            s, t = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            rows[i] = [f * x + g * y for x, y in zip(rows[s], rows[t])]
    return Matrix(rows, ctx, ncols=n)


@settings(max_examples=150, deadline=None)
@given(det_inputs())
def test_det_matches_leibniz_on_fractional_and_singular_input(m):
    assert m.det() == det_leibniz(m)


def test_det_with_row_swaps_and_non_real_pivots():
    half = Fraction(1, 2)
    for d in (2, 3, 999999937):
        ctx = FIELDS[d]
        i, r = ctx.i, ctx.sqrt_d
        m = Matrix([[0, 1 + i, r * half],
                    [(1 + i) * half, Fraction(1, 3), i],
                    [r, 2 - i, (1 - r * i) * Fraction(1, 3)]], ctx)
        assert m.det() == det_leibniz(m) != 0
        singular = Matrix([[0, 0, i], [0, 0, r], [1 + i, half, 1]], ctx)
        assert singular.det() == 0


@st.composite
def column_step_inputs(draw):
    """d, n and the n + e columns of an n x (n + e) matrix U, e = 0..2.

    U is integral over Z[i, sqrt d], n = 1..5, its columns 4-int tuples,
    about half of the entries zero so that rows swap.  After n - 2 to
    n + e random columns, every other one is zero, a repeat of an earlier
    one or a combination of two earlier ones, and then the columns are
    shuffled, so that such columns stand anywhere, in the leading block or
    past it.
    """
    d = draw(st.sampled_from((2, 3, 999999937)))
    n, e = draw(st.integers(1, 5)), draw(st.integers(0, 2))
    part = st.integers(-3, 3)
    entry = st.one_of(st.just((0, 0, 0, 0)), st.tuples(part, part, part, part))
    cols = [[draw(entry) for _ in range(n)]
            for _ in range(draw(st.integers(max(n - 2, 0), n + e)))]
    while len(cols) < n + e:
        kind = draw(st.sampled_from(("zero", "repeat", "combination")))
        if kind == "zero" or not cols:
            cols.append([(0, 0, 0, 0)] * n)
        elif kind == "repeat":
            cols.append(draw(st.sampled_from(cols)))
        else:
            (f, x), (g, y) = [(draw(entry), draw(st.sampled_from(cols)))
                              for _ in range(2)]
            cols.append([tuple(s + t for s, t in zip(_mul4(f, a, d),
                                                     _mul4(g, b, d)))
                         for a, b in zip(x, y)])
    return d, n, draw(st.permutations(cols))


@settings(max_examples=200, deadline=None)
@given(column_step_inputs())
def test_bareiss_column_step(drawn):
    """The column step of `_bareiss` against `Matrix.rank` and Leibniz.

    It finds n pivots (a nonzero det) exactly when U has rank n, and only
    ever swaps a column of the leading block A with one past it.  The det
    is that of the pivot columns in their final order, with or without
    the Jordan sweep; at e = 0 it is det U.  Each column m past the pivots
    ends as p U_B^-1 u_m, which with -p at that column's own index gives
    a kernel vector w of U.
    """
    d, n, cols = drawn
    ctx = FIELDS[d]

    def matrix(columns):
        return Matrix([[ctx.elem(*col[i]) for col in columns]
                       for i in range(n)], ctx, ncols=len(columns))

    def int_rows():  # a fresh copy, as _bareiss works in place
        return [[col[i] for col in cols] for i in range(n)]

    u, width = matrix(cols), len(cols)
    det, rows, order = _bareiss(int_rows(), d, jordan=True)
    assert sorted(order) == list(range(width))
    assert all(order[i] in (i, *range(n, width)) for i in range(n))
    assert any(det) == (u.rank() == n)
    forward = _bareiss(int_rows(), d)
    assert forward[0] == det and forward[2] == order
    if width == n:
        assert ctx.elem(*det) == det_leibniz(u) == u.det()
    if any(det):
        assert ctx.elem(*det) == det_leibniz(matrix([cols[j] for j in
                                                     order[:n]]))
        p = rows[n - 1][n - 1]
        for m in range(n, width):
            w = [ctx.zero] * width
            w[order[m]] = -ctx.elem(*p)
            for i in range(n):
                w[order[i]] = ctx.elem(*rows[i][m])
            assert u.matvec(w) == (ctx.zero,) * n
    if det_leibniz(matrix(cols[:n])):
        assert order == list(range(width))


INTS = st.integers(-50, 50)


def _divide(z, w, d):
    """z / w through _inverse4's (y, norm), checking that it is exact."""
    y, norm = _inverse4(w, d)
    product = _mul4(z, y, d)
    assert all(c % norm == 0 for c in product)
    return tuple(c // norm for c in product)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3, 999999937)), st.tuples(INTS, INTS, INTS, INTS),
       st.sampled_from(("non-real", "real with sqrt d", "rational")),
       st.tuples(INTS, INTS, INTS, INTS))
def test_divide_undoes_mul4(d, x, kind, w):
    w = {"non-real": w, "real with sqrt d": (w[0], w[1], 0, 0),
         "rational": (w[0], 0, 0, 0)}[kind]
    if kind == "non-real" and not (w[2] or w[3]):
        w = (w[0], w[1], 1, w[3])
    if kind == "real with sqrt d" and not w[1]:
        w = (w[0], 1, 0, 0)
    if not any(w):
        w = (1, 0, 0, 0)
    assert _divide(_mul4(x, w, d), w, d) == x


def test_divide_fixed_cases():
    for d in (2, 3, 999999937):
        for w in ((1, 2, -3, 1), (0, 0, 0, -2), (3, -2, 0, 0), (-7, 0, 0, 0)):
            x = (5, -1, 2, 9)
            assert _divide(_mul4(x, w, d), w, d) == x


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 999999937)), st.tuples(INTS, INTS, INTS, INTS),
       st.sampled_from(("non-real", "real with sqrt d", "rational",
                        "negative")),
       st.tuples(INTS, INTS, INTS, INTS))
@example(2, (5, -1, 2, 9), "non-real", (1, 2, -3, 1))
@example(3, (5, -1, 2, 9), "non-real", (0, 0, 0, -2))
@example(999999937, (5, -1, 2, 9), "real with sqrt d", (3, -2, 0, 0))
@example(2, (5, -1, 2, 9), "negative", (-7, 0, 0, 0))
def test_inverse4_rationalizes(d, x, kind, w):
    """w y = norm != 0, and x w divides back to x through (y, norm)."""
    w = {"non-real": w, "real with sqrt d": (w[0], w[1], 0, 0),
         "rational": (w[0], 0, 0, 0),
         "negative": (-abs(w[0]) or -1, 0, 0, 0)}[kind]
    if kind == "non-real" and not (w[2] or w[3]):
        w = (w[0], w[1], 1, w[3])
    if kind == "real with sqrt d" and not w[1]:
        w = (w[0], 1, 0, 0)
    if not any(w):
        w = (1, 0, 0, 0)
    y, norm = _inverse4(w, d)
    assert norm != 0 and _mul4(w, y, d) == (norm, 0, 0, 0)
    if kind == "non-real":  # norm = s^2 - d t^2 for s + t sqrt d = w conj(w)
        s, t, _, _ = _mul4(w, (w[0], w[1], -w[2], -w[3]), d)
        assert norm == s * s - d * t * t > 0
    elif kind == "real with sqrt d":  # the flip alone
        assert (y, norm) == ((w[0], -w[1], 0, 0), w[0] ** 2 - d * w[1] ** 2)
    else:
        assert (y, norm) == ((1, 0, 0, 0), w[0])
    assert _divide(_mul4(x, w, d), w, d) == x


def test_integral_clears_denominators():
    assert _integral([]) == (1, [])
    assert _integral([K.elem(Fraction(1, 3)), (1 + I_) / 2, R_]) == \
        (6, [(2, 0, 0, 0), (3, 0, 3, 0), (0, 6, 0, 0)])


@st.composite
def sub_mul_branches(draw):
    """(branch, x, f, y): f rational, y rational, or both irrational."""
    ctx = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    branch = draw(st.sampled_from(("rational f", "rational y", "general")))
    f = draw(rationals(ctx) if branch == "rational f" else irrationals(ctx))
    y = draw(rationals(ctx) if branch == "rational y" else
             scalars(ctx) if branch == "rational f" else irrationals(ctx))
    return branch, draw(scalars(ctx)), f, y


@settings(max_examples=200, deadline=None)
@given(sub_mul_branches())
def test_sub_mul_is_difference_of_product(case):
    _, x, f, y = case
    assert _sub_mul(x, f, y) == x - f * y


def test_sub_mul_fixed_branches():
    x = K.elem(Fraction(1, 3), 1)
    for f, y in ((K.elem(Fraction(-2, 5)), 1 + R_ + I_),  # rational f
                 (1 + I_, K.elem(Fraction(3, 7))),         # rational y
                 (1 - R_ * I_, Fraction(1, 2) + I_)):      # general
        assert _sub_mul(x, f, y) == x - f * y
    assert _sub_mul(K.one, K.one, K.one) == K.zero


# -- conjugate transpose ----------------------------------------------------------


def test_conj_transpose_fixed():
    assert Matrix([[I_]], K).conj_transpose() == Matrix([[-I_]], K)
    sym = Matrix([[1, 2], [2, 3]], K)
    assert sym.conj_transpose() == sym
    m = Matrix([[0, 1 + I_], [0, 0]], K)
    assert m.conj_transpose() == Matrix([[0, 0], [1 - I_, 0]], K)


def test_conj_transpose_involution_and_product_rule():
    rng = random.Random(1006)
    for _ in range(100):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert a.conj_transpose().conj_transpose() == a
        b = random_matrix(rng, a.ncols, rng.randint(1, 4))
        assert (a * b).conj_transpose() == b.conj_transpose() * a.conj_transpose()


# -- projection onto a column space ------------------------------------------------


def test_projection_fixed_values():
    e1 = Matrix([[1], [0], [0]], K)
    assert projection_onto(e1) == Matrix.diag([K.one, K.zero, K.zero], K)
    half = Fraction(1, 2)
    assert projection_onto(Matrix([[1], [1]], K)) == \
        Matrix([[half, half], [half, half]], K)
    third = K.one / 3
    assert projection_onto(Matrix([[1], [R_]], K)) == \
        Matrix([[third, third * R_], [third * R_, 2 * third]], K)


def test_projection_identities_random():
    rng = random.Random(1007)
    for _ in range(200):
        n = rng.randint(1, 5)
        a = random_independent(rng, n, rng.randint(1, n))
        p = projection_onto(a)
        assert p * p == p
        assert p.conj_transpose() == p
        assert p * a == a
        assert p.rank() == a.ncols


def test_projection_rejects_dependent_columns():
    with pytest.raises(ValueError, match="columns are dependent"):
        projection_onto(Matrix([[1, 2], [1, 2]], K))


def test_projection_of_empty_span_is_zero():
    a = Matrix.from_columns([], K, nrows=3)
    assert projection_onto(a) == Matrix.zeros(3, 3, K)
    assert projection_onto(a).scaled == ((1, 0, 0, 0),
                                         ((((0, 0, 0, 0),) * 3,) * 3))


def test_projection_keeps_its_gram_scaled_form():
    """P.scaled is g and the rows of g P.

    g = det(b* b) for the primitive columns b, and g P = b adj(b* b) b* is
    integral and Hermitian; a common integer factor of a column changes
    neither g nor g P, and only `projection_onto` sets the form.
    """
    half = Fraction(1, 2)
    assert projection_onto(Matrix([[half], [half * I_]], K)).scaled == \
        ((2, 0, 0, 0), (((1, 0, 0, 0), (0, 0, -1, 0)),
                        ((0, 0, 1, 0), (1, 0, 0, 0))))
    rng = random.Random(1008)
    for _ in range(100):
        n = rng.randint(1, 5)
        a = random_independent(rng, n, rng.randint(1, n))
        p = projection_onto(a)
        g, rows = p.scaled
        assert g[2:] == (0, 0)
        b = Matrix.from_columns([[K.elem(*x) for x in col]
                                 for col in _primitive_columns(a)], K)
        assert K.elem(*g) == (b.conj_transpose() * b).det()
        assert [[K.elem(*x) for x in row] for row in rows] == \
            [[K.elem(*g) * x for x in row] for row in p.rows]
        tripled = Matrix.from_columns([[x * 3 for x in col]
                                       for col in a.columns()], K)
        assert projection_onto(tripled).scaled == p.scaled
        assert (p * p).scaled is None and a.scaled is None


# -- automorphisms entrywise -------------------------------------------------------


def test_automorphism_entrywise_fixed():
    m = Matrix([[1, R_], [R_, 2]], K)
    assert automorphism_entrywise(Automorphism.FLIP, m) == \
        Matrix([[1, -R_], [-R_, 2]], K)
    real = Matrix([[1, 2], [3, 4]], K)
    assert automorphism_entrywise(Automorphism.CONJ, real) == real
    tri = Matrix([[1, R_], [0, 1]], K)
    assert automorphism_entrywise(Automorphism.FLIP, tri).det() == tri.det() == 1


def test_automorphism_commutes_with_det_and_preserves_rank():
    rng = random.Random(1008)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, rng.randint(1, 4))
        for f in ALL_AUTOMORPHISMS:
            fm = automorphism_entrywise(f, m)
            assert fm.rank() == m.rank()
            if m.is_square:
                assert fm.det() == f(m.det())


# -- subspaces ---------------------------------------------------------------------


def test_subspace_equality_is_representation_free():
    rng = random.Random(1009)
    for _ in range(100):
        n = rng.randint(2, 4)
        a = random_matrix(rng, n, 2)
        change = random_independent(rng, 2, 2)
        assert a.colspace_basis() == (a * change).colspace_basis()


def _contains(basis, v):
    return hstack(basis, Matrix([[x] for x in v], K, ncols=1)) \
        .colspace_basis() == basis


def test_subspace_contains():
    v = Matrix([[1, 0], [0, 1], [0, 0]], K).colspace_basis()
    assert v.ncols == 2
    assert _contains(v, [K.one, 1 + I_, K.zero])
    assert not _contains(v, [K.zero, K.zero, K.one])
    zero_space = Matrix.from_columns([], K, nrows=3).colspace_basis()
    assert zero_space.ncols == 0
    assert _contains(zero_space, [K.zero] * 3)
    assert not _contains(zero_space, [K.one, K.zero, K.zero])


def test_dim_formula_intersection_and_sum():
    rng = random.Random(1010)
    ident_cache = {}
    for _ in range(200):
        n = rng.randint(2, 5)
        a = random_matrix(rng, n, rng.randint(1, n))
        b = random_matrix(rng, n, rng.randint(1, n))
        if n not in ident_cache:
            ident_cache[n] = Matrix.identity(n, K)
        pv = projection_onto(a.colspace_basis())
        pw = projection_onto(b.colspace_basis())
        common = vstack(ident_cache[n] - pv, ident_cache[n] - pw).kernel_basis()
        dim_meet = common.ncols
        dim_join = hstack(a, b).rank()
        assert dim_meet + dim_join == a.rank() + b.rank()


def test_gram_schmidt_orthogonalizes():
    rng = random.Random(1011)
    for _ in range(100):
        n = rng.randint(2, 5)
        a = random_matrix(rng, n, rng.randint(1, n))
        g = gram_schmidt(a)
        assert g.colspace_basis() == a.colspace_basis()
        cols = g.columns()
        for s in range(len(cols)):
            for t in range(s + 1, len(cols)):
                assert not vdot(cols[s], cols[t], K)


def test_vdot_is_a_hermitian_form():
    x = (I_, R_)
    y = (K.one, 1 + I_)
    assert vdot(x, y, K) == vdot(y, x, K).conj()
    assert vdot(x, x, K).real_sign() == 1


# -- text form ----------------------------------------------------------------------


def test_matrix_json_roundtrip():
    rng = random.Random(1012)
    for _ in range(50):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert matrix_from_json(matrix_to_json(m)) == m


def test_matrix_json_fixed_form():
    m = Matrix([[K.one, K.elem(Fraction(1, 2), 0, 1)]], K)
    assert matrix_to_json(m) == {"d": 2, "rows": [["1", "1/2+i"]]}


def test_matrix_json_errors():
    for bad in (None, [], {"rows": "x"}, {"d": 2}, {"d": "2", "rows": []},
                {"d": 2, "rows": [["1"], ["2", "3"]]},
                {"d": 2, "rows": [[5]]}, {"d": 4, "rows": [["1"]]}):
        with pytest.raises(ValueError):
            matrix_from_json(bad)
    with pytest.raises(ValueError):
        matrix_from_json({"d": 3, "rows": [["1"]]}, K)


@pytest.mark.parametrize("ctx", [None, K])
def test_matrix_json_rejects_a_boolean_d(ctx):
    # bool is an int subclass; true must not read as d = 1
    for d in (True, False):
        with pytest.raises(ValueError, match='^"d" must be an integer$'):
            matrix_from_json({"d": d, "rows": [["1"]]}, ctx)


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]], K)
    with pytest.raises(ValueError):
        Matrix.identity(2, K) + Matrix.identity(3, K)
    with pytest.raises(ValueError):
        Matrix.zeros(2, 3, K) * Matrix.zeros(2, 3, K)
    with pytest.raises(ValueError):
        Matrix([[FieldContext(3).one, K.one]])


def test_derived_matrices_equal_checked_ones():
    """Results built without the entry check equal the checked constructor's."""
    rng = random.Random(3101)
    other = FieldContext(3)
    for _ in range(30):
        a = random_matrix(rng, rng.randint(0, 4), rng.randint(0, 4))
        b = random_matrix(rng, a.nrows, rng.randint(0, 3))
        for m in (a.transpose(), a.conj_transpose(), -a, a + a, a * K.i,
                  a.rref()[0], a.kernel_basis(), a.colspace_basis(),
                  hstack(a, b), a.transpose() * a):
            assert m == Matrix([list(r) for r in m.rows], K, ncols=m.ncols)
            assert len(m.rows) == m.nrows
            assert all(len(r) == m.ncols for r in m.rows)
    with pytest.raises(ValueError, match="d=3 in a d=2"):
        hstack(Matrix.identity(2, K), Matrix.identity(2, other))
