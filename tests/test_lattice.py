"""Lattice laws for projections: meet, join, order, orthogonality."""

import random
from fractions import Fraction

import pytest

from jspec.exactla import Matrix, projection_onto
from jspec.lattice import (
    Projection,
    identity_projection,
    make_projection,
    projection_from_json,
    projection_to_json,
    rank_one,
    zero_projection,
)
from jspec.scalar import FieldContext

K = FieldContext(2)
I_ = K.i
R_ = K.sqrt_d
POOL = [K.zero, K.one, -K.one, K.elem(2), I_, -I_, R_, 1 + I_, 1 - R_]


def diag_projection(bits, ctx=K):
    return make_projection(Matrix.diag([ctx.one if b else ctx.zero
                                        for b in bits], ctx))


def random_projection(rng, n, ctx=K):
    ncols = rng.randint(0, n)
    cols = [[rng.choice(POOL) for _ in range(n)] for _ in range(ncols)]
    a = Matrix.from_columns(cols, ctx, nrows=n)
    return make_projection(projection_onto(a.colspace_basis()))


def random_orthogonal_pair(rng, n):
    p = random_projection(rng, n)
    comp = p.complement().matrix
    cols = []
    for _ in range(rng.randint(0, n)):
        v = comp.matvec([rng.choice(POOL) for _ in range(n)])
        if any(v):
            cols.append(v)
    a = Matrix.from_columns(cols, K, nrows=n)
    q = make_projection(projection_onto(a.colspace_basis()))
    return p, q


# -- construction ------------------------------------------------------------


def test_construction_fixed_values():
    assert rank_one([K.one, K.zero, K.zero]).matrix == \
        Matrix.diag([K.one, K.zero, K.zero], K)
    assert diag_projection([1, 0, 0]).complement() == diag_projection([0, 1, 1])
    half = Fraction(1, 2)
    assert rank_one([K.one, K.one]).matrix == \
        Matrix([[half, half], [half, half]], K)


def test_construction_rejects_bad_matrices():
    with pytest.raises(ValueError, match="must be Hermitian"):
        make_projection(Matrix([[0, 1], [0, 0]], K))
    with pytest.raises(ValueError, match="must be idempotent"):
        make_projection(Matrix([[2, 0], [0, 2]], K))
    with pytest.raises(ValueError, match="must be square"):
        make_projection(Matrix.zeros(2, 3, K))
    with pytest.raises(ValueError, match="needs a nonzero vector"):
        rank_one([K.zero, K.zero])
    # a dependent basis is rejected when the matrix is first built
    dependent = Projection(Matrix([[1, 2], [1, 2]], K))
    with pytest.raises(ValueError, match="columns are dependent"):
        dependent.matrix


def test_projection_of_no_columns_is_zero():
    p = Projection(Matrix.from_columns([], K, nrows=3))
    assert p == zero_projection(3, K)
    assert p.rank == 0


def test_rank_queries_build_no_matrix():
    p = rank_one([K.one, R_, K.zero])
    q = rank_one([K.one, K.zero, I_])
    join, meet, comp = p.join(q), p.meet(q), p.complement()
    assert (join.rank, meet.rank, comp.rank, join.n) == (2, 0, 2, 3)
    assert all(x._matrix is None for x in (p, q, join, meet, comp))
    assert join.matrix is join.matrix  # built once, then cached


def test_range_roundtrip():
    rng = random.Random(2001)
    for _ in range(50):
        p = random_projection(rng, rng.randint(1, 4))
        assert Projection(p.matrix.colspace_basis()) == p


# -- lattice operations ---------------------------------------------------------


def test_join_fixed_values():
    assert diag_projection([1, 0, 0]).join(diag_projection([0, 1, 0])) == \
        diag_projection([1, 1, 0])
    p = rank_one([K.one, R_, K.zero])
    assert p.join(p) == p
    assert rank_one([K.one, K.zero, K.zero]).join(
        rank_one([K.one, K.one, K.zero])) == diag_projection([1, 1, 0])


def test_meet_fixed_values():
    assert diag_projection([1, 1, 0]).meet(diag_projection([0, 1, 1])) == \
        diag_projection([0, 1, 0])
    assert rank_one([K.one, K.zero]).meet(rank_one([K.one, K.one])) == \
        zero_projection(2, K)


def test_meet_with_complement_is_zero():
    rng = random.Random(2002)
    for _ in range(50):
        p = random_projection(rng, rng.randint(1, 4))
        assert p.meet(p.complement()) == zero_projection(p.n, K)
        assert p.join(p.complement()) == identity_projection(p.n, K)


def test_order_and_orthogonality_fixed():
    assert diag_projection([1, 0, 0]).leq(diag_projection([1, 1, 0]))
    assert not diag_projection([1, 1, 0]).leq(diag_projection([1, 0, 0]))
    assert rank_one([K.one, R_, K.zero]).is_orthogonal_to(
        rank_one([-R_, K.one, K.zero]))
    assert diag_projection([1, 1, 0]).rank == 2


def test_lattice_laws_random_pairs():
    rng = random.Random(2003)
    for _ in range(200):
        n = rng.randint(1, 4)
        p = random_projection(rng, n)
        q = random_projection(rng, n)
        join = p.join(q)
        meet = p.meet(q)
        assert join == q.join(p)
        assert meet == q.meet(p)
        assert p.meet(join) == p
        assert p.join(meet) == p
        assert p.rank + q.rank == join.rank + meet.rank
        assert meet.leq(p) and p.leq(join)


def test_leq_is_a_partial_order_matching_ranges():
    rng = random.Random(2004)
    for _ in range(100):
        n = rng.randint(1, 4)
        p = random_projection(rng, n)
        q = random_projection(rng, n)
        assert p.leq(q) == (p.meet(q) == p)
        if p.leq(q) and q.leq(p):
            assert p == q


def test_invertibility_characterizations():
    rng = random.Random(2005)
    for _ in range(200):
        n = rng.randint(3, 5)
        p = random_projection(rng, n)
        q = random_projection(rng, n)
        join_full = p.join(q) == identity_projection(n, K)
        meet_zero = p.meet(q) == zero_projection(n, K)
        sum_invertible = bool((p.matrix + q.matrix).det())
        diff_invertible = bool((p.matrix - q.matrix).det())
        assert join_full == sum_invertible
        assert (join_full and meet_zero) == diff_invertible


def test_orthogonal_pairs_join_by_addition():
    rng = random.Random(2006)
    seen_nontrivial = 0
    for _ in range(200):
        n = rng.randint(2, 5)
        p, q = random_orthogonal_pair(rng, n)
        assert p.is_orthogonal_to(q)
        assert q.is_orthogonal_to(p)
        assert p.join(q).matrix == p.matrix + q.matrix
        if p.rank and q.rank:
            seen_nontrivial += 1
    assert seen_nontrivial > 50


# -- text form ---------------------------------------------------------------------


def test_projection_json_roundtrip():
    rng = random.Random(2007)
    for _ in range(30):
        p = random_projection(rng, rng.randint(1, 4))
        form = projection_to_json(p)
        assert "matrix" in form and "span" not in form
        assert projection_from_json(form) == p


def test_projection_json_span_form():
    form = {"span": {"d": 2, "rows": [["1", "0"], ["1", "0"], ["0", "1"]]}}
    p = projection_from_json(form)
    assert p == Projection(Matrix([[1, 0], [1, 0], [0, 1]], K).colspace_basis())
    assert p.rank == 2


def test_projection_json_errors():
    with pytest.raises(ValueError):
        projection_from_json({"matrix": {"d": 2, "rows": [["1"]]},
                              "span": {"d": 2, "rows": [["1"]]}})
    with pytest.raises(ValueError):
        projection_from_json({})
    with pytest.raises(ValueError):
        projection_from_json({"matrix": {"d": 2, "rows": [["1", "1"],
                                                          ["0", "0"]]}})


def test_dimension_mismatch_errors():
    p = zero_projection(2, K)
    q = zero_projection(3, K)
    for op in (p.join, p.meet, p.leq, p.is_orthogonal_to):
        with pytest.raises(ValueError):
            op(q)
