"""Projections built from a basis, checked against the matrix formulas.

Maps, complements and joins build their result from a basis of its range
and run no check.  Each is compared here with the projection matrix the
textbook formula gives (U*PU, conj(U*PU), I - P, the projection onto the
joined column spans), passed through the checked make_projection.  The
projection onto a basis itself is compared with a (a*a)^{-1} a*, the
inverse taken by Gauss-Jordan on [a*a | I], and with the RREF of
[a*a | a*] kept in `tests/reference_linalg.py`, rejections of dependent
columns included.  Meet is compared with the kernel of the stacked
complements kept there, and with the modular law
rank(P v Q) + rank(P ^ Q) = rank P + rank Q.
"""

import random
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

import reference_linalg
from jspec.exactla import (
    Matrix,
    automorphism_entrywise,
    hstack,
    projection_onto,
)
from jspec.lattice import (
    Projection,
    identity_projection,
    make_projection,
    zero_projection,
)
from jspec.maps import AntiUnitaryConjMap, InducedMap, UnitaryConjMap
from jspec.scalar import ALL_AUTOMORPHISMS, Automorphism, FieldContext
from jspec.verify import TrialConfig, random_invertible, random_unitary

K = FieldContext(2)
POOL = (K.zero, K.one, -K.one, K.elem(2), K.i, -K.i, K.sqrt_d,
        K.one + K.i, K.one - K.sqrt_d)


@st.composite
def projections(draw, n):
    """Projection onto the span of up to n pool vectors (any rank 0..n)."""
    cols = draw(st.lists(st.lists(st.sampled_from(POOL), min_size=n,
                                  max_size=n), max_size=n))
    span = Matrix.from_columns(cols, K, nrows=n)
    return Projection(span.colspace_basis())


@st.composite
def independent_columns(draw):
    """n x r independent columns (1 <= r <= n <= 5), not in echelon form,
    and an invertible r x r change of basis."""
    n = draw(st.integers(1, 5))
    cols = draw(st.lists(st.lists(st.sampled_from(POOL), min_size=n,
                                  max_size=n), min_size=1, max_size=n))
    basis = Matrix.from_columns(cols, K, nrows=n).colspace_basis()
    assume(basis.ncols)
    rng = random.Random(draw(st.integers(0, 2**32)))
    cfg = TrialConfig(n=2)
    return (basis * random_invertible(cfg, rng, size=basis.ncols),
            random_invertible(cfg, rng, size=basis.ncols))


@st.composite
def cases(draw):
    n = draw(st.integers(2, 4))
    return (n, draw(projections(n)), draw(projections(n)),
            random.Random(draw(st.integers(0, 2**32))))


@settings(max_examples=60, deadline=None)
@given(cases())
def test_conjugations_match_u_star_p_u(case):
    n, p, _, rng = case
    u = random_unitary(TrialConfig(n=n), rng)
    u_pu = u.conj_transpose() * p.matrix * u
    unitary, anti = UnitaryConjMap(u), AntiUnitaryConjMap(u)
    assert unitary.apply(p) == make_projection(u_pu)
    assert anti.apply(p) == make_projection(
        automorphism_entrywise(Automorphism.CONJ, u_pu))
    # the conjugations are the induced pairs (id, U*) and (conj, U^T)
    as_unitary = InducedMap(Automorphism.ID, u.conj_transpose())
    as_anti = InducedMap(Automorphism.CONJ, u.transpose())
    assert unitary.apply(p) == as_unitary.apply(p)
    assert anti.apply(p) == as_anti.apply(p)
    for v in p.basis.columns() + Matrix.identity(n, K).columns():
        assert unitary.vector_image(v) == as_unitary.vector_image(v) == \
            u.conj_transpose().matvec(v)
        assert anti.vector_image(v) == as_anti.vector_image(v) == \
            tuple(x.conj() for x in u.conj_transpose().matvec(v))


@settings(max_examples=60, deadline=None)
@given(cases(), st.sampled_from(ALL_AUTOMORPHISMS))
def test_induced_map_matches_projection_onto_image(case, f):
    n, p, _, rng = case
    b = random_invertible(TrialConfig(n=n), rng)
    image = b * automorphism_entrywise(f, p.matrix.colspace_basis())
    assert InducedMap(f, b).apply(p) == make_projection(projection_onto(image))


@settings(max_examples=60, deadline=None)
@given(cases())
def test_complement_matches_identity_minus_p(case):
    n, p, _, _ = case
    assert p.complement() == make_projection(Matrix.identity(n, K) - p.matrix)


@settings(max_examples=60, deadline=None)
@given(cases())
def test_join_matches_projection_onto_joined_matrices(case):
    _, p, q, _ = case
    span = hstack(p.matrix, q.matrix).colspace_basis()
    assert p.join(q) == make_projection(projection_onto(span))


def _gram_inverse_formula(a):
    r = a.ncols
    gram = a.conj_transpose() * a
    red, _ = hstack(gram, Matrix.identity(r, K)).rref()
    gram_inv = Matrix([row[r:] for row in red.rows], K, ncols=r)
    assert gram * gram_inv == Matrix.identity(r, K)
    return a * gram_inv * a.conj_transpose()


@settings(max_examples=80, deadline=None)
@given(independent_columns())
def test_projection_onto_is_the_orthogonal_projection(case):
    a, change = case
    p = projection_onto(a)
    assert p.conj_transpose() == p
    assert p * p == p
    assert p * a == a
    assert projection_onto(a * change) == p
    assert p == _gram_inverse_formula(a)


# -- rewritten layers against their oracles -------------------------------------

FIELDS = [FieldContext(d) for d in (2, 3, 5, 999999937)]


def _entries(ctx):
    """Entries with and without denominators, i and sqrt d."""
    one, i, r = ctx.one, ctx.i, ctx.sqrt_d
    third = ctx.elem(Fraction(1, 3))
    mixed = ctx.elem(Fraction(-5, 2), 1, 0, Fraction(1, 4))
    return (ctx.zero, ctx.zero, one, -one, ctx.elem(2), third, i, -i, r,
            one + i, one - r, r * i, mixed)


@st.composite
def column_lists(draw):
    """n x r columns over a random d, 0 <= r <= n <= 6; in about half of
    those with r >= 2 the last column is a combination of the first two."""
    ctx = draw(st.sampled_from(FIELDS))
    n = draw(st.sampled_from(range(1, 7)))
    r = draw(st.sampled_from(range(n + 1)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = _entries(ctx)
    cols = [[rng.choice(pool) for _ in range(n)] for _ in range(r)]
    if r >= 2 and draw(st.booleans()):
        f = rng.choice(pool)
        cols[-1] = [x + f * y for x, y in zip(cols[0], cols[1])]
    return Matrix.from_columns(cols, ctx, nrows=n)


def _outcome(build, a):
    try:
        return build(a)
    except ValueError as err:
        return str(err)


@settings(max_examples=150, deadline=None)
@given(column_lists())
def test_projection_onto_matches_rref_oracle(a):
    got = _outcome(projection_onto, a)
    assert got == _outcome(reference_linalg.projection_onto, a)
    assert (got == "columns are dependent") == (a.rank() < a.ncols)


def _independent(ctx, n, r, rng, head=()):
    """n x r independent columns whose first ones are the columns in head."""
    pool = _entries(ctx)
    while True:
        cols = list(head) + [[rng.choice(pool) for _ in range(n)]
                             for _ in range(r - len(head))]
        a = Matrix.from_columns(cols, ctx, nrows=n)
        if a.rank() == r:
            return a


@st.composite
def pairs(draw):
    """(P, Q) over a random d with n <= 6: P = Q, a zero or identity side,
    or Q's range sharing a drawn number of combinations of P's basis."""
    ctx = draw(st.sampled_from(FIELDS))
    n = draw(st.sampled_from(range(1, 7)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rp = draw(st.sampled_from(range(n + 1)))
    p = Projection(_independent(ctx, n, rp, rng))
    kind = draw(st.sampled_from(["same", "zero", "identity", "shared"]))
    if kind == "zero":
        return p, zero_projection(n, ctx)
    if kind == "identity":
        return identity_projection(n, ctx), p
    # another basis of Range(P), whose first `shared` columns Q's range holds
    other = p.basis * random_invertible(TrialConfig(n=2, d=ctx.d), rng,
                                        size=rp) if rp else p.basis
    if kind == "same":
        return p, Projection(other)
    shared = draw(st.sampled_from(range(rp + 1)))
    rq = draw(st.sampled_from(range(shared, n + 1)))
    return p, Projection(_independent(ctx, n, rq, rng,
                                      other.columns()[:shared]))


@settings(max_examples=100, deadline=None)
@given(pairs())
def test_meet_matches_complement_oracle_and_modular_law(pq):
    p, q = pq
    meet = p.meet(q)
    assert meet == reference_linalg.meet(p, q)
    assert meet.leq(p) and meet.leq(q)
    assert p.join(q).rank + meet.rank == p.rank + q.rank
    assert q.meet(p) == meet
