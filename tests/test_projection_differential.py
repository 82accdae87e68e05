"""Projections built from a basis, checked against the matrix formulas.

Maps, complements and joins build their result from a basis of its range
and run no check.  Each is compared here with the projection matrix the
textbook formula gives (U*PU, conj(U*PU), I - P, the projection onto the
joined column spans), passed through the checked make_projection.  The
projection onto a basis itself is compared with a (a*a)^{-1} a*, the
inverse taken by Gauss-Jordan on [a*a | I].
"""

import random

from hypothesis import assume, given, settings, strategies as st

from jspec.exactla import (
    Matrix,
    automorphism_entrywise,
    hstack,
    projection_onto,
)
from jspec.lattice import Projection, make_projection
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
    assert UnitaryConjMap(u).apply(p) == make_projection(u_pu)
    assert AntiUnitaryConjMap(u).apply(p) == make_projection(
        automorphism_entrywise(Automorphism.CONJ, u_pu))


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
