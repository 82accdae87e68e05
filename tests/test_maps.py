"""Structured projection maps: conjugations, induced maps, extensions."""

import random
from fractions import Fraction

import pytest

from jspec.exactla import Matrix, gram_schmidt
from jspec.lattice import (
    identity_projection,
    make_projection,
    rank_one,
    zero_projection,
)
from jspec.maps import (
    MapForm,
    OrthogonalityError,
    apply_map,
    classify_map,
    extend_join,
    extend_sum,
    make_induced,
    make_unitary_conj,
    map_from_json,
    map_to_json,
    preserves_orthogonality,
    rank_one_image,
)
from jspec.scalar import ALL_AUTOMORPHISMS, Automorphism, FieldContext

K = FieldContext(2)
I_ = K.i
R_ = K.sqrt_d
POOL = [K.zero, K.one, -K.one, K.elem(2), I_, -I_, R_, 1 + I_, 1 - R_]
UNIT_SCALARS = [K.one, -K.one, I_, -I_]


def plane_rotation(n, i0, j0, ctx=K):
    f35, f45 = Fraction(3, 5), Fraction(4, 5)
    rows = [[ctx.one if i == j else ctx.zero for j in range(n)]
            for i in range(n)]
    rows[i0][i0] = ctx.elem(f35)
    rows[i0][j0] = ctx.elem(f45)
    rows[j0][i0] = ctx.elem(-f45)
    rows[j0][j0] = ctx.elem(f35)
    return Matrix(rows, ctx)


def random_unitary(rng, n, ctx=K):
    perm = list(range(n))
    rng.shuffle(perm)
    u = Matrix([[ctx.one if perm[i] == j else ctx.zero for j in range(n)]
                for i in range(n)], ctx)
    u = u * Matrix.diag([rng.choice(UNIT_SCALARS) for _ in range(n)], ctx)
    if n >= 2 and rng.random() < 0.7:
        i0, j0 = sorted(rng.sample(range(n), 2))
        u = u * plane_rotation(n, i0, j0)
    return u


def random_invertible(rng, n, ctx=K):
    while True:
        m = Matrix([[rng.choice(POOL) for _ in range(n)] for _ in range(n)],
                   ctx)
        if m.det():
            return m


def random_map(rng, n):
    kind = rng.randrange(3)
    if kind == 0:
        return make_unitary_conj(random_unitary(rng, n))
    if kind == 1:
        return make_unitary_conj(random_unitary(rng, n), anti=True)
    return make_induced(rng.choice(ALL_AUTOMORPHISMS),
                        random_invertible(rng, n))


def random_projection(rng, n, rank=None):
    from jspec.exactla import projection_onto
    from jspec.lattice import make_projection
    ncols = rng.randint(0, n) if rank is None else rank
    cols = [[rng.choice(POOL) for _ in range(n)] for _ in range(ncols)]
    a = Matrix.from_columns(cols, K, nrows=n)
    return make_projection(projection_onto(a.colspace_basis()))


def random_unit_vector(rng, n):
    while True:
        v = [rng.choice(POOL) for _ in range(n)]
        if any(v):
            return v


# -- fixed actions ------------------------------------------------------------


def test_unitary_conj_fixed_values():
    swap = Matrix([[0, 1], [1, 0]], K)
    m = make_unitary_conj(swap)
    assert m.apply(rank_one([K.one, K.zero])) == rank_one([K.zero, K.one])
    phases = make_unitary_conj(Matrix.diag([I_, K.one], K))
    assert phases.apply(rank_one([K.one, K.one])) == rank_one([K.one, I_])


def test_anti_unitary_conj_fixed_values():
    m = make_unitary_conj(Matrix.identity(2, K), anti=True)
    assert m.apply(rank_one([K.one, I_])) == rank_one([K.one, -I_])
    assert m.apply(rank_one([K.one, R_])) == rank_one([K.one, R_])


def test_induced_fixed_values():
    shear = make_induced(Automorphism.ID, Matrix([[1, 1], [0, 1]], K))
    assert shear.apply(rank_one([K.zero, K.one])) == rank_one([K.one, K.one])
    flip = make_induced(Automorphism.FLIP, Matrix.identity(2, K))
    assert flip.apply(rank_one([K.one, R_])) == rank_one([K.one, -R_])
    conj = make_induced(Automorphism.CONJ, Matrix.identity(2, K))
    assert conj.apply(rank_one([K.one, 1 + I_])) == rank_one([K.one, 1 - I_])


def test_constructors_reject_bad_matrices():
    with pytest.raises(ValueError):
        make_unitary_conj(Matrix([[1, 1], [0, 1]], K))    # not unitary
    with pytest.raises(ValueError):
        make_unitary_conj(Matrix.zeros(2, 3, K))          # not square
    with pytest.raises(ValueError):
        make_induced(Automorphism.ID, Matrix([[1, 1], [1, 1]], K))
    with pytest.raises(ValueError):
        make_induced(Automorphism.ID, Matrix.zeros(2, 3, K))


def test_dimension_mismatch_is_rejected():
    m = make_unitary_conj(Matrix.identity(2, K))
    with pytest.raises(ValueError):
        m.apply(zero_projection(3, K))


# -- structural invariants ---------------------------------------------------------


def test_apply_matches_rank_one_image():
    rng = random.Random(3001)
    for _ in range(100):
        n = rng.randint(2, 4)
        m = random_map(rng, n)
        v = random_unit_vector(rng, n)
        assert rank_one_image(m, v) == apply_map(m, rank_one(v, K))


def test_maps_are_lattice_isomorphisms():
    rng = random.Random(3002)
    for _ in range(150):
        n = rng.randint(2, 4)
        m = random_map(rng, n)
        p = random_projection(rng, n)
        q = random_projection(rng, n)
        fp, fq = m.apply(p), m.apply(q)
        assert fp.rank == p.rank
        assert m.apply(p.join(q)) == fp.join(fq)
        assert m.apply(p.meet(q)) == fp.meet(fq)
        assert p.leq(q) == fp.leq(fq)


def test_maps_fix_top_and_bottom():
    rng = random.Random(3003)
    for _ in range(30):
        n = rng.randint(2, 4)
        m = random_map(rng, n)
        assert m.apply(identity_projection(n, K)) == identity_projection(n, K)
        assert m.apply(zero_projection(n, K)) == zero_projection(n, K)


def test_conjugations_preserve_complements():
    rng = random.Random(3004)
    for _ in range(60):
        n = rng.randint(2, 4)
        anti = rng.random() < 0.5
        m = make_unitary_conj(random_unitary(rng, n), anti=anti)
        p = random_projection(rng, n)
        assert m.apply(p.complement()) == m.apply(p).complement()


# -- orthogonality ---------------------------------------------------------------


def test_preserves_orthogonality_fixed():
    assert preserves_orthogonality(make_unitary_conj(Matrix.identity(3, K)))
    assert preserves_orthogonality(
        make_induced(Automorphism.FLIP, Matrix.diag([2, 2], K)))
    assert preserves_orthogonality(
        make_induced(Automorphism.ID, Matrix.diag([I_, I_], K)))
    assert not preserves_orthogonality(
        make_induced(Automorphism.ID, Matrix([[1, 1], [0, 1]], K)))
    assert not preserves_orthogonality(
        make_induced(Automorphism.ID, Matrix.diag([1, 2], K)))


def test_orthogonality_preservation_is_sharp():
    # when the predicate holds every orthogonal pair of lines stays
    # orthogonal; when it fails a violating pair can be built from the gram
    # matrix of the basis change
    rng = random.Random(3005)
    preserved_seen = 0
    for _ in range(150):
        n = rng.randint(2, 4)
        m = random_map(rng, n)
        if preserves_orthogonality(m):
            preserved_seen += 1
            p = random_projection(rng, n, rank=rng.randint(1, n - 1))
            comp = p.complement().matrix
            w = comp.matvec(random_unit_vector(rng, n))
            if not any(w):
                continue
            v = p.basis.col(0)
            assert rank_one_image(m, v).is_orthogonal_to(rank_one_image(m, w))
        else:
            gram = m.b.conj_transpose() * m.b
            pair = None
            for i in range(n):
                for j in range(i + 1, n):
                    if gram[i, j]:
                        e_i = [K.one if t == i else K.zero for t in range(n)]
                        e_j = [K.one if t == j else K.zero for t in range(n)]
                        pair = (e_i, e_j)
                    elif gram[i, i] != gram[j, j]:
                        u = [K.one if t in (i, j) else K.zero
                             for t in range(n)]
                        w = [K.one if t == i else
                             (-K.one if t == j else K.zero)
                             for t in range(n)]
                        pair = (u, w)
            assert pair is not None
            img0 = rank_one_image(m, pair[0])
            img1 = rank_one_image(m, pair[1])
            assert not img0.is_orthogonal_to(img1)
    assert preserved_seen > 40


# -- extensions -------------------------------------------------------------------


def test_extend_join_matches_apply():
    rng = random.Random(3006)
    for _ in range(100):
        n = rng.randint(2, 4)
        m = random_map(rng, n)
        p = random_projection(rng, n)
        assert extend_join(m, p) == m.apply(p)
        if p.rank:
            mixer = random_invertible(rng, p.rank)
            assert extend_join(m, p, mixer=mixer) == m.apply(p)


def test_extend_join_checked_mode_accepts_custom_mixer():
    rng = random.Random(3007)
    m = make_induced(Automorphism.CONJ, random_invertible(rng, 3))
    p = random_projection(rng, 3, rank=2)
    mixer = Matrix([[1, 1], [1, 2]], K)
    assert extend_join(m, p, mixer=mixer) == m.apply(p)
    with pytest.raises(ValueError):
        extend_join(m, p, mixer=Matrix([[1, 1], [1, 1]], K))


def test_extend_sum_agrees_when_orthogonality_is_preserved():
    rng = random.Random(3008)
    checked = 0
    for _ in range(100):
        n = rng.randint(2, 4)
        m = random_map(rng, n)
        if not preserves_orthogonality(m):
            continue
        checked += 1
        p = random_projection(rng, n)
        assert extend_sum(m, p) == m.apply(p)
    assert checked > 30


def test_extend_sum_matches_the_sum_of_image_matrices():
    """The image-vector extend_sum against summing rank-one image matrices."""
    rng = random.Random(3017)
    outcomes = set()
    for _ in range(60):
        n = rng.randint(2, 4)
        m, p = random_map(rng, n), random_projection(rng, n)
        if p.is_zero():
            continue
        basis = gram_schmidt(p.basis.colspace_basis())
        images = [rank_one_image(m, u) for u in basis.columns()]
        skew = any(not images[s].is_orthogonal_to(images[t])
                   for s in range(len(images))
                   for t in range(s + 1, len(images)))
        outcomes.add(skew)
        if skew:
            with pytest.raises(OrthogonalityError):
                extend_sum(m, p)
        else:
            total = sum((q.matrix for q in images[1:]), images[0].matrix)
            assert extend_sum(m, p) == make_projection(total)
    assert outcomes == {False, True}


def test_extend_sum_rejects_skew_images():
    shear3 = Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]], K)
    m = make_induced(Automorphism.ID, shear3)
    p = rank_one([K.one, K.zero, K.zero]).join(
        rank_one([K.zero, K.one, K.zero]))
    with pytest.raises(OrthogonalityError):
        extend_sum(m, p)
    # rank-one inputs never hit the orthogonality requirement
    assert extend_sum(m, rank_one([K.zero, K.one, K.zero])) == \
        rank_one([K.one, K.one, K.zero])


# -- classification ----------------------------------------------------------------


def test_classify_fixed_values():
    assert classify_map(make_unitary_conj(Matrix.identity(2, K))) is \
        MapForm.UNITARY_FORM
    assert classify_map(make_unitary_conj(Matrix.identity(2, K), anti=True)) \
        is MapForm.ANTI_UNITARY_FORM
    assert classify_map(make_induced(Automorphism.ID,
                                     Matrix.diag([I_, I_], K))) is \
        MapForm.UNITARY_FORM
    assert classify_map(make_induced(Automorphism.ID,
                                     Matrix.diag([2, 2], K))) is \
        MapForm.UNITARY_FORM
    assert classify_map(make_induced(Automorphism.CONJ,
                                     Matrix.identity(3, K))) is \
        MapForm.ANTI_UNITARY_FORM
    assert classify_map(make_induced(Automorphism.FLIP,
                                     Matrix.identity(2, K))) is \
        MapForm.WILD_PAIR_PRESERVING
    assert classify_map(make_induced(Automorphism.ID,
                                     Matrix([[1, 1], [0, 1]], K))) is \
        MapForm.WILD_PAIR_PRESERVING
    # the conjugations written as induced pairs (id, U*) and (conj, U^T)
    u = plane_rotation(3, 0, 2) * Matrix.diag([I_, K.one, -I_], K)
    assert classify_map(make_induced(Automorphism.ID,
                                     u.conj_transpose())) is \
        MapForm.UNITARY_FORM
    assert classify_map(make_induced(Automorphism.CONJ, u.transpose())) is \
        MapForm.ANTI_UNITARY_FORM
    # on K^0 the empty Gram matrix is scalar
    assert classify_map(make_unitary_conj(Matrix.identity(0, K))) is \
        MapForm.UNITARY_FORM
    assert classify_map(make_induced(Automorphism.CONJ,
                                     Matrix.identity(0, K))) is \
        MapForm.ANTI_UNITARY_FORM


def test_classified_forms_preserve_orthogonality():
    rng = random.Random(3009)
    for _ in range(100):
        n = rng.randint(2, 4)
        m = random_map(rng, n)
        form = classify_map(m)
        if form is not MapForm.WILD_PAIR_PRESERVING:
            assert preserves_orthogonality(m)
        # the conjugations as induced pairs: (id, U*) and (conj, U^T)
        u = random_unitary(rng, n)
        for m, form in ((make_induced(Automorphism.ID, u.conj_transpose()),
                         MapForm.UNITARY_FORM),
                        (make_induced(Automorphism.CONJ, u.transpose()),
                         MapForm.ANTI_UNITARY_FORM)):
            assert classify_map(m) is form
            assert preserves_orthogonality(m)


def test_scaled_unitary_induced_map_acts_like_conjugation():
    # B = 2U changes no ranges, so the induced map must equal P -> U*PU
    rng = random.Random(3010)
    for _ in range(40):
        n = rng.randint(2, 4)
        u = random_unitary(rng, n)
        m = make_induced(Automorphism.ID, u * K.elem(2))
        conj = make_unitary_conj(u.conj_transpose())
        p = random_projection(rng, n)
        assert m.apply(p) == conj.apply(p)


# -- text form ----------------------------------------------------------------------


def test_map_json_roundtrip():
    rng = random.Random(3011)
    for _ in range(30):
        n = rng.randint(2, 4)
        m = random_map(rng, n)
        back = map_from_json(map_to_json(m))
        assert type(back) is type(m)
        p = random_projection(rng, n)
        assert back.apply(p) == m.apply(p)


def test_map_json_errors():
    with pytest.raises(ValueError):
        map_from_json({"kind": "unitary"})
    with pytest.raises(ValueError):
        map_from_json({"kind": "induced",
                       "B": {"d": 2, "rows": [["1", "0"], ["0", "1"]]}})
    with pytest.raises(ValueError):
        map_from_json({"kind": "mystery"})
    with pytest.raises(ValueError):
        map_from_json([])
    with pytest.raises(ValueError):
        map_from_json({"kind": "induced", "f": "sqrt",
                       "B": {"d": 2, "rows": [["1", "0"], ["0", "1"]]}})
