"""Pencil spectra: construction, membership, classification, zero sets."""

import random
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import reference_pencil
from reference_pencil import pencil_poly_leibniz
from jspec import spectrum
from jspec.exactla import Matrix, projection_onto
from jspec.lattice import (
    Projection,
    identity_projection,
    make_projection,
    rank_one,
    zero_projection,
)
from jspec.polyalg import MultiPoly, canonicalize
from jspec.scalar import Automorphism, FieldContext, _dot4
from jspec.spectrum import (
    JointSpectrum,
    PairFacts,
    RankOneClass,
    classify_rank_one_tuple,
    pair_facts,
    pencil_poly,
    tuple_from_json,
    tuple_to_json,
    zero_set_equal,
    zero_set_subset,
)

K = FieldContext(2)
I_ = K.i
R_ = K.sqrt_d
POOL = [K.zero, K.one, -K.one, K.elem(2), I_, -I_, R_, 1 + I_, 1 - R_]


def c(index, nvars):
    return MultiPoly.variable(index, nvars, K)


def diag_projection(bits):
    return make_projection(Matrix.diag([K.one if b else K.zero for b in bits], K))


def random_projection(rng, n, rank=None):
    if rank is None:
        rank = rng.randint(0, n)
    if rank == 0:
        return zero_projection(n, K)
    while True:
        cols = [[rng.choice(POOL) for _ in range(n)] for _ in range(rank)]
        a = Matrix.from_columns(cols, K, nrows=n)
        if a.rank() == rank:
            return make_projection(projection_onto(a))


def random_line(rng, n):
    while True:
        v = [rng.choice(POOL) for _ in range(n)]
        if any(v):
            return rank_one(v, K)


def spec_of(poly, n):
    return JointSpectrum(poly.nvars, n, poly)


# -- pencil construction ------------------------------------------------------------


def test_pencil_fixed_values():
    s = pencil_poly([diag_projection([1, 0]), diag_projection([0, 1])])
    assert s.pencil == c(0, 2) * c(1, 2)
    p = rank_one([K.one, K.one, K.zero])
    assert pencil_poly([p, p]).is_full()
    s3 = pencil_poly([diag_projection([1, 0, 0]), diag_projection([0, 1, 0]),
                      diag_projection([0, 0, 1])])
    assert s3.pencil == c(0, 3) * c(1, 3) * c(2, 3)


def test_pencil_rejects_bad_tuples():
    with pytest.raises(ValueError):
        pencil_poly([])
    with pytest.raises(ValueError):
        pencil_poly([zero_projection(2, K), zero_projection(3, K)])
    for projs in ([1, 2], [zero_projection(2, K), "P"]):
        with pytest.raises(TypeError, match="Projection values"):
            pencil_poly(projs)
    # on K^0 the pencil would be the constant 1, whose zero set is empty
    for projs in ([zero_projection(0, K)], [identity_projection(0, K)] * 2):
        with pytest.raises(ValueError, match="K\\^0"):
            pencil_poly(projs)


def test_pencil_homogeneous_of_ambient_degree():
    rng = random.Random(4001)
    for _ in range(200):
        n = rng.randint(2, 4)
        k = rng.randint(1, 3)
        s = pencil_poly([random_projection(rng, n) for _ in range(k)])
        if not s.is_full():
            assert s.pencil.is_homogeneous()
            assert s.pencil.total_degree() == n


def test_pencil_matches_leibniz_oracle():
    rng = random.Random(4002)
    for _ in range(50):
        n = rng.randint(1, 4)
        k = rng.randint(1, 3)
        projs = [random_projection(rng, n) for _ in range(k)]
        assert pencil_poly(projs).pencil == pencil_poly_leibniz(projs)


def test_pencil_rejects_mixed_fields():
    other = FieldContext(3)
    with pytest.raises(ValueError, match="d=2 and d=3"):
        pencil_poly([diag_projection([1, 0]),
                     make_projection(Matrix.diag([other.one, other.zero],
                                                 other))])


def _pool(ctx):
    one, i, r = ctx.one, ctx.i, ctx.sqrt_d
    return (ctx.zero, ctx.zero, one, -one, ctx.elem(2), i, -i, r, one + i,
            one - r, r * i, ctx.elem(1, 2) + i)


@st.composite
def tuples(draw, max_n, max_n_large_d):
    """A projection tuple over K = Q(i, sqrt d), ranks 0..n, n <= max_n.

    The oracles take seconds per pencil at the top sizes over the large d,
    so there n stops at max_n_large_d.
    """
    d = draw(st.sampled_from([2, 3, 5, 999999937]))
    ctx = FieldContext(d)
    top = max_n if d < 10 else max_n_large_d
    n = draw(st.sampled_from(range(1, top + 1)))
    k = draw(st.integers(1, 4 if n <= 6 else 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = _pool(ctx)
    projs = []
    for _ in range(k):
        rank = draw(st.integers(0, n))
        if rank == 0:
            projs.append(zero_projection(n, ctx))
        elif rank == n:
            projs.append(identity_projection(n, ctx))
        else:
            while True:
                cols = [[rng.choice(pool) for _ in range(n)]
                        for _ in range(rank)]
                a = Matrix.from_columns(cols, ctx, nrows=n)
                if a.rank() == rank:
                    projs.append(Projection(a))
                    break
    return projs


@settings(max_examples=100, deadline=None)
@given(tuples(max_n=8, max_n_large_d=6))
def test_pencil_matches_reference_dp(projs):
    pencil = pencil_poly(projs).pencil
    assert pencil == reference_pencil.pencil_poly(projs).pencil
    # Cauchy-Binet: each coefficient is a sum of |det U_S|^2 / prod |u_j|^2
    # over orthogonal range bases u_j, so it lies in Q(sqrt d) and is >= 0
    # in both real embeddings.
    for coef in pencil.terms.values():
        assert coef.is_real()
        assert coef.real_sign() >= 0
        assert Automorphism.FLIP(coef).real_sign() >= 0


@st.composite
def layout_tuples(draw):
    """`tuples`, or n random lines on K^n (the `lemma41` shape), n <= 8."""
    if draw(st.booleans()):
        return draw(tuples(max_n=8, max_n_large_d=6))
    d = draw(st.sampled_from([2, 999999937]))
    ctx = FieldContext(d)
    n = draw(st.integers(1, 8 if d < 10 else 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = _pool(ctx)
    lines = []
    while len(lines) < n:
        v = [rng.choice(pool) for _ in range(n)]
        if any(v):
            lines.append(rank_one(v, ctx))
    return lines


@settings(max_examples=80, deadline=None)
@given(layout_tuples())
def test_packed_and_dict_layouts_agree(projs):
    """The packed DP against the reference dict DP, under two scales.

    The Gram scale of `Matrix.scaled` (`gram_forms`) and the lcm scale of
    the reference `lcm_forms`.  Small d keeps the slots narrow;
    d = 999999937 makes them wide.  Zero and identity members, zero pencils
    and dependent lines all occur.
    """
    _, _, ctx = spectrum._check_tuple(projs)
    ranks = [p.rank for p in projs]
    for forms, _ in (reference_pencil.gram_forms(projs),
                     reference_pencil.lcm_forms(projs)):
        w = spectrum._slot_width(forms, ctx.d)
        packed = spectrum._packed_dp(forms, ranks, ctx.d, w)
        assert packed == reference_pencil.dict_dp(forms, ctx.d)
        assert all(abs(x) < 1 << (w - 2) for v in packed.values() for x in v)


def test_packed_decode_raises_past_its_bound():
    """A slot too narrow for a coefficient raises instead of misreading it."""
    p = diag_projection([1, 0])
    q = rank_one([K.one, K.elem(2)])  # 5 Q = [[1, 2], [2, 4]]
    forms, _ = reference_pencil.gram_forms([p, q])
    assert reference_pencil.dict_dp(forms, 2) == {(1, 1): (4, 0, 0, 0)}
    assert spectrum._packed_dp(forms, [1, 1], 2, 4) == {(1, 1): (4, 0, 0, 0)}
    with pytest.raises(RuntimeError, match="proven bound"):
        spectrum._packed_dp(forms, [1, 1], 2, 2)


# Column kinds of X_l: every component, or only the real, the i or the
# sqrt d one.
_COLUMN_KINDS = {"mixed": (0, 1, 2, 3), "real": (0,), "imaginary": (2,),
                 "sqrt_d": (1,)}


@st.composite
def gram_form_entries(draw):
    """The rows of M_l = X_l X_l* for integral n x r_l matrices X_l.

    X_l is over Z[i, sqrt d] with components up to 2^40, past CPython's
    30-bit digit.  M_l is Hermitian of rank at most r_l, which is all that
    `_packed_dp`'s box needs, so r_l is passed as the rank.
    """
    d = draw(st.sampled_from([2, 3, 999999937]))
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, 4))
    big = st.integers(-2**40, 2**40)
    ranks, forms = [], []
    for _ in range(k):
        rank = draw(st.integers(1, n))
        cols = []
        for _ in range(rank):
            kind = _COLUMN_KINDS[draw(st.sampled_from(sorted(_COLUMN_KINDS)))]
            cols.append([tuple(draw(big) if part in kind else 0
                               for part in range(4)) for _ in range(n)])
        rows = list(zip(*cols))
        conj = [[(a, b, -c_, -e) for a, b, c_, e in row] for row in rows]
        # (X_l X_l*)_{rj}
        forms.append([[_dot4(rows[r], conj[j], d) for j in range(n)]
                      for r in range(n)])
        ranks.append(rank)
    return forms, ranks, d


@settings(max_examples=100, deadline=None)
@given(gram_form_entries())
def test_packed_dp_matches_the_dict_dp_on_gram_forms(drawn):
    """`_packed_dp` against the reference dict DP on synthetic Gram forms.

    Wide components and columns with one kind of component reach every
    cross term of the three-product step: u and v, x and y each zero or
    not, and sqrt d parts beside the real ones.
    """
    forms, ranks, d = drawn
    w = spectrum._slot_width(forms, d)
    packed = spectrum._packed_dp(forms, ranks, d, w)
    assert packed == reference_pencil.dict_dp(forms, d)
    assert all(abs(x) < 1 << (w - 2) for v in packed.values() for x in v)


def _refuse_dp(*args):
    raise AssertionError("the subset DP ran")


def test_oversized_pencil_is_refused_before_the_dp(monkeypatch):
    """Ten members of K^8 with the ranks of the first map-preserve trial
    at n = 8, k = 10 (seed 1): millions of digits per packed state."""
    monkeypatch.setattr(spectrum, "_packed_dp", _refuse_dp)
    rng = random.Random(8)
    projs = [random_projection(rng, 8, r)
             for r in (5, 1, 6, 7, 5, 5, 6, 4, 3, 7)]
    assert spectrum._radices([p.rank for p in projs])[1] == 3386880
    start = time.perf_counter()
    with pytest.raises(ValueError, match="too large for the subset DP"):
        pencil_poly(projs)
    assert time.perf_counter() - start < 5


def test_dp_bound_is_two_to_the_n_times_w_times_digits(monkeypatch):
    """At MAX_DP_BITS = 2^n w digits the DP is called, one below it not.

    A stub stands in for the DP, which returns no coefficient."""
    rng = random.Random(9)
    projs = [random_projection(rng, 4, r) for r in (2, 2, 3)]
    forms = [p.matrix.scaled[1] for p in projs]
    bits = 16 * spectrum._slot_width(forms, 2) * 3 * 3
    calls = []
    monkeypatch.setattr(spectrum, "_packed_dp",
                        lambda *args: calls.append(args) or {})
    monkeypatch.setattr(spectrum, "MAX_DP_BITS", bits)
    assert pencil_poly(projs).is_full() and len(calls) == 1
    monkeypatch.setattr(spectrum, "MAX_DP_BITS", bits - 1)
    with pytest.raises(ValueError, match=f"exceed {bits - 1} bits"):
        pencil_poly(projs)
    assert len(calls) == 1


def _independent(rng, pool, n, rank, ctx, first=None):
    """A basis of `rank` random columns of K^n, led by `first` if given."""
    while True:
        cols = [] if first is None else [first]
        cols += [[rng.choice(pool) for _ in range(n)]
                 for _ in range(rank - len(cols))]
        a = Matrix.from_columns(cols, ctx, nrows=n)
        if a.rank() == rank:
            return a


@st.composite
def excess_free_tuples(draw):
    """A tuple with sum of ranks n + e, e in -3..0: the closed-form pencils.

    Either ranks 0..n split at random over k <= 4 members (zero and
    identity members included), with, at will, a repeated member or a
    member whose range meets an earlier one's, so U = [A_1 | ... | A_k]
    can be singular at e = 0; or n = k = 8..10 random lines, the `lemma41`
    shape, one of them at will a multiple of another.  The DP oracles take
    seconds at n = 10 over the large d, so there the lines stop at n = 8.
    """
    d = draw(st.sampled_from([2, 3, 999999937]))
    ctx = FieldContext(d)
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = _pool(ctx)
    if draw(st.integers(0, 3)) == 0:
        n = draw(st.integers(8, 10 if d < 10 else 8))
        cols = [_independent(rng, pool, n, 1, ctx).col(0) for _ in range(n)]
        if draw(st.booleans()):
            cols[-1] = [x * ctx.elem(2) for x in cols[0]]
        return [Projection(Matrix.from_columns([v], ctx)) for v in cols]
    n = draw(st.integers(1, 6 if d < 10 else 5))
    left = n + draw(st.integers(-min(3, n), 0))
    k = draw(st.integers(1, 4))
    repeat, overlap = draw(st.booleans()), draw(st.booleans())
    projs = []
    for l in range(k):
        rank = left if l == k - 1 else draw(st.integers(0, left))
        left -= rank
        if repeat and l and rank == projs[0].rank:
            projs.append(projs[0])
        elif rank == 0:
            projs.append(zero_projection(n, ctx))
        elif rank == n:
            projs.append(identity_projection(n, ctx))
        elif overlap and l and projs[0].rank:
            shared = [x * ctx.elem(2) + y for x, y in
                      zip(projs[0].basis.col(0), projs[0].basis.col(-1))]
            projs.append(Projection(
                _independent(rng, pool, n, rank, ctx, first=shared)))
        else:
            projs.append(Projection(_independent(rng, pool, n, rank, ctx)))
    return projs


@settings(max_examples=40, deadline=None)
@given(excess_free_tuples())
def test_closed_form_pencil_matches_the_dp(projs):
    """e <= 0: the closed form against both DP layouts and Leibniz.

    The DP runs on the entries `pencil_poly` would scale for it (by the
    Gram determinants).  Both layouts run up to n = 7; at n = 8..10 only the packed one, since the
    reference dict DP can take seconds (the two are compared at those
    sizes by `layout_tuples`).
    """
    _, n, ctx = spectrum._check_tuple(projs)
    ranks = [p.rank for p in projs]
    assert sum(ranks) <= n
    pencil = pencil_poly(projs).pencil
    assert all(p._matrix is None for p in projs)  # no matrix was built
    forms, scales = reference_pencil.gram_forms(projs)
    w = spectrum._slot_width(forms, ctx.d)
    layouts = [spectrum._packed_dp(forms, ranks, ctx.d, w)]
    if n <= 7:
        layouts.append(reference_pencil.dict_dp(forms, ctx.d))
    for coefs in layouts:
        assert pencil == spectrum._rescaled(coefs, scales, n, ctx)
    if n <= 5:
        assert pencil == pencil_poly_leibniz(projs)
    if sum(ranks) < n:
        assert pencil.is_zero()
    else:
        assert set(pencil.terms) <= {tuple(ranks)}
    for coef in pencil.terms.values():
        assert coef.is_real()
        assert coef.real_sign() > 0
        assert Automorphism.FLIP(coef).real_sign() > 0


def _repeated_line_tuple(n, ctx):
    """A line a twice, then a hyperplane B not containing it: ranks (1, 1, n-1).

    U = [a | a | B] has rank n, but its first n columns hold a twice, so
    the leading n x n block of U is singular and `exactla._bareiss` swaps
    U's last column in for the second a.
    """
    a = [ctx.one] + [ctx.zero] * (n - 2) + [ctx.i]
    b = [[ctx.zero] * j + [ctx.sqrt_d] + [ctx.one] * (n - j - 1)
         for j in range(1, n)]
    line = Projection(Matrix.from_columns([a], ctx))
    return [line, line, Projection(Matrix.from_columns(b, ctx))]


@st.composite
def excess_one_tuples(draw):
    """A tuple with sum of ranks n + 1, e = 1: the Cramer-vector closed form.

    Either n + 1 random lines on K^n, n = 8..10 at d = 2 and 8 otherwise
    (the DP oracle takes seconds at n = 10), the `rank-one-k` shape, one of
    them at will a multiple of another; or ranks adding up to n + 1 over
    k = 2..4 members on K^n, n = 1..7 (1..5 at the large d), zero and
    identity members included, in one of three shapes: random members; a
    member twice, so that P = Q pairs and zero pencils occur; or a member
    whose first column lies in the span of the first member's, so that
    U = [A_1 | ... | A_k] can have rank n while its first n columns are
    dependent (the column step of `exactla._bareiss`).  The order of the
    members is drawn too.
    """
    d = draw(st.sampled_from([2, 3, 999999937]))
    ctx = FieldContext(d)
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = _pool(ctx)
    if draw(st.integers(0, 4)) == 0:
        n = draw(st.integers(8, 10 if d == 2 else 8))
        cols = [_independent(rng, pool, n, 1, ctx).col(0)
                for _ in range(n + 1)]
        if draw(st.booleans()):
            cols[draw(st.integers(1, n))] = [x * ctx.elem(2) for x in cols[0]]
        return [Projection(Matrix.from_columns([v], ctx)) for v in cols]
    n = draw(st.integers(1, 7 if d < 10 else 5))
    shape = draw(st.sampled_from(["random", "repeat", "overlap"]))
    if shape == "repeat":
        rank = draw(st.integers(1, (n + 1) // 2))
        ranks = [rank, rank] + ([n + 1 - 2 * rank] if 2 * rank <= n else [])
    else:
        cuts = sorted(draw(st.lists(st.integers(0, n + 1), min_size=1,
                                    max_size=3)))
        ranks = [b - a for a, b in zip([0] + cuts, cuts + [n + 1])]
        assume(max(ranks) <= n)
    projs = []
    for l, rank in enumerate(ranks):
        if shape == "repeat" and l == 1:
            projs.append(projs[0])
        elif rank == 0:
            projs.append(zero_projection(n, ctx))
        elif rank == n:
            projs.append(identity_projection(n, ctx))
        elif shape == "overlap" and l and projs[0].rank:
            shared = [x * ctx.elem(2) + y for x, y in
                      zip(projs[0].basis.col(0), projs[0].basis.col(-1))]
            projs.append(Projection(
                _independent(rng, pool, n, rank, ctx, first=shared)))
        else:
            projs.append(Projection(_independent(rng, pool, n, rank, ctx)))
    return draw(st.permutations(projs))


@settings(max_examples=40, deadline=None)
@given(excess_one_tuples())
@example(_repeated_line_tuple(3, K))
@example(_repeated_line_tuple(6, FieldContext(999999937)))
@example([rank_one([K.one, I_, K.zero])] * 2
         + [rank_one([K.zero, K.one, R_])] * 2)  # U of rank 2, pencil 0
def test_excess_one_pencil_matches_the_dp(projs):
    """e = 1: the Cramer-vector closed form against the DP and Leibniz.

    The packed DP runs on `gram_forms`, the reference dict DP up to
    n = 7 and Leibniz up to n = 5.  No member's matrix is built, every
    term is c^(r - e_l) for some l, and every coefficient is real and
    positive in both real embeddings.
    """
    k, n, ctx = spectrum._check_tuple(projs)
    ranks = [p.rank for p in projs]
    assert sum(ranks) == n + 1
    pencil = pencil_poly(projs).pencil
    assert all(p._matrix is None for p in projs)  # no matrix was built
    forms, scales = reference_pencil.gram_forms(projs)
    w = spectrum._slot_width(forms, ctx.d)
    layouts = [spectrum._packed_dp(forms, ranks, ctx.d, w)]
    if n <= 7:
        layouts.append(reference_pencil.dict_dp(forms, ctx.d))
    for coefs in layouts:
        assert pencil == spectrum._rescaled(coefs, scales, n, ctx)
    if n <= 5:
        assert pencil == pencil_poly_leibniz(projs)
    assert set(pencil.terms) <= {
        tuple(r - (m == l) for m, r in enumerate(ranks)) for l in range(k)}
    for coef in pencil.terms.values():
        assert coef.is_real()
        assert coef.real_sign() > 0
        assert Automorphism.FLIP(coef).real_sign() > 0


def test_dependent_basis_raises_whatever_the_excess():
    """A basis with dependent columns raises before its rank is trusted.

    At e <= 1, at both n, `_gram_determinants` makes the check for the
    closed form; at e = 2 reading the matrix makes it for the DP.
    """
    for n in (4, 7):
        pad = [K.zero] * (n - 4)
        v = [K.one, I_, K.zero, R_] + pad
        w = [K.zero, K.one, K.one] + pad + [K.zero]
        bad = Projection(Matrix.from_columns(
            [v, w, [x + y for x, y in zip(v, w)]], K))  # "rank 3", a plane
        line = rank_one([K.one] + [K.zero] * (n - 2) + [K.one])
        # e = 3 - n, 0, 1 and 2; each call twice, as a first call that
        # raised must leave nothing behind that lets the second one pass
        for lines in (0, n - 3, n - 2, n - 1):
            projs = [bad] + [line] * lines
            for _ in range(2):
                with pytest.raises(ValueError, match="columns are dependent"):
                    pencil_poly(projs)
                with pytest.raises(ValueError, match="columns are dependent"):
                    pencil_poly(projs[::-1])


@st.composite
def gram_scale_tuples(draw):
    """A tuple on K^n, n = 6..8, with rank excess e >= 1.

    k = 2 or 3 members of rank 0..n, the last one drawn so that the ranks
    add up to more than n where it can be; at k = 3 the second member is at
    will a repeat of the first.  Every basis column is multiplied by one
    common factor: 1, an integer or a multiple of sqrt d.  The identity is
    appended while e <= 0.
    """
    d = draw(st.sampled_from([2, 3, 999999937]))
    ctx = FieldContext(d)
    n = draw(st.integers(6, 8))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = _pool(ctx)
    a, b = draw(st.sampled_from([(1, 0), (6, 0), (0, 1), (0, -3)]))
    scale = ctx.elem(a, b)  # a + b sqrt d
    projs, k = [], draw(st.integers(2, 3))
    for l in range(k):
        if l == 1 and k == 3 and draw(st.booleans()):
            projs.append(projs[0])
            continue
        left = n + 1 - sum(p.rank for p in projs) if l == k - 1 else 0
        rank = draw(st.integers(min(max(left, 0), n), n))
        cols = [[x * scale for x in col] for col in
                _independent(rng, pool, n, rank, ctx).columns()]
        projs.append(Projection(Matrix.from_columns(cols, ctx, nrows=n)))
    while sum(p.rank for p in projs) <= n:
        projs.append(identity_projection(n, ctx))
    return (scale if b == 0 else None), projs


@settings(max_examples=40, deadline=None)
@given(gram_scale_tuples())
def test_gram_scaled_pencil_matches_the_reference_dp(drawn):
    """e >= 1: the pencil, closed form or DP, against the rescaled dict DP.

    The reference runs on the lcm scale (`lcm_forms`), so the two share
    only the rescaling formula.  A common integer factor of a basis column
    leaves its Gram determinant unchanged, since the columns are made
    primitive.
    """
    factor, projs = drawn  # factor: the integer factor, or None
    _, n, ctx = spectrum._check_tuple(projs)
    assert sum(p.rank for p in projs) > n
    forms, dens = reference_pencil.lcm_forms(projs)
    expected = spectrum._rescaled(reference_pencil.dict_dp(forms, ctx.d),
                                  dens, n, ctx)
    assert pencil_poly(projs).pencil == expected
    if factor is not None:
        plain = [Projection(Matrix.from_columns(
            [[x / factor for x in col] for col in p.basis.columns()], ctx,
            nrows=n)) for p in projs]
        assert spectrum._gram_determinants(plain, ctx.d)[1] == \
            spectrum._gram_determinants(projs, ctx.d)[1]


@st.composite
def shared_member_calls(draw):
    """One pool of Projection objects, and the tuples of a run of pencils.

    n = 4..7, d is 2 or 999999937.  The pool holds 3 or 4 members of rank
    0..n.  Each call is a tuple of 1..4 pool indices, repeats allowed, in
    any order, so the calls revisit the members in sub-tuples, permuted
    tuples and whole tuples, at e <= 1 (the closed form) and e >= 2 (the
    DP).  The whole pool comes first and again, reversed, last.
    """
    d = draw(st.sampled_from([2, 999999937]))
    ctx = FieldContext(d)
    n = draw(st.integers(4, 7))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = _pool(ctx)
    members = []
    for _ in range(draw(st.integers(3, 4))):
        rank = draw(st.integers(0, n))
        members.append(zero_projection(n, ctx) if rank == 0 else
                       Projection(_independent(rng, pool, n, rank, ctx)))
    every = list(range(len(members)))
    calls = draw(st.lists(st.lists(st.sampled_from(every), min_size=1,
                                   max_size=4), min_size=1, max_size=5))
    return members, [every] + calls + [every[::-1]]


@settings(max_examples=30, deadline=None)
@given(shared_member_calls())
def test_revisited_members_give_the_pencils_of_fresh_copies(drawn):
    """Pencils on shared members equal those on fresh Projections.

    A member keeps its matrix, and with it g_l and g_l P_l (`Matrix.scaled`),
    from the first pencil that builds it, so later pencils, in any order,
    read what an earlier call left.  The g_l the DP reads from the matrix
    equal those the closed form eliminates for itself.
    """
    members, calls = drawn
    d = members[0].ctx.d
    for call in calls:
        projs = [members[i] for i in call]

        def fresh():
            return [Projection(p.basis) for p in projs]

        assert pencil_poly(projs).pencil == pencil_poly(fresh()).pencil
        grams = spectrum._gram_determinants(projs, d)[1]
        assert grams == spectrum._gram_determinants(fresh(), d)[1]
        assert reference_pencil.gram_forms(projs)[1] == grams
        assert reference_pencil.gram_forms(projs) == \
            reference_pencil.gram_forms(fresh())


@st.composite
def projection_pairs(draw):
    """(P, Q) on K^n, n = 2..6, with Q = P or sharing subspaces with P."""
    d = draw(st.sampled_from([2, 3, 5]))
    ctx = FieldContext(d)
    n = draw(st.integers(2, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = _pool(ctx)

    def span(cols):
        if not cols:
            return zero_projection(n, ctx)
        return Projection(Matrix.from_columns(cols, ctx).colspace_basis())

    def draw_cols(count):
        return [[rng.choice(pool) for _ in range(n)] for _ in range(count)]

    p = span(draw_cols(draw(st.integers(0, n))))
    kind = draw(st.sampled_from(["random", "same", "shared"]))
    if kind == "same":
        return p, span(p.basis.columns())
    if kind == "random":
        return p, span(draw_cols(draw(st.integers(0, n))))
    # Q keeps some of Range(P) and of Ker(P) and adds random columns
    ran, ker = p.basis.columns(), p.complement().basis.columns()
    cols = (ran[:draw(st.integers(0, len(ran)))]
            + ker[:draw(st.integers(0, len(ker)))]
            + draw_cols(draw(st.integers(0, 2))))
    return p, span(cols)


@settings(max_examples=100, deadline=None)
@given(projection_pairs())
def test_pencil_of_two_projections_matches_halmos(pair):
    """Halmos's two-subspace theorem decides every k = 2 pencil.

    K^n splits into R(P)∩N(Q), N(P)∩R(Q), R(P)∩R(Q), N(P)∩N(Q) of
    dimensions a, b, m, z and a generic part of dimension 2g, on which the
    pair is g blocks [[1, 0], [0, 0]] and [[cos², cs], [cs, sin²]] with
    determinant c1 c2 sin²: so det(c1 P + c2 Q) = K c1^(a+g) c2^(b+g)
    (c1 + c2)^m with K the real positive product of the sin², or 0 iff z > 0.
    K is positive in both real embeddings of Q(sqrt d), as the flip of
    sqrt d maps the pair to a pair with the same dimensions.  The pair
    facts follow: the ranges span K^n iff z = 0, so (1, 1) is outside the
    spectrum iff z = 0, and (1, -1) iff also m = 0.
    """
    p, q = pair
    n, ctx = p.n, p.ctx
    pc, qc = p.complement(), q.complement()
    a, b = p.meet(qc).rank, pc.meet(q).rank
    m, z = p.meet(q).rank, pc.meet(qc).rank
    g, odd = divmod(n - a - b - m - z, 2)
    assert odd == 0 and g >= 0
    assert pair_facts(p, q) == PairFacts(z == 0, m == 0, z == 0,
                                         z == 0 and m == 0)
    pencil = pencil_poly([p, q]).pencil
    if z:
        assert pencil.is_zero()
        return
    c1, c2 = MultiPoly.variable(0, 2, ctx), MultiPoly.variable(1, 2, ctx)
    shape = c1 ** (a + g) * c2 ** (b + g) * (c1 + c2) ** m
    scale = pencil.terms[(a + g, b + g + m)]
    assert scale.is_real() and scale.real_sign() > 0
    assert Automorphism.FLIP(scale).real_sign() > 0
    assert pencil == shape * MultiPoly.const(2, scale, ctx)


@settings(max_examples=60, deadline=None)
@given(tuples(max_n=5, max_n_large_d=4))
def test_pencil_matches_leibniz_hypothesis(projs):
    assert pencil_poly(projs).pencil == pencil_poly_leibniz(projs)


def test_member_matches_instantiated_determinant():
    rng = random.Random(4003)
    for _ in range(200):
        n = rng.randint(2, 4)
        k = rng.randint(1, 3)
        projs = [random_projection(rng, n) for _ in range(k)]
        s = pencil_poly(projs)
        point = [rng.choice(POOL) for _ in range(k)]
        combo = Matrix.zeros(n, n, K)
        for coef, p in zip(point, projs):
            combo = combo + p.matrix * coef
        assert s.member(point) == (not combo.det())
        assert s.pencil.eval(point) == combo.det()


def test_member_fixed_values():
    s = pencil_poly([diag_projection([1, 0]), diag_projection([0, 1])])
    assert not s.member([K.one, K.one])
    assert s.member([K.one, K.zero])
    s3 = pencil_poly([diag_projection([1, 0, 0]), diag_projection([0, 1, 0]),
                      diag_projection([0, 0, 1])])
    assert not s3.member([K.one, K.one, K.elem(-2)])
    with pytest.raises(ValueError):
        s.member([K.one])


def test_is_full_fixed_values():
    p = rank_one([K.one, K.zero, K.zero])
    assert pencil_poly([p, p]).is_full()
    assert not pencil_poly([diag_projection([1, 0]),
                            diag_projection([0, 1])]).is_full()
    trio = [rank_one([K.one, K.zero, K.zero]),
            rank_one([K.zero, K.one, K.zero]),
            rank_one([K.one, K.one, K.zero])]
    assert pencil_poly(trio).is_full()


# -- rank-one classification -----------------------------------------------------------


def test_classify_fixed_values():
    basis_lines = [rank_one([K.one, K.zero, K.zero]),
                   rank_one([K.zero, K.one, K.zero]),
                   rank_one([K.zero, K.zero, K.one])]
    assert classify_rank_one_tuple(basis_lines) == \
        RankOneClass.COORDINATE_HYPERPLANES
    s = pencil_poly(basis_lines)
    assert s.sf() == canonicalize(c(0, 3) * c(1, 3) * c(2, 3))

    planar = [rank_one([K.one, K.zero, K.zero]),
              rank_one([K.zero, K.one, K.zero]),
              rank_one([K.one, K.one, K.zero])]
    assert classify_rank_one_tuple(planar) == RankOneClass.FULL

    slanted = [rank_one([K.one, R_, K.zero]),
               rank_one([K.zero, K.one, K.zero]),
               rank_one([K.zero, K.zero, K.one])]
    assert classify_rank_one_tuple(slanted) == \
        RankOneClass.COORDINATE_HYPERPLANES


def test_classify_preconditions():
    lines = [random_line(random.Random(1), 3) for _ in range(2)]
    with pytest.raises(ValueError):
        classify_rank_one_tuple(lines)
    with pytest.raises(ValueError):
        classify_rank_one_tuple([diag_projection([1, 1, 0])] * 3)


def test_classification_dichotomy_random():
    rng = random.Random(4004)
    for _ in range(60):
        n = rng.choice([3, 4])
        lines = [random_line(rng, n) for _ in range(n)]
        verdict = classify_rank_one_tuple(lines)
        join = lines[0]
        for p in lines[1:]:
            join = join.join(p)
        assert (verdict == RankOneClass.FULL) == (join.rank < n)


def test_small_rank_one_tuples_are_full():
    rng = random.Random(4005)
    for _ in range(60):
        n = rng.randint(3, 5)
        m = rng.randint(1, n - 1)
        lines = [random_line(rng, n) for _ in range(m)]
        assert pencil_poly(lines).is_full()


# -- zero sets ---------------------------------------------------------------------------


def test_zero_set_fixed_values():
    c1, c2, c3 = (c(j, 3) for j in range(3))
    assert zero_set_subset(spec_of(c1 * c2, 2), spec_of(c1 * c2 * c3, 3))
    assert not zero_set_subset(spec_of(c1, 1), spec_of(c2, 1))
    assert zero_set_equal(spec_of(c1 ** 2 * c2, 3), spec_of(c1 * c2 ** 2, 3))
    full = spec_of(MultiPoly.zero(3, K), 3)
    assert zero_set_subset(spec_of(c1, 1), full)
    assert not zero_set_subset(full, spec_of(c1, 1))
    assert zero_set_subset(full, full)


def test_zero_set_equal_is_an_equivalence():
    rng = random.Random(4006)
    polys = []
    c1, c2 = c(0, 2), c(1, 2)
    base = [c1, c2, c1 + c2, c1 - c2]
    for _ in range(50):
        f, g = rng.choice(base), rng.choice(base)
        e1, e2 = rng.randint(1, 2), rng.randint(1, 2)
        polys.append(f ** e1 * g ** e2)
    specs = [spec_of(p, p.total_degree()) for p in polys]
    for _ in range(50):
        a, b, middle = (rng.choice(specs) for _ in range(3))
        assert zero_set_equal(a, a)
        assert zero_set_equal(a, b) == zero_set_equal(b, a)
        if zero_set_equal(a, middle) and zero_set_equal(middle, b):
            assert zero_set_equal(a, b)
        if zero_set_subset(a, middle) and zero_set_subset(middle, b):
            assert zero_set_subset(a, b)
        if zero_set_subset(a, b) and zero_set_subset(b, a):
            assert zero_set_equal(a, b)


def test_zero_set_requires_matching_variable_count():
    with pytest.raises(ValueError):
        zero_set_subset(spec_of(c(0, 2), 1), spec_of(c(0, 3), 1))


# -- pair facts ---------------------------------------------------------------------------


def test_pair_facts_fixed_values():
    e11, e22 = diag_projection([1, 0]), diag_projection([0, 1])
    facts = pair_facts(e11, e22)
    assert facts.join_full and facts.meet_zero
    assert facts.point11_out and facts.point1m1_out

    same = pair_facts(e11, e11)
    assert not any([same.join_full, same.meet_zero,
                    same.point11_out, same.point1m1_out])

    mixed = pair_facts(diag_projection([1, 1, 0]),
                       rank_one([K.zero, K.one, K.one]))
    assert mixed.join_full and mixed.meet_zero


def test_pair_facts_equivalences_random():
    rng = random.Random(4007)
    for _ in range(120):
        n = rng.randint(2, 4)
        p = random_projection(rng, n)
        q = p if rng.random() < 0.1 else random_projection(rng, n)
        facts = pair_facts(p, q)
        assert facts.join_full == facts.point11_out
        assert (facts.join_full and facts.meet_zero) == \
            (facts.point11_out and facts.point1m1_out)


def test_two_distinct_lines_give_axes_spectrum():
    rng = random.Random(4008)
    c1, c2 = c(0, 2), c(1, 2)
    axes = canonicalize(c1 * c2)
    for _ in range(40):
        p, q = random_line(rng, 2), random_line(rng, 2)
        s = pencil_poly([p, q])
        if p == q:
            assert s.is_full()
        else:
            assert s.sf() == axes


# -- text form ----------------------------------------------------------------------------


def test_tuple_json_roundtrip():
    rng = random.Random(4009)
    for _ in range(20):
        projs = [random_projection(rng, 3) for _ in range(rng.randint(1, 3))]
        reloaded = tuple_from_json(tuple_to_json(projs))
        assert reloaded == projs


def test_tuple_json_errors():
    for bad in (None, {}, {"projections": []}, {"projections": "x"}):
        with pytest.raises(ValueError):
            tuple_from_json(bad)
    mixed = {"projections": [
        {"matrix": {"d": 2, "rows": [["1"]]}},
        {"matrix": {"d": 2, "rows": [["1", "0"], ["0", "0"]]}},
    ]}
    with pytest.raises(ValueError):
        tuple_from_json(mixed)
