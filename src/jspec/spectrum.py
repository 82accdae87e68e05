"""Joint spectra of projection tuples as determinant-pencil hypersurfaces.

The joint spectrum of (P1..Pk) on K^n is the zero set of the pencil
polynomial det(c1*P1 + ... + ck*Pk), a homogeneous polynomial of degree n in
c1..ck unless it vanishes identically (then the spectrum is all of C^k).
Zero sets are compared exactly: for hypersurfaces over a subfield of C,
Z(p) is contained in Z(q) iff the squarefree part of p divides q, so set
containment reduces to polynomial divisibility over K.
"""

from __future__ import annotations

import dataclasses
import enum
from fractions import Fraction
from math import factorial, isqrt, lcm
from typing import Optional, Sequence

from jspec.exactla import _bareiss, _gram_elimination
from jspec.lattice import (
    Projection,
    projection_from_json,
    projection_to_json,
)
from jspec.polyalg import (
    MultiPoly,
    canonicalize,
    divides,
    squarefree_part,
)
from jspec.scalar import (
    FieldContext,
    FieldElem,
    _canonical,
    _dot4,
    _inverse4,
    _mul4,
    _reduced,
)


class JointSpectrum:
    """The zero set of a projection-tuple pencil, held as its polynomial."""

    __slots__ = ("k", "n", "pencil", "_sf")

    def __init__(self, k: int, n: int, pencil: MultiPoly):
        if pencil.nvars != k:
            raise ValueError(f"pencil in {pencil.nvars} variables, expected {k}")
        if not pencil.is_zero():
            if not pencil.is_homogeneous() or pencil.total_degree() != n:
                raise ValueError(
                    "pencil must be homogeneous of the ambient degree or zero")
        self.k = k
        self.n = n
        self.pencil = pencil
        self._sf: Optional[MultiPoly] = None

    @property
    def ctx(self) -> FieldContext:
        return self.pencil.ctx

    def sf(self) -> Optional[MultiPoly]:
        """Canonical squarefree part of the pencil; None when the pencil is 0."""
        if self.pencil.is_zero():
            return None
        if self._sf is None:
            self._sf = squarefree_part(self.pencil)
        return self._sf

    def is_full(self) -> bool:
        """True iff the spectrum is all of C^k, i.e. the pencil vanishes."""
        return self.pencil.is_zero()

    def member(self, point: Sequence[FieldElem]) -> bool:
        """True iff the K-point lies in the spectrum."""
        if len(point) != self.k:
            raise ValueError(f"point of length {len(point)}, expected {self.k}")
        return not self.pencil.eval(point)

    def __repr__(self) -> str:
        body = "full" if self.is_full() else repr(self.pencil)
        return f"JointSpectrum(k={self.k}, n={self.n}, {body})"


def _check_tuple(projs: Sequence[Projection]) -> tuple[int, int, FieldContext]:
    if not projs:
        raise ValueError("empty projection tuple")
    if not all(isinstance(p, Projection) for p in projs):
        raise TypeError("tuple entries must be Projection values")
    n, ctx = projs[0].n, projs[0].ctx
    for p in projs:
        if p.n != n:
            raise ValueError(f"projections on K^{n} and K^{p.n} in one tuple")
        if p.ctx.d != ctx.d:
            raise ValueError(
                f"projections over d={ctx.d} and d={p.ctx.d} in one tuple")
    if n == 0:
        # det of the empty matrix is the constant 1, whose zero set is empty
        raise ValueError("projections on K^0: dimension n must be at least 1")
    return len(projs), n, ctx


def pencil_poly(projs: Sequence[Projection]) -> JointSpectrum:
    """Joint spectrum via the symbolic determinant of c1*P1 + ... + ck*Pk.

    Let r_l be the rank of P_l, read from its basis column count, and
    e = sum r_l - n the rank excess.  For e <= 1 the pencil has a closed
    form (`_closed_form_pencil`), and for e >= 2 it comes from the subset DP
    (`_packed_dp`, then `_rescaled`).

    The Gram determinants.  Let A_l be the range basis of P_l with each
    column cleared of denominators and divided by the gcd of its integer
    components (`exactla._primitive_columns`), G_l = A_l* A_l its Gram
    matrix and g_l = det G_l.  The projection onto a span does not depend on
    the basis, so P_l = A_l G_l^(-1) A_l*, and G_l^(-1) = adj(G_l) / g_l
    gives

        g_l P_l = A_l adj(G_l) A_l*.

    The entries of A_l lie in Z[i, sqrt d], so do those of G_l, and each
    entry of adj(G_l) is a signed minor of G_l: a sum of products of its
    entries.  So g_l P_l is a product of three matrices over Z[i, sqrt d],
    and is integral.  G_l is Hermitian, so g_l is real and lies in
    Z[sqrt d]; it is positive in both real embeddings, since the flip of
    sqrt d maps G_l to the Gram matrix of the flipped, still independent,
    columns.  A zero g_l means a dependent basis, which raises ValueError.

    The closed form.  Let U = [A_1 | ... | A_k], an n x (n + e) matrix,
    and D = blockdiag(c_1 G_1^(-1), ..., c_k G_k^(-1)).  Multiplying out
    the blocks,

        sum c_l P_l = U D U*.

    Cauchy-Binet over the n-subsets S and T of U's columns gives

        det(U D U*) = sum_(S, T) det U_S * det D_(S, T) * conj(det U_T),

    with U_S the columns S of U and D_(S, T) the minor of D on rows S and
    columns T.  For e < 0 there is no n-subset, so the pencil is 0.  For
    e = 0 the one subset is all of U, and det D = c^r / prod_l g_l, so

        det(sum c_l P_l) = |det U|^2 / prod_l g_l * c^r.

    For e = 1, S and T leave out one column each, i and j; write U_i for
    U without column i.  D is block diagonal.  If i and j lie in different
    blocks, the r_m rows of D_(i, j) from j's block m meet only its
    r_m - 1 remaining columns, so the minor is 0.  If both lie in block l,
    D_(i, j) is block diagonal again, and Jacobi's complementary-minor
    identity, here the adjugate formula for G_l = (G_l^(-1))^(-1), gives
    the minor of G_l^(-1) without row i and column j as
    (-1)^(i+j) (G_l)_(j, i) / g_l.  So

        det D_(i, j) = (-1)^(i+j) (G_l)_(j, i) c^(r - e_l) / prod_m g_m,

    with e_l the l-th unit vector.  Put v_i = (-1)^i det U_i, the Cramer
    vector, and (G_l)_(j, i) = a_j* a_i for the columns a of A_l.  The
    double sum over block l is then (sum_j v_j a_j)* (sum_i v_i a_i), so

        det(sum c_l P_l) = sum_l |A_l v_l|^2 / prod_m g_m * c^(r - e_l),

    where v_l is the block-l part of v.

    Both come from one fraction-free Gauss-Jordan pass (`exactla._bareiss`)
    on U's rows.  It finds n pivots exactly when U has rank n; else
    det U = 0 at e = 0 and every det U_i = 0 at e = 1, and the pencil is
    0.  Otherwise let p be the last pivot, +-det U_B for the pivot columns
    B.  At e = 0, B is all of U, and |det U|^2 = |p|^2.  At e = 1, let j
    be the column outside B.  The pass leaves p U_B^(-1) u_j in it, and w,
    with those entries at B and -p at j, has U w = 0.  U has rank n, so
    its kernel is the line of v, and w_j = -p = +-det U_j = +-v_j makes
    w = +-v: |A_l w_l|^2 = |A_l v_l|^2.

    Each closed-form coefficient is a quotient of a Hermitian norm by the
    g_l: real, in Q(sqrt d), positive in both real embeddings (the flip of
    sqrt d maps each norm to the norm of the flipped vectors), and
    unchanged when a column of A_l is scaled by s (numerator and g_l both
    gain |s|^2).  No projection matrix is built.

    The DP is fraction-free.  It scales each P_l by its g_l, so that
    M_l = g_l P_l is integral.  With q = det(sum c_l M_l), substituting
    c_l / g_l for c_l gives

        det(sum c_l P_l) = sum_alpha q_alpha / prod_l g_l^(alpha_l) * c^alpha,

    over |alpha| = n.  `_packed_dp` computes q with +, - and * only, so no
    step leaves Z[i, sqrt d]: no division and no gcd.  `_rescaled` divides
    by the g_l once, at the end.  Scaling each P_l by its own g_l keeps the
    DP's integers about k times shorter than one common scale would (timed
    side by side, with the lcm of each P_l's entry denominators in place of
    g_l; the numbers are in `BENCH_8.json`).  The Gram scale also beats
    that lcm D_l: an irrational g_l leaves P_l's entries with rational
    denominators only through its sqrt d conjugate, 1 / g_l =
    flip(g_l) / (g_l flip(g_l)), so the entries of D_l P_l carry about
    twice the bits of those of g_l P_l.

    Where the g_l come from.  `exactla.projection_onto` builds P_l as
    (A_l adj(G_l) A_l*) / g_l from one elimination of G_l, and its matrix
    keeps g_l and the rows of g_l P_l (`Matrix.scaled`).  The DP reads
    both from `p.matrix`, so a member's Gram matrix is eliminated once,
    when its matrix is built.  Reading `p.matrix` raises for a dependent
    basis, so on the DP path that check happens before `_packed_dp`
    trusts any rank.  The closed form needs no matrix, so it eliminates
    each G_l itself (`_gram_determinants`).
    """
    k, n, ctx = _check_tuple(projs)
    ranks = [p.rank for p in projs]
    if sum(ranks) <= n + 1:
        return JointSpectrum(k, n, _closed_form_pencil(projs, ranks, n, ctx))
    scales, forms = zip(*(p.matrix.scaled for p in projs))
    coefs = _packed_dp(forms, ranks, ctx.d, _slot_width(forms, ctx.d))
    return JointSpectrum(k, n, _rescaled(coefs, scales, n, ctx))


def _gram_determinants(projs: Sequence[Projection],
                       d: int) -> tuple[list[list[tuple]], list[tuple]]:
    """The primitive integral basis columns and g_l of every P_l.

    Both come from `exactla._gram_elimination` on P_l's basis, the same g_l
    that `projection_onto` keeps on P_l's matrix, and a zero one raises.
    d is the members' field parameter.
    """
    cols, grams = [], []
    for p in projs:
        a, gram, _ = _gram_elimination(p.basis, d)
        cols.append(a)
        grams.append(gram)
    return cols, grams


def _closed_form_pencil(projs: Sequence[Projection], ranks: Sequence[int],
                        n: int, ctx: FieldContext) -> MultiPoly:
    """The pencil of a tuple with sum r_l <= n + 1, in `pencil_poly`'s form.

    The g_l come from `_gram_determinants`, which raises for a dependent
    basis whatever e is.  One `_bareiss` pass on U's rows gives the last
    pivot p and, at e = 1 only, with the Jordan sweep, the kernel vector
    w.  Each coefficient is its numerator |x|^2, x = p at e = 0 and
    A_l w_l at e = 1, times the one inverse of prod_l g_l, written as one
    reduced FieldElem.
    """
    k, d = len(projs), ctx.d
    cols, grams = _gram_determinants(projs, d)
    u = [col for a in cols for col in a]
    det, rows, order = _bareiss([[col[i] for col in u] for i in range(n)], d,
                                jordan=len(u) > n)
    vecs = {}  # the exponents of each term, and its x
    if len(u) == n:
        vecs[tuple(ranks)] = [det]  # 0 when U is singular
    elif any(det):  # e = 1 and rank U = n; at e < 0 det is 0
        w = dict(zip(order, [row[n] for row in rows]
                     + [tuple(-x for x in rows[n - 1][n - 1])]))
        parts = (w[j] for j in range(n + 1))
        for l, a in enumerate(cols):
            block = [next(parts) for _ in a]
            expts = list(ranks)
            expts[l] -= 1
            vecs[tuple(expts)] = [_dot4(row, block, d) for row in zip(*a)]
    den = (1, 0, 0, 0)
    for gram in grams:
        den = _mul4(den, gram, d)
    flip, norm = _inverse4(den, d)
    terms = {}
    for expts, x in vecs.items():
        num = _dot4([(y[0], y[1], -y[2], -y[3]) for y in x], x, d)
        if any(num):
            a, b, _, _ = _mul4(num, flip, d)
            terms[expts] = _reduced(a, b, 0, 0, norm, ctx)
    return MultiPoly._of(k, terms, ctx)


def _rescaled(coefs: Coefficients, scales: Sequence[tuple], n: int,
              ctx: FieldContext) -> MultiPoly:
    """The pencil from the DP's coefficients q_alpha of det(sum c_l s_l P_l).

    Each coefficient is q_alpha / prod_l s_l^(alpha_l).  With 1 / s_l =
    y_l / N_l (`scalar._inverse4`) and N the lcm of the N_l, that is
    q_alpha * prod_l (y_l N / N_l)^(alpha_l) / N^n, as |alpha| = n: the
    products stay in Z[i, sqrt d], and N^n is the one denominator.
    `_packed_dp` returns no zero q_alpha and K has no zero divisors, so the
    integral coefficients are built without the checks of `ctx.elem` and
    `MultiPoly.__init__`.
    """
    d = ctx.d
    inverses = [_inverse4(s, d) for s in scales]
    den = lcm(*(norm for _, norm in inverses))
    powers = []  # powers[l][a] = (y_l N / N_l)^a
    for y, norm in inverses:
        f, pw = _mul4(y, (den // norm, 0, 0, 0), d), [(1, 0, 0, 0)]
        for _ in range(n):
            pw.append(_mul4(pw[-1], f, d))
        powers.append(pw)
    terms = {}
    for expts, v in coefs.items():
        for pw, alpha in zip(powers, expts):
            if alpha:
                v = _mul4(v, pw[alpha], d)
        terms[expts] = _canonical(*v, 1, ctx)
    return MultiPoly._of(len(scales), terms, ctx) * ctx.elem(
        Fraction(1, den ** n))


Coefficients = dict[tuple[int, ...], tuple[int, int, int, int]]


def _radices(ranks: Sequence[int]) -> tuple[list[int], int]:
    """Mixed radix R_l of each variable, and the number of digits.

    The variable of largest rank (the first one on a tie) is left out, and
    gets radix 0: its exponent is implied by the degree.  Every other l gets
    R_l = prod over earlier packed l' of (rank P_l' + 1).
    """
    last = max(range(len(ranks)), key=ranks.__getitem__)
    radix, digits = [], 1
    for l, rank in enumerate(ranks):
        if l == last:
            radix.append(0)
        else:
            radix.append(digits)
            digits *= rank + 1
    return radix, digits


def _slot_width(forms: Sequence[Sequence[Sequence[tuple]]], d: int) -> int:
    """Bits w of a packed slot, so every coefficient fits in a signed slot.

    `forms` holds the rows of matrices M_l over Z[i, sqrt d] with entries
    as 4-int tuples, such as the M_l = g_l P_l of `Matrix.scaled`.  With
    s = isqrt(d) + 1 > sqrt d, N(x) = |A| + s|B| + |C| + s|E| bounds
    each of x's four components, N(x + y) <= N(x) + N(y), and
    N(xy) <= N(x) N(y): each of the 16 products in `FieldElem.__mul__`'s
    formula lands in one component, with weight 1, s or d <= s^2 there
    against s^(number of sqrt d factors) in N(x) N(y).  A coefficient of the
    determinant sums, over the n! permutations sigma and some choices of
    one l per column j, the signed products of (M_l)_{sigma(j) j}, so its N
    is at most n! * prod_j max_r sum_l N((M_l)_{rj}) = bound.  Then each
    component is below 2^(w-2), so it sits strictly inside a signed slot.
    w grows with the bits of the scaled entries, so the scale that keeps
    them short (the Gram scale of `pencil_poly`) keeps the slots narrow.
    """
    n, s = len(forms[0]), isqrt(d) + 1
    bound = factorial(n)
    for j in range(n):
        top = 0
        for r in range(n):
            norm = 0
            for rows in forms:
                a, b, c, e = rows[r][j]
                norm += abs(a) + abs(c) + s * (abs(b) + abs(e))
            top = max(top, norm)
        bound *= top
    return bound.bit_length() + 2


def _packed_dp(forms: Sequence[Sequence[Sequence[tuple]]],
               ranks: Sequence[int], d: int, w: int) -> Coefficients:
    """Coefficients of det(sum c_l M_l) as 4-int tuples, M_l = s_l P_l.

    `forms` holds the rows of integral M_l for real s_l, as in
    `_slot_width`, such as the g_l P_l of `Matrix.scaled`; ranks[l] is
    the rank of P_l and w the slot width (`_slot_width`).  Returns
    {alpha: (A, B, C, E)} over the nonzero coefficients of c^alpha.  The DP runs over columns: the state
    after j columns maps each j-subset of rows to the signed sum of its
    partial products, so work stays at 2^n states instead of n! permutation
    terms.  Each state is packed as four ints of w-bit slots, one per
    component, so multiplying by c_l is a shift and a state update is a
    few C-level big-int operations.  A dict of monomials per state
    (`dict_dp` in `tests/reference_pencil.py`) is the oracle: with the
    scale `pencil_poly` picks, the packed layout was at least as fast on
    every case of `tools/pencil_sizes.py` (`BENCH_18.json`).

    Monomial c^alpha sits at digit sum_l alpha_l R_l (`_radices`), so c_l
    is the shift by w R_l and the left-out variable is the shift by 0.  The
    box alpha_l <= rank P_l (packed l) holds every nonzero coefficient: a
    partial coefficient with alpha_l > rank P_l sums j x j minors that take
    alpha_l columns of P_l, which are linearly dependent, so it is exactly
    0.  A product that carries alpha_l past its digit therefore only ever
    adds zeros to a neighbouring digit, and the packed int is exactly the
    polynomial evaluated at c_l = 2^(w R_l).  The full-mask state is decoded
    once, as signed w-bit digits; `_slot_width` proves they fit, and a
    remainder past the last digit raises instead of returning a wrong
    pencil.

    Each step multiplies a state u + v i by a cell entry x + y i, with u,
    v, x, y in Z[sqrt d], by Gauss's three-product formula (Knuth, TAOCP
    vol. 2, 4.6.4): with k1 = x (u + v), k2 = u (y - x) and
    k3 = v (x + y),

        (u + v i)(x + y i) = (k1 - k3) + (k1 + k2) i,

    since k1 - k3 = ux - vy and k1 + k2 = uy + vx.  A product in Z[sqrt d]
    takes two multiplications per component once d times the sqrt d part
    of its constant factor is known, so each entry costs 12 big-int
    products instead of the 18 of `FieldElem.__mul__`'s formula, and none
    by d: the cells hold x, y - x and x + y with those d multiples, built
    once per pencil, and u + v is formed once per state.  This is the same
    ring identity, evaluated on the packed ints, so every state is the
    same integer as with the direct formula, and the slot bound and the
    decode hold unchanged.  The sign of a row r is the parity of the rows
    of mask above r, counted while the rows are scanned from high to low.
    """
    n, k = len(forms[0]), len(ranks)
    radix, digits = _radices(ranks)
    last = radix.index(0)
    packed = [l for l in range(k) if l != last]
    # cols[j] lists (bit, cell) for the rows r of column j from high to low,
    # and the cell one entry per nonzero (M_l)_{rj}.  An entry x + y i,
    # x = a + b sqrt d, y = c + e sqrt d, is kept as its shift, then x,
    # y - x and x + y, each as (real, sqrt d, d * sqrt d) parts.
    cols = [[(1 << r, [(w * radix[l], a, b, d * b, c - a, e - b, d * (e - b),
                        a + c, b + e, d * (b + e))
                       for l, rows in enumerate(forms)
                       for a, b, c, e in [rows[r][j]] if a or b or c or e])
             for r in reversed(range(n))] for j in range(n)]
    states: dict[int, tuple[int, int, int, int]] = {0: (1, 0, 0, 0)}
    for col in cols:
        nxt: dict[int, tuple[int, int, int, int]] = {}
        for mask, (a1, b1, c1, e1) in states.items():
            # the state is u + v i, u = a1 + b1 sqrt d, v = c1 + e1 sqrt d
            p1, q1 = a1 + c1, b1 + e1  # u + v
            odd = False  # parity of the rows of mask above r
            for bit, cell in col:
                if mask & bit:
                    odd = not odd
                    continue
                if not cell:
                    continue
                a = b = c = e = 0
                for shift, xa, xb, xdb, za, zb, zdb, sa, sb, sdb in cell:
                    # k1 = x (u + v), k2 = u (y - x), k3 = v (x + y)
                    k1a = p1 * xa + q1 * xdb
                    k1b = p1 * xb + q1 * xa
                    k3a = c1 * sa + e1 * sdb
                    k3b = c1 * sb + e1 * sa
                    a += (k1a - k3a) << shift
                    b += (k1b - k3b) << shift
                    c += (k1a + a1 * za + b1 * zdb) << shift
                    e += (k1b + a1 * zb + b1 * za) << shift
                cur = nxt.get(mask | bit, (0, 0, 0, 0))
                if odd:
                    nxt[mask | bit] = (cur[0] - a, cur[1] - b,
                                       cur[2] - c, cur[3] - e)
                else:
                    nxt[mask | bit] = (cur[0] + a, cur[1] + b,
                                       cur[2] + c, cur[3] + e)
        states = {mask: v for mask, v in nxt.items() if any(v)}
        if not states:
            return {}
    full = states.get((1 << n) - 1)
    if full is None:
        return {}
    # Adding half = 2^(w-1) to every slot makes the digits nonnegative,
    # so each one is a plain w-bit field of the sum's binary text.
    half, span = 1 << (w - 1), w * digits
    bias = half * (((1 << span) - 1) // ((1 << w) - 1))
    texts = []
    for v in full:
        u = v + bias
        if u < 0 or u >> span:
            raise RuntimeError("pencil coefficient outside its proven bound")
        texts.append(format(u, f"0{span}b"))
    out: Coefficients = {}
    for p in range(digits):
        lo = span - w * p
        v = tuple(int(t[lo - w:lo], 2) - half for t in texts)
        if not any(v):
            continue
        expts, rest = [0] * k, p
        for l in packed:
            rest, expts[l] = divmod(rest, ranks[l] + 1)
        expts[last] = n - sum(expts)
        out[tuple(expts)] = v
    return out


# -- zero-set comparison -----------------------------------------------------------


def zero_set_subset(s1: JointSpectrum, s2: JointSpectrum) -> bool:
    """Exact test of Z(pencil1) contained in Z(pencil2) over C.

    Divisibility of the squarefree part decides containment of hypersurface
    zero sets, and both are invariant under extending K to C.
    """
    if s1.k != s2.k:
        raise ValueError(f"spectra in {s1.k} and {s2.k} variables")
    if s1.is_full():
        return s2.is_full()
    if s2.is_full():
        return True
    return divides(s1.sf(), s2.pencil)


def zero_set_equal(s1: JointSpectrum, s2: JointSpectrum) -> bool:
    return zero_set_subset(s1, s2) and zero_set_subset(s2, s1)


# -- rank-one tuple classification ---------------------------------------------------


class RankOneClass(enum.Enum):
    FULL = "full"
    COORDINATE_HYPERPLANES = "coordinate-hyperplanes"


def classify_rank_one_tuple(projs: Sequence[Projection]) -> RankOneClass:
    """Dichotomy for n rank-one projections on K^n.

    Either the lines fail to span (pencil vanishes; full spectrum), or they
    span and the spectrum is exactly the union of coordinate hyperplanes.
    Both sides are recomputed and cross-checked; a mismatch would falsify
    the dichotomy and raises.
    """
    k, n, ctx = _check_tuple(projs)
    if k != n:
        raise ValueError(f"need exactly n={n} projections, got {k}")
    for p in projs:
        if p.rank != 1:
            raise ValueError("all projections must have rank one")
    spectrum = pencil_poly(projs)
    join = projs[0]
    for p in projs[1:]:
        join = join.join(p)
    join_full = join.rank == n
    if spectrum.is_full():
        if join_full:
            raise RuntimeError(
                "dichotomy violated: spanning lines with vanishing pencil")
        return RankOneClass.FULL
    if not join_full:
        raise RuntimeError(
            "dichotomy violated: non-spanning lines with nonzero pencil")
    axes = MultiPoly.const(k, 1, ctx)
    for j in range(k):
        axes = axes * MultiPoly.variable(j, k, ctx)
    if spectrum.sf() != canonicalize(axes):
        raise RuntimeError(
            "dichotomy violated: spectrum is not the coordinate hyperplanes")
    return RankOneClass.COORDINATE_HYPERPLANES


# -- two-projection facts ---------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PairFacts:
    """Lattice facts and spectrum membership facts for one pair, side by side."""

    join_full: bool
    meet_zero: bool
    point11_out: bool
    point1m1_out: bool

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def pair_facts(p: Projection, q: Projection) -> PairFacts:
    """The two lattice facts and the two membership facts they equal.

    Range sum full iff (1,1) outside the spectrum; additionally trivial
    intersection iff (1,-1) outside as well.
    """
    if p.n != q.n:
        raise ValueError(f"projections on K^{p.n} and K^{q.n}")
    ctx = p.ctx
    spectrum = pencil_poly([p, q])
    join_full = p.join(q).rank == p.n
    meet_zero = p.meet(q).is_zero()
    point11_out = not spectrum.member([ctx.one, ctx.one])
    point1m1_out = not spectrum.member([ctx.one, -ctx.one])
    return PairFacts(join_full, meet_zero, point11_out, point1m1_out)


# -- text form ------------------------------------------------------------------------


def tuple_to_json(projs: Sequence[Projection]) -> dict:
    _check_tuple(projs)
    return {"projections": [projection_to_json(p) for p in projs]}


def tuple_from_json(obj: object,
                    ctx: Optional[FieldContext] = None) -> list[Projection]:
    if not isinstance(obj, dict) or "projections" not in obj:
        raise ValueError('tuple form must be an object with "projections"')
    items = obj["projections"]
    if not isinstance(items, list) or not items:
        raise ValueError('"projections" must be a nonempty array')
    projs = [projection_from_json(item, ctx) for item in items]
    _check_tuple(projs)
    return projs
