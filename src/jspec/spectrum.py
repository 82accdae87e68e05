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
from functools import lru_cache
from math import comb, factorial, isqrt, lcm
from typing import Optional, Sequence

from jspec.exactla import _gram_elimination
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
    _integral,
    _mul4,
    _real_inverse,
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
    n, ctx = projs[0].n, projs[0].ctx
    for p in projs:
        if not isinstance(p, Projection):
            raise TypeError("tuple entries must be Projection values")
        if p.n != n:
            raise ValueError(f"projections on K^{n} and K^{p.n} in one tuple")
        if p.ctx.d != ctx.d:
            raise ValueError(
                f"projections over d={ctx.d} and d={p.ctx.d} in one tuple")
    return len(projs), n, ctx


def pencil_poly(projs: Sequence[Projection]) -> JointSpectrum:
    """Joint spectrum via the symbolic determinant of c1*P1 + ... + ck*Pk.

    Let r_l be the rank of P_l, read from its basis column count, and
    e = sum r_l - n the rank excess.  For e <= 0 the pencil has a closed
    form (`_closed_form_pencil`), and for e >= 1 it comes from the subset DP
    (`_integer_pencil`, then `_rescaled`).

    The closed form.  Let A_l be the range basis of P_l, G_l = A_l* A_l
    its Gram matrix, so that P_l = A_l G_l^(-1) A_l*, and
    U = [A_1 | ... | A_k], an n x (n + e) matrix.  Multiplying out the
    blocks,

        sum c_l P_l = U * blockdiag(c_1 G_1^(-1), ..., c_k G_k^(-1)) * U*.

    For e < 0 the right side has rank at most n + e < n, so the pencil is
    0.  For e = 0 all three factors are n x n, and det is multiplicative:

        det(sum c_l P_l) = det U * prod_l det(c_l G_l^(-1)) * det U*
                         = det(U* U) / prod_l det G_l * prod_l c_l^(r_l),

    since det(c_l G_l^(-1)) = c_l^(r_l) / det G_l and det U* det U =
    det(U* U).  So the pencil is the one monomial c^r, or 0 when U is
    singular.  Its coefficient is a quotient of Gram determinants: real, in
    Q(sqrt d), positive in both real embeddings, and unchanged when a
    column of A_l is scaled by s (both det(U* U) and det G_l gain |s|^2).

    The DP is fraction-free.  Let D_l be the lcm of the denominators of the
    entries of P_l and D the lcm of all D_l.  Every entry of D_l P_l lies
    in Z[i, sqrt d], and

        det(sum c_l P_l) = D^(-n) * sum_alpha q_alpha prod_l (D / D_l)^alpha_l
                                  * c^alpha,

    where q = det(sum c_l (D_l P_l)) and |alpha| = n.  `_integer_pencil`
    computes q with +, - and * only, and the rescaling by (D / D_l)^alpha_l
    multiplies ints; Z[i, sqrt d] is closed under those, so no step before
    the last leaves it: no division and no gcd.
    The one normalization is the final product with the scalar D^(-n).
    Scaling each P_l by its own D_l keeps the DP's integers about k times
    shorter than one common scale would (both were timed side by side; the
    numbers are in `BENCH_8.json`).  The DP holds each state either packed
    into four ints or as a dict of monomials, whichever a cost model
    predicts faster; see `_integer_pencil`.

    Either way a dependent basis raises ValueError before the pencil is
    returned, whatever e is.
    """
    k, n, ctx = _check_tuple(projs)
    ranks = [p.rank for p in projs]
    if sum(ranks) <= n:
        return JointSpectrum(k, n, _closed_form_pencil(projs, ranks, n, ctx))
    entry, dens = _scaled_entries(projs)
    coefs = _integer_pencil(entry, ranks, ctx.d)
    return JointSpectrum(k, n, _rescaled(coefs, dens, n, ctx))


def _closed_form_pencil(projs: Sequence[Projection], ranks: Sequence[int],
                        n: int, ctx: FieldContext) -> MultiPoly:
    """The pencil of a tuple with sum r_l <= n, in `pencil_poly`'s closed form.

    The Gram determinants come from `exactla._gram_elimination` on the
    integral columns of each basis, and det(U* U) from the same elimination
    on all of them side by side; the same column scaling in both keeps the
    quotient exact.  Each det G_l is checked first: a zero one means a
    dependent basis, which raises the ValueError that reading its matrix
    raises.  The coefficient is written as one reduced FieldElem.
    """
    k, d = len(projs), ctx.d
    cols = [[_integral(col)[1] for col in p.basis.columns()] for p in projs]
    den = (1, 0, 0, 0)
    for a in cols:
        gram = _gram_elimination(a, d)[0]
        if not any(gram):
            raise ValueError("columns are dependent")
        den = _mul4(den, gram, d)
    if sum(ranks) < n:
        return MultiPoly.zero(k, ctx)
    num = _gram_elimination([col for a in cols for col in a], d)[0]
    if not any(num):
        return MultiPoly.zero(k, ctx)
    flip, norm = _real_inverse(den, d)
    a, b, _, _ = _mul4(num, flip, d)
    return MultiPoly._of(k, {tuple(ranks): _reduced(a, b, 0, 0, norm, ctx)},
                         ctx)


def _rescaled(coefs: Coefficients, dens: Sequence[int], n: int,
              ctx: FieldContext) -> MultiPoly:
    """The pencil from the DP's coefficients of det(sum c_l D_l P_l)."""
    den = lcm(*dens)
    terms = {}
    for expts, v in coefs.items():
        f = 1
        for l, alpha in enumerate(expts):
            f *= (den // dens[l]) ** alpha
        terms[expts] = ctx.elem(*(x * f for x in v))
    return MultiPoly(len(dens), terms, ctx) * ctx.elem(Fraction(1, den ** n))


Entries = list[list[list[tuple[int, int, int, int, int]]]]
Coefficients = dict[tuple[int, ...], tuple[int, int, int, int]]

# The cost model of `_width_limit`, fit on the timed cases in `BENCH_12.json`:
# one term of a dict state costs as much as TERM_BITS bits of big-int work,
# and a bit of a packed state PACKED_COST times a bit of a dict coefficient.
TERM_BITS = 1000
PACKED_COST = 1.2


def _scaled_entries(projs: Sequence[Projection]) -> tuple[Entries, list[int]]:
    """The entries of every D_l P_l in Z[i, sqrt d], and the D_l.

    entry[r][j] lists (l, A, B, C, E) for each l with (D_l P_l)_{rj} =
    A + B sqrt d + (C + E sqrt d) i nonzero.  Reading `p.matrix` raises
    for a dependent basis, so on the DP path (e >= 1) that check happens
    here, before `_integer_pencil` trusts any rank; on the closed-form path
    (e <= 0) `_closed_form_pencil` makes it from the Gram determinants.
    """
    n = projs[0].n
    entry: Entries = [[[] for _ in range(n)] for _ in range(n)]
    dens = []
    for l, p in enumerate(projs):
        den, ints = _integral([x for row in p.matrix.rows for x in row])
        dens.append(den)
        for i, x in enumerate(ints):
            if any(x):
                entry[i // n][i % n].append((l, *x))
    return entry, dens


def _integer_pencil(entry: Entries, ranks: Sequence[int],
                    d: int) -> Coefficients:
    """Coefficients of det(sum c_l M_l) as 4-int tuples, M_l = D_l P_l.

    `entry` is `_scaled_entries`'s and ranks[l] the rank of P_l.  Returns
    {alpha: (A, B, C, E)} over the nonzero coefficients of c^alpha.

    Both layouts run the same dynamic programming over columns: the state
    after j columns maps each j-subset of rows to the signed sum of its
    partial products, so work stays at 2^n states instead of n! permutation
    terms.  They differ in how a state holds its polynomial:

    - packed (`_packed_dp`): each of the four components is one int, the
      polynomial evaluated at c_l = 2^(w R_l), so multiplying by c_l is a
      shift and a state update is a few C-level big-int operations;
    - dict (`_dict_dp`): {monomial: (A, B, C, E)}, a Python loop over the
      terms of a state at each update.

    Both give the same coefficients.  The packed layout runs iff the slot
    width w is at most `_width_limit`, the width up to which a cost model
    predicts it faster.
    """
    w = _slot_width(entry, d)
    if w <= _width_limit(len(entry), tuple(ranks)):
        return _packed_dp(entry, ranks, d, w)
    return _dict_dp(entry, len(ranks), d)


@lru_cache(maxsize=256)
def _width_limit(n: int, ranks: tuple[int, ...]) -> float:
    """Widest slot w at which packing n x n pencils of these ranks pays.

    Packing multiplies the zero bits of every slot too: a w-bit slot holds a
    coefficient of about w j / n bits after j columns, and the digits of a
    state span the whole rank box, a multiple of its nonzero terms when the
    ranks are high.  The dict layout pays Python overhead per term instead.
    Per update at step j the model charges the packed layout PACKED_COST *
    w * (digits a state spans) and the dict layout (terms of degree j in
    the rank box) * (TERM_BITS + w j / n), weighted by the C(n, j) (n - j)
    updates of the step.  Both are linear in w, so packing pays up to one
    width.  In 51 of 52 timed tuples the model picked the faster layout,
    and in the 52nd the two were within 5%.  The slot width alone does not
    decide it: at d = 2, w = 597 ran 0.7x as fast packed at ranks
    (9, 9, 9) and w = 777 1.8x as fast at (3, 6, 8).
    """
    radix = _radices(ranks)[0]
    order = sorted(range(len(ranks)), key=radix.__getitem__, reverse=True)
    terms = [1] + [0] * n  # terms[j]: exponents of degree j in the box
    for rank in ranks:
        terms = [sum(terms[max(0, j - rank):j + 1]) for j in range(n + 1)]
    per_bit = fixed = 0.0  # dict cost - packed cost = fixed + w * per_bit
    for j in range(n):
        top, left = 0, j  # the highest digit: fill the largest radices first
        for l in order:
            alpha = min(ranks[l], left)
            top, left = top + alpha * radix[l], left - alpha
        weight = comb(n, j) * (n - j)
        fixed += weight * terms[j] * TERM_BITS
        per_bit += weight * (terms[j] * j / n - PACKED_COST * (top + 1))
    return fixed / -per_bit if per_bit < 0 else float("inf")


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


def _slot_width(entry: Entries, d: int) -> int:
    """Bits w of a packed slot, so every coefficient fits in a signed slot.

    With s = isqrt(d) + 1 > sqrt d, N(x) = |A| + s|B| + |C| + s|E| bounds
    each of x's four components, N(x + y) <= N(x) + N(y), and
    N(xy) <= N(x) N(y): each of the 16 products in `FieldElem.__mul__`'s
    formula lands in one component, with weight 1, s or d <= s^2 there
    against s^(number of sqrt d factors) in N(x) N(y).  A coefficient of the
    determinant sums, over the n! permutations sigma and some choices of
    one l per column j, the signed products of (M_l)_{sigma(j) j}, so its N
    is at most n! * prod_j max_r sum_l N((M_l)_{rj}) = bound.  Then each
    component is below 2^(w-2), so it sits strictly inside a signed slot.
    """
    n, s = len(entry), isqrt(d) + 1
    bound = factorial(n)
    for j in range(n):
        top = 0
        for row in entry:
            norm = 0
            for _, a, b, c, e in row[j]:
                norm += abs(a) + abs(c) + s * (abs(b) + abs(e))
            top = max(top, norm)
        bound *= top
    return bound.bit_length() + 2


def _packed_dp(entry: Entries, ranks: Sequence[int], d: int,
               w: int) -> Coefficients:
    """The subset DP with each state packed as four ints of w-bit slots.

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
    """
    n, k = len(entry), len(ranks)
    radix, digits = _radices(ranks)
    last = radix.index(0)
    packed = [l for l in range(k) if l != last]
    cells = [[[(w * radix[l], a, b, c, e) for l, a, b, c, e in entry[r][j]]
              for j in range(n)] for r in range(n)]
    states: dict[int, tuple[int, int, int, int]] = {0: (1, 0, 0, 0)}
    for j in range(n):
        nxt: dict[int, tuple[int, int, int, int]] = {}
        for mask, (a1, b1, c1, e1) in states.items():
            for r in range(n):
                bit = 1 << r
                cell = cells[r][j]
                if mask & bit or not cell:
                    continue
                a = b = c = e = 0
                for shift, a2, b2, c2, e2 in cell:
                    # FieldElem.__mul__'s product, without the reduction
                    a += (a1 * a2 - c1 * c2 + d * (b1 * b2 - e1 * e2)) << shift
                    b += (a1 * b2 + b1 * a2 - c1 * e2 - e1 * c2) << shift
                    c += (a1 * c2 + c1 * a2 + d * (b1 * e2 + e1 * b2)) << shift
                    e += (a1 * e2 + b1 * c2 + c1 * b2 + e1 * a2) << shift
                cur = nxt.get(mask | bit, (0, 0, 0, 0))
                if (mask >> (r + 1)).bit_count() & 1:
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


def _dict_dp(entry: Entries, k: int, d: int) -> Coefficients:
    """The subset DP with each state a dict {monomial: (A, B, C, E)}.

    A monomial c^alpha is one int key with alpha_l in bits width*l and up,
    so multiplying by c_l adds 1 << width*l.
    """
    n = len(entry)
    width = n.bit_length()  # exponents are at most n < 2**width
    cells = [[[(1 << (width * l), a, b, c, e) for l, a, b, c, e in entry[r][j]]
              for j in range(n)] for r in range(n)]
    states: dict[int, dict[int, tuple[int, int, int, int]]] = {
        0: {0: (1, 0, 0, 0)}}
    for j in range(n):
        nxt: dict[int, dict[int, tuple[int, int, int, int]]] = {}
        for mask, acc in states.items():
            for r in range(n):
                bit = 1 << r
                if mask & bit or not cells[r][j]:
                    continue
                negate = (mask >> (r + 1)).bit_count() & 1
                out = nxt.setdefault(mask | bit, {})
                for shift, a2, b2, c2, e2 in cells[r][j]:
                    if negate:
                        a2, b2, c2, e2 = -a2, -b2, -c2, -e2
                    for key, (a1, b1, c1, e1) in acc.items():
                        # FieldElem.__mul__'s product, without the reduction
                        a = a1 * a2 - c1 * c2 + d * (b1 * b2 - e1 * e2)
                        b = a1 * b2 + b1 * a2 - c1 * e2 - e1 * c2
                        c = a1 * c2 + c1 * a2 + d * (b1 * e2 + e1 * b2)
                        e = a1 * e2 + b1 * c2 + c1 * b2 + e1 * a2
                        key += shift
                        cur = out.get(key)
                        if cur is not None:
                            a += cur[0]
                            b += cur[1]
                            c += cur[2]
                            e += cur[3]
                        out[key] = (a, b, c, e)
        states = {}
        for mask, poly in nxt.items():
            poly = {key: v for key, v in poly.items() if any(v)}
            if poly:
                states[mask] = poly
        if not states:
            break
    low = (1 << width) - 1
    return {tuple((key >> (width * l)) & low for l in range(k)): v
            for key, v in states.get((1 << n) - 1, {}).items()}


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
