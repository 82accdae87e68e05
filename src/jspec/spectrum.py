"""Joint spectra of projection tuples as determinant-pencil hypersurfaces.

The joint spectrum of (P1..Pk) on K^n is the zero set of the pencil
polynomial det(c1*P1 + ... + ck*Pk), a homogeneous polynomial of degree n in
c1..ck unless it vanishes identically (then the spectrum is all of C^k).
Zero sets are compared exactly: for hypersurfaces over a subfield of C,
Z(p) is contained in Z(q) iff the squarefree part of p divides q, so set
containment reduces to polynomial divisibility over K.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

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
from jspec.scalar import FieldContext, FieldElem


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

    The determinant is fraction-free.  Let D_l be the lcm of the
    denominators of the entries of P_l and D the lcm of all D_l.  Every
    entry of D_l P_l lies in Z[i, sqrt d], and

        det(sum c_l P_l) = D^(-n) * sum_alpha q_alpha prod_l (D / D_l)^alpha_l
                                  * c^alpha,

    where q = det(sum c_l (D_l P_l)) and |alpha| = n.  `_integer_pencil`
    computes q with +, - and * only, and the rescaling by (D / D_l)^alpha_l
    multiplies ints; Z[i, sqrt d] is closed under those, so no step before
    the last leaves it: no division and no gcd.
    The one normalization is the final product with the scalar D^(-n).
    Scaling each P_l by its own D_l keeps the DP's integers about k times
    shorter than one common scale would (both were timed side by side; the
    numbers are in `BENCH_8.json`).
    """
    k, n, ctx = _check_tuple(projs)
    forms = [[[x.integer_form() for x in row] for row in p.matrix.rows]
             for p in projs]
    dens = [lcm(*(x[4] for row in rows for x in row)) for rows in forms]
    den = lcm(*dens)
    terms = {}
    for expts, v in _integer_pencil(forms, dens, ctx.d).items():
        f = 1
        for l, alpha in enumerate(expts):
            f *= (den // dens[l]) ** alpha
        terms[expts] = ctx.elem(*(x * f for x in v))
    pencil = MultiPoly(k, terms, ctx) * ctx.elem(Fraction(1, den ** n))
    return JointSpectrum(k, n, pencil)


def _integer_pencil(forms: Sequence[list[list[tuple[int, ...]]]],
                    scales: Sequence[int], d: int
                    ) -> dict[tuple[int, ...], tuple[int, int, int, int]]:
    """Coefficients of det(sum c_l (scales[l] P_l)) as 4-int tuples.

    `forms[l][r][j]` is the `integer_form` (A, B, C, E, D) of (P_l)_{rj} and
    each scales[l] a multiple of the D of every entry of P_l, so each entry
    of scales[l] P_l is an element A + B sqrt d + (C + E sqrt d) i of
    Z[i, sqrt d], held as four ints.  Returns {alpha: (A, B, C, E)} over the
    nonzero coefficients of c^alpha.

    Dynamic programming over columns: the state after j columns maps each
    j-subset of rows to the signed sum of its partial products, so work stays
    at 2^n states instead of n! permutation terms.  A monomial c^alpha is
    one int key with alpha_l in bits width*l and up, so multiplying by c_l
    adds 1 << width*l.
    """
    k, n = len(forms), len(forms[0])
    width = n.bit_length()  # exponents are at most n < 2**width
    # entry[r][j]: (shift, A, B, C, E) of (scales[l] P_l)_{rj} for each l
    # where that entry is nonzero
    entry = [[[] for _ in range(n)] for _ in range(n)]
    for l, rows in enumerate(forms):
        shift = 1 << (width * l)
        for r, row in enumerate(rows):
            for j, (a, b, c, e, x_den) in enumerate(row):
                if a or b or c or e:
                    f = scales[l] // x_den
                    entry[r][j].append((shift, a * f, b * f, c * f, e * f))
    states: dict[int, dict[int, tuple[int, int, int, int]]] = {
        0: {0: (1, 0, 0, 0)}}
    for j in range(n):
        nxt: dict[int, dict[int, tuple[int, int, int, int]]] = {}
        for mask, acc in states.items():
            for r in range(n):
                bit = 1 << r
                if mask & bit or not entry[r][j]:
                    continue
                negate = bin(mask >> (r + 1)).count("1") % 2
                out = nxt.setdefault(mask | bit, {})
                for shift, a2, b2, c2, e2 in entry[r][j]:
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


class PairFacts:
    """Lattice facts and spectrum membership facts for one pair, side by side."""

    __slots__ = ("join_full", "meet_zero", "point11_out", "point1m1_out")

    def __init__(self, join_full: bool, meet_zero: bool,
                 point11_out: bool, point1m1_out: bool):
        self.join_full = join_full
        self.meet_zero = meet_zero
        self.point11_out = point11_out
        self.point1m1_out = point1m1_out

    def as_dict(self) -> dict:
        return {"join_full": self.join_full, "meet_zero": self.meet_zero,
                "point11_out": self.point11_out,
                "point1m1_out": self.point1m1_out}

    def __repr__(self) -> str:
        return f"PairFacts({self.as_dict()})"


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
