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
from itertools import permutations
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
    n = projs[0].n
    for p in projs:
        if not isinstance(p, Projection):
            raise TypeError("tuple entries must be Projection values")
        if p.n != n:
            raise ValueError(f"projections on K^{n} and K^{p.n} in one tuple")
    return len(projs), n, projs[0].ctx


def pencil_poly(projs: Sequence[Projection]) -> JointSpectrum:
    """Joint spectrum via the symbolic determinant of c1*P1 + ... + ck*Pk.

    Dynamic programming over columns: the state after j columns maps each
    j-subset of rows to the signed sum of its partial products, so work stays
    at 2^n states instead of n! permutation terms.
    """
    k, n, ctx = _check_tuple(projs)
    zero = MultiPoly.zero(k, ctx)
    entry: list[list[MultiPoly]] = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {}
            for l, p in enumerate(projs):
                coef = p.matrix[i, j]
                if coef:
                    terms[tuple(1 if m == l else 0 for m in range(k))] = coef
            row.append(MultiPoly(k, terms, ctx))
        entry.append(row)
    states: dict[int, MultiPoly] = {0: MultiPoly.const(k, 1, ctx)}
    for j in range(n):
        nxt: dict[int, MultiPoly] = {}
        for mask, acc in states.items():
            for r in range(n):
                bit = 1 << r
                if mask & bit:
                    continue
                e = entry[r][j]
                if e.is_zero():
                    continue
                term = acc * e
                if bin(mask >> (r + 1)).count("1") % 2:
                    term = -term
                cur = nxt.get(mask | bit)
                nxt[mask | bit] = term if cur is None else cur + term
        states = {m: p for m, p in nxt.items() if not p.is_zero()}
        if not states:
            break
    pencil = states.get((1 << n) - 1, zero)
    return JointSpectrum(k, n, pencil)


def pencil_poly_leibniz(projs: Sequence[Projection]) -> MultiPoly:
    """Pencil polynomial by raw permutation expansion; oracle for pencil_poly."""
    k, n, ctx = _check_tuple(projs)
    entry = [[MultiPoly(k, {
        tuple(1 if m == l else 0 for m in range(k)): p.matrix[i, j]
        for l, p in enumerate(projs) if p.matrix[i, j]}, ctx)
        for j in range(n)] for i in range(n)]
    total = MultiPoly.zero(k, ctx)
    for perm in permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n)
                         if perm[a] > perm[b])
        term = MultiPoly.const(k, -1 if inversions % 2 else 1, ctx)
        for i in range(n):
            term = term * entry[i][perm[i]]
        total = total + term
    return total


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
