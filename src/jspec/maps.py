"""Structured maps on the projection lattice and their rank-one extensions.

Three families: conjugation by a unitary (P -> U*PU), conjugation by an
anti-unitary (entrywise conjugation composed with the same), and maps induced
by a field automorphism f together with an invertible basis change B
(Range(P) -> B * f(Range(P))).  All three send projections to projections
exactly over K, and each is applied to a basis of the range, so the image
needs no check.  On top of them sit the two extension schemes that rebuild a
map from its action on rank-one projections: join of images over any rank-one
decomposition, and sum of images over an orthogonal decomposition, the latter
defined only when the map preserves orthogonality.
"""

from __future__ import annotations

import enum
import functools
from typing import Optional, Sequence

from jspec.exactla import (
    Matrix,
    Scalarish,
    _as_elem,
    automorphism_entrywise,
    gram_schmidt,
    hstack,
    matrix_from_json,
    matrix_to_json,
)
from jspec.lattice import Projection, make_projection, rank_one, zero_projection
from jspec.scalar import Automorphism, FieldContext


class OrthogonalityError(ValueError):
    """Raised when extend_sum meets images that are not mutually orthogonal."""


class MapForm(enum.Enum):
    UNITARY_FORM = "unitary-form"
    ANTI_UNITARY_FORM = "anti-unitary-form"
    WILD_PAIR_PRESERVING = "wild-pair-preserving"


class ProjectionMap:
    """Base for the structured projection maps; immutable, applied by value."""

    __slots__ = ("n", "ctx")

    def __init__(self, n: int, ctx: FieldContext):
        self.n = n
        self.ctx = ctx

    def _check_dim(self, p: Projection) -> None:
        if p.n != self.n:
            raise ValueError(f"map on K^{self.n} applied to K^{p.n}")

    def apply(self, p: Projection) -> Projection:
        raise NotImplementedError

    def vector_image(self, v: Sequence[Scalarish]) -> tuple:
        """Image of a vector under the map's underlying (anti)linear action."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()}, n={self.n})"


class UnitaryConjMap(ProjectionMap):
    """P -> U*PU for a unitary U: the projection onto U* Range(P)."""

    __slots__ = ("u", "u_star")

    def __init__(self, u: Matrix):
        _require_unitary(u)
        super().__init__(u.nrows, u.ctx)
        self.u = u
        self.u_star = u.conj_transpose()

    def apply(self, p: Projection) -> Projection:
        self._check_dim(p)
        return Projection(self.u_star * p.basis)

    def vector_image(self, v: Sequence[Scalarish]) -> tuple:
        return self.u_star.matvec(v)

    def describe(self) -> str:
        return "unitary"


class AntiUnitaryConjMap(ProjectionMap):
    """P -> conj(U*PU): conjugation by the anti-unitary (U followed by conj).

    The image is the projection onto conj(U* Range(P)).
    """

    __slots__ = ("u", "u_star")

    def __init__(self, u: Matrix):
        _require_unitary(u)
        super().__init__(u.nrows, u.ctx)
        self.u = u
        self.u_star = u.conj_transpose()

    def apply(self, p: Projection) -> Projection:
        self._check_dim(p)
        return Projection(automorphism_entrywise(
            Automorphism.CONJ, self.u_star * p.basis))

    def vector_image(self, v: Sequence[Scalarish]) -> tuple:
        return tuple(x.conj() for x in self.u_star.matvec(v))

    def describe(self) -> str:
        return "anti-unitary"


class InducedMap(ProjectionMap):
    """P -> projection onto B * f(Range(P)) for an automorphism f of K.

    Well-defined on ranges because f maps any basis of a subspace to a basis
    of its f-image, and B is invertible.
    """

    __slots__ = ("f", "b")

    def __init__(self, f: Automorphism, b: Matrix):
        if not b.is_square:
            raise ValueError("basis-change matrix must be square")
        if not b.det():
            raise ValueError("basis-change matrix must be invertible")
        super().__init__(b.nrows, b.ctx)
        self.f = f
        self.b = b

    def apply(self, p: Projection) -> Projection:
        self._check_dim(p)
        return Projection(self.b * automorphism_entrywise(self.f, p.basis))

    def vector_image(self, v: Sequence[Scalarish]) -> tuple:
        fv = [self.f(_as_elem(x, self.ctx)) for x in v]
        return self.b.matvec(fv)

    def describe(self) -> str:
        return f"induced({self.f.value})"


def _require_unitary(u: Matrix) -> None:
    if not u.is_square:
        raise ValueError("unitary must be square")
    if u.conj_transpose() * u != Matrix.identity(u.nrows, u.ctx):
        raise ValueError("matrix is not unitary")


# -- constructors -------------------------------------------------------------------


def make_unitary_conj(u: Matrix, anti: bool = False) -> ProjectionMap:
    return AntiUnitaryConjMap(u) if anti else UnitaryConjMap(u)


def make_induced(f: Automorphism, b: Matrix) -> InducedMap:
    return InducedMap(f, b)


def apply_map(m: ProjectionMap, p: Projection) -> Projection:
    return m.apply(p)


def rank_one_image(m: ProjectionMap, v: Sequence[Scalarish]) -> Projection:
    """Image of the line through v; agrees with apply on rank_one(v)."""
    image = m.vector_image(v)
    if not any(image):
        raise ValueError("rank_one_image needs a nonzero vector")
    return rank_one(image, m.ctx)


# -- classification -----------------------------------------------------------------


def gram_is_scalar(b: Matrix) -> bool:
    gram = b.conj_transpose() * b
    t = gram[0, 0]
    return gram == Matrix.diag([t] * b.nrows, b.ctx)


def classify_map(m: ProjectionMap) -> MapForm:
    """Whether the map is conjugation by a unitary, by an anti-unitary, or wild.

    An induced map with f = id and B a scalar multiple of a unitary acts on
    ranges exactly like a unitary conjugation; likewise f = conj and the
    anti-unitary form.  Everything else preserves pair spectra but is not of
    either form.
    """
    if isinstance(m, UnitaryConjMap):
        return MapForm.UNITARY_FORM
    if isinstance(m, AntiUnitaryConjMap):
        return MapForm.ANTI_UNITARY_FORM
    if isinstance(m, InducedMap):
        if m.f is Automorphism.ID and gram_is_scalar(m.b):
            return MapForm.UNITARY_FORM
        if m.f is Automorphism.CONJ and gram_is_scalar(m.b):
            return MapForm.ANTI_UNITARY_FORM
        return MapForm.WILD_PAIR_PRESERVING
    raise TypeError(f"unknown map type {type(m).__name__}")


def preserves_orthogonality(m: ProjectionMap) -> bool:
    """True iff images of orthogonal vectors stay orthogonal.

    Conjugations always qualify; an induced map qualifies iff B*B is a scalar
    matrix, since f itself respects the inner product up to the automorphism.
    """
    if isinstance(m, (UnitaryConjMap, AntiUnitaryConjMap)):
        return True
    if isinstance(m, InducedMap):
        return gram_is_scalar(m.b)
    raise TypeError(f"unknown map type {type(m).__name__}")


# -- extensions from rank-one data ------------------------------------------------------


def extend_join(m: ProjectionMap, p: Projection, *,
                mixer: Optional[Matrix] = None) -> Projection:
    """Join of rank-one images over a rank-one decomposition of p.

    The decomposition is the columns of the stored range basis p.basis, or
    of p.basis * mixer for an invertible mixer (a singular one raises
    ValueError).  The join of line images is the image of the whole range,
    whatever basis spans it, so every mixer gives the same projection.
    """
    m._check_dim(p)
    if p.is_zero():
        return zero_projection(m.n, m.ctx)
    basis = p.basis
    if mixer is not None:
        if not mixer.det():
            raise ValueError("decomposition mixer must be invertible")
        basis = basis * mixer
    lines = [rank_one_image(m, v).basis for v in basis.columns()]
    return Projection(functools.reduce(hstack, lines).colspace_basis())


def extend_sum(m: ProjectionMap, p: Projection) -> Projection:
    """Sum of rank-one images over an orthogonal decomposition of p.

    Requires the images to come out mutually orthogonal (raises
    OrthogonalityError otherwise); when defined it is again a projection and
    agrees with extend_join.
    """
    m._check_dim(p)
    if p.is_zero():
        return zero_projection(m.n, m.ctx)
    basis = gram_schmidt(p.basis.colspace_basis())
    images = [rank_one_image(m, basis.col(j)) for j in range(basis.ncols)]
    for s in range(len(images)):
        for t in range(s + 1, len(images)):
            if not images[s].is_orthogonal_to(images[t]):
                raise OrthogonalityError(
                    "images of an orthogonal decomposition are not "
                    "mutually orthogonal")
    return make_projection(sum((q.matrix for q in images[1:]),
                               images[0].matrix))


# -- text form ----------------------------------------------------------------------------


def map_to_json(m: ProjectionMap) -> dict:
    if isinstance(m, UnitaryConjMap):
        return {"kind": "unitary", "U": matrix_to_json(m.u)}
    if isinstance(m, AntiUnitaryConjMap):
        return {"kind": "anti-unitary", "U": matrix_to_json(m.u)}
    if isinstance(m, InducedMap):
        return {"kind": "induced", "f": m.f.value, "B": matrix_to_json(m.b)}
    raise TypeError(f"unknown map type {type(m).__name__}")


def map_from_json(obj: object,
                  ctx: Optional[FieldContext] = None) -> ProjectionMap:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError('map form must be an object with a "kind"')
    kind = obj["kind"]
    if kind in ("unitary", "anti-unitary"):
        if "U" not in obj:
            raise ValueError(f'map kind {kind!r} needs a "U" matrix')
        return make_unitary_conj(matrix_from_json(obj["U"], ctx),
                                 anti=(kind == "anti-unitary"))
    if kind == "induced":
        if "f" not in obj or "B" not in obj:
            raise ValueError('induced map needs "f" and "B"')
        if not isinstance(obj["f"], str):
            raise ValueError('"f" must be an automorphism name')
        return make_induced(Automorphism.from_name(obj["f"]),
                            matrix_from_json(obj["B"], ctx))
    raise ValueError(f"unknown map kind {kind!r}")
