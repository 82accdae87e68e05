"""Structured maps on the projection lattice and their rank-one extensions.

Every map is a pair (f, B) of a field automorphism f of K and an invertible
basis change B, acting by Range(P) -> B * f(Range(P)).  Conjugation by a
unitary U (P -> U*PU) is (id, U*); conjugation by the anti-unitary, U then
entrywise conj, is (conj, U^T), since conj(U* x) = U^T conj(x).  A map is
applied to a basis of the range, so the image is a projection exactly over
K and needs no check, and its form depends on (f, B) alone.  On top of the
maps sit the two extension schemes that rebuild a map from its action on
rank-one projections: join of images over any rank-one decomposition, and
sum of images over an orthogonal decomposition, the latter defined only
when the map preserves orthogonality.
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence

from jspec.exactla import (
    Matrix,
    automorphism_entrywise,
    gram_schmidt,
    matrix_from_json,
    matrix_to_json,
    vdot,
)
from jspec.lattice import Projection, rank_one, zero_projection
from jspec.scalar import Automorphism, FieldContext, Scalarish, _as_elem


class OrthogonalityError(ValueError):
    """Raised when extend_sum meets images that are not mutually orthogonal."""


class MapForm(enum.Enum):
    UNITARY_FORM = "unitary-form"
    ANTI_UNITARY_FORM = "anti-unitary-form"
    WILD_PAIR_PRESERVING = "wild-pair-preserving"


class ProjectionMap:
    """P -> projection onto B * f(Range(P)); immutable, applied by value.

    Well-defined on ranges because f maps any basis of a subspace to a basis
    of its f-image, and B is invertible.  The subclasses only check and
    build (f, B) and name the map.
    """

    __slots__ = ("f", "b")

    def __init__(self, f: Automorphism, b: Matrix):
        self.f = f
        self.b = b

    @property
    def n(self) -> int:
        return self.b.nrows

    @property
    def ctx(self) -> FieldContext:
        return self.b.ctx

    def _check_dim(self, p: Projection) -> None:
        if p.n != self.n:
            raise ValueError(f"map on K^{self.n} applied to K^{p.n}")

    def apply(self, p: Projection) -> Projection:
        self._check_dim(p)
        return Projection(self.b * automorphism_entrywise(self.f, p.basis))

    def vector_image(self, v: Sequence[Scalarish]) -> tuple:
        """Image of a vector under the map's underlying (anti)linear action."""
        return self.b.matvec([self.f(_as_elem(x, self.ctx)) for x in v])

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()}, n={self.n})"


# Each class binds the shared apply in its own namespace, so that apply can
# be found and wrapped per class by name (benchmarks/tracing.py).


class UnitaryConjMap(ProjectionMap):
    """P -> U*PU for a unitary U: the pair (id, U*)."""

    __slots__ = ("u",)

    def __init__(self, u: Matrix):
        super().__init__(Automorphism.ID, _require_unitary(u))
        self.u = u

    apply = ProjectionMap.apply

    def describe(self) -> str:
        return "unitary"


class AntiUnitaryConjMap(ProjectionMap):
    """P -> conj(U*PU), conjugation by U then conj: the pair (conj, U^T)."""

    __slots__ = ("u",)

    def __init__(self, u: Matrix):
        _require_unitary(u)
        super().__init__(Automorphism.CONJ, u.transpose())
        self.u = u

    apply = ProjectionMap.apply

    def describe(self) -> str:
        return "anti-unitary"


class InducedMap(ProjectionMap):
    """P -> projection onto B * f(Range(P)) for any automorphism f of K."""

    __slots__ = ()

    def __init__(self, f: Automorphism, b: Matrix):
        if not b.is_square:
            raise ValueError("basis-change matrix must be square")
        if not b.det():
            raise ValueError("basis-change matrix must be invertible")
        super().__init__(f, b)

    apply = ProjectionMap.apply

    def describe(self) -> str:
        return f"induced({self.f.value})"


def _require_unitary(u: Matrix) -> Matrix:
    """U*, after checking that U is square and U*U = I (ValueError if not)."""
    if not u.is_square:
        raise ValueError("unitary must be square")
    u_star = u.conj_transpose()
    if u_star * u != Matrix.identity(u.nrows, u.ctx):
        raise ValueError("matrix is not unitary")
    return u_star


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
    return not b.nrows or gram == Matrix.diag([gram[0, 0]] * b.nrows, b.ctx)


def classify_map(m: ProjectionMap) -> MapForm:
    """Whether the map is conjugation by a unitary, by an anti-unitary, or wild.

    With B a scalar multiple of a unitary, f = id acts on ranges exactly
    like a unitary conjugation and f = conj like the anti-unitary one.
    Everything else preserves pair spectra but is not of either form.
    """
    if gram_is_scalar(m.b):
        if m.f is Automorphism.ID:
            return MapForm.UNITARY_FORM
        if m.f is Automorphism.CONJ:
            return MapForm.ANTI_UNITARY_FORM
    return MapForm.WILD_PAIR_PRESERVING


def preserves_orthogonality(m: ProjectionMap) -> bool:
    """True iff images of orthogonal vectors stay orthogonal.

    That holds iff B*B is a scalar matrix, since f itself respects the inner
    product up to the automorphism; conjugations always qualify.
    """
    return gram_is_scalar(m.b)


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
    images = [m.vector_image(v) for v in basis.columns()]
    return Projection(
        Matrix._of_columns(images, m.ctx, m.n).colspace_basis())


def extend_sum(m: ProjectionMap, p: Projection) -> Projection:
    """Sum of rank-one images over an orthogonal decomposition of p.

    The decomposition is the lines through the Gram-Schmidt basis u_j of
    the range; their images are the lines through w_j = B f(u_j).  Those
    are mutually orthogonal iff vdot(w_s, w_t) = 0 for s != t (otherwise
    OrthogonalityError is raised), and then their projections sum to the
    projection onto span(w_j), which agrees with extend_join.
    """
    m._check_dim(p)
    if p.is_zero():
        return zero_projection(m.n, m.ctx)
    basis = gram_schmidt(p.basis.colspace_basis())
    images = [m.vector_image(u) for u in basis.columns()]
    for s in range(len(images)):
        for t in range(s + 1, len(images)):
            if vdot(images[s], images[t], m.ctx):
                raise OrthogonalityError(
                    "images of an orthogonal decomposition are not "
                    "mutually orthogonal")
    return Projection(Matrix._of_columns(images, m.ctx, m.n))


# -- text form ----------------------------------------------------------------------------


def map_to_json(m: ProjectionMap) -> dict:
    if isinstance(m, (UnitaryConjMap, AntiUnitaryConjMap)):
        return {"kind": m.describe(), "U": matrix_to_json(m.u)}
    return {"kind": "induced", "f": m.f.value, "B": matrix_to_json(m.b)}


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
