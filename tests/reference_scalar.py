"""Reference K-scalar: four independently normalized `fractions.Fraction`s.

This is the K = Q(i, sqrt(d)) element jspec used before its scalar moved to
integers over one common denominator.  It is kept unchanged as the oracle for
`tests/test_scalar_differential.py` and is not used by the package itself.
`RefContext` stands in for `FieldContext`, so that the reference never builds
elements of the class under test; `format_scalar` and `apply_automorphism`
are the matching copies.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from jspec.scalar import Automorphism

Rat = Union[int, Fraction]


class RefContext:
    """The field K = Q(i, sqrt(d)) for reference elements."""

    __slots__ = ("d",)

    def __init__(self, d: int):
        self.d = d

    def elem(self, a: Rat = 0, b: Rat = 0, c: Rat = 0, e: Rat = 0) -> FieldElem:
        return FieldElem(Fraction(a), Fraction(b), Fraction(c), Fraction(e), self)

    @property
    def one(self) -> FieldElem:
        return self.elem(1)


class FieldElem:
    """An element of K = Q(i, sqrt(d)), immutable, with exact operator arithmetic.

    Canonical representation: four independently normalized rationals, so
    equality and hashing are componentwise.  Supports mixing with int and
    Fraction on either side.
    """

    __slots__ = ("a", "b", "c", "e", "ctx")

    def __init__(self, a: Fraction, b: Fraction, c: Fraction, e: Fraction,
                 ctx: RefContext):
        self.a = a
        self.b = b
        self.c = c
        self.e = e
        self.ctx = ctx

    # -- basic structure ---------------------------------------------------

    @property
    def d(self) -> int:
        return self.ctx.d

    def _coerce(self, other: object) -> "FieldElem | None":
        if isinstance(other, FieldElem):
            if other.ctx.d != self.ctx.d:
                raise ValueError(
                    f"mixing scalars from d={self.ctx.d} and d={other.ctx.d}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.elem(other)
        return None

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.a, self.b, self.c, self.e) == (o.a, o.b, o.c, o.e)

    def __hash__(self) -> int:
        if not self.b and not self.c and not self.e:
            return hash(self.a)
        return hash((self.a, self.b, self.c, self.e, self.ctx.d))

    def __bool__(self) -> bool:
        return bool(self.a or self.b or self.c or self.e)

    def is_real(self) -> bool:
        return not (self.c or self.e)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: object) -> "FieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(self.a + o.a, self.b + o.b, self.c + o.c,
                         self.e + o.e, self.ctx)

    __radd__ = __add__

    def __neg__(self) -> "FieldElem":
        return FieldElem(-self.a, -self.b, -self.c, -self.e, self.ctx)

    def __sub__(self, other: object) -> "FieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "FieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: object) -> "FieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.ctx.d
        a1, b1, c1, e1 = self.a, self.b, self.c, self.e
        a2, b2, c2, e2 = o.a, o.b, o.c, o.e
        # rational factors are the common case; skip the full expansion
        if not (b1 or c1 or e1):
            return FieldElem(a1 * a2, a1 * b2, a1 * c2, a1 * e2, self.ctx)
        if not (b2 or c2 or e2):
            return FieldElem(a2 * a1, a2 * b1, a2 * c1, a2 * e1, self.ctx)
        # (u1 + v1*i)(u2 + v2*i) with u, v in Q(sqrt(d)):
        # real part u1*u2 - v1*v2, imaginary part u1*v2 + v1*u2.
        ra = (a1 * a2 + d * b1 * b2) - (c1 * c2 + d * e1 * e2)
        rb = (a1 * b2 + b1 * a2) - (c1 * e2 + e1 * c2)
        rc = (a1 * c2 + d * b1 * e2) + (c1 * a2 + d * e1 * b2)
        re = (a1 * e2 + b1 * c2) + (c1 * b2 + e1 * a2)
        return FieldElem(ra, rb, rc, re, self.ctx)

    __rmul__ = __mul__

    def conj(self) -> "FieldElem":
        """Complex conjugation: i -> -i."""
        return FieldElem(self.a, self.b, -self.c, -self.e, self.ctx)

    def inv(self) -> "FieldElem":
        """Multiplicative inverse, by two-stage rationalization.

        First multiply by the complex conjugate to land in Q(sqrt(d)), then by
        the sqrt(d)-conjugate to land in Q.
        """
        if not self:
            raise ZeroDivisionError("inversion of zero scalar")
        d = self.ctx.d
        w = self * self.conj()           # real: w = s + t*sqrt(d), w > 0
        s, t = w.a, w.b
        n = s * s - d * t * t            # nonzero since w != 0 and sqrt(d) irrational
        winv = FieldElem(s / n, -t / n, Fraction(0), Fraction(0), self.ctx)
        return self.conj() * winv

    def __truediv__(self, other: object) -> "FieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other: object) -> "FieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, n: int) -> "FieldElem":
        if n < 0:
            return self.inv() ** (-n)
        result = self.ctx.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- order on the real subfield ----------------------------------------

    def real_sign(self) -> int:
        """Sign of a real element a + b*sqrt(d), as -1, 0 or +1."""
        if not self.is_real():
            raise ValueError("sign is defined only for real scalars")
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # mixed signs: compare |a| with |b|*sqrt(d) via squares
        lead = (a > 0) - (a < 0)
        cmp = a * a - self.ctx.d * b * b
        if cmp == 0:
            raise ValueError(f"a^2 = d*b^2 contradicts d={self.ctx.d} squarefree")
        return lead if cmp > 0 else -lead

    def __repr__(self) -> str:
        return f"FieldElem({format_scalar(self)!r}, d={self.ctx.d})"

    def __str__(self) -> str:
        return format_scalar(self)


def apply_automorphism(f: Automorphism, x: FieldElem) -> FieldElem:
    """Apply f to x.  CONJ negates i, FLIP negates sqrt(d), CONJFLIP both."""
    if f is Automorphism.ID:
        return x
    if f is Automorphism.CONJ:
        return FieldElem(x.a, x.b, -x.c, -x.e, x.ctx)
    if f is Automorphism.FLIP:
        return FieldElem(x.a, -x.b, x.c, -x.e, x.ctx)
    return FieldElem(x.a, -x.b, -x.c, x.e, x.ctx)


def format_scalar(x: FieldElem) -> str:
    """Canonical text form: rational part, r-term, i-term, r*i-term.

    Zero components are omitted; the zero element prints as "0".  The output
    reparses to an equal element.
    """
    parts: list[tuple[Fraction, str]] = []
    for comp, unit in ((x.a, ""), (x.b, "r"), (x.c, "i"), (x.e, "r*i")):
        if comp:
            parts.append((comp, unit))
    if not parts:
        return "0"
    out: list[str] = []
    for idx, (comp, unit) in enumerate(parts):
        mag = abs(comp)
        if not unit:
            body = str(mag)
        elif mag == 1:
            body = unit
        else:
            body = f"{mag}*{unit}"
        if idx == 0:
            out.append(f"-{body}" if comp < 0 else body)
        else:
            out.append(f"-{body}" if comp < 0 else f"+{body}")
    return "".join(out)
