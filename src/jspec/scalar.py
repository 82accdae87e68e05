"""Exact arithmetic in K = Q(i, sqrt(d)) and its field automorphisms.

Every quantity in this package is a K-scalar: a + b*sqrt(d) + (c + e*sqrt(d))*i
with rational components and a fixed squarefree d >= 2 (default 2).  The four
components are kept as integer numerators over one positive common
denominator, reduced by their joint gcd, so arithmetic runs on Python ints
and equality is exact and componentwise.  K carries exactly four field
automorphisms commuting with complex conjugation: identity, complex
conjugation (i -> -i), the real flip (sqrt(d) -> -sqrt(d)), and their
composition.

`_as_elem` is the one coercion of a scalar argument into K: every matrix,
vector and polynomial entry point takes its scalars through it, so a
float, a text or an element of another field is refused in one place.
`FieldElem._coerce` is its operator twin.

Bulk exact work runs on the integer form, 4-int tuples in Z[i, sqrt(d)],
whose helpers live here: `_integral` clears denominators, `_mul4`,
`_sub4` and `_dot4` compute, `_inverse4` inverts (for `FieldElem.inv`
too), `_reduced` reads back.
"""

from __future__ import annotations

import enum
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

Rat = Union[int, Fraction]
Scalarish = Union["FieldElem", int, Fraction]


QUOTE_LIMIT = 60  # longest text a ParseError quotes whole


class ParseError(ValueError):
    """Syntax error in the scalar or polynomial grammar, at `pos` of a text.

    Both grammars are written out on `_Parser`.  Of a text longer than
    QUOTE_LIMIT characters, `text` keeps the QUOTE_LIMIT from 20 before
    pos, "..." marking each cut end, so no message repeats it whole.
    """

    def __init__(self, message: str, text: str, pos: int):
        text = _quote_text(text, max(pos - 20, 0))
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.text = text
        self.pos = pos


def _quote_int(x: int) -> str:
    """x in decimal, or its digit count if that is past QUOTE_LIMIT chars.

    The count is read from the bit length, as `str` refuses integers past
    the interpreter's int-string limit.  With 2^(b-1) <= |x| < 2^b and
    0.30102999 < log10(2), the estimate below is at most the count, and
    the comparisons with powers of ten raise it to the count.
    """
    m = abs(x)
    if m < 10 ** (QUOTE_LIMIT - (x < 0)):
        return str(x)
    digits = int((m.bit_length() - 1) * 0.30102999) + 1
    while m >= 10 ** digits:
        digits += 1
    return f"<an integer of {digits} digits>"


def _quote_text(text: str, start: int = 0) -> str:
    """text, or at most QUOTE_LIMIT characters of it from start on, with
    "..." marking each cut end."""
    if len(text) <= QUOTE_LIMIT:
        return text
    end = start + QUOTE_LIMIT
    return ("..." if start else "") + text[start:end] + (
        "..." if end < len(text) else "")


# Largest accepted d: squarefreeness is checked by trial division up to
# sqrt(d), about 32k steps at this bound.
MAX_D = 10**9


def _is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        while n % p == 0:
            n //= p
        p += 1
    return True


class FieldContext:
    """Fixes the field K = Q(i, sqrt(d)) all scalars of a computation live in."""

    __slots__ = ("d",)

    def __init__(self, d: int = 2):
        if d > MAX_D:
            raise ValueError(
                f"d must be at most {MAX_D}, got {_quote_int(d)}")
        if d < 2 or not _is_squarefree(d):
            raise ValueError(
                f"d must be a squarefree integer >= 2, got {_quote_int(d)}")
        self.d = d

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FieldContext) and self.d == other.d

    def __hash__(self) -> int:
        return hash(("FieldContext", self.d))

    def __repr__(self) -> str:
        return f"FieldContext(d={self.d})"

    def elem(self, a: Rat = 0, b: Rat = 0, c: Rat = 0, e: Rat = 0) -> FieldElem:
        """The element a + b*sqrt(d) + (c + e*sqrt(d))*i, for int or
        Fraction components."""
        if not (b or c or e):
            if type(a) is int:
                return _canonical(a, 0, 0, 0, 1, self)
            if type(a) is Fraction:
                return _canonical(a.numerator, 0, 0, 0, a.denominator, self)
        return FieldElem(a, b, c, e, self)

    @property
    def zero(self) -> FieldElem:
        return self.elem(0)

    @property
    def one(self) -> FieldElem:
        return self.elem(1)

    @property
    def i(self) -> FieldElem:
        return self.elem(0, 0, 1)

    @property
    def sqrt_d(self) -> FieldElem:
        return self.elem(0, 1)

    def parse(self, text: str) -> FieldElem:
        return parse_scalar(text, self)


class FieldElem:
    """An element of K = Q(i, sqrt(d)), immutable, with exact operator arithmetic.

    Stored as five ints: x = (A + B*sqrt(d) + (C + E*sqrt(d))*i) / D with
    D > 0 and gcd(A, B, C, E, D) = 1, so zero has D = 1.  The form is
    canonical, so equality is a field-by-field compare; a rational element
    hashes like the equal `Fraction`.  The components a, b, c, e are read as
    `Fraction`s, and only ints and Fractions are taken as components.
    Supports mixing with int and Fraction on either side.
    """

    __slots__ = ("_a", "_b", "_c", "_e", "_den", "ctx")

    def __init__(self, a: Rat, b: Rat, c: Rat, e: Rat, ctx: FieldContext):
        parts = (a, b, c, e)
        for x in parts:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"cannot use {type(x).__name__} as a "
                                "component of a scalar; expected int or "
                                "Fraction")
        # Canonical as built: for each prime p of den, the part whose reduced
        # denominator holds p's full power gets a numerator and multiplier
        # prime to p.
        den = lcm(*(x.denominator for x in parts))
        self._a, self._b, self._c, self._e = (
            x.numerator * (den // x.denominator) for x in parts)
        self._den = den
        self.ctx = ctx

    # -- basic structure ---------------------------------------------------

    @property
    def a(self) -> Fraction:
        return Fraction(self._a, self._den)

    @property
    def b(self) -> Fraction:
        return Fraction(self._b, self._den)

    @property
    def c(self) -> Fraction:
        return Fraction(self._c, self._den)

    @property
    def e(self) -> Fraction:
        return Fraction(self._e, self._den)

    def integer_form(self) -> tuple[int, int, int, int, int]:
        """The stored ints (A, B, C, E, D) of the canonical form above."""
        return self._a, self._b, self._c, self._e, self._den

    def _coerce(self, other: object) -> "FieldElem | None":
        """`other` as an element of this field, for the operators.

        The same rule as `_as_elem`, kept apart from it for two reasons:
        it returns None for a foreign type, so that the operator returns
        NotImplemented and Python tries the reflected one (a `MultiPoly`
        or a `Matrix` times a scalar), and it runs once per scalar
        operation, where `_as_elem`'s call and context lookup would cost.
        """
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
        return (self._a == o._a and self._b == o._b and self._c == o._c
                and self._e == o._e and self._den == o._den)

    def __hash__(self) -> int:
        if not (self._b or self._c or self._e):
            if self._den == 1:
                return hash(self._a)
            return hash(Fraction(self._a, self._den))
        return hash((self.a, self.b, self.c, self.e, self.ctx.d))

    def __bool__(self) -> bool:
        return bool(self._a or self._b or self._c or self._e)

    def is_real(self) -> bool:
        return not (self._c or self._e)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: object) -> "FieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._den, o._den
        if d1 == d2:
            return _reduced(self._a + o._a, self._b + o._b, self._c + o._c,
                            self._e + o._e, d1, self.ctx)
        return _reduced(self._a * d2 + o._a * d1, self._b * d2 + o._b * d1,
                        self._c * d2 + o._c * d1, self._e * d2 + o._e * d1,
                        d1 * d2, self.ctx)

    __radd__ = __add__

    def __neg__(self) -> "FieldElem":
        return _canonical(-self._a, -self._b, -self._c, -self._e, self._den,
                          self.ctx)

    def __sub__(self, other: object) -> "FieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _difference(self, o)

    def __rsub__(self, other: object) -> "FieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _difference(o, self)

    def __mul__(self, other: object) -> "FieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, c1, e1 = self._a, self._b, self._c, self._e
        a2, b2, c2, e2 = o._a, o._b, o._c, o._e
        den = self._den * o._den
        # rational factors are the common case, then real ones; skip the
        # full expansion for both
        if not (b1 or c1 or e1):
            return _reduced(a1 * a2, a1 * b2, a1 * c2, a1 * e2, den, self.ctx)
        if not (b2 or c2 or e2):
            return _reduced(a2 * a1, a2 * b1, a2 * c1, a2 * e1, den, self.ctx)
        d = self.ctx.d
        # real factors, (a1 + b1*sqrt(d))(a2 + b2*sqrt(d)): the same ints as
        # the full expansion below with c = e = 0, from 4 products, not 16
        if not (c1 or e1 or c2 or e2):
            return _reduced(a1 * a2 + d * (b1 * b2), a1 * b2 + b1 * a2, 0, 0,
                            den, self.ctx)
        # (u1 + v1*i)(u2 + v2*i) with u, v in Z[sqrt(d)]:
        # real part u1*u2 - v1*v2, imaginary part u1*v2 + v1*u2.
        return _reduced(a1 * a2 - c1 * c2 + d * (b1 * b2 - e1 * e2),
                        a1 * b2 + b1 * a2 - c1 * e2 - e1 * c2,
                        a1 * c2 + c1 * a2 + d * (b1 * e2 + e1 * b2),
                        a1 * e2 + b1 * c2 + c1 * b2 + e1 * a2,
                        den, self.ctx)

    __rmul__ = __mul__

    def conj(self) -> "FieldElem":
        """Complex conjugation: i -> -i."""
        return _canonical(self._a, self._b, -self._c, -self._e, self._den,
                          self.ctx)

    def inv(self) -> "FieldElem":
        """Multiplicative inverse D*y/norm, for (y, norm) = `_inverse4` of
        (A, B, C, E), with the signs set so that the denominator is positive.
        """
        if not self:
            raise ZeroDivisionError("inversion of zero scalar")
        den = self._den
        y, norm = _inverse4((self._a, self._b, self._c, self._e), self.ctx.d)
        if norm < 0:
            den, norm = -den, -norm
        return _reduced(den * y[0], den * y[1], den * y[2], den * y[3], norm,
                        self.ctx)

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
        a, b = self._a, self._b  # same signs as a and b, since D > 0
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


def _as_elem(x: Scalarish, ctx: FieldContext) -> FieldElem:
    """x as an element of ctx: the one coercion of a scalar argument into K.

    A FieldElem of ctx's d passes through, an int or a Fraction becomes
    `ctx.elem(x)`, a FieldElem of another d raises ValueError, and
    anything else, a float or a str among them, raises TypeError: a float
    is not exact, and text goes through `parse_scalar`.
    """
    if isinstance(x, FieldElem):
        if x.ctx.d != ctx.d:
            raise ValueError(
                f"scalar from d={x.ctx.d} in a d={ctx.d} computation")
        return x
    if isinstance(x, (int, Fraction)):
        return ctx.elem(x)
    raise TypeError(f"cannot use {type(x).__name__} as a scalar; expected "
                    "FieldElem, int or Fraction")


def _find_ctx(entries: Iterable[object]) -> Optional[FieldContext]:
    """The field of the first FieldElem among entries, None if none is."""
    for x in entries:
        if isinstance(x, FieldElem):
            return x.ctx
    return None


_new = object.__new__


def _canonical(a: int, b: int, c: int, e: int, den: int,
               ctx: FieldContext) -> FieldElem:
    """The element with integer parts already in canonical form."""
    x = _new(FieldElem)
    x._a = a
    x._b = b
    x._c = c
    x._e = e
    x._den = den
    x.ctx = ctx
    return x


def _reduced(a: int, b: int, c: int, e: int, den: int,
             ctx: FieldContext) -> FieldElem:
    """The element (a + b*sqrt(d) + (c + e*sqrt(d))*i) / den, for den > 0."""
    if den == 1:  # integral elements need no gcd
        return _canonical(a, b, c, e, 1, ctx)
    g = gcd(a, b, c, e, den)
    if g != 1:
        a //= g
        b //= g
        c //= g
        e //= g
        den //= g
    return _canonical(a, b, c, e, den, ctx)


def _difference(x: FieldElem, y: FieldElem) -> FieldElem:
    d1, d2 = x._den, y._den
    if d1 == d2:
        return _reduced(x._a - y._a, x._b - y._b, x._c - y._c, x._e - y._e,
                        d1, x.ctx)
    return _reduced(x._a * d2 - y._a * d1, x._b * d2 - y._b * d1,
                    x._c * d2 - y._c * d1, x._e * d2 - y._e * d1,
                    d1 * d2, x.ctx)


def _mul4(x: tuple, y: tuple, d: int) -> tuple[int, int, int, int]:
    """Product of 4-int tuples (A, B, C, E) in Z[i, sqrt d], as FieldElem's.

    (u1 + v1*i)(u2 + v2*i) with u, v in Z[sqrt(d)]: real part
    u1*u2 - v1*v2, imaginary part u1*v2 + v1*u2.
    """
    a1, b1, c1, e1 = x
    a2, b2, c2, e2 = y
    return (a1 * a2 - c1 * c2 + d * (b1 * b2 - e1 * e2),
            a1 * b2 + b1 * a2 - c1 * e2 - e1 * c2,
            a1 * c2 + c1 * a2 + d * (b1 * e2 + e1 * b2),
            a1 * e2 + b1 * c2 + c1 * b2 + e1 * a2)


def _sub4(x: tuple, y: tuple) -> tuple[int, int, int, int]:
    return x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3]


def _dot4(xs: Sequence[tuple], ys: Sequence[tuple], d: int) -> tuple:
    a = b = c = e = 0
    for x, y in zip(xs, ys):
        p = _mul4(x, y, d)
        a, b, c, e = a + p[0], b + p[1], c + p[2], e + p[3]
    return a, b, c, e


def _integral(v: Sequence[FieldElem]) -> tuple[int, list[tuple]]:
    """(D, D * v as 4-int tuples), D the lcm of v's entry denominators."""
    den = lcm(1, *(x._den for x in v))
    out = []
    for x in v:
        f = den // x._den
        out.append((x._a * f, x._b * f, x._c * f, x._e * f))
    return den, out


def _inverse4(w: tuple, d: int) -> tuple[tuple, int]:
    """(y, norm) with 1 / w = y / norm, for a 4-int tuple w != 0.

    With u = A + B sqrt d and v = C + E sqrt d, a non-real w is first made
    real: w conj(w) = u^2 + v^2 = s + t sqrt d.  A real s + t sqrt d, t != 0,
    is then made rational by its flip: norm = s^2 - d t^2.  A rational w is
    its own norm.  For a non-real w both s + t sqrt d and its flip are sums
    of two real squares, so norm > 0; so is it when w is positive in both
    real embeddings, as a Gram determinant is.
    """
    a, b, c, e = w
    if not (b or c or e):
        return (1, 0, 0, 0), a
    if c or e:
        s = a * a + c * c + d * (b * b + e * e)
        t = 2 * (a * b + c * e)
        y = (a * s - d * b * t, b * s - a * t, d * e * t - c * s, c * t - e * s)
    else:
        s, t = a, b
        y = (a, -b, 0, 0)
    return y, s * s - d * t * t


def _sub_mul(x: FieldElem, f: FieldElem, y: FieldElem) -> FieldElem:
    """x - f*y with one `_reduced` instead of two.

    The product stays unreduced over f's and y's denominators until the
    difference is formed.  Same rational-factor shortcut as
    `FieldElem.__mul__`; the general case is `_mul4`.
    """
    fa, fb, fc, fe = f._a, f._b, f._c, f._e
    ya, yb, yc, ye = y._a, y._b, y._c, y._e
    if not (fb or fc or fe):
        pa, pb, pc, pe = fa * ya, fa * yb, fa * yc, fa * ye
    elif not (yb or yc or ye):
        pa, pb, pc, pe = ya * fa, ya * fb, ya * fc, ya * fe
    else:
        pa, pb, pc, pe = _mul4((fa, fb, fc, fe), (ya, yb, yc, ye), x.ctx.d)
    d1, d2 = x._den, f._den * y._den
    if d1 == d2:
        return _reduced(x._a - pa, x._b - pb, x._c - pc, x._e - pe, d1, x.ctx)
    return _reduced(x._a * d2 - pa * d1, x._b * d2 - pb * d1,
                    x._c * d2 - pc * d1, x._e * d2 - pe * d1,
                    d1 * d2, x.ctx)


class Automorphism(enum.Enum):
    """The four field automorphisms of K, each an involution commuting with conj."""

    ID = "id"
    CONJ = "conj"
    FLIP = "flip"
    CONJFLIP = "conjflip"

    def __call__(self, x: FieldElem) -> FieldElem:
        return apply_automorphism(self, x)

    @classmethod
    def from_name(cls, name: str) -> "Automorphism":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(
                f"unknown automorphism {name!r}; expected one of "
                f"{[m.value for m in cls]}") from None


ALL_AUTOMORPHISMS = (Automorphism.ID, Automorphism.CONJ,
                     Automorphism.FLIP, Automorphism.CONJFLIP)


def apply_automorphism(f: Automorphism, x: FieldElem) -> FieldElem:
    """Apply f to x.  CONJ negates i, FLIP negates sqrt(d), CONJFLIP both."""
    if f is Automorphism.ID:
        return x
    a, b, c, e, den = x._a, x._b, x._c, x._e, x._den
    if f is Automorphism.CONJ:
        return _canonical(a, b, -c, -e, den, x.ctx)
    if f is Automorphism.FLIP:
        return _canonical(a, -b, c, -e, den, x.ctx)
    return _canonical(a, -b, -c, e, den, x.ctx)


# -- parsing and formatting -------------------------------------------------

_DIGITS = re.compile("[0-9]+")


class _Parser:
    """Cursor, literals and signed sums shared by the two text grammars.

    Both grammars read a signed sum of terms; whitespace between tokens is
    insignificant, and only ASCII digits are digits:

        sum      := [sign] term (sign term)*
        rat      := integer ("/" integer)?      nonzero denominator
        integer  := [0-9]+

    The scalar grammar (`parse_scalar`), with "r" for sqrt(d):

        term     := rat unitpart? | unitpart
        unitpart := ("*"? unit)+        unit in {i, r}, each at most once

    The polynomial grammar (`parse_poly` in `jspec.polyalg`), the text form
    `format_poly` prints:

        term     := factor ("*" factor)*
        factor   := rat | "i" | "r" | "(" scalar ")" | "c" index ("^" integer)?

    where the variable index is an integer written directly after "c".
    Subclasses give the sum's `zero()` and its `term(sign)`.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self):
        total = self.zero()
        sign = 1
        ch = self.peek()
        if ch in ("+", "-"):
            sign = -1 if ch == "-" else 1
            self.pos += 1
        while True:
            total = total + self.term(sign)
            ch = self.peek()
            if ch == "":
                return total
            if ch not in ("+", "-"):
                raise self.error(f"expected '+', '-' or end of input, found {ch!r}")
            sign = -1 if ch == "-" else 1
            self.pos += 1

    def at_digit(self) -> bool:
        """Whether the next character, after whitespace, is an ASCII digit."""
        return "0" <= self.peek() <= "9"

    def integer(self) -> int:
        self.skip_ws()
        match = _DIGITS.match(self.text, self.pos)
        if match is None:
            raise self.error("expected an integer")
        try:
            value = int(match.group())
        except ValueError:  # longer than the interpreter's int-string limit
            raise self.error(f"integer literal of {len(match.group())} "
                             "digits too long") from None
        self.pos = match.end()
        return value

    def rational(self) -> Fraction:
        num = self.integer()
        if self.peek() != "/":
            return Fraction(num)
        self.pos += 1
        self.skip_ws()
        mark = self.pos
        den = self.integer()
        if den == 0:
            self.pos = mark
            raise self.error("division by zero literal")
        return Fraction(num, den)


def parse_scalar(text: str, ctx: FieldContext) -> FieldElem:
    """Parse the scalar grammar into a canonical FieldElem."""
    return _ScalarParser(text, ctx).parse()


class _ScalarParser(_Parser):
    def __init__(self, text: str, ctx: FieldContext):
        super().__init__(text)
        self.ctx = ctx

    def zero(self) -> FieldElem:
        return self.ctx.zero

    def term(self, sign: int) -> FieldElem:
        if self.at_digit():
            coef = self.rational()
            units = self.unitpart(require=False)
        elif self.peek() in ("i", "r"):
            coef = Fraction(1)
            units = self.unitpart(require=True)
        else:
            raise self.error("expected a rational or unit ('i'/'r')")
        has_i, has_r = units
        parts = [0, 0, 0, 0]  # the components a, b, c, e of ctx.elem
        parts[2 * has_i + has_r] = sign * coef
        return self.ctx.elem(*parts)

    def unitpart(self, require: bool) -> tuple[bool, bool]:
        has_i = has_r = False
        first = True
        while True:
            ch = self.peek()
            if ch == "*":
                save = self.pos
                self.pos += 1
                ch = self.peek()
                if ch not in ("i", "r"):
                    if first and require:
                        raise self.error("expected unit 'i' or 'r' after '*'")
                    self.pos = save
                    break
            elif ch not in ("i", "r"):
                break
            if ch == "i":
                if has_i:
                    raise self.error("unit 'i' appears twice in one term")
                has_i = True
            else:
                if has_r:
                    raise self.error("unit 'r' appears twice in one term")
                has_r = True
            self.pos += 1
            first = False
        if require and not (has_i or has_r):
            raise self.error("expected unit 'i' or 'r'")
        return has_i, has_r


def format_scalar(x: FieldElem) -> str:
    """Canonical text form: rational part, r-term, i-term, r*i-term.

    Zero components are omitted; the zero element prints as "0".  Each
    component prints as its reduced fraction, with the magnitude 1 left off
    a unit.  The output reparses to an equal element.
    """
    den = x._den
    out: list[str] = []
    for num, unit in ((x._a, ""), (x._b, "r"), (x._c, "i"), (x._e, "r*i")):
        if not num:
            continue
        g = gcd(num, den)
        mag, q = abs(num) // g, den // g
        body = str(mag) if q == 1 else f"{mag}/{q}"
        if unit:
            body = unit if body == "1" else f"{body}*{unit}"
        out.append(f"-{body}" if num < 0 else f"+{body}" if out else body)
    return "".join(out) or "0"
