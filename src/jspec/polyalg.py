"""Sparse multivariate polynomials over K with exact GCD and squarefree part.

Polynomials in c1..ck with K-scalar coefficients, stored as a map from
exponent vectors to nonzero coefficients.  The term order everywhere is
graded lexicographic, which fixes a canonical leading term and hence a
canonical monic scaling.  GCD works by recursion on variables: split off the
content, then run a subresultant polynomial remainder sequence in the main
variable; the squarefree part follows by dividing out the GCD of a
polynomial with its partial derivatives.  All division steps are exact and
checked.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from jspec.scalar import (
    FieldContext,
    FieldElem,
    ParseError,
    _Parser,
    format_scalar,
    parse_scalar,
)

Expts = tuple[int, ...]
Scalarish = Union[FieldElem, int, Fraction]


def _grlex_key(expts: Expts) -> tuple[int, Expts]:
    return (sum(expts), expts)


class MultiPoly:
    """A polynomial in nvars variables over K, immutable and canonical.

    Only nonzero coefficients are stored; two equal polynomials have equal
    term maps.
    """

    __slots__ = ("nvars", "terms", "ctx")

    def __init__(self, nvars: int, terms: dict[Expts, FieldElem],
                 ctx: FieldContext):
        clean: dict[Expts, FieldElem] = {}
        for expts, coef in terms.items():
            if len(expts) != nvars:
                raise ValueError(
                    f"exponent vector {expts} in a {nvars}-variable polynomial")
            if any(e < 0 for e in expts):
                raise ValueError(f"negative exponent in {expts}")
            if coef:
                clean[expts] = coef
        self.nvars = nvars
        self.terms = clean
        self.ctx = ctx

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, ctx: FieldContext) -> "MultiPoly":
        return cls(nvars, {}, ctx)

    @classmethod
    def const(cls, nvars: int, value: Scalarish,
              ctx: FieldContext) -> "MultiPoly":
        v = value if isinstance(value, FieldElem) else ctx.elem(value)
        return cls(nvars, {(0,) * nvars: v}, ctx)

    @classmethod
    def variable(cls, index: int, nvars: int, ctx: FieldContext) -> "MultiPoly":
        """The variable c{index+1} (zero-based index)."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range")
        expts = tuple(1 if j == index else 0 for j in range(nvars))
        return cls(nvars, {expts: ctx.one}, ctx)

    @classmethod
    def monomial(cls, expts: Expts, coef: Scalarish,
                 ctx: FieldContext) -> "MultiPoly":
        v = coef if isinstance(coef, FieldElem) else ctx.elem(coef)
        return cls(len(expts), {tuple(expts): v}, ctx)

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return self.total_degree() <= 0

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, index: int) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(e[index] for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def leading_term(self) -> tuple[Expts, FieldElem]:
        """The graded-lex greatest term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        expts = max(self.terms, key=_grlex_key)
        return expts, self.terms[expts]

    def sorted_terms(self) -> list[tuple[Expts, FieldElem]]:
        """Terms in graded-lex descending order."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]),
                      reverse=True)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, tuple(self.sorted_terms())))

    def __repr__(self) -> str:
        return f"MultiPoly({format_poly(self)!r})"

    def _check_compatible(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"polynomials in {self.nvars} and {other.nvars} variables")
        if self.ctx.d != other.ctx.d:
            raise ValueError("polynomials over different fields")

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for expts, coef in other.terms.items():
            cur = terms.get(expts)
            if cur is None:
                terms[expts] = coef
            else:
                s = cur + coef
                if s:
                    terms[expts] = s
                else:
                    del terms[expts]
        return MultiPoly(self.nvars, terms, self.ctx)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars,
                         {e: -c for e, c in self.terms.items()}, self.ctx)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: object) -> "MultiPoly":
        if isinstance(other, (FieldElem, int, Fraction)):
            s = other if isinstance(other, FieldElem) else self.ctx.elem(other)
            if not s:
                return MultiPoly.zero(self.nvars, self.ctx)
            return MultiPoly(self.nvars,
                             {e: c * s for e, c in self.terms.items()},
                             self.ctx)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        terms: dict[Expts, FieldElem] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expts = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                cur = terms.get(expts)
                if cur is None:
                    if prod:
                        terms[expts] = prod
                else:
                    s = cur + prod
                    if s:
                        terms[expts] = s
                    else:
                        del terms[expts]
        return MultiPoly(self.nvars, terms, self.ctx)

    def __rmul__(self, other: object) -> "MultiPoly":
        if isinstance(other, (FieldElem, int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = MultiPoly.const(self.nvars, 1, self.ctx)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def eval(self, point: Sequence[Scalarish]) -> FieldElem:
        if len(point) != self.nvars:
            raise ValueError(
                f"point of length {len(point)} for {self.nvars} variables")
        pt = [x if isinstance(x, FieldElem) else self.ctx.elem(x)
              for x in point]
        total = self.ctx.zero
        for expts, coef in self.terms.items():
            term = coef
            for x, e in zip(pt, expts):
                if e:
                    term = term * x ** e
            total = total + term
        return total

    def partial_derivative(self, index: int) -> "MultiPoly":
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range")
        terms: dict[Expts, FieldElem] = {}
        for expts, coef in self.terms.items():
            e = expts[index]
            if e:
                lowered = tuple(v - 1 if j == index else v
                                for j, v in enumerate(expts))
                terms[lowered] = coef * e
        return MultiPoly(self.nvars, terms, self.ctx)


# -- division -------------------------------------------------------------------


def exact_quotient(divisor: MultiPoly,
                   dividend: MultiPoly) -> Optional[MultiPoly]:
    """dividend / divisor when the division is exact, else None.

    Division by a single polynomial leaves a unique remainder, so the first
    leading term the divisor's leading monomial cannot reach settles the
    question negatively.
    """
    if divisor.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    divisor._check_compatible(dividend)
    if dividend.is_zero():
        return MultiPoly.zero(dividend.nvars, dividend.ctx)
    lead_e, lead_c = divisor.leading_term()
    lead_c_inv = lead_c.inv()
    quotient: dict[Expts, FieldElem] = {}
    rem = dividend
    while rem:
        re, rc = rem.leading_term()
        qe = tuple(a - b for a, b in zip(re, lead_e))
        if any(x < 0 for x in qe):
            return None
        qc = rc * lead_c_inv
        quotient[qe] = qc
        rem = rem - divisor * MultiPoly.monomial(qe, qc, rem.ctx)
    return MultiPoly(dividend.nvars, quotient, dividend.ctx)


def divides(divisor: MultiPoly, dividend: MultiPoly) -> bool:
    """True iff dividend = divisor * h for some polynomial h over K."""
    return exact_quotient(divisor, dividend) is not None


def _must_divide(divisor: MultiPoly, dividend: MultiPoly) -> MultiPoly:
    q = exact_quotient(divisor, dividend)
    if q is None:
        raise ArithmeticError("division expected to be exact was not")
    return q


# -- GCD -------------------------------------------------------------------------
#
# Univariate view in a main variable: a polynomial becomes a coefficient list
# indexed by the main-variable degree, each coefficient a MultiPoly with the
# main variable absent.  Contents split off recursively; the primitive parts
# go through a subresultant remainder sequence, whose interior divisions are
# exact by the subresultant theorem.

_UniList = list[MultiPoly]


def _to_univar(p: MultiPoly, index: int) -> _UniList:
    deg = p.degree_in(index)
    coeffs: list[dict[Expts, FieldElem]] = [{} for _ in range(deg + 1)]
    for expts, coef in p.terms.items():
        e = expts[index]
        rest = tuple(0 if j == index else v for j, v in enumerate(expts))
        coeffs[e][rest] = coef
    return [MultiPoly(p.nvars, t, p.ctx) for t in coeffs]


def _from_univar(coeffs: _UniList, index: int, nvars: int,
                 ctx: FieldContext) -> MultiPoly:
    total = MultiPoly.zero(nvars, ctx)
    for e, c in enumerate(coeffs):
        if c.is_zero():
            continue
        shift = tuple(e if j == index else 0 for j in range(nvars))
        total = total + c * MultiPoly.monomial(shift, 1, ctx)
    return total


def _trim(coeffs: _UniList) -> _UniList:
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def _content(coeffs: Iterable[MultiPoly], nvars: int,
             ctx: FieldContext) -> MultiPoly:
    acc: Optional[MultiPoly] = None
    for c in coeffs:
        if c.is_zero():
            continue
        acc = c if acc is None else gcd(acc, c)
        if acc.is_constant():
            break
    if acc is None:
        raise ValueError("content of the zero polynomial")
    return canonicalize(acc)


def _pseudo_rem(a: _UniList, b: _UniList) -> _UniList:
    """lc(b)^(deg a - deg b + 1) * a reduced modulo b, all divisions avoided."""
    da, db = len(a) - 1, len(b) - 1
    lead = b[db]
    rem = list(a)
    steps = da - db + 1
    while rem and len(rem) - 1 >= db:
        k = len(rem) - 1 - db
        top = rem[-1]
        rem = [c * lead for c in rem[:-1]]
        for j, bc in enumerate(b[:-1]):
            rem[j + k] = rem[j + k] - top * bc
        _trim(rem)
        steps -= 1
    if steps > 0 and rem:
        factor = lead ** steps
        rem = [c * factor for c in rem]
    return rem


def _subresultant_prs_gcd(a: _UniList, b: _UniList, index: int,
                          nvars: int, ctx: FieldContext) -> MultiPoly:
    """GCD of two primitive univariate-view polynomials, returned primitive."""
    if len(a) < len(b):
        a, b = b, a
    one = MultiPoly.const(nvars, 1, ctx)
    g = one
    h = one
    while True:
        delta = (len(a) - 1) - (len(b) - 1)
        rem = _pseudo_rem(a, b)
        if not rem:
            break
        if len(rem) == 1:
            return one
        divisor = g * h ** delta
        a = b
        b = [_must_divide(divisor, c) for c in rem]
        g = a[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = _must_divide(h ** (delta - 1), g ** delta)
    result = _from_univar(b, index, nvars, ctx)
    cont = _content(b, nvars, ctx)
    return _must_divide(cont, result)


def gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """A greatest common divisor, canonicalized to leading coefficient 1."""
    p._check_compatible(q)
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd of two zero polynomials")
    if p.is_zero():
        return canonicalize(q)
    if q.is_zero():
        return canonicalize(p)
    one = MultiPoly.const(p.nvars, 1, p.ctx)
    if p.is_constant() or q.is_constant():
        return one
    index = next(j for j in range(p.nvars) if p.degree_in(j) > 0)
    if q.degree_in(index) == 0:
        # the main variable is absent from q, so only p's content matters
        cont_p = _content(_to_univar(p, index), p.nvars, p.ctx)
        return gcd(cont_p, q)
    up, uq = _to_univar(p, index), _to_univar(q, index)
    cont_p = _content(up, p.nvars, p.ctx)
    cont_q = _content(uq, p.nvars, p.ctx)
    cont = gcd(cont_p, cont_q)
    pp_p = [_must_divide(cont_p, c) for c in up]
    pp_q = [_must_divide(cont_q, c) for c in uq]
    pp_gcd = _subresultant_prs_gcd(pp_p, pp_q, index, p.nvars, p.ctx)
    return canonicalize(cont * pp_gcd)


def squarefree_part(p: MultiPoly) -> MultiPoly:
    """The product of the distinct irreducible factors of p, canonicalized.

    Characteristic-zero recipe: p / gcd(p, d1 p, ..., dk p) over the nonzero
    partial derivatives, in one round.  Write p = c * f1^e1 * ... * fr^er
    with distinct irreducible fi.  Each fi^(ei-1) divides p and every dj p.
    Take j with dj fi != 0 (fi is not constant); then
    dj p = ei * (dj fi) * fi^(ei-1) * (the rest) + fi^ei * (...), and fi
    divides neither ei * dj fi (lower degree in cj, and ei != 0 in
    characteristic 0) nor the other factors, so fi^ei does not divide dj p.
    Hence the gcd is f1^(e1-1) * ... * fr^(er-1) up to a unit, and the
    quotient f1 * ... * fr is already squarefree.
    """
    if p.is_zero():
        raise ValueError("squarefree part of the zero polynomial")
    p = canonicalize(p)
    g = p
    for j in range(p.nvars):
        if g.is_constant():
            return p
        pd = p.partial_derivative(j)
        if not pd.is_zero():
            g = gcd(g, pd)
    if g.is_constant():
        return p
    return canonicalize(_must_divide(g, p))


def canonicalize(p: MultiPoly) -> MultiPoly:
    """Scale so the graded-lex leading coefficient is 1."""
    if p.is_zero():
        raise ValueError("cannot canonicalize the zero polynomial")
    _, lead = p.leading_term()
    if lead == 1:
        return p
    return p * lead.inv()


# -- text form --------------------------------------------------------------------
#
# Sum of graded-lex descending terms; each term is '*'-joined factors: an
# optional coefficient and variables "c3" or "c3^2".  A coefficient that is a
# single component of K prints bare with its sign pulled into the separator
# ("-2*c1", "r*i*c2"); a compound coefficient prints parenthesized
# ("(1/2-1/3*r)*c1*c3").


def format_poly(p: MultiPoly) -> str:
    if p.is_zero():
        return "0"
    chunks: list[str] = []
    for expts, coef in p.sorted_terms():
        vars_part = "*".join(
            f"c{j + 1}" if e == 1 else f"c{j + 1}^{e}"
            for j, e in enumerate(expts) if e)
        components = [x for x in (coef.a, coef.b, coef.c, coef.e) if x]
        if len(components) > 1:
            sign = "+"
            coef_part = f"({format_scalar(coef)})"
        else:
            comp = components[0]
            sign = "-" if comp < 0 else "+"
            mag = format_scalar(coef if comp > 0 else -coef)
            coef_part = "" if mag == "1" else mag
        body = "*".join(x for x in (coef_part, vars_part) if x) or "1"
        if not chunks:
            chunks.append(body if sign == "+" else f"-{body}")
        else:
            chunks.append(f"{sign}{body}")
    return "".join(chunks)


def parse_poly(text: str, nvars: int, ctx: FieldContext) -> MultiPoly:
    """Parse the polynomial text form; inverse of format_poly."""
    return _PolyParser(text, nvars, ctx).parse()


class _PolyParser(_Parser):
    def __init__(self, text: str, nvars: int, ctx: FieldContext):
        super().__init__(text)
        self.nvars = nvars
        self.ctx = ctx

    def zero(self) -> MultiPoly:
        return MultiPoly.zero(self.nvars, self.ctx)

    def term(self, sign: int) -> MultiPoly:
        coef = self.ctx.elem(sign)
        expts = [0] * self.nvars
        while True:
            ch = self.peek()
            if ch == "(":
                self.pos += 1
                coef = coef * self.paren_scalar()
            elif ch == "c":
                j, e = self.var_power()
                expts[j] += e
            elif self.at_digit():
                coef = coef * self.rational()
            elif ch == "i":
                self.pos += 1
                coef = coef * self.ctx.i
            elif ch == "r":
                self.pos += 1
                coef = coef * self.ctx.sqrt_d
            else:
                raise self.error("expected a factor")
            if self.peek() != "*":
                return MultiPoly.monomial(tuple(expts), coef, self.ctx)
            self.pos += 1

    def paren_scalar(self) -> FieldElem:
        depth = 1
        start = self.pos
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    inner = self.text[start:self.pos]
                    self.pos += 1
                    try:
                        return parse_scalar(inner, self.ctx)
                    except ParseError as exc:
                        raise ParseError(f"bad scalar in parentheses: {exc}",
                                         self.text, start) from None
            self.pos += 1
        raise self.error("unclosed parenthesis")

    def var_power(self) -> tuple[int, int]:
        self.pos += 1  # past 'c'
        start = self.pos
        if not "0" <= self.text[start:start + 1] <= "9":
            raise self.error("expected a variable index after 'c'")
        j = self.integer()
        if not 1 <= j <= self.nvars:
            self.pos = start
            raise self.error(
                f"variable c{j} out of range for {self.nvars} variables")
        e = 1
        if self.peek() == "^":
            self.pos += 1
            if not self.at_digit():
                raise self.error("expected an exponent after '^'")
            e = self.integer()
        return j - 1, e
