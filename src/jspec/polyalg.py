"""Sparse multivariate polynomials over K with exact GCD and squarefree part.

Polynomials in c1..ck with K-scalar coefficients, stored as a map from
exponent vectors to nonzero coefficients.  The term order everywhere is
graded lexicographic, which fixes a canonical leading term and hence a
canonical monic scaling.  GCD works by recursion on variables: split off the
content, the GCD of the coefficients in the main variable, then run a
subresultant polynomial remainder sequence in the main variable on whole
polynomials.  When only the main variable occurs, the content is a unit of
K and is never computed.  The squarefree part follows by dividing out the
GCD of a polynomial with its partial derivatives.  All division steps are
exact and checked.  In one variable every leading coefficient, shift and
divisor of the remainder sequence is a monomial, most of them constants:
`MultiPoly.__mul__` takes a monomial factor term by term and a constant
one with no new exponent vectors, and `exact_quotient` divides by a
monomial term by term.

Most polynomials whose squarefree part is asked for are already squarefree,
so `squarefree_part` first tries a certificate: restricted to a fixed line
a + t*b along which p keeps its degree, p becomes q(t) in K[t], and
gcd(q, q') = 1 proves p squarefree, because a square factor f^2 of p
restricts to a square of the same degree.  Only a polynomial the
certificate cannot prove goes through the multivariate GCDs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from jspec.scalar import (
    FieldContext,
    FieldElem,
    ParseError,
    Scalarish,
    _Parser,
    _as_elem,
    _canonical,
    _integral,
    _sub_mul,
    format_scalar,
    parse_scalar,
)

Expts = tuple[int, ...]


def _grlex_key(expts: Expts) -> tuple[int, Expts]:
    return (sum(expts), expts)


class MultiPoly:
    """A polynomial in nvars variables over K, immutable and canonical.

    Only nonzero coefficients are stored; two equal polynomials have equal
    term maps.  Every coefficient, scalar factor and evaluation point from
    outside enters K through `scalar._as_elem`.
    """

    __slots__ = ("nvars", "terms", "ctx")

    def __init__(self, nvars: int, terms: dict[Expts, Scalarish],
                 ctx: FieldContext):
        clean: dict[Expts, FieldElem] = {}
        for expts, coef in terms.items():
            if len(expts) != nvars:
                raise ValueError(
                    f"exponent vector {expts} in a {nvars}-variable polynomial")
            if any(e < 0 for e in expts):
                raise ValueError(f"negative exponent in {expts}")
            coef = _as_elem(coef, ctx)
            if coef:
                clean[expts] = coef
        self.nvars = nvars
        self.terms = clean
        self.ctx = ctx

    @classmethod
    def _of(cls, nvars: int, terms: dict[Expts, FieldElem],
            ctx: FieldContext) -> "MultiPoly":
        """A polynomial from a term map, with no check, taking ownership.

        Only for terms built here from checked polynomials: every exponent
        vector has nvars nonnegative entries and no coefficient is zero.
        Outside input goes through __init__.
        """
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        p.ctx = ctx
        return p

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, ctx: FieldContext) -> "MultiPoly":
        return cls(nvars, {}, ctx)

    @classmethod
    def const(cls, nvars: int, value: Scalarish,
              ctx: FieldContext) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value}, ctx)

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
        return cls(len(expts), {tuple(expts): coef}, ctx)

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
        return MultiPoly._of(self.nvars, terms, self.ctx)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._of(self.nvars,
                             {e: -c for e, c in self.terms.items()}, self.ctx)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: object) -> "MultiPoly":
        if isinstance(other, (FieldElem, int, Fraction)):
            s = _as_elem(other, self.ctx)
            if not s:
                return MultiPoly.zero(self.nvars, self.ctx)
            return MultiPoly._of(self.nvars,
                                 {e: c * s for e, c in self.terms.items()},
                                 self.ctx)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        if len(other.terms) == 1 or len(self.terms) == 1:
            # a monomial factor shifts distinct exponents to distinct ones,
            # and a product of nonzero scalars is nonzero
            many, one = (self, other) if len(other.terms) == 1 \
                else (other, self)
            (e2, c2), = one.terms.items()
            if not any(e2):
                # a constant factor keeps every exponent vector
                return MultiPoly._of(
                    self.nvars, {e1: c1 * c2 for e1, c1 in many.terms.items()},
                    self.ctx)
            return MultiPoly._of(
                self.nvars,
                {tuple(a + b for a, b in zip(e1, e2)): c1 * c2
                 for e1, c1 in many.terms.items()}, self.ctx)
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
        return MultiPoly._of(self.nvars, terms, self.ctx)

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
        pt = [_as_elem(x, self.ctx) for x in point]
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
        return MultiPoly._of(self.nvars, terms, self.ctx)


# -- division -------------------------------------------------------------------


def exact_quotient(divisor: MultiPoly,
                   dividend: MultiPoly) -> Optional[MultiPoly]:
    """dividend / divisor when the division is exact, else None.

    Division by a single polynomial leaves a unique remainder, so the first
    leading term the divisor's leading monomial cannot reach settles the
    question negatively.  A monomial divisor divides term by term.  Any
    other divisor runs the long division on a mutable copy of the
    dividend's term map: each step cancels the remainder's leading term
    exactly, so that term is dropped, and folds each other divisor term in
    with one `scalar._sub_mul`, dropping a coefficient that cancels to 0.
    """
    if divisor.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    divisor._check_compatible(dividend)
    if dividend.is_zero():
        return MultiPoly.zero(dividend.nvars, dividend.ctx)
    lead_e, lead_c = divisor.leading_term()
    lead_c_inv = lead_c.inv()
    quotient: dict[Expts, FieldElem] = {}
    if len(divisor.terms) == 1:
        for expts, coef in dividend.terms.items():
            qe = tuple(a - b for a, b in zip(expts, lead_e))
            if any(x < 0 for x in qe):
                return None
            quotient[qe] = coef * lead_c_inv
        return MultiPoly._of(dividend.nvars, quotient, dividend.ctx)
    rest = [(e, c) for e, c in divisor.terms.items() if e != lead_e]
    zero = dividend.ctx.zero
    rem = dict(dividend.terms)
    while rem:
        re = max(rem, key=_grlex_key)
        qe = tuple(a - b for a, b in zip(re, lead_e))
        if any(x < 0 for x in qe):
            return None
        qc = rem.pop(re) * lead_c_inv
        quotient[qe] = qc
        for de, dc in rest:
            expts = tuple(a + b for a, b in zip(de, qe))
            s = _sub_mul(rem.get(expts, zero), qc, dc)
            if s:
                rem[expts] = s
            else:
                del rem[expts]
    return MultiPoly._of(dividend.nvars, quotient, dividend.ctx)


def divides(divisor: MultiPoly, dividend: MultiPoly) -> bool:
    """True iff dividend = divisor * h for some polynomial h over K."""
    return exact_quotient(divisor, dividend) is not None


def _must_divide(divisor: MultiPoly, dividend: MultiPoly) -> MultiPoly:
    # Contents are often the canonical 1, and so is the first divisor
    # g * h^delta of the remainder sequence.
    if divisor.terms == {(0,) * divisor.nvars: divisor.ctx.one}:
        return dividend
    q = exact_quotient(divisor, dividend)
    if q is None:
        raise ArithmeticError("division expected to be exact was not")
    return q


# -- GCD -------------------------------------------------------------------------
#
# Recursion on variables.  The main variable x is the first one p involves,
# and the coefficients of p in x are polynomials in the other variables.
# Their GCD, the content, splits off recursively; the primitive parts go
# through a subresultant remainder sequence in x on whole polynomials, whose
# divisions are exact by the subresultant theorem.


def _to_univar(p: MultiPoly, index: int) -> list[MultiPoly]:
    """The coefficients of p in the variable index, low degree first."""
    deg = p.degree_in(index)
    coeffs: list[dict[Expts, FieldElem]] = [{} for _ in range(deg + 1)]
    for expts, coef in p.terms.items():
        e = expts[index]
        rest = tuple(0 if j == index else v for j, v in enumerate(expts))
        coeffs[e][rest] = coef
    return [MultiPoly._of(p.nvars, t, p.ctx) for t in coeffs]


def _split(p: MultiPoly, index: int, e: int,
           shift: int = 0) -> tuple[MultiPoly, MultiPoly]:
    """(t * x^shift, r) with p = t * x^e + r, for x the variable index.

    e is the degree of p in x, so t is the leading coefficient of p in x
    and r has degree below e in x.
    """
    top: dict[Expts, FieldElem] = {}
    rest: dict[Expts, FieldElem] = {}
    for expts, coef in p.terms.items():
        if expts[index] == e:
            top[expts[:index] + (shift,) + expts[index + 1:]] = coef
        else:
            rest[expts] = coef
    return (MultiPoly._of(p.nvars, top, p.ctx),
            MultiPoly._of(p.nvars, rest, p.ctx))


def _content(p: MultiPoly, index: int) -> MultiPoly:
    """The canonical GCD of p's coefficients in the variable index."""
    acc: Optional[MultiPoly] = None
    for c in _to_univar(p, index):
        if c.is_zero():
            continue
        acc = c if acc is None else gcd(acc, c)
        if acc.is_constant():
            break
    if acc is None:
        raise ValueError("content of the zero polynomial")
    return canonicalize(acc)


def _pseudo_remainder(a: MultiPoly, b: MultiPoly, index: int) -> MultiPoly:
    """lc(b)^(deg a - deg b + 1) * a reduced modulo b in the variable index.

    Each step cancels the top coefficient t of the remainder r with no
    division: r * lc(b) - b * t * x^(deg r - deg b).  The top terms of the
    two products cancel, so they are never formed: only the lower parts of
    r and b are multiplied.
    """
    da, db = a.degree_in(index), b.degree_in(index)
    lead, b_rest = _split(b, index, db)
    rem, dr = a, da
    steps = da - db + 1
    while rem and dr >= db:
        top, rest = _split(rem, index, dr, dr - db)
        rem = rest * lead - b_rest * top
        dr = rem.degree_in(index)
        steps -= 1
    if steps > 0 and rem:
        rem = rem * lead ** steps
    return rem


def _subresultant_prs_gcd(a: MultiPoly, b: MultiPoly,
                          index: int) -> MultiPoly:
    """The last nonzero remainder of the subresultant PRS of a and b in x.

    x is the variable index, and a and b have positive degree in x and are
    primitive: their coefficients in x have no common factor.  gcd(a, b) is
    the primitive part of the result, which is the constant 1 when the GCD
    has degree 0 in x.  The sequence (Collins 1967; Brown-Traub 1971) runs
    on whole polynomials.  Each step takes the pseudo-remainder r of a by
    b, with delta = deg a - deg b, and replaces (a, b) by
    (b, r / (g * h^delta)); then g becomes the leading coefficient of the
    new a in x and h becomes g^delta / h^(delta - 1), both starting at 1.
    Each division is one `exact_quotient` of a whole polynomial and is
    exact by the subresultant theorem, so integral input keeps every
    remainder integral.
    """
    da, db = a.degree_in(index), b.degree_in(index)
    if da < db:
        a, b, da, db = b, a, db, da
    one = MultiPoly.const(a.nvars, 1, a.ctx)
    g = h = one
    while True:
        delta = da - db
        rem = _pseudo_remainder(a, b, index)
        if not rem:
            return b
        dr = rem.degree_in(index)
        if dr == 0:
            return one
        divisor = g * h ** delta
        a, da = b, db
        b, db = _must_divide(divisor, rem), dr
        g = _split(a, index, da)[0]
        if delta == 1:
            h = g
        elif delta > 1:
            h = _must_divide(h ** (delta - 1), g ** delta)


def gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """A greatest common divisor, canonicalized to leading coefficient 1."""
    p._check_compatible(q)
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd of two zero polynomials")
    if p.is_zero():
        return canonicalize(q)
    if q.is_zero():
        return canonicalize(p)
    if p.is_constant() or q.is_constant():
        return MultiPoly.const(p.nvars, 1, p.ctx)
    index = next(j for j in range(p.nvars) if p.degree_in(j) > 0)
    if q.degree_in(index) == 0:
        # the main variable is absent from q, so only p's content matters
        return gcd(_content(p, index), q)
    if all(sum(e) == e[index] for e in p.terms) and \
            all(sum(e) == e[index] for e in q.terms):
        # only the main variable occurs: the contents are nonzero scalars,
        # units of K, and so is the content of the remainder
        return canonicalize(_subresultant_prs_gcd(p, q, index))
    cont_p, cont_q = _content(p, index), _content(q, index)
    last = _subresultant_prs_gcd(_must_divide(cont_p, p),
                                 _must_divide(cont_q, q), index)
    pp = _must_divide(_content(last, index), last)
    return canonicalize(gcd(cont_p, cont_q) * pp)


def squarefree_part(p: MultiPoly) -> MultiPoly:
    """The product of the distinct irreducible factors of p, canonicalized.

    Most pencils of mixed-rank tuples are already squarefree, so a
    certificate on a line runs first and returns canonicalize(p) when it
    proves p squarefree; see `_certified_squarefree`.  Otherwise
    `_squarefree_part_by_gcds` decides.  For squarefree p that path returns
    canonicalize(p) as well, so the certificate changes no output.
    """
    if p.is_zero():
        raise ValueError("squarefree part of the zero polynomial")
    p = canonicalize(p)
    if _certified_squarefree(p):
        return p
    return _squarefree_part_by_gcds(p)


def _squarefree_part_by_gcds(p: MultiPoly) -> MultiPoly:
    """The squarefree part of p by multivariate GCDs with its derivatives.

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


def _certificate_lines(nvars: int) -> tuple[tuple[Expts, Expts], ...]:
    """The fixed lines a + t*b of the squarefreeness certificate.

    Two integer lines: a = (0, 1, 2, ...), b = (1, 1, 1, ...) and
    a = (0, 1, 4, 9, ...), b = (1, 2, 3, ...).  The entries of b are
    positive: a nonzero pencil has nonnegative real coefficients, so its
    value at b is nonzero and it keeps its degree on both lines.  On each
    line the ratios a_l / b_l are distinct, so the line meets the
    hyperplanes c_l = 0 at distinct points and c1 * ... * ck restricts to
    a squarefree q.  For nvars >= 3 the two planes span(a, b) differ, so a
    homogeneous p is tested on two different lines of projective space.
    """
    return ((tuple(range(nvars)), (1,) * nvars),
            (tuple(l * l for l in range(nvars)), tuple(range(1, nvars + 1))))


def _certified_squarefree(p: MultiPoly) -> bool:
    """True only if p is squarefree, proved on one of the fixed lines.

    For a line a + t*b, let q(t) = D * p(a + t*b), with D the lcm of the
    denominators of p's coefficients.  A line counts only if deg q = deg p,
    that is, the top-degree form p_top of p does not vanish at b.  Then a
    constant gcd(q, q') proves p squarefree.  Suppose p = f^2 * g with f
    nonconstant.  Then f(a + t*b)^2 divides q.  Its degree in t is deg f,
    because f_top(b) is a factor of p_top(b) = f_top(b)^2 * g_top(b) != 0.
    So q has a repeated root and gcd(q, q') is not constant.

    A False answer proves nothing: a squarefree p may have a repeated root
    on both lines, or p_top may vanish at both b.
    """
    if p.is_constant():
        return True
    degree = p.total_degree()
    for a, b in _certificate_lines(p.nvars):
        q = _restrict_to_line(p, a, b)
        if q.total_degree() == degree and \
                gcd(q, q.partial_derivative(0)).is_constant():
            return True
    return False


def _restrict_to_line(p: MultiPoly, a: Expts, b: Expts) -> MultiPoly:
    """D * p(a + t*b) in the one variable t, over Z[i, sqrt d].

    D is the lcm of the denominators of p's coefficients.  Each term
    coef * c^e contributes coef * D times the integer polynomial
    prod_l (a_l + b_l t)^(e_l), so the expansion runs on plain ints.  Its
    coefficients lie in Z[i, sqrt d], so each nonzero one is already in
    canonical form over the denominator 1 and is built as it stands.
    """
    coefs = _integral(list(p.terms.values()))[1]
    # powers[l][e]: the coefficients of (a_l + b_l t)^e, low degree first
    powers: list[list[list[int]]] = [[[1]] for _ in a]
    sums = [[0, 0, 0, 0] for _ in range(p.total_degree() + 1)]
    for expts, (ca, cb, cc, ce) in zip(p.terms, coefs):
        line = [1]
        for l, e in enumerate(expts):
            if e:
                pw = powers[l]
                while len(pw) <= e:
                    pw.append(_int_poly_mul(pw[-1], [a[l], b[l]]))
                line = _int_poly_mul(line, pw[e])
        for m, x in enumerate(line):
            if x:
                s = sums[m]
                s[0] += ca * x
                s[1] += cb * x
                s[2] += cc * x
                s[3] += ce * x
    ctx = p.ctx
    return MultiPoly._of(1, {(m,): _canonical(*s, 1, ctx)
                             for m, s in enumerate(sums) if any(s)}, ctx)


def _int_poly_mul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                out[i + j] += x * y
    return out


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
        components = [x for x in coef.integer_form()[:4] if x]
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
