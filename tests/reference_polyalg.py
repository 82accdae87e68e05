"""Reference GCD: the subresultant PRS on the list-of-coefficients view.

`gcd` is the GCD jspec computed before its remainder sequence moved to whole
polynomials: a polynomial becomes a list of coefficients indexed by the
degree in the main variable, each coefficient a `MultiPoly` in the other
variables.  Contents split off recursively, every coefficient is divided by
its content, and the primitive parts go through a subresultant remainder
sequence (Collins 1967; Brown-Traub 1971) coefficient by coefficient.  It is
kept as an oracle for `polyalg.gcd` in `tests/test_polyalg.py` and is not
used by the package itself.  It recurses into itself, never into
`polyalg.gcd`.
"""

from __future__ import annotations

from typing import Iterable, Optional

from jspec.polyalg import MultiPoly, _to_univar, canonicalize, exact_quotient
from jspec.scalar import FieldContext

_UniList = list[MultiPoly]


def _must_divide(divisor: MultiPoly, dividend: MultiPoly) -> MultiPoly:
    q = exact_quotient(divisor, dividend)
    if q is None:
        raise ArithmeticError("division expected to be exact was not")
    return q


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
