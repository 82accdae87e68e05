"""Polynomial ring laws, exact division, GCD and squarefree parts."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_polyalg
from jspec import polyalg
from jspec.polyalg import (
    MultiPoly,
    _certificate_lines,
    _certified_squarefree,
    _squarefree_part_by_gcds,
    canonicalize,
    divides,
    exact_quotient,
    format_poly,
    gcd,
    parse_poly,
    squarefree_part,
)
from jspec.scalar import FieldContext, ParseError

K = FieldContext(2)
COEFS = [K.one, -K.one, K.elem(2), K.elem(-2), K.elem(Fraction(1, 2)),
         K.i, -K.i, K.sqrt_d, 1 + K.i, 1 - K.sqrt_d]


def c(index, nvars=3):
    return MultiPoly.variable(index, nvars, K)


def const(value, nvars=3):
    return MultiPoly.const(nvars, value, K)


def random_poly(rng, nvars=3, max_terms=4, max_deg=2):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        expts = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[expts] = rng.choice(COEFS)
    return MultiPoly(nvars, terms, K)


def random_linear(rng, nvars=3, homogeneous=False):
    while True:
        terms = {}
        for j in range(nvars):
            coef = rng.choice(COEFS + [K.zero, K.zero])
            if coef:
                expts = tuple(1 if m == j else 0 for m in range(nvars))
                terms[expts] = coef
        if not homogeneous and rng.random() < 0.5:
            terms[(0,) * nvars] = rng.choice(COEFS)
        p = MultiPoly(nvars, terms, K)
        if p.total_degree() == 1:
            return p


def proportional(p, q):
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    return canonicalize(p) == canonicalize(q)


# -- ring laws ---------------------------------------------------------------


def test_ring_axioms_and_eval_homomorphism():
    rng = random.Random(3001)
    for _ in range(500):
        p, q, w = (random_poly(rng) for _ in range(3))
        point = [rng.choice(COEFS) for _ in range(3)]
        assert (p + q) * w == p * w + q * w
        assert p * q == q * p
        assert (p * q) * w == p * (q * w)
        assert p + MultiPoly.zero(3, K) == p
        assert p * const(1) == p
        pv, qv = p.eval(point), q.eval(point)
        assert (p + q).eval(point) == pv + qv
        assert (p * q).eval(point) == pv * qv


def test_fixed_arithmetic():
    c1, c2, c3 = c(0), c(1), c(2)
    square = (c1 + c2) ** 2
    assert square == c1 * c1 + 2 * (c1 * c2) + c2 * c2
    assert (c1 * c2 * c3).eval([K.one, K.one, K.elem(-2)]) == -2
    assert (c1 ** 2 * c2).partial_derivative(0) == 2 * (c1 * c2)
    assert (c1 ** 2 * c2).partial_derivative(2).is_zero()


def test_derivative_product_rule():
    rng = random.Random(3002)
    for _ in range(100):
        p, q = random_poly(rng), random_poly(rng)
        for j in range(3):
            lhs = (p * q).partial_derivative(j)
            rhs = p.partial_derivative(j) * q + p * q.partial_derivative(j)
            assert lhs == rhs


def test_homogeneity_and_degrees():
    c1, c2 = c(0), c(1)
    p = c1 ** 2 * c2 + c1 * c2 ** 2
    assert p.is_homogeneous() and p.total_degree() == 3
    assert not (p + c1).is_homogeneous()
    assert p.degree_in(0) == 2 and p.degree_in(2) == 0
    assert MultiPoly.zero(3, K).total_degree() == -1


def test_leading_term_is_graded_lex():
    p = 3 * c(1) + 6 * c(0)
    expts, coef = p.leading_term()
    assert expts == (1, 0, 0) and coef == 6
    q = c(1) ** 3 + c(0) ** 2
    assert q.leading_term()[0] == (0, 3, 0)


def test_nvars_mismatch_rejected():
    with pytest.raises(ValueError):
        c(0, nvars=2) + c(0, nvars=3)
    with pytest.raises(ValueError):
        c(0).eval([K.one, K.one])
    with pytest.raises(ValueError):
        MultiPoly(2, {(1, 0, 0): K.one}, K)


def test_derived_polynomials_equal_checked_ones():
    """Results built without the term check equal the checked constructor's."""
    rng = random.Random(3003)
    for _ in range(60):
        p, q = random_poly(rng), random_poly(rng)
        results = [p + q, p + (-p), -p, p - q, p * K.i, p * 3,
                   p * Fraction(-1, 2), p * q, p * MultiPoly.zero(3, K),
                   p * const(1 + K.i), const(Fraction(-1, 2)) * p]
        assert results[-2] == p * (1 + K.i)
        assert results[-1] == p * Fraction(-1, 2)
        results += [p.partial_derivative(j) for j in range(3)]
        results += [polyalg._to_univar(p * q, j)[e]
                    for j in range(3) for e in range((p * q).degree_in(j) + 1)]
        if q:
            results.append(exact_quotient(q, p * q))
        for r in results:
            assert r == MultiPoly(r.nvars, dict(r.terms), r.ctx)
            assert all(r.terms.values())
            assert all(len(e) == r.nvars and min(e) >= 0 for e in r.terms)


# -- division ------------------------------------------------------------------


def test_divides_fixed():
    c1, c2 = c(0), c(1)
    assert exact_quotient(c1, c1 * c2) == c2
    assert exact_quotient(c1 + c2, c1 ** 2 - c2 ** 2) == c1 - c2
    assert exact_quotient(c1, c2) is None
    assert not divides(c1, c2)
    assert divides(c1 + c2, c1 ** 2 - c2 ** 2)
    # the second step cancels c2^2 while c1*c3 and c2*c3 remain
    product = (c1 + c2) * (c1 - c2 + c(2))
    assert exact_quotient(c1 + c2, product) == c1 - c2 + c(2)
    # three steps succeed before c3^2, which c1 does not divide, leads
    assert exact_quotient(c1 + c2, product + c(2) ** 2) is None
    with pytest.raises(ZeroDivisionError):
        exact_quotient(MultiPoly.zero(3, K), c1)


def test_divides_constructed_products():
    rng = random.Random(3003)
    for _ in range(100):
        f, g = random_linear(rng), random_linear(rng)
        h = random_poly(rng, max_terms=3)
        if h.is_zero():
            continue
        product = f * g * h
        assert exact_quotient(f, product) == g * h
        assert exact_quotient(f * g, product) == h
        assert exact_quotient(product, product) == const(1)
        if not proportional(f, g):
            assert not divides(f * f, f * g)


# -- gcd -------------------------------------------------------------------------


def test_gcd_fixed():
    c1, c2 = c(0), c(1)
    assert gcd(c1 ** 2 * c2, c1 * c2 ** 2) == c1 * c2
    assert gcd(c1 + c2, c1 - c2) == const(1)
    p = (1 + K.i) * (c1 + c2) * c1
    assert gcd(p, MultiPoly.zero(3, K)) == canonicalize(p)
    assert gcd(MultiPoly.zero(3, K), p) == canonicalize(p)
    with pytest.raises(ValueError):
        gcd(MultiPoly.zero(3, K), MultiPoly.zero(3, K))
    assert gcd(const(2), c1) == const(1)
    assert gcd(c1 * c2, c2) == c2


def test_gcd_of_constructed_common_factor():
    rng = random.Random(3004)
    for _ in range(100):
        u = random_linear(rng)
        v = random_linear(rng)
        if proportional(u, v):
            continue
        w = random_linear(rng) * random_linear(rng)
        left, right = u * w, v * w
        got = gcd(left, right)
        assert got == canonicalize(w)
        assert divides(got, left) and divides(got, right)


def test_gcd_scale_invariance_and_symmetry():
    rng = random.Random(3005)
    for _ in range(50):
        p, q = random_poly(rng), random_poly(rng)
        if p.is_zero() or q.is_zero():
            continue
        g1 = gcd(p, q)
        assert g1 == gcd(q, p)
        assert g1 == gcd(p * K.elem(0, 1), q * (1 + K.i))
        assert divides(g1, p) and divides(g1, q)


def test_gcd_with_multiplier_property():
    rng = random.Random(3006)
    for _ in range(100):
        p = random_linear(rng)
        q = random_linear(rng)
        if proportional(p, q):
            continue
        w = random_linear(rng)
        assert gcd(p * w, q * w) == canonicalize(w)


# -- gcd oracle: univariate specializations ------------------------------------------


def uni_divmod(f, g):
    """Long division of univariate coefficient lists over K, g nonzero."""
    rem = list(f)
    lead_inv = g[-1].inv()
    quot = [K.zero] * max(0, len(rem) - len(g) + 1)
    while len(rem) >= len(g) and any(rem):
        while rem and not rem[-1]:
            rem.pop()
        if len(rem) < len(g):
            break
        shift = len(rem) - len(g)
        factor = rem[-1] * lead_inv
        quot[shift] = factor
        for j, gc in enumerate(g):
            rem[j + shift] = rem[j + shift] - factor * gc
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def uni_gcd(f, g):
    """Monic Euclidean GCD of univariate coefficient lists over K."""
    f, g = list(f), list(g)
    while any(g):
        _, r = uni_divmod(f, g)
        f, g = g, r
    while f and not f[-1]:
        f.pop()
    if not f:
        return []
    lead_inv = f[-1].inv()
    return [x * lead_inv for x in f]


def specialize(p, main, value):
    """Univariate coefficient list of p(c_main, other=value), bivariate p."""
    other = 1 - main
    coeffs = [K.zero] * (p.degree_in(main) + 1)
    for expts, coef in p.terms.items():
        coeffs[expts[main]] = coeffs[expts[main]] + coef * value ** expts[other]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def test_gcd_matches_univariate_specialization_oracle():
    rng = random.Random(3007)
    trials = 0
    while trials < 50:
        f = random_linear(rng, nvars=2) * random_linear(rng, nvars=2)
        g = random_linear(rng, nvars=2) * random_linear(rng, nvars=2)
        if rng.random() < 0.5:
            shared = random_linear(rng, nvars=2)
            f, g = f * shared, g * shared
        if f.is_zero() or g.is_zero():
            continue
        got = gcd(f, g)
        assert divides(got, f) and divides(got, g)
        for main in (0, 1):
            want_deg = got.degree_in(main)
            matched = False
            for attempt in range(8):
                t = K.elem(Fraction(rng.randint(-12, 12), rng.randint(1, 4)))
                sf, sg = specialize(f, main, t), specialize(g, main, t)
                if not sf or not sg:
                    continue
                u = uni_gcd(sf, sg)
                uni_deg = len(u) - 1
                # specialization can only enlarge the common divisor
                assert uni_deg >= want_deg
                if uni_deg == want_deg:
                    matched = True
                    break
            assert matched, "no generic specialization found"
        trials += 1


# -- squarefree part -------------------------------------------------------------


def test_squarefree_fixed():
    c1, c2 = c(0), c(1)
    assert squarefree_part(c1 ** 2 * c2) == c1 * c2
    assert squarefree_part((c1 + c2) ** 3) == c1 + c2
    assert squarefree_part(const(5)) == const(1)
    with pytest.raises(ValueError):
        squarefree_part(MultiPoly.zero(3, K))


def test_squarefree_of_constructed_products():
    rng = random.Random(3008)
    for _ in range(60):
        f, g, h = (random_linear(rng) for _ in range(3))
        if proportional(f, g) or proportional(g, h) or proportional(f, h):
            continue
        p = f * g * h ** 2
        assert squarefree_part(p) == canonicalize(f * g * h)
        assert squarefree_part(canonicalize(f * g * h)) == \
            canonicalize(f * g * h)


def test_squarefree_is_squarefree():
    rng = random.Random(3009)
    for _ in range(40):
        p = random_poly(rng, max_terms=3)
        if p.is_zero() or p.is_constant():
            continue
        sf = squarefree_part(p)
        assert divides(sf, p)
        folded = sf
        for j in range(3):
            pd = sf.partial_derivative(j)
            if not pd.is_zero():
                folded = gcd(folded, pd)
        assert folded.is_constant()


# -- the squarefreeness certificate -------------------------------------------------
#
# squarefree_part first tries to prove p squarefree on fixed lines and falls
# back to _squarefree_part_by_gcds; the two must agree on every input, and
# the certificate must never accept a polynomial with a squared factor.


def test_certificate_fixed_values():
    c1, c2, c3 = c(0), c(1), c(2)
    for p in (c1 * c2 * c3, c1 ** 2 * c2 + c3 ** 3,
              (c1 + 2 * c2 - c3) * (c1 - K.i * c3) * (c2 + K.sqrt_d * c3),
              MultiPoly.variable(0, 1, K) ** 2 - const(2, 1)):
        assert _certified_squarefree(canonicalize(p))
        assert squarefree_part(p) == canonicalize(p)
    for p in (c1 ** 2 * c2, (c1 + c2 - c3) ** 2 * c3,
              (c1 * c2 + K.i * c3 ** 2) ** 2):
        assert not _certified_squarefree(canonicalize(p))


def test_squarefree_falls_back_when_every_top_form_vanishes(monkeypatch):
    # each linear form's top part vanishes at the direction b of one
    # certificate line, so p_top(b) = 0 on every line and only the GCD loop
    # can decide
    c1, c2, c3 = c(0), c(1), c(2)
    lines = _certificate_lines(3)
    assert [b for _, b in lines] == [(1, 1, 1), (1, 2, 3)]
    p = (c1 - c2 + const(1)) * (2 * c1 - c2)
    top = MultiPoly(3, {e: x for e, x in p.terms.items() if sum(e) == 2}, K)
    for _, b in lines:
        assert top.eval(list(b)) == 0
    calls = []
    loop = polyalg._squarefree_part_by_gcds
    monkeypatch.setattr(polyalg, "_squarefree_part_by_gcds",
                        lambda q: calls.append(q) or loop(q))
    assert not _certified_squarefree(canonicalize(p))
    assert squarefree_part(p) == canonicalize(p)
    assert squarefree_part(p * c3 ** 2) == canonicalize(p * c3)
    assert len(calls) == 2


FIELDS = [FieldContext(d) for d in (2, 3, 5, 999999937)]


def coefficient_pool(ctx):
    return [ctx.one, -ctx.one, ctx.elem(2), ctx.elem(Fraction(-1, 3)),
            ctx.i, ctx.sqrt_d, 1 + ctx.i, 1 - 2 * ctx.sqrt_d]


@st.composite
def factors(draw, nvars, ctx):
    """A nonconstant factor of degree 1 or 2.

    Some are linear forms whose top form vanishes at a certificate line's
    direction b, so that the restriction to that line drops in degree.
    """
    pool = coefficient_pool(ctx)
    coef = st.sampled_from(pool)
    if nvars >= 2 and draw(st.booleans()):
        _, b = draw(st.sampled_from(_certificate_lines(nvars)))
        lin = [draw(coef)] + [draw(st.sampled_from(pool + [ctx.zero]))
                              for _ in range(nvars - 2)]
        last = -sum((x * bj for x, bj in zip(lin, b)), ctx.zero) / b[-1]
        terms = {tuple(1 if m == j else 0 for m in range(nvars)): x
                 for j, x in enumerate(lin + [last])}
        terms[(0,) * nvars] = draw(st.sampled_from(pool + [ctx.zero]))
        return MultiPoly(nvars, terms, ctx)
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        expts = draw(st.lists(st.integers(min_value=0, max_value=2),
                              min_size=nvars, max_size=nvars)
                     .filter(lambda e: 1 <= sum(e) <= 2))
        terms[tuple(expts)] = draw(coef)
    if draw(st.booleans()):
        terms[(0,) * nvars] = draw(coef)
    return MultiPoly(nvars, terms, ctx)


@st.composite
def products(draw, max_nvars=4):
    """(p, squared): f*g*h, or f^2*g*h with f nonconstant when squared."""
    ctx = draw(st.sampled_from(FIELDS))
    nvars = draw(st.integers(min_value=1, max_value=max_nvars))
    f, g, h = (draw(factors(nvars, ctx)) for _ in range(3))
    squared = draw(st.booleans())
    return (f * f * g * h if squared else f * g * h), squared


@settings(max_examples=100, deadline=None)
@given(products())
def test_squarefree_certificate_matches_gcd_loop(case):
    p, squared = case
    by_gcds = _squarefree_part_by_gcds(p)
    assert squarefree_part(p) == by_gcds
    certified = _certified_squarefree(canonicalize(p))
    if squared:
        assert not certified
        assert by_gcds.total_degree() < p.total_degree()
    if certified:
        assert by_gcds == canonicalize(p)


_SYMPY_FIELDS = {}


def to_sympy(p, sympy):
    """p as a sympy Poly over QQ<i, sqrt d>, built term by term.

    Parsing a sympy expression into that domain takes about a second per
    polynomial, so the domain and its i and sqrt d are built once per d.
    """
    d = p.ctx.d
    if d not in _SYMPY_FIELDS:
        dom = sympy.QQ.algebraic_field(sympy.I, sympy.sqrt(d))
        _SYMPY_FIELDS[d] = (dom, dom.from_sympy(sympy.I),
                            dom.from_sympy(sympy.sqrt(d)))
    dom, i, r = _SYMPY_FIELDS[d]

    def rat(x):
        return dom.convert(sympy.Rational(x.numerator, x.denominator))

    terms = {expts: rat(x.a) + rat(x.b) * r + (rat(x.c) + rat(x.e) * r) * i
             for expts, x in p.terms.items()}
    return sympy.Poly.from_dict(terms, *sympy.symbols(f"c1:{p.nvars + 1}"),
                                domain=dom)


def test_squarefree_matches_sympy_sqf_part():
    sympy = pytest.importorskip("sympy")

    @settings(max_examples=25, deadline=None)
    @given(products(max_nvars=3))
    def check(case):
        p, _ = case
        expected = sympy.sqf_part(to_sympy(p, sympy))
        assert to_sympy(squarefree_part(p), sympy).monic() == expected.monic()

    check()


# -- gcd oracles: the list-view remainder sequence and sympy ---------------------


GCD_FIELDS = [FieldContext(d) for d in (2, 3, 999999937)]


@st.composite
def poly_in(draw, ctx, nvars, variables, max_deg=2, max_terms=3):
    """A nonzero polynomial in which only the given variables occur."""
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=max_terms))):
        expts = [0] * nvars
        for j in variables:
            expts[j] = draw(st.integers(min_value=0, max_value=max_deg))
        terms[tuple(expts)] = draw(st.sampled_from(coefficient_pool(ctx)))
    return MultiPoly(nvars, terms, ctx)


@st.composite
def planted_gcd_cases(draw):
    """(u * w, v * w, w) with a planted common factor w.

    Univariate and bivariate inputs, and three-variable inputs in which one
    variable occurs, which `gcd` takes through its unit-content shortcut.
    """
    ctx = draw(st.sampled_from(GCD_FIELDS))
    nvars, variables = draw(st.sampled_from(
        [(1, (0,)), (2, (0, 1)), (3, (0,)), (3, (1,)), (3, (2,))]))
    u, v, w = (draw(poly_in(ctx, nvars, variables)) for _ in range(3))
    return u * w, v * w, w


@settings(max_examples=80, deadline=None)
@given(planted_gcd_cases())
def test_gcd_matches_list_view_reference(case):
    p, q, w = case
    got = gcd(p, q)
    assert got == reference_polyalg.gcd(p, q)
    assert divides(got, p) and divides(got, q) and divides(w, got)


def test_gcd_matches_sympy_gcd():
    sympy = pytest.importorskip("sympy")

    @settings(max_examples=25, deadline=None)
    @given(planted_gcd_cases())
    def check(case):
        p, q, _ = case
        expected = sympy.gcd(to_sympy(p, sympy), to_sympy(q, sympy))
        assert to_sympy(gcd(p, q), sympy).monic() == expected.monic()

    check()


# -- canonical scaling ---------------------------------------------------------------


def test_canonicalize_fixed():
    c1, c2 = c(0), c(1)
    assert canonicalize(2 * (c1 * c2)) == c1 * c2
    assert canonicalize((1 + K.i) * c1) == c1
    got = canonicalize(3 * c2 + 6 * c1)
    assert got == c1 + Fraction(1, 2) * c2
    with pytest.raises(ValueError):
        canonicalize(MultiPoly.zero(3, K))


def test_canonicalize_idempotent_and_scale_free():
    rng = random.Random(3010)
    for _ in range(100):
        p = random_poly(rng)
        if p.is_zero():
            continue
        cp = canonicalize(p)
        assert canonicalize(cp) == cp
        assert canonicalize(p * rng.choice(COEFS[:8])) == cp


# -- text form -------------------------------------------------------------------------


def test_format_fixed():
    c1, c2, c3 = c(0), c(1), c(2)
    assert format_poly(MultiPoly.zero(3, K)) == "0"
    assert format_poly(c1 * c2 * c3) == "c1*c2*c3"
    assert format_poly(-c1 + c2 ** 2) == "c2^2-c1"
    assert format_poly(const(Fraction(-1, 2))) == "-1/2"
    q = (K.elem(Fraction(1, 2), Fraction(-1, 3)) * (c1 * c3)
         + Fraction(2, 3) * (c1 * c2) + Fraction(1, 2) * (c2 * c3))
    assert format_poly(q) == "2/3*c1*c2+(1/2-1/3*r)*c1*c3+1/2*c2*c3"


def test_parse_fixed():
    c1, c2, c3 = c(0), c(1), c(2)
    assert parse_poly("c1*c2*c3", 3, K) == c1 * c2 * c3
    assert parse_poly("2/3*c1*c2+(1/2-1/3*r)*c1*c3+1/2*c2*c3", 3, K) == \
        (K.elem(Fraction(1, 2), Fraction(-1, 3)) * (c1 * c3)
         + Fraction(2, 3) * (c1 * c2) + Fraction(1, 2) * (c2 * c3))
    assert parse_poly("0", 3, K).is_zero()
    assert parse_poly("-c1^2 + i*c2", 3, K) == -(c1 ** 2) + K.i * c2
    assert parse_poly("r*i*c1", 3, K) == K.elem(0, 0, 0, 1) * c1
    assert parse_poly("c1*c1", 3, K) == c1 ** 2


def test_parse_errors():
    for text in ("", "c4", "c1^", "(1+i", "c1+", "c0", "x", "c1**c2", "1//2"):
        with pytest.raises(ParseError):
            parse_poly(text, 3, K)


def test_roundtrip_random():
    rng = random.Random(3011)
    for _ in range(300):
        p = random_poly(rng, nvars=rng.randint(1, 4))
        assert parse_poly(format_poly(p), p.nvars, K) == p


small_coef = st.sampled_from(COEFS)


@st.composite
def polys(draw):
    nvars = draw(st.integers(min_value=1, max_value=3))
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        expts = tuple(draw(st.integers(min_value=0, max_value=3))
                      for _ in range(nvars))
        terms[expts] = draw(small_coef)
    return MultiPoly(nvars, terms, K)


@given(polys())
def test_roundtrip_hypothesis(p):
    assert parse_poly(format_poly(p), p.nvars, K) == p
