"""Integer-backed K-scalars checked against the 4-Fraction reference class.

Every operation is run on both representations from the same components and
the results must agree component for component, in hash and in text form.
The d values cover the default, two small fields and the largest prime
accepted (999999937 <= MAX_D), where products of sqrt(d) terms grow fastest.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from jspec.scalar import (
    ALL_AUTOMORPHISMS,
    FieldContext,
    FieldElem,
    format_scalar,
)
import reference_scalar as ref

DS = (2, 3, 5, 999999937)
CONTEXTS = {d: (FieldContext(d), ref.RefContext(d)) for d in DS}

small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
large = st.builds(Fraction, st.integers(-10**12, 10**12),
                  st.integers(1, 10**9))
component = st.one_of(st.just(Fraction(0)), small, large)
components = st.tuples(component, component, component, component)
# real elements off Q: c = e = 0 and b != 0, for the real-by-real product
real_components = st.tuples(component, st.one_of(small, large).filter(bool),
                            st.just(Fraction(0)), st.just(Fraction(0)))
operand_pairs = st.one_of(st.tuples(components, components),
                          st.tuples(real_components, real_components))
rationals = st.one_of(st.integers(-10**6, 10**6), small, large)


def parts(x):
    return (x.a, x.b, x.c, x.e)


def assert_same(new, old):
    assert isinstance(new, FieldElem)
    assert parts(new) == parts(old)
    assert hash(new) == hash(old)
    assert format_scalar(new) == ref.format_scalar(old)
    assert_canonical(new)


def assert_canonical(x):
    ints = (x._a, x._b, x._c, x._e, x._den)
    assert all(type(v) is int for v in ints)
    assert x._den > 0
    assert gcd(*ints) == 1
    if not x:
        assert x._den == 1


def pair(d, comps):
    ctx, rctx = CONTEXTS[d]
    return ctx.elem(*comps), rctx.elem(*comps)


@settings(max_examples=300)
@given(st.sampled_from(DS), operand_pairs)
def test_binary_operations_match_reference(d, operands):
    xs, ys = operands
    x, rx = pair(d, xs)
    y, ry = pair(d, ys)
    assert_same(x, rx)
    assert_same(x + y, rx + ry)
    assert_same(x - y, rx - ry)
    assert_same(x * y, rx * ry)
    if ry:
        assert_same(x / y, rx / ry)
    assert (x == y) == (rx == ry)
    assert (x == y) == (parts(x) == parts(y))


@settings(max_examples=300)
@given(st.sampled_from(DS), components, st.integers(-3, 4))
def test_unary_operations_match_reference(d, xs, n):
    x, rx = pair(d, xs)
    assert_same(-x, -rx)
    assert_same(x.conj(), rx.conj())
    for f in ALL_AUTOMORPHISMS:
        assert_same(f(x), ref.apply_automorphism(f, rx))
    if rx:
        assert_same(x.inv(), rx.inv())
    if rx or n >= 0:
        assert_same(x ** n, rx ** n)
    assert bool(x) == bool(rx)
    assert x.is_real() == rx.is_real()
    if rx.is_real():
        assert x.real_sign() == rx.real_sign()
    assert repr(x) == repr(rx)


@given(st.sampled_from(DS), components, rationals)
def test_mixing_with_int_and_fraction_matches_reference(d, xs, q):
    x, rx = pair(d, xs)
    assert_same(x + q, rx + q)
    assert_same(q + x, q + rx)
    assert_same(x - q, rx - q)
    assert_same(q - x, q - rx)
    assert_same(x * q, rx * q)
    assert_same(q * x, q * rx)
    if q:
        assert_same(x / q, rx / q)
    if rx:
        assert_same(q / x, q / rx)
    assert (x == q) == (rx == q)
    assert (q == x) == (q == rx)


@given(st.sampled_from(DS), components)
def test_public_constructor_matches_reference(d, comps):
    ctx, rctx = CONTEXTS[d]
    assert_same(FieldElem(*comps, ctx), ref.FieldElem(*comps, rctx))


@given(st.sampled_from(DS), st.integers(-10**6, 10**6),
       st.integers(1, 10**6))
def test_rational_elements_hash_like_fractions(d, p, q):
    ctx, _ = CONTEXTS[d]
    x = ctx.elem(Fraction(p, q))
    assert hash(x) == hash(Fraction(p, q))
    assert x == Fraction(p, q)
    assert_canonical(x)


def test_dict_keyed_by_int_finds_the_element():
    for d in DS:
        ctx, _ = CONTEXTS[d]
        table = {5: "five", Fraction(1, 3): "third"}
        assert table[ctx.elem(5)] == "five"
        assert table[ctx.elem(Fraction(2, 6))] == "third"
        assert ctx.zero._den == 1 and (ctx.one - 1)._den == 1
