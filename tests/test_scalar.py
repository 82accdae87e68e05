"""Field axioms, automorphism laws and text round-trips for K-scalars."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from jspec.exactla import Matrix, vdot
from jspec.lattice import rank_one
from jspec.maps import make_unitary_conj
from jspec.polyalg import MultiPoly, parse_poly
from jspec.scalar import (
    ALL_AUTOMORPHISMS,
    Automorphism,
    MAX_D,
    QUOTE_LIMIT,
    FieldContext,
    FieldElem,
    ParseError,
    _quote_int,
    format_scalar,
    parse_scalar,
)
from jspec.spectrum import JointSpectrum

K = FieldContext(2)


def random_elem(rng, ctx=K, zero_ok=True):
    while True:
        comps = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
        x = ctx.elem(*comps)
        if zero_ok or x:
            return x


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


@st.composite
def elems(draw, ctx=K):
    return ctx.elem(draw(rationals), draw(rationals), draw(rationals),
                    draw(rationals))


# -- field axioms -------------------------------------------------------------


def test_field_axioms_random_triples():
    rng = random.Random(20260818)
    for _ in range(1000):
        x, y, z = (random_elem(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x + y == y + x
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x + 0 == x and x * 1 == x
        assert x + (-x) == 0
        if x:
            assert x * x.inv() == 1


def test_inverse_handles_every_nonzero_component_pattern():
    for mask in range(1, 16):
        comps = [Fraction(1 + i) if mask >> i & 1 else Fraction(0)
                 for i in range(4)]
        x = K.elem(*comps)
        assert x * x.inv() == 1


@given(elems())
def test_inverse_is_involutive(x):
    if x:
        assert x.inv().inv() == x


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        K.zero.inv()


def test_division_matches_inverse():
    rng = random.Random(7)
    for _ in range(200):
        x = random_elem(rng)
        y = random_elem(rng, zero_ok=False)
        assert x / y * y == x


def test_powers():
    r = K.sqrt_d
    assert r ** 2 == 2
    assert (1 + K.i) ** 4 == -4
    assert r ** -2 == Fraction(1, 2)
    assert (K.elem(5)) ** 0 == 1


def test_fixed_arithmetic_values():
    i = K.i
    r = K.sqrt_d
    assert (1 + i) * (1 - i) == 2
    assert r.inv() == r / 2
    assert K.elem(Fraction(1, 3), 0, 2).conj() == K.elem(Fraction(1, 3), 0, -2)
    assert (r * i) * (r * i) == -2


def test_mixed_int_and_fraction_operands():
    x = K.elem(Fraction(1, 2), 1)
    assert 2 * x == K.elem(1, 2)
    assert x - Fraction(1, 2) == K.sqrt_d
    assert 1 / K.i == -K.i
    assert hash(K.elem(7)) == hash(7)
    assert hash(K.elem(Fraction(2, 3))) == hash(Fraction(2, 3))


def test_context_rejects_non_squarefree_d():
    for bad in (1, 0, -2, 4, 12, 18, MAX_D + 1, 1000000000000000003):
        with pytest.raises(ValueError):
            FieldContext(bad)
    for good in (2, 3, 5, 6, 7, 10, 999999937):  # the largest prime <= MAX_D
        assert FieldContext(good).d == good


@pytest.mark.parametrize("sign, rule", [(1, f"at most {MAX_D}"),
                                        (-1, "a squarefree integer >= 2")])
def test_d_past_the_int_string_limit_is_named_by_its_digit_count(sign, rule):
    # 10**5000 has more digits than str() converts by default
    with pytest.raises(ValueError) as info:
        FieldContext(sign * 10**5000)
    assert str(info.value) == \
        f"d must be {rule}, got <an integer of 5001 digits>"


def test_quote_int_counts_digits_at_powers_of_ten():
    # 10**k - 1 has k digits and 10**k has k + 1, also past str()'s limit
    for k in [*range(1, 400), 4299, 4300, 4301, 20000]:
        for x, digits in ((10**k - 1, k), (10**k, k + 1)):
            for sign in (1, -1):
                width = digits + (sign < 0)
                assert _quote_int(sign * x) == (
                    str(sign * x) if width <= QUOTE_LIMIT else
                    f"<an integer of {digits} digits>")


def test_contexts_do_not_mix():
    with pytest.raises(ValueError):
        FieldContext(2).one + FieldContext(3).one


# Every public door through which a scalar argument enters K, as a function
# of that scalar.  ctx.elem and FieldElem(...) take rational components.
DOORS = {
    "ctx.elem": lambda x: K.elem(x),
    "FieldElem": lambda x: FieldElem(x, 0, 0, 0, K),
    "Matrix": lambda x: Matrix([[1, x]], K),
    "Matrix * scalar": lambda x: Matrix.identity(2, K) * x,
    "rank_one": lambda x: rank_one([1, x], K),
    "vdot": lambda x: vdot([K.i, 1], [x, 2], K),
    "matvec": lambda x: Matrix.identity(2, K).matvec([x, 1]),
    "vector_image": lambda x: make_unitary_conj(
        Matrix.identity(2, K)).vector_image([x, 1]),
    "MultiPoly.const": lambda x: MultiPoly.const(2, x, K),
    "monomial": lambda x: MultiPoly.monomial((1, 2), x, K),
    "eval": lambda x: parse_poly("c1^2 + r*c2", 2, K).eval([x, 1]),
    "MultiPoly * scalar": lambda x: parse_poly("c1 + i*c2", 2, K) * x,
    "zero MultiPoly * scalar": lambda x: MultiPoly.zero(2, K) * x,
    "member": lambda x: JointSpectrum(1, 1, parse_poly("c1", 1, K)).member(
        [x]),
}
COMPONENT_DOORS = ("ctx.elem", "FieldElem")
SAME_FIELD = K.elem(1, -2, Fraction(3, 4), 5)


@pytest.mark.parametrize("door", DOORS)
@pytest.mark.parametrize("x", [0, 3, Fraction(-7, 3), SAME_FIELD, 0.0, 0.5,
                               "1/3", FieldContext(3).sqrt_d],
                         ids=["zero", "int", "Fraction", "same field",
                              "float zero", "float", "str", "other field"])
def test_every_door_takes_the_one_coercion(door, x):
    """An int or a Fraction gives the value its `ctx.elem` gives, and an
    element of K passes through; a float or a str is a TypeError, and an
    element of another field a ValueError.  The component doors take
    rationals only, so an element, of either field, is a TypeError there;
    the operators leave a foreign type to Python, which raises one.
    """
    enter = DOORS[door]
    if isinstance(x, (float, str)) or (isinstance(x, FieldElem)
                                       and door in COMPONENT_DOORS):
        with pytest.raises(TypeError):
            enter(x)
    elif x is not SAME_FIELD and isinstance(x, FieldElem):
        with pytest.raises(ValueError, match="d=3 in a d=2"):
            enter(x)
    else:
        elem = x if isinstance(x, FieldElem) else K.elem(x)
        assert enter(x) == (elem if door in COMPONENT_DOORS else enter(elem))


def test_arithmetic_at_other_d():
    K5 = FieldContext(5)
    r = K5.sqrt_d
    assert r * r == 5
    assert r.inv() == r / 5
    rng = random.Random(11)
    for _ in range(200):
        x = random_elem(rng, K5, zero_ok=False)
        assert x * x.inv() == 1


# -- automorphisms ------------------------------------------------------------


def test_automorphism_laws_random():
    rng = random.Random(31337)
    for _ in range(1000):
        x, y = random_elem(rng), random_elem(rng)
        for f in ALL_AUTOMORPHISMS:
            assert f(x + y) == f(x) + f(y)
            assert f(x * y) == f(x) * f(y)
            assert f(f(x)) == x
            assert f(x.conj()) == f(x).conj()
        assert Automorphism.FLIP(Automorphism.CONJ(x)) == Automorphism.CONJFLIP(x)


def test_automorphisms_fix_rationals():
    q = K.elem(Fraction(-7, 3))
    for f in ALL_AUTOMORPHISMS:
        assert f(q) == q


def test_automorphism_fixed_values():
    r = K.sqrt_d
    i = K.i
    assert Automorphism.CONJ(i) == -i
    assert Automorphism.FLIP(3 + 2 * r) == 3 - 2 * r
    assert Automorphism.CONJFLIP(r + i) == -r - i
    assert Automorphism.CONJFLIP(r * i) == r * i


def test_automorphism_names():
    assert Automorphism.from_name("flip") is Automorphism.FLIP
    assert Automorphism.from_name("CONJFLIP") is Automorphism.CONJFLIP
    with pytest.raises(ValueError):
        Automorphism.from_name("transpose")


# -- real sign ----------------------------------------------------------------


def test_real_sign():
    r = K.sqrt_d
    assert (3 - 2 * r).real_sign() == 1          # 3 > 2*sqrt(2)
    assert (1 - r).real_sign() == -1
    assert (r - 1).real_sign() == 1
    assert K.zero.real_sign() == 0
    assert (-3 * r).real_sign() == -1
    with pytest.raises(ValueError):
        K.i.real_sign()


def test_real_sign_matches_float():
    rng = random.Random(99)
    from math import sqrt
    for _ in range(500):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        x = K.elem(a, b)
        approx = float(a) + float(b) * sqrt(2)
        if abs(approx) > 1e-9:
            assert x.real_sign() == (1 if approx > 0 else -1)


def test_norm_is_positive():
    rng = random.Random(5)
    for _ in range(300):
        x = random_elem(rng, zero_ok=False)
        assert (x * x.conj()).real_sign() == 1


# -- text form ----------------------------------------------------------------


def test_parse_fixed_examples():
    assert parse_scalar("0", K) == K.zero
    assert parse_scalar("1/2 + 1/2*i", K) == K.elem(Fraction(1, 2), 0, Fraction(1, 2))
    assert parse_scalar("3 - 2*r", K) == K.elem(3, -2)
    assert parse_scalar("r*i", K) == K.elem(0, 0, 0, 1)
    assert parse_scalar("i*r", K) == K.elem(0, 0, 0, 1)
    assert parse_scalar("-i", K) == -K.i
    assert parse_scalar("2r", K) == K.elem(0, 2)
    assert parse_scalar("  - 7/2  +  3 r i ", K) == K.elem(Fraction(-7, 2), 0, 0, 3)
    assert parse_scalar("1+1", K) == K.elem(2)


def test_format_fixed_examples():
    assert format_scalar(K.zero) == "0"
    assert format_scalar(K.elem(Fraction(1, 2), 0, Fraction(1, 2))) == "1/2+1/2*i"
    assert format_scalar(K.elem(3, -2)) == "3-2*r"
    assert format_scalar(K.elem(0, 0, 0, -1)) == "-r*i"
    assert format_scalar(K.elem(0, -1, 1)) == "-r+i"
    assert format_scalar(K.elem(0, 0, 0, Fraction(5, 3))) == "5/3*r*i"


def test_format_fixed_signs_fractions_and_unit_magnitudes():
    # negative and fractional components over a shared denominator
    assert format_scalar(K.elem(-7)) == "-7"
    assert format_scalar(K.elem(Fraction(-3, 4))) == "-3/4"
    assert format_scalar(K.elem(Fraction(-1, 6), Fraction(1, 3), Fraction(-1, 2),
                                Fraction(2, 3))) == "-1/6+1/3*r-1/2*i+2/3*r*i"
    assert format_scalar(K.elem(Fraction(1, 2), -3, 0, Fraction(-9, 4))) == \
        "1/2-3*r-9/4*r*i"
    assert format_scalar(K.elem(0, Fraction(-5, 2), Fraction(5, 2))) == \
        "-5/2*r+5/2*i"
    # magnitude 1 on each unit, with either sign and a non-unit rational part
    assert format_scalar(K.elem(0, 1)) == "r"
    assert format_scalar(K.elem(0, -1)) == "-r"
    assert format_scalar(K.elem(0, 0, 1)) == "i"
    assert format_scalar(K.elem(0, 0, -1)) == "-i"
    assert format_scalar(K.elem(0, 0, 0, 1)) == "r*i"
    assert format_scalar(K.elem(1, 1, 1, 1)) == "1+r+i+r*i"
    assert format_scalar(K.elem(-1, -1, -1, -1)) == "-1-r-i-r*i"
    assert format_scalar(K.elem(Fraction(1, 3), 1, -1, 1)) == "1/3+r-i+r*i"
    assert format_scalar(K.elem(Fraction(1, 3), Fraction(1, 3), 0, -1)) == \
        "1/3+1/3*r-r*i"


def test_parse_errors_carry_position():
    for text in ("", "1 +", "i*i", "r r", "1/0", "3..5", "2 **i", "x", "1 2"):
        with pytest.raises(ParseError) as info:
            parse_scalar(text, K)
        assert info.value.pos <= len(text)


def test_roundtrip_random():
    rng = random.Random(424242)
    for _ in range(1000):
        x = random_elem(rng)
        assert parse_scalar(format_scalar(x), K) == x


@given(elems())
def test_roundtrip_hypothesis(x):
    assert parse_scalar(format_scalar(x), K) == x


@given(elems(), elems())
def test_format_is_injective_on_values(x, y):
    if format_scalar(x) == format_scalar(y):
        assert x == y
