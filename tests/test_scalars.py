"""Exact scalar layer: polynomials, rational functions, series at infinity."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from starprod import scalars
from starprod.errors import CertificateError, PoleAtInfinityError
from starprod.scalars import (
    ONE_POLY,
    Polynomial,
    RationalFunction,
    ZERO_POLY,
    expand_at_infinity,
    frac_from_str,
    frac_to_str,
    product,
    series_ratio,
)

LAMBDA = Polynomial([0, 1])


def test_frac_round_trip():
    assert frac_to_str(Fraction(3, 4)) == "3/4"
    assert frac_to_str(Fraction(-5)) == "-5"
    assert frac_from_str("3/4") == Fraction(3, 4)
    assert frac_from_str("-7") == -7
    with pytest.raises(ValueError):
        frac_from_str("2/0")
    with pytest.raises(ValueError):
        frac_from_str("one half")


def test_polynomial_normalization():
    assert Polynomial([0, 0, 0]).is_zero
    assert Polynomial().degree == -1
    p = Polynomial([Fraction(1, 2), 0, Fraction(4, 2)])
    assert p.degree == 2
    assert p.coeffs == (Fraction(1, 2), 0, 2)
    # integral Fractions are demoted to ints, and the two forms stay equal
    assert Polynomial([Fraction(2), 1]) == Polynomial([2, 1])
    assert hash(Polynomial([Fraction(2), 1])) == hash(Polynomial([2, 1]))


def test_polynomial_refuses_a_float_coefficient():
    # Fraction(0.1) would be 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError, match=r"^polynomial coefficient 0\.1 is a float"):
        Polynomial([1, 0.1])
    assert Polynomial([1, Fraction(1, 10)]).coeffs == (1, Fraction(1, 10))


def test_polynomial_arithmetic():
    p = Polynomial([1, 2])       # 1 + 2λ
    q = Polynomial([0, 0, 3])    # 3λ²
    assert (p + q).coeffs == (1, 2, 3)
    assert (p + (-p)).is_zero
    assert (p * q).coeffs == (0, 0, 3, 6)
    assert (p * p).coeffs == (1, 4, 4)
    assert p.scale(Fraction(1, 2)).coeffs == (Fraction(1, 2), 1)


def test_polynomial_division():
    # (λ² - 1) = (λ - 1)(λ + 1)
    num = Polynomial([-1, 0, 1])
    assert num.exact_div(Polynomial([-1, 1])).coeffs == (1, 1)
    assert num.exact_div(Polynomial([1, 1])).coeffs == (-1, 1)
    with pytest.raises(ArithmeticError):
        num.exact_div(Polynomial([0, 0, 1]))
    with pytest.raises(ArithmeticError):
        num.exact_div(Polynomial([0, 0, 0, 1]))
    with pytest.raises(ZeroDivisionError):
        num.exact_div(ZERO_POLY)
    assert ZERO_POLY.exact_div(num).is_zero
    # non-monic divisor forces rational quotient coefficients
    assert Polynomial([0, 0, 1]).exact_div(Polynomial([0, 2])).coeffs == (0, Fraction(1, 2))


# int and Fraction coefficients; leading ones include negative and non-dividing values
COEFFS = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=4))
LEADS = st.sampled_from([1, -1, 2, -2, 3, -4, 12, Fraction(2, 3), Fraction(-5, 4)])


def _fraction_divmod(a, b):
    """Schoolbook long division with every coefficient a Fraction."""
    rem = [Fraction(c) for c in a]
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[len(b) - 1 + k] / b[-1]
        quo[k] = c
        for i, bc in enumerate(b):
            rem[i + k] -= c * bc
    return quo, rem


@settings(max_examples=100, deadline=None)
@given(st.lists(COEFFS, max_size=6), st.lists(COEFFS, max_size=3), LEADS, st.booleans())
def test_divmod_properties(a, b, lead, as_fractions):
    # exact_div carries out the whole long division: it must agree with the
    # all-Fraction reference on the quotient, and divide a exactly iff the
    # reference remainder vanishes
    if as_fractions:
        # an integral coefficient given as Fraction(k, 1) rather than as k
        a = [Fraction(c) for c in a]
    a, b = Polynomial(a), Polynomial(b + [lead])
    quo, rem = (Polynomial(cs) for cs in _fraction_divmod(a.coeffs, b.coeffs))
    assert quo * b + rem == a
    assert rem.degree < b.degree
    if rem.is_zero:
        assert a.exact_div(b) == quo
    else:
        with pytest.raises(ArithmeticError):
            a.exact_div(b)
    got = (a + (-rem)).exact_div(b)
    assert got == quo and hash(got) == hash(quo)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(COEFFS, max_size=3),
    st.lists(COEFFS, max_size=3),
    st.lists(COEFFS, max_size=3),
    LEADS,
    st.booleans(),
)
def test_exact_div_properties(q, b, r, lead, as_fractions):
    q, b = Polynomial(q), Polynomial(b + [lead])
    a = q * b
    if as_fractions:
        # an integral coefficient given as Fraction(k, 1) rather than as k
        a = Polynomial([Fraction(c) for c in a.coeffs])
    quo = a.exact_div(b)
    assert quo == q
    ref = Polynomial(_fraction_divmod(a.coeffs, b.coeffs)[0])
    assert quo == ref and hash(quo) == hash(ref)
    r = Polynomial(r[: b.degree])
    assume(not r.is_zero)
    with pytest.raises(ArithmeticError):
        (a + r).exact_div(b)


POLYS = st.lists(COEFFS, max_size=5).map(Polynomial)


@settings(max_examples=100, deadline=None)
@given(POLYS, POLYS, POLYS)
def test_polynomial_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + (-p) == ZERO_POLY and (p + (-p)).is_zero
    assert p * ONE_POLY == p
    # equal values hash equally, whether the coefficients came as int or Fraction
    for a, b in (((p + q) + r, p + (q + r)), (p * q, q * p), (p * (q + r), p * q + p * r)):
        assert hash(a) == hash(b)
    as_fractions = Polynomial([Fraction(c) for c in p.coeffs])
    assert as_fractions == p and hash(as_fractions) == hash(p)


def _plain(coeffs):
    """Coefficients as Fractions, trailing zeros stripped: no Polynomial involved."""
    out = [Fraction(c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


# the constants a sum or a product may hand back as they are, as every route builds them
CONSTANTS = st.sampled_from([ONE_POLY, ZERO_POLY, Polynomial((1,)), Polynomial((Fraction(1),)), Polynomial()])
OPERANDS = st.one_of(CONSTANTS, POLYS)


@settings(max_examples=300, deadline=None)
@given(OPERANDS, OPERANDS, st.one_of(st.sampled_from([1, Fraction(1), 0, Fraction(0)]), COEFFS))
def test_sums_products_and_scales_equal_plain_coefficient_arithmetic(p, q, k):
    # a sum with zero, a product with the constant 1 and scale(1) hand back an
    # operand; every result still equals the coefficient convolution, in the
    # normal form (ints where integral, no trailing zero), on either side
    a, b = p.coeffs, q.coeffs
    conv = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    sums = [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(max(len(a), len(b)))]
    cases = [(p + q, sums), (q + p, sums), (p * q, conv), (q * p, conv), (p.scale(k), [c * k for c in a])]
    for got, want in cases:
        assert got.coeffs == _plain(want)
        assert all(type(c) is int or c.denominator > 1 for c in got.coeffs)
    if not a or not b:
        assert p + q is (q if not a else p)
    if a == (1,) != b and b:
        assert p * q is q and q * p is q
    if k == 1:
        assert p.scale(k) is p


FACTORS = st.one_of(st.just(ZERO_POLY), COEFFS.map(lambda c: Polynomial([c])), POLYS)


@settings(max_examples=100, deadline=None)
@given(st.lists(FACTORS, min_size=1, max_size=40))
@example([Polynomial([2]), Polynomial([3]), Polynomial([5])])  # an odd last factor
def test_product_tree_equals_the_left_to_right_product(factors):
    want = factors[0]
    for f in factors[1:]:
        want = want * f
    got = product(factors)
    assert got == want and hash(got) == hash(want)


# constants often, so the all-constant short path is drawn too
INTS = st.one_of(*(st.lists(st.integers(-9, 9), max_size=size) for size in (1, 5)))
PREVS = st.one_of(
    st.sampled_from([[1], [-1]]),  # a unit
    st.integers(-12, 12).filter(bool).map(lambda c: [c]),  # a constant
    st.builds(lambda low, lead: low + [lead], INTS, st.integers(-4, 4).filter(bool)),
)


@settings(max_examples=300, deadline=None)
@given(INTS, INTS.filter(any), INTS, INTS, PREVS, st.booleans(), st.booleans())
@example([], [2], [3], [1, 1], [3], False, False)  # a = 0: −3·(1 + λ) / 3
@example([1], [1], [], [], [2], False, False)  # 1 / 2 leaves a remainder
@example([0, 1], [1], [], [], [1, 1], False, False)  # λ / (1 + λ) leaves a remainder
def test_step_is_the_polynomial_update(a, p, f, t, prev, divisible, as_tuples):
    # the kernel's int-list step is (a·p − f·t) / prev in ℤ[λ], by Polynomial
    # arithmetic, and raises whenever that quotient leaves ℤ[λ]; `divisible`
    # makes a and f multiples of prev, so the quotient is integral
    if divisible:
        a, f = ((Polynomial(x) * Polynomial(prev)).coeffs for x in (a, f))
    want = Polynomial(a) * Polynomial(p) + -(Polynomial(f) * Polynomial(t))
    try:
        want = want.exact_div(Polynomial(prev))
    except ArithmeticError:
        want = None
    if want is not None and any(type(c) is not int for c in want.coeffs):
        want = None
    args = [tuple(x) if as_tuples else list(x) for x in (a, p, f, t, prev)]
    if want is None:
        with pytest.raises(CertificateError, match="^Bareiss division by the previous pivot"):
            scalars._step(*args)
    else:
        assert scalars._step(*args) == list(want.coeffs)


def test_polynomial_render():
    assert Polynomial([0, -2, 1]).render() == "-2*λ+λ^2"
    assert Polynomial([Fraction(1, 2)]).render() == "1/2"
    assert Polynomial([0, 1]).render() == "λ"
    assert ZERO_POLY.render() == "0"
    assert Polynomial([1, -1]).render() == "1-λ"


@settings(max_examples=100, deadline=None)
@given(POLYS, st.lists(COEFFS, max_size=3), LEADS, st.lists(COEFFS, max_size=3), LEADS, COEFFS)
def test_rational_function_equality(num, den, den_lead, g, g_lead, k):
    den, g = Polynomial(den + [den_lead]), Polynomial(g + [g_lead])
    assume(k)
    r = RationalFunction(num, den)
    # the pair is kept as given, and equality is cross-multiplication, or of
    # the numerators over one den
    assert (r.num, r.den) == (num, den)
    assert RationalFunction(num, den) == r != RationalFunction(num + den, den)
    assert RationalFunction(num * g, den * g) == r
    assert RationalFunction(num.scale(k), den.scale(k)) == r
    assert RationalFunction((num + den) * g, den * g) != r
    assert bool(r) == (not num.is_zero)
    assert RationalFunction(ZERO_POLY, den) == RationalFunction(0, g) == RationalFunction(0)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(num, ZERO_POLY)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(num, 0)
    assert (r == None) is False and r != None  # noqa: E711
    with pytest.raises(TypeError):
        hash(r)
    assert RationalFunction(Fraction(1, 2)) == RationalFunction(1, 2)


def test_expansion_at_infinity():
    # 1 / (2λ(λ-1)) = (1/2)ħ² + (1/2)ħ³ + ... in ħ = 1/λ
    s = expand_at_infinity(ONE_POLY, Polynomial([0, -2, 2]), 3)
    assert s == (0, 0, Fraction(1, 2), Fraction(1, 2))
    # 1/(λ - 1) = ħ + ħ² + ħ³ + ...
    assert expand_at_infinity(ONE_POLY, Polynomial([-1, 1]), 4) == (0, 1, 1, 1, 1)
    # constants survive; poles at infinity are refused
    assert expand_at_infinity(Polynomial([5]), ONE_POLY, 2) == (5, 0, 0)
    assert expand_at_infinity(ZERO_POLY, Polynomial([0, 1]), 2) == (0, 0, 0)
    with pytest.raises(PoleAtInfinityError):
        expand_at_infinity(LAMBDA, ONE_POLY, 2)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(COEFFS, max_size=4),
    st.lists(COEFFS, max_size=3),
    LEADS,
    st.lists(COEFFS, max_size=3),
    LEADS,
)
def test_expansion_ignores_common_factors(num, den, den_lead, g, g_lead):
    num, den = Polynomial(num), Polynomial(den + [den_lead])
    g = Polynomial(g + [g_lead])  # a nonzero common factor
    if num.degree > den.degree:
        for a, b in ((num, den), (num * g, den * g)):
            with pytest.raises(PoleAtInfinityError):
                expand_at_infinity(a, b, 5)
        return
    s = expand_at_infinity(num, den, 5)
    assert expand_at_infinity(num * g, den * g, 5) == s


def test_expansion_remainder_order():
    # subtracting the partial sum from f = num/den leaves a function of order
    # > n at ∞: with Σ c_k λ^{-k} = P/λ^n, P = Σ c_k λ^{n-k}, the difference
    # (num·λ^n − den·P) / (den·λ^n) needs deg(num·λ^n − den·P) < deg den
    rng = random.Random(3)
    n = 8
    lam_n = Polynomial([0] * n + [1])
    for _ in range(20):
        num = Polynomial([rng.randint(-5, 5) for _ in range(3)])
        den = Polynomial([rng.randint(-5, 5), rng.randint(1, 5), 1])
        if num.is_zero:
            continue
        s = expand_at_infinity(num, den, n)
        assert all(type(c) is Fraction for c in s)
        partial = Polynomial(list(reversed(s)))
        assert (num * lam_n + (-(den * partial))).degree < den.degree


def test_hbar_series():
    assert series_ratio([1], [1, -1], 4) == (1, 1, 1, 1, 1)
    assert series_ratio([0, 1], [2], 2) == (0, Fraction(1, 2), 0)
    assert all(type(c) is Fraction for c in series_ratio([1], [1], 2))
    with pytest.raises(ZeroDivisionError):
        series_ratio([1], [0, 1], 2)
    with pytest.raises(ZeroDivisionError):
        series_ratio([1], [], 2)
