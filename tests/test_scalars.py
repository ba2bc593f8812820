"""Exact scalar layer: polynomials, rational functions, series at infinity."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starprod.errors import PoleAtInfinityError
from starprod.scalars import (
    HbarSeries,
    ONE_POLY,
    Polynomial,
    RationalFunction,
    ZERO_POLY,
    expand_at_infinity,
    frac_from_str,
    frac_to_str,
    poly_gcd,
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


def test_polynomial_arithmetic():
    p = Polynomial([1, 2])       # 1 + 2λ
    q = Polynomial([0, 0, 3])    # 3λ²
    assert (p + q).coeffs == (1, 2, 3)
    assert (p - p).is_zero
    assert (p * q).coeffs == (0, 0, 3, 6)
    assert (p * p).coeffs == (1, 4, 4)
    assert p.scale(Fraction(1, 2)).coeffs == (Fraction(1, 2), 1)


def test_polynomial_division():
    # (λ² - 1) = (λ - 1)(λ + 1)
    num = Polynomial([-1, 0, 1])
    quo, rem = num.divmod(Polynomial([-1, 1]))
    assert quo.coeffs == (1, 1) and rem.is_zero
    assert num.exact_div(Polynomial([1, 1])).coeffs == (-1, 1)
    with pytest.raises(ArithmeticError):
        num.exact_div(Polynomial([0, 0, 1]))
    with pytest.raises(ZeroDivisionError):
        num.divmod(ZERO_POLY)
    # non-monic divisor forces rational quotient coefficients
    quo, rem = Polynomial([0, 0, 1]).divmod(Polynomial([0, 2]))
    assert quo.coeffs == (0, Fraction(1, 2)) and rem.is_zero


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
    if as_fractions:
        # an integral coefficient given as Fraction(k, 1) rather than as k
        a = [Fraction(c) for c in a]
    a, b = Polynomial(a), Polynomial(b + [lead])
    quo, rem = a.divmod(b)
    assert quo * b + rem == a
    assert rem.degree < b.degree
    ref = tuple(Polynomial(cs) for cs in _fraction_divmod(a.coeffs, b.coeffs))
    assert (quo, rem) == ref
    assert (hash(quo), hash(rem)) == tuple(hash(p) for p in ref)


@settings(max_examples=100, deadline=None)
@given(st.lists(COEFFS, max_size=3), st.lists(COEFFS, max_size=3), st.lists(COEFFS, max_size=3), LEADS)
def test_exact_div_properties(q, b, r, lead):
    q, b = Polynomial(q), Polynomial(b + [lead])
    assert (q * b).exact_div(b) == q
    r = Polynomial(r[: b.degree])
    assume(not r.is_zero)
    with pytest.raises(ArithmeticError):
        (q * b + r).exact_div(b)


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
    assert p - q == p + (-q)
    # equal values hash equally, whether the coefficients came as int or Fraction
    for a, b in (((p + q) + r, p + (q + r)), (p * q, q * p), (p * (q + r), p * q + p * r)):
        assert hash(a) == hash(b)
    as_fractions = Polynomial([Fraction(c) for c in p.coeffs])
    assert as_fractions == p and hash(as_fractions) == hash(p)


def test_polynomial_render():
    assert Polynomial([0, -2, 1]).render() == "-2*λ+λ^2"
    assert Polynomial([Fraction(1, 2)]).render() == "1/2"
    assert Polynomial([0, 1]).render("x") == "x"
    assert ZERO_POLY.render() == "0"
    assert Polynomial([1, -1]).render() == "1-λ"


def test_poly_gcd():
    a = Polynomial([-1, 0, 1])       # (λ-1)(λ+1)
    b = Polynomial([1, 2, 1])        # (λ+1)²
    assert poly_gcd(a, b).coeffs == (1, 1)
    assert poly_gcd(a, ONE_POLY) == ONE_POLY
    assert poly_gcd(ZERO_POLY, b) == b.monic()
    # random products share exactly the planted factor
    rng = random.Random(7)
    for _ in range(25):
        f = Polynomial([rng.randint(-4, 4) for _ in range(3)] + [1])
        g = Polynomial([rng.randint(-4, 4) for _ in range(2)] + [1])
        h = Polynomial([rng.randint(-4, 4) for _ in range(2)] + [1])
        d = poly_gcd(f * g, f * h)
        assert d.exact_div(poly_gcd(d, f.monic())) == poly_gcd(g, h).monic()


def test_rational_function_reduction():
    # (λ² - λ) / (λ - 1) reduces to λ
    r = RationalFunction(Polynomial([0, -1, 1]), Polynomial([-1, 1]))
    assert r.num == LAMBDA and r.den == ONE_POLY
    # denominators are made monic so equal functions are structurally equal
    a = RationalFunction(Polynomial([1]), Polynomial([0, 2]))
    b = RationalFunction(Polynomial([Fraction(1, 2)]), LAMBDA)
    assert a == b and hash(a) == hash(b)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(ONE_POLY, ZERO_POLY)


def test_rational_function_arithmetic():
    half = RationalFunction(1, Polynomial([0, 2]))
    r = half + half
    assert r == RationalFunction(ONE_POLY, LAMBDA)
    assert (r - r).is_zero
    prod = r * RationalFunction(LAMBDA, Polynomial([1, 1]))
    assert prod == RationalFunction(ONE_POLY, Polynomial([1, 1]))
    quot = prod / prod
    assert quot == RationalFunction(1)
    with pytest.raises(ZeroDivisionError):
        prod / RationalFunction(0)
    assert RationalFunction(0) + prod == prod
    assert prod.scale(0).is_zero


def test_expansion_at_infinity():
    # 1 / (2λ(λ-1)) = (1/2)ħ² + (1/2)ħ³ + ... in ħ = 1/λ
    s = expand_at_infinity(ONE_POLY, Polynomial([0, -2, 2]), 3)
    assert s.coeffs == (0, 0, Fraction(1, 2), Fraction(1, 2))
    # 1/(λ - 1) = ħ + ħ² + ħ³ + ...
    assert expand_at_infinity(ONE_POLY, Polynomial([-1, 1]), 4).coeffs == (0, 1, 1, 1, 1)
    # constants survive; poles at infinity are refused
    assert expand_at_infinity(Polynomial([5]), ONE_POLY, 2).coeffs == (5, 0, 0)
    assert expand_at_infinity(ZERO_POLY, Polynomial([0, 1]), 2).coeffs == (0, 0, 0)
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
    reduced = RationalFunction(num, den)
    assert expand_at_infinity(reduced.num, reduced.den, 5) == s


def test_expansion_remainder_order():
    # subtracting the partial sum from f leaves a function of order > n at ∞
    rng = random.Random(3)
    n = 8
    for _ in range(20):
        num = Polynomial([rng.randint(-5, 5) for _ in range(3)])
        den = Polynomial([rng.randint(-5, 5), rng.randint(1, 5), 1])
        if num.is_zero:
            continue
        f = RationalFunction(num, den)
        s = expand_at_infinity(num, den, n)
        # Σ c_k λ^{-k} = (Σ c_k λ^{n-k}) / λ^n
        partial = RationalFunction(
            Polynomial(list(reversed(s.coeffs))), Polynomial([0] * n + [1])
        )
        diff = f - partial
        assert diff.is_zero or diff.den.degree - diff.num.degree > n


def test_hbar_series():
    assert HbarSeries.ratio([1], [1, -1], 4).coeffs == (1, 1, 1, 1, 1)
    assert HbarSeries.ratio([0, 1], [2], 2).coeffs == (0, Fraction(1, 2), 0)
    with pytest.raises(ZeroDivisionError):
        HbarSeries.ratio([1], [0, 1], 2)
    with pytest.raises(ValueError):
        HbarSeries(2, [1, 2])
    assert str(HbarSeries(2, [0, Fraction(-1, 2), 0])) == "-1/2*ħ"
