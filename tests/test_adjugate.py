"""The fraction-free elimination kernel, Gauss–Jordan (`adjugate`) and
forward-only (`determinant`), against sympy's det and adjugate."""

from fractions import Fraction

import pytest

from starprod.scalars import ZERO_POLY, Polynomial, adjugate, determinant
from starprod.shapovalov import invert_pairing

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

LAM = sympy.Symbol("lam")

INTEGERS = st.integers(-3, 3)
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def matrices(draw):
    """Small square matrices of polynomials in λ with integer or rational
    coefficients; some need a row swap, some are singular."""
    coeff = draw(st.sampled_from([INTEGERS, RATIONALS]))
    poly = st.lists(coeff, max_size=3).map(Polynomial)
    n = draw(st.integers(1, 3))
    rows = [[draw(poly) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rows[0][0] = ZERO_POLY  # the first pivot must come from a lower row
    if n > 1 and draw(st.booleans()):
        m = draw(poly)
        rows[-1] = [m * e for e in rows[0]]  # a multiple of the first row
    return rows


@st.composite
def cleared_matrices(draw):
    """Integer matrices with one coefficient over 3, 4 or 12, so the clearing
    of denominators and the unscale at the end meet row swaps."""
    poly = st.lists(INTEGERS, max_size=3).map(Polynomial)
    n = draw(st.integers(1, 3))
    rows = [[draw(poly) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        rows[0][0] = ZERO_POLY  # the first pivot must come from a lower row
    cells = [(i, j) for i in range(n) for j in range(n)]
    i, j = draw(st.sampled_from(cells[1:] or cells))  # not the entry zeroed above
    top = Fraction(draw(st.sampled_from([1, -1, 5, -7])), draw(st.sampled_from([3, 4, 12])))
    rows[i][j] = rows[i][j] + Polynomial([0] * draw(st.integers(0, 2)) + [top])
    return rows


def _sympy(p):
    return sum(
        (sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) * LAM**i
         for i, c in enumerate(p.coeffs)),
        sympy.Integer(0),
    )


def _p(*coeffs):
    return Polynomial(coeffs)


@settings(max_examples=100, deadline=None)
@given(st.one_of(matrices(), cleared_matrices()))
@example([[ZERO_POLY, _p(1)], [_p(0, 1), ZERO_POLY]])  # row swap flips the sign
@example([[ZERO_POLY, _p(Fraction(1, 3))], [_p(0, 1), _p(1, 0, Fraction(-5, 12))]])  # and d = 12
@example([[ZERO_POLY, ZERO_POLY, _p(1)], [ZERO_POLY, _p(2), ZERO_POLY], [_p(0, 1), ZERO_POLY, ZERO_POLY]])
@example([[_p(1, 1), _p(0, 1)], [_p(2, 2), _p(0, 2)]])  # singular
@example([[ZERO_POLY, ZERO_POLY], [_p(1), _p(0, 1)]])  # singular, zero row
def test_adjugate_matches_sympy(rows):
    ref = sympy.Matrix([[_sympy(e) for e in row] for row in rows])
    adj, det = adjugate(rows)
    assert sympy.expand(_sympy(det) - ref.det()) == 0
    assert determinant(rows) == det
    if det.is_zero:
        assert adj is None
        return
    ref_adj = ref.adjugate()
    for i, row in enumerate(adj):
        for j, entry in enumerate(row):
            assert sympy.expand(_sympy(entry) - ref_adj[i, j]) == 0
    assert invert_pairing(rows) == (adj, det)
