"""The ħ-adic inverse behind `star_series`, against the exact route."""

from fractions import Fraction
from math import gcd

import pytest

from starprod import shapovalov, star
from starprod.lie import heisenberg, random_two_step, sl2, virasoro
from starprod.scalars import Polynomial, adjugate, expand_at_infinity
from starprod.shapovalov import inverse_series, pairing_matrix
from starprod.star import exact_series, star_series
from starprod.verify import check_order_bounds

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

COEFFS = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


def _lead(e, ell):
    """The λ^ell coefficient of e."""
    return e.coeffs[ell] if ell < len(e.coeffs) else 0


def _with_lead(e, ell, lead):
    """e with its λ^ell coefficient replaced by lead."""
    cs = list(e.coeffs) + [0] * (ell + 1 - len(e.coeffs))
    cs[ell] = lead
    return Polynomial(cs)


@st.composite
def bounded_matrices(draw):
    """(matrix, row lengths, order): row k has λ-degree at most lengths[k], and
    the λ^lengths[k] coefficients form an invertible constant matrix N_0."""
    n = draw(st.integers(1, 4))
    lengths = [draw(st.integers(0, 3)) for _ in range(n)]
    rows = [[Polynomial([draw(COEFFS) for _ in range(ell + 1)]) for _ in range(n)]
            for ell in lengths]
    n0 = [[Polynomial([_lead(e, ell)]) for e in row] for row, ell in zip(rows, lengths)]
    if adjugate(n0)[1].is_zero:
        # keep the lower coefficients as drawn, but make N_0 the identity
        rows = [[_with_lead(e, ell, int(i == k)) for k, e in enumerate(row)]
                for i, (row, ell) in enumerate(zip(rows, lengths))]
    return rows, lengths, draw(st.integers(0, 7))


def _p(*coeffs):
    return Polynomial(coeffs)


@settings(max_examples=150, deadline=None)
@given(bounded_matrices())
# N_1 ≠ 0 with a rational entry, so the lift and the clearing both act
@example(([[_p(1, 2), _p(Fraction(1, 3))], [_p(0, 1), _p(5, 0, 1)]], [1, 2], 6))
@example(([[_p(2, 0, 3)]], [2], 7))  # 1×1, no ħ^1 term
@example(([[_p(1), _p(1)], [_p(0, 1), _p(1)]], [0, 1], 0))  # order 0
def test_series_equals_expanded_adjugate(case):
    matrix, lengths, order = case
    adj, det = adjugate(matrix)
    got = inverse_series(matrix, lengths, order)
    for l, row in enumerate(adj):
        for c, num in enumerate(row):
            want = expand_at_infinity(num, det, order)
            assert got.get((l, c), (0,) * (order + 1)) == want, (l, c)
    # absent entries are exactly the ones whose series vanishes through the order
    assert all(any(cs) for cs in got.values())


def _rescale_everything_lift(hrows, q0, det, c, steps):
    """The reference lift: each step puts det under every earlier vector and
    reduces the whole set, den included, by one gcd."""
    vectors, den = [[row[c] for row in q0]], det
    for t in range(1, steps + 1):
        s = [sum(h[j] * vectors[t - j][k] for k, h in entries for j in range(1, min(t, len(h) - 1) + 1))
             for entries in hrows]
        new = [-sum(a * b for a, b in zip(row, s)) for row in q0]
        vectors = [[v * det for v in vec] for vec in vectors] + [new]
        den *= det
        g = gcd(den, *(v for vec in vectors for v in vec))
        vectors, den = [[v // g for v in vec] for vec in vectors], den // g
    return vectors, den


@st.composite
def integer_blocks(draw):
    """(hrows, q0, det, c, steps) as `inverse_series` hands one block to `_lift`: a
    1×1 or dense 2–4-row integer block N_0 + N_1·ħ + … with N_0 invertible,
    q0 = det·N_0⁻¹ and det > 0."""
    n, depth = draw(st.sampled_from([1, 2, 3, 4])), draw(st.integers(1, 3))
    h = [[[draw(st.integers(-6, 6)) for _ in range(depth + 1)] for _ in range(n)] for _ in range(n)]
    adj, det = adjugate([[_p(e[0]) for e in row] for row in h])
    assume(not det.is_zero)
    sign = 1 if det.lc > 0 else -1
    q0 = [[sign * e.lc for e in row] for row in adj]
    hrows = [list(enumerate(row)) for row in h]
    return hrows, q0, sign * det.lc, draw(st.integers(0, n - 1)), draw(st.integers(1, 8))


@settings(max_examples=150, deadline=None)
@given(integer_blocks())
@example(([[(0, [2, 1])]], [[1]], 2, 0, 2))  # each step rescales the earlier vectors
# q0's column 0 is (2, 0) over det 4: the lift starts from (1, 0) over 2
@example(([[(0, [2, 1]), (1, [0, 0])], [(0, [0, 1]), (1, [2, 3])]], [[2, 0], [0, 2]], 4, 0, 3))
def test_lift_is_the_rescale_everything_lift(case):
    # one gcd over each new vector gives the same reduced (vectors, den) as
    # rescaling and reducing every earlier vector at every step
    vectors, den = shapovalov._lift(*case)
    assert (vectors, den) == _rescale_everything_lift(*case)
    assert den > 0 and gcd(den, *(v for vec in vectors for v in vec)) == 1


def test_series_declines_where_it_does_not_apply():
    # N_0 singular: both rows lead with the same coefficients
    assert inverse_series([[_p(0, 1), _p(0, 1)], [_p(0, 1), _p(1, 1)]], [1, 1], 3) is None
    # an entry above its row's bound
    assert inverse_series([[_p(1, 0, 1)]], [1], 3) is None


def test_singular_leading_term_takes_the_exact_route():
    # Virasoro Δ = 1, c = −8: N_0 is singular at degrees 2 and 3 (det A = 36λ²
    # at degree 2), and the product series has an ħ⁰ term at a slot of length 1
    alg = virasoro(1, -8, cutoff=3)
    product = star_series(alg, 3)
    assert sorted(n for n, _ in alg.memo.components) == [2, 3]  # the fallback degrees only
    lm2, lp2 = alg.by_name("L-2").id, alg.by_name("L2").id
    assert product.orders[0][((lm2,), (lp2,))] == Fraction(2, 9)
    assert product.orders == exact_series(virasoro(1, -8, cutoff=3), 3).orders


def test_series_route_falls_back_only_on_a_singular_character():
    # N_0 is block lower-triangular by word length, and its length-k diagonal
    # block is the k-th symmetric power of χ([·,·]); so N_0 is invertible, and
    # the degree stays off the exact route, whenever the character is
    # nonsingular through that degree
    grid = [
        (f"virasoro {d} {c}", virasoro(d, c, cutoff=5), 5)
        for d in (1, Fraction(1, 2), -2)
        for c in (1, -8, 0, Fraction(7, 5))
    ]
    grid += [(f"sl2 {z}", sl2(z), 3) for z in (1, 0, Fraction(5, 3))]
    grid += [(f"heisenberg(2) {w}", heisenberg(2, w), 3) for w in (1, 0)]
    grid += [(f"random_two_step {seed}", random_two_step(seed), 3) for seed in range(10)]
    fallbacks, singular = set(), set()
    for label, alg, top in grid:
        for n in range(1, top + 1):
            basis, matrix = pairing_matrix(alg, n)
            if inverse_series(matrix, [len(x) for x in basis.minus], n) is None:
                fallbacks.add((label, n))
            if not all(alg.check_nonsingular(n).values()):
                singular.add((label, n))
    expected = {("virasoro 1 -8", n) for n in range(2, 6)}
    expected |= {("sl2 0", n) for n in range(1, 4)}
    expected |= {("heisenberg(2) 0", n) for n in range(1, 4)}
    assert fallbacks == singular == expected


def test_row_bound_violation_takes_the_exact_route(monkeypatch):
    real = shapovalov.pairing_matrix

    def raised(algebra, degree, tie_break="desc"):
        # λ^(n+1) on top of the entry: above the row bound, still regular at ∞
        # (new rows: the memoized ones are tuples that no caller may change)
        basis, rows = real(algebra, degree, tie_break)
        top = rows[0][0] + Polynomial([0] * (degree + 1) + [1])
        return basis, ((top, *rows[0][1:]), *rows[1:])

    plain = star_series(sl2(Fraction(3, 2)), 5).orders
    monkeypatch.setattr(shapovalov, "pairing_matrix", raised)
    alg = sl2(Fraction(3, 2))
    product = star_series(alg, 5)
    assert sorted(n for n, _ in alg.memo.components) == [1, 2, 3, 4, 5]
    assert product.orders == exact_series(sl2(Fraction(3, 2)), 5).orders
    assert product.orders != plain  # the raised matrices were used


def test_corrupted_lift_fails_the_certificate(monkeypatch):
    real = shapovalov._lift
    for t in range(3):  # Q_0, Q_1 and Q_2 of the degree-1 column

        def corrupt(*args, t=t):
            vectors, den = real(*args)
            vectors[t][0] += 1
            return vectors, den

        monkeypatch.setattr(shapovalov, "_lift", corrupt)
        with pytest.raises(ArithmeticError, match=r"^sl2: degree 1: ħ-adic inverse certificate"):
            star_series(sl2(1), 3)


# rows and columns {0, 2} form one block and {1} the other, so the first
# block's local column 1 is the whole matrix's column 2
INTERLEAVED = [[_p(1, 2), _p(0), _p(1, 1)], [_p(0), _p(3, 1), _p(0)], [_p(0, 1), _p(0), _p(2, 3)]]


def test_interleaved_blocks_key_the_whole_matrix(monkeypatch):
    order = 3
    adj, det = adjugate(INTERLEAVED)
    got = inverse_series(INTERLEAVED, [1, 1, 1], order)
    for l, row in enumerate(adj):
        for c, num in enumerate(row):
            want = expand_at_infinity(num, det, order)
            assert got.get((l, c), (0,) * (order + 1)) == want, (l, c)
    assert set(got) == {(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)}

    real = shapovalov._lift

    def corrupt(hrows, q0, det, c, steps):
        vectors, den = real(hrows, q0, det, c, steps)
        if len(q0) == 2 and c == 1:  # the first block's second column only
            vectors[1][0] += 1
        return vectors, den

    monkeypatch.setattr(shapovalov, "_lift", corrupt)
    with pytest.raises(ArithmeticError, match=r"^ħ-adic inverse certificate N·Q ≡ I mod ħ\^3 fails in column 2$"):
        inverse_series(INTERLEAVED, [1, 1, 1], order)


def test_corrupted_series_fails_the_route_comparison(monkeypatch):
    alg = sl2(1)
    f, e = alg.by_name("f").id, alg.by_name("e").id
    real = star.series_component

    def corrupt(algebra, n, order):
        terms = real(algebra, n, order)
        if n == 1:
            cs = terms[((f,), (e,))]
            terms[((f,), (e,))] = cs[:1] + (2 * cs[1],) + cs[2:]
        return terms

    monkeypatch.setattr(star, "series_component", corrupt)
    result = check_order_bounds(alg, 2)
    assert (result.passed, result.detail) == (
        False,
        "order-1 series term at [f | e] differs from the exact route",
    )


def test_series_route_keeps_no_state():
    # each call lifts afresh from the memoized matrices: orders agree across
    # calls and with the exact route, and the memo holds no series
    w = Fraction(-3, 2)
    alg = heisenberg(2, w)
    want = {m: exact_series(heisenberg(2, w), m, slot_degree_limit=3).orders for m in (1, 5)}
    for m in (5, 1, 5):  # a lower order after a higher one, then the higher again
        assert star_series(alg, m, slot_degree_limit=3).orders == want[m]
    assert sorted(vars(alg.memo)) == ["actions", "components", "orders", "pairings"]
    assert alg.memo.components == {}  # a nonsingular character never falls back
