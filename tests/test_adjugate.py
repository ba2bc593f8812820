"""The fraction-free elimination kernel, Gauss–Jordan (`adjugate`) and
forward-only (`determinant`), run on a whole matrix, the inverse that
`invert_pairing` gives block by block, and the det interpolated from
integer dets (`_interpolated_det`), against sympy's det and adjugate;
the per-block certificates against a tampered kernel or block sign; and the
packed A·adj = det·I certificate against the identity summed in ℚ[λ]."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from starprod import scalars, shapovalov
from starprod.errors import CertificateError, SingularCharacterError
from starprod.lie import GradedLieAlgebra, virasoro
from starprod.scalars import ONE_POLY, ZERO_POLY, Polynomial, adjugate, blocks, determinant, product
from starprod.shapovalov import (
    _interpolated_det,
    inverse_series,
    invert_pairing,
    pairing_determinant,
    pairing_matrix,
)

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

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
def sparse_blocks(draw):
    """Connected 4–6-row matrices, about half of the entries zero, that the
    kernel eliminates as one block: A[0][0] = 0, so the first pivot is row 1's
    and needs a swap, and the last row is nonzero in column 0 and zero in
    column 1 where the pivot row is not, so the first step fills it in.  The
    subdiagonal, the diagonal past 0 and A[0][n−1] keep the pattern connected."""
    coeff = draw(st.sampled_from([INTEGERS, RATIONALS]))
    nonzero = st.lists(coeff, min_size=1, max_size=3).map(Polynomial).filter(bool)
    n = draw(st.integers(4, 6))
    kept = {(i + 1, i) for i in range(n - 1)} | {(i, i) for i in range(1, n)}
    kept |= {(0, n - 1), (n - 1, 0)}
    rows = [[draw(nonzero) if (i, j) in kept or draw(st.booleans()) else ZERO_POLY
             for j in range(n)] for i in range(n)]
    rows[0][0] = rows[n - 1][1] = ZERO_POLY
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


def _matches_whole(rows, adj, det):
    """invert_pairing, handed one block at a time, against the kernel's
    whole-matrix adj and det: sign·Π det_b is the same det, and the entry of
    A⁻¹ at (cols[j], rows[i]), adj_b[j][i] over det_b, is nonzero where adj
    is and equal to adj/det by cross-multiplication; off the blocks adj is 0."""
    sign, parts = blocks(rows)
    inverse, dets = {}, [Polynomial([sign])]
    for r, c, block in parts:
        adj_b, det_b = invert_pairing(block)
        dets.append(det_b)
        inverse.update({(l, k): (adj_b[j][i], det_b) for j, l in enumerate(c) for i, k in enumerate(r)})
    assert product(dets) == det
    for l, want in enumerate(adj):
        for k, e in enumerate(want):
            num, den = inverse.get((l, k), (ZERO_POLY, ONE_POLY))
            assert bool(num) == bool(e) and num * det == e * den


@settings(max_examples=100, deadline=None)
@given(st.one_of(matrices(), cleared_matrices(), sparse_blocks(),  # and λ·A, whose λ the kernel divides out
                 cleared_matrices().map(lambda rows: [[e * _p(0, 1) for e in row] for row in rows])))
@example([[ZERO_POLY, _p(1)], [_p(0, 1), ZERO_POLY]])  # row swap flips the sign
@example([[ZERO_POLY, _p(Fraction(1, 3))], [_p(0, 1), _p(1, 0, Fraction(-5, 12))]])  # and d = 12
@example([[ZERO_POLY, ZERO_POLY, _p(1)], [ZERO_POLY, _p(2), ZERO_POLY], [_p(0, 1), ZERO_POLY, ZERO_POLY]])
@example([[_p(1, 1), _p(0, 1)], [_p(2, 2), _p(0, 2)]])  # singular
@example([[_p(0, Fraction(1, 2), 1), ZERO_POLY, _p(0, 0, 3)], [_p(0, 0, 1), _p(0, 2), _p(0, 1)],
          [ZERO_POLY, _p(0, 0, 0, 5), _p(0, -1)]])  # λ·(an integer matrix over 2)
@example([[ZERO_POLY, ZERO_POLY], [_p(1), _p(0, 1)]])  # singular, zero row
@example([[ZERO_POLY, ZERO_POLY, _p(1), _p(0, 1)], [_p(1), _p(2), ZERO_POLY, ZERO_POLY],
          [ZERO_POLY, _p(0, 1), _p(3), ZERO_POLY], [_p(1, 1), ZERO_POLY, _p(1), _p(2)]])  # fill-in
def test_adjugate_matches_sympy(rows):
    # sympy's det over ℚ[λ], and its adjugate as the signed minors, compared
    # as exact ring elements
    n = len(rows)
    ring = sympy.QQ[LAM]
    elem = lambda p: ring.from_sympy(_sympy(p))
    ref = DomainMatrix([[elem(e) for e in row] for row in rows], (n, n), ring)
    adj, det = adjugate(rows)
    assert elem(det) == ref.det()
    assert determinant(rows) == det
    if det.is_zero:
        assert adj is None
        return
    others = lambda k: [m for m in range(n) if m != k]
    ref_adj = [[(-1) ** (i + j) * ref.extract(others(j), others(i)).det() if n > 1 else ring.one
                for j in range(n)] for i in range(n)]
    assert [[elem(e) for e in row] for row in adj] == ref_adj
    # the kernel eliminated A whole; invert_pairing, handed each of its blocks,
    # keeps each entry over its block's det, the same inverse
    _matches_whole(rows, adj, det)


def test_one_by_one_is_its_own_det():
    # a 1×1 A = [a] has det a and adjugate [1], with no elimination; [0] is
    # singular by the kernel alone, and invert_pairing refuses it
    zero = [[ZERO_POLY]]
    assert adjugate(zero) == (None, ZERO_POLY) and determinant(zero) == ZERO_POLY
    assert scalars._bareiss(zero, True) == (None, ZERO_POLY)
    with pytest.raises(SingularCharacterError):
        invert_pairing(zero)
    a = _p(Fraction(-3, 4), 0, 5)
    assert adjugate([[a]]) == ([[_p(1)]], a) and determinant([[a]]) == a
    assert scalars._bareiss([[a]], True) == ([[_p(1)]], a)


def test_an_inexact_bareiss_division_fails_naming_its_column(monkeypatch):
    # every intermediate is a minor in ℤ[λ], so a remainder means a wrong
    # kernel: a step that divides by 3·prev raises CertificateError
    real = scalars._step
    monkeypatch.setattr(scalars, "_step", lambda a, p, f, t, prev: real(a, p, f, t, [3 * c for c in prev]))
    message = "Bareiss division by the previous pivot leaves a remainder at column 0"
    with pytest.raises(CertificateError, match=f"^{message}$"):
        adjugate([[_p(1), _p(1)], [_p(1), _p(2)]])
    with pytest.raises(CertificateError, match=f"^virasoro: degree 2: {message}$"):
        shapovalov.exact_component(virasoro(1, 1), 2)


@st.composite
def block_matrices(draw):
    """Block-diagonal matrices of polynomials in λ, at most 6 rows in blocks
    of 1–3, with the rows and the columns shuffled.  Some give the blocks'
    columns in another order of sizes, so a component has unequal row and
    column counts and the matrix is singular by its pattern alone."""
    coeff = draw(st.sampled_from([INTEGERS, RATIONALS]))
    poly = st.lists(coeff, min_size=1, max_size=3).map(Polynomial)
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda s: sum(s) <= 6))
    widths = draw(st.permutations(sizes)) if draw(st.booleans()) else sizes
    n = sum(sizes)
    base = [[ZERO_POLY] * n for _ in range(n)]
    top = left = 0
    for height, width in zip(sizes, widths):
        for i in range(top, top + height):
            for j in range(left, left + width):
                base[i][j] = draw(poly)
        top, left = top + height, left + width
    rperm = draw(st.permutations(range(n)))
    cperm = draw(st.permutations(range(n)))
    return [[base[i][j] for j in cperm] for i in rperm]


@settings(max_examples=60, deadline=None)
@given(block_matrices())
@example([[ZERO_POLY, _p(2)], [_p(0, 1), ZERO_POLY]])  # two 1×1 blocks, odd column order
@example([[_p(1), _p(1), ZERO_POLY], [ZERO_POLY, ZERO_POLY, _p(0, 1)], [_p(1), _p(1), ZERO_POLY]])
@example([[_p(1), _p(2), ZERO_POLY], [ZERO_POLY, ZERO_POLY, _p(3)], [ZERO_POLY, ZERO_POLY, _p(1)]])
def test_blocks_match_sympy(rows):
    sign, parts = blocks(rows)
    n = len(rows)
    assert sorted(i for r, _, _ in parts for i in r) == list(range(n))
    assert sorted(j for _, c, _ in parts for j in c) == list(range(n))
    part = {}  # ("row", i) or ("col", j) -> the index of its part
    for k, (r, c, block) in enumerate(parts):
        assert block == [[rows[i][j] for j in c] for i in r]
        part.update({("row", i): k for i in r} | {("col", j): k for j in c})
    # every nonzero entry joins its row and its column in one part
    assert all(part["row", i] == part["col", j]
               for i, row in enumerate(rows) for j, e in enumerate(row) if e)
    assert (sign == 0) == any(len(r) != len(c) for r, c, _ in parts)
    # sympy's det over ℚ[λ], and its adjugate as the signed minors, compared
    # as exact ring elements
    ring = sympy.QQ[LAM]
    elem = lambda p: ring.from_sympy(_sympy(p))
    ref = DomainMatrix([[elem(e) for e in row] for row in rows], (n, n), ring)
    ref_det = ref.det()
    others = lambda k: [m for m in range(n) if m != k]
    ref_adj = [[(-1) ** (i + j) * ref.extract(others(j), others(i)).det() if n > 1 else ring.one
                for j in range(n)] for i in range(n)]
    adj, det = adjugate(rows)
    assert elem(det) == ref_det
    assert determinant(rows) == det
    if det.is_zero:
        assert adj is None
        # singular by its pattern (sign 0), or else by a block invert_pairing refuses
        if sign:
            with pytest.raises(SingularCharacterError):
                for _, _, block in parts:
                    invert_pairing(block)
        return
    assert [[elem(e) for e in row] for row in adj] == ref_adj
    # the kernel eliminated A whole; invert_pairing, handed these blocks one
    # at a time, keeps adj_b over det_b, and with sign·Π det_b must give the
    # same inverse and det
    _matches_whole(rows, adj, det)


def _tamper(monkeypatch, wrong):
    """Apply wrong() to the det of every nonsingular block of two rows or more
    that the kernel eliminates, and leave its adjugate as it is."""
    real = scalars._bareiss

    def tampered(matrix, gauss_jordan):
        adj, det = real(matrix, gauss_jordan)
        if not det or len(matrix) < 2:
            return adj, det
        return adj, wrong(det)

    monkeypatch.setattr(scalars, "_bareiss", tampered)


SL3 = Path(__file__).resolve().parent / "fixtures" / "sl3_principal.json"


@pytest.mark.parametrize(
    "wrong", [lambda det: -det, lambda det: det + Polynomial([1])], ids=["sign", "det"]
)
def test_a_wrong_block_fails_its_certificate(monkeypatch, wrong):
    # sl3 at degree 4 has blocks of 1, 2 and 3 rows next to each other
    algebra = GradedLieAlgebra.from_json(json.loads(SL3.read_text(encoding="utf-8")))
    basis, matrix = pairing_matrix(algebra, 4)
    assert sorted(len(r) for r, _, _ in blocks(matrix)[1]) == [1, 1, 2, 2, 3]
    lengths = [len(x) for x in basis.minus]
    _tamper(monkeypatch, wrong)
    with pytest.raises(CertificateError, match="^sl3: degree 4: adjugate certificate"):
        shapovalov.exact_component(algebra, 4)
    with pytest.raises(CertificateError, match=r"^sl3: degree 4: block at rows \[\d"):
        pairing_determinant(algebra, 4)
    with pytest.raises(CertificateError, match="^ħ-adic inverse certificate"):
        inverse_series(matrix, lengths, 4)


def _holds(rows, adj, det):
    """A·adj = det·I over ℚ[λ], every entry summed in Polynomials."""
    n = len(rows)
    return all(sum((rows[i][k] * adj[k][j] for k in range(n)), ZERO_POLY) == (det if i == j else ZERO_POLY)
               for i in range(n) for j in range(n))


@st.composite
def certificates(draw):
    """(A, adj, det): a nonsingular matrix of `block_matrices`, taken as one
    block, its adjugate and det times one rational, and at times one entry of
    adj or the det moved by a polynomial or by c·λ^j·(λ − 2^k), which
    vanishes at 2^k."""
    rows = draw(block_matrices())
    adj, det = adjugate(rows)
    assume(det)
    scale = draw(st.sampled_from([1, -3, Fraction(1, 3), Fraction(-5, 4)]))
    adj, det = [[e.scale(scale) for e in row] for row in adj], det.scale(scale)
    shift = draw(st.one_of(
        st.lists(st.one_of(INTEGERS, RATIONALS), min_size=1, max_size=3).map(Polynomial),
        st.builds(lambda c, j, k: Polynomial([0] * j + [-c << k, c]), st.integers(-3, 3).filter(bool),
                  st.integers(0, 2), st.integers(1, 8))))
    where = draw(st.sampled_from(["none", "det", "adj"]))
    n = len(rows)
    if where == "det":
        det = det + shift
        assume(det)
    elif where == "adj":
        k, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        adj[k][j] = adj[k][j] + shift
    return rows, adj, det


def _narrow_adj():
    # a 5×5 integer block with det −2 and adj[1][1] = −12; −4 − λ has that
    # value at λ = 8, and ℓ1 norm 5, the largest in the tampered adj.  Without
    # the factor n, the bound 1·5 + 2 = 7 would pack at 8, where the residual
    # A[i][1]·(8 − λ) vanishes; n·1·5 + 2 = 27 packs at 32
    rows = [[_p(x) for x in row] for row in
            [[1, 0, 0, -1, -1], [0, 0, 0, -1, 0], [1, -1, -1, -1, 1], [1, 0, -1, 1, -1], [1, 0, 1, 1, 1]]]
    adj, det = adjugate(rows)
    assert det == _p(-2) and adj[1][1] == _p(-12)
    adj[1][1] = _p(-4, -1)
    return rows, adj, det


# the 1×1 block [1], with adj = [1] and det 3 − λ: without d·H_det the bound
# 1 would pack at 2, where the residual λ − 2 vanishes; 1 + 4 = 5 packs at 8
_NARROW_DET = ([[_p(1)]], [[_p(1)]], _p(3, -1))


@settings(max_examples=100, deadline=None)
@given(certificates())
@example(_narrow_adj())
@example(_NARROW_DET)
@example(([[_p(0, 1), _p(1)], [_p(2), _p(Fraction(1, 2))]], [[_p(Fraction(1, 2)), _p(-1)], [_p(-2), _p(0, 1)]],
          _p(-2, Fraction(1, 2))))  # adj and det of a rational block, untampered
def test_the_packed_certificate_decides_the_identity(case):
    # the certificate passes exactly when A·adj = det·I holds in ℚ[λ]
    rows, adj, det = case
    try:
        shapovalov._certify_adjugate(rows, adj, det)
        passed = True
    except CertificateError:
        passed = False
    assert passed == _holds(rows, adj, det)


@st.composite
def bounded_matrices(draw):
    """(rows, lengths): block-diagonal matrices of at most 6 rows in blocks of
    1–3, rows and columns shuffled, each entry of row k of λ-degree at most
    lengths[k] ≤ 3, and every entry of row k a multiple of λ^shifts[k] with
    shifts[k] ≤ lengths[k], so rows share powers of λ.  Rational draws get a
    coefficient over 3, 4 or 12, so d > 1; some blocks repeat a row
    (singular), and a row may stay below its bound (a zero row of N₀)."""
    rational = draw(st.booleans())
    coeff = RATIONALS if rational else INTEGERS
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda s: sum(s) <= 6))
    n = sum(sizes)
    lengths = [draw(st.integers(0, 3)) for _ in range(n)]
    shifts = [draw(st.integers(0, ell)) for ell in lengths]
    base = [[ZERO_POLY] * n for _ in range(n)]
    top = 0
    for size in sizes:
        for i in range(top, top + size):
            for j in range(top, top + size):
                tail = draw(st.lists(coeff, max_size=lengths[i] + 1 - shifts[i]))
                base[i][j] = Polynomial([0] * shifts[i] + tail)
        if size > 1 and draw(st.booleans()):
            last = top + size - 1  # a multiple of the block's first row
            lengths[last] = max(lengths[last], lengths[top])
            base[last] = [e.scale(draw(coeff)) for e in base[top]]
        top += size
    if rational:
        i = draw(st.integers(0, n - 1))
        extra = Fraction(draw(st.sampled_from([1, -5])), draw(st.sampled_from([3, 4, 12])))
        base[i][i] = base[i][i] + Polynomial([0] * shifts[i] + [extra])
    rperm = draw(st.permutations(range(n)))
    cperm = draw(st.permutations(range(n)))
    return [[base[i][j] for j in cperm] for i in rperm], [lengths[i] for i in rperm]


@settings(max_examples=100, deadline=None)
@given(bounded_matrices())
@example(([[_p(1, 2), _p(3)], [_p(Fraction(1, 3), 1), _p(0, 0, 5)]], [1, 2]))  # d = 3
@example(([[_p(0, 1), _p(2)], [_p(1), _p(4)]], [1, 1]))  # row 1 below its bound: N₀ is singular
@example(([[ZERO_POLY, _p(1, 1), ZERO_POLY], [_p(2), ZERO_POLY, ZERO_POLY],
           [ZERO_POLY, _p(0, 3), _p(Fraction(1, 4))]], [1, 0, 1]))  # two blocks, an odd sign
@example(([[_p(1, 1), _p(0, 1)], [_p(2, 2), _p(0, 2)]], [1, 1]))  # singular
@example(([[_p(1), _p(2), ZERO_POLY], [ZERO_POLY, ZERO_POLY, _p(3)],
           [ZERO_POLY, ZERO_POLY, _p(1)]], [0, 0, 0]))  # singular by its pattern
@example(([[_p(0, 1), _p(0, 2)], [_p(0, 3), _p(0, 0, 1)]], [1, 2]))  # every entry divisible by λ
@example(([[_p(1, 1), _p(2)], [_p(0, 0, 2), _p(0, 0, 1)]], [1, 2]))  # row 1's valuation is its bound
@example(([[_p(0, 1), ZERO_POLY, _p(0, 2), ZERO_POLY], [ZERO_POLY, _p(1), ZERO_POLY, _p(1, 1)],
           [_p(0, 0, 3), ZERO_POLY, _p(0, 0, 1), ZERO_POLY], [ZERO_POLY, _p(2, 1), ZERO_POLY, _p(3)]],
          [1, 1, 2, 1]))  # two blocks, rows of valuation 1 and 2 against 0 and 0
def test_interpolated_det_matches_sympy(case):
    rows, lengths = case
    assert all(e.degree <= ell for row, ell in zip(rows, lengths) for e in row)
    det = _interpolated_det(rows, lengths, "")
    assert det == determinant(rows)
    ring = sympy.QQ[LAM]
    ref = DomainMatrix([[ring.from_sympy(_sympy(e)) for e in row] for row in rows],
                       (len(rows), len(rows)), ring)
    assert ring.from_sympy(_sympy(det)) == ref.det()


def test_a_flipped_block_sign_fails_the_whole_matrix_check(monkeypatch):
    # the blocks' dets are each certified, so only the whole matrix at a point
    # sees the sign of the permutations: D = Σ len = 31 at degree 4, and the
    # det is nonzero at λ = 32
    algebra = GradedLieAlgebra.from_json(json.loads(SL3.read_text(encoding="utf-8")))
    real = shapovalov.blocks

    def flipped(matrix):
        sign, parts = real(matrix)
        return -sign, parts

    monkeypatch.setattr(shapovalov, "blocks", flipped)
    with pytest.raises(CertificateError) as failure:
        pairing_determinant(algebra, 4)
    assert str(failure.value) == "sl3: degree 4: sign·Π det(block) differs from det A at λ = 32"
