"""The contravariant pairing between the highest-weight module and its mirror,
per-degree matrices of that pairing, their exact inverses, and the canonical
element assembled from them.

Each pairing entry is read off the Verma module, as the coefficient of v in
S(y)·x·v, by recursion on the first letter of y: one letter action leaves
pairings of lower degree, read from the matrices below, which are built
first.  A row costs its letter actions and the nonzero lower entries they
reach, and a zero entry costs nothing.  The PBW projection of S(y)·x
(`pairing_entry`) computes the same scalar by another route and serves as
its oracle.

All scalars are polynomials in the character scale λ, handled exactly.  The
pairing is graded by the g₀-weight, so a matrix A splits into blocks after
permuting its rows and columns (`blocks`, read off the nonzero pattern once
per matrix), and every elimination takes one block as it is given.
`exact_component` hands each block to `invert_pairing`, whose fraction-free
Gauss–Jordan on [A_b | I] yields det_b and adj_b in ℚ[λ]; each is accepted
only after A_b·adj_b = det_b·I is checked in ℚ[λ], each entry as one
integer: its value at a power of 2 beyond a bound on its coefficients, 0
only for the zero polynomial.  An inverse entry stays a numerator over its
own block's det_b; no arithmetic in ℚ(λ) is ever done.  Where det A alone is
wanted (`pairing_determinant`), each row of a block is divided by the power
λ^v_k that its entries share, and the det of what is left, of λ-degree ≤
D'_b = Σ (len x_k − v_k) over its rows, is interpolated exactly from its
integer dets at λ = 0…D'_b, then multiplied back by λ^(Σ v_k).

`star_series` needs only the first ħ-coefficients of each inverse entry at
λ = 1/ħ, so it takes a second route (`series_component`): the pairing matrix
is inverted as a series in ħ by ħ-adic lifting (`inverse_series`), and the
truncated inverse is accepted only after N·Σ Q_t ħ^t ≡ I mod ħ^(K+1) is
checked exactly, block by block.  `pairing_matrix` holds every entry (x, y) to λ-degree
min(len x, len y), so each row meets its word-length bound, and only a degree
whose leading matrix N_0 is singular falls back to the exact inverse,
expanded at λ = ∞.

Each degree's pairing matrix is built once per algebra, in its
`memo.pairings`, and read by every route and check (the "asc" basis order
permutes it); each exact component of the canonical element is built once, in
`memo.components`.  The series of `star_series` are not kept: each is lifted
afresh from the memoized matrix, so the verify check that compares the two
routes never compares a route with a stored copy of either.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import factorial, gcd
from operator import mul

from .errors import CertificateError, CutoffExceededError, SingularCharacterError
from .scalars import (
    ONE_POLY,
    ZERO_POLY,
    Polynomial,
    RationalFunction,
    adjugate,
    blocks,
    clear_denominators,
    determinant,
    expand_at_infinity,
    horner,
    product,
)
from .uea import antipode, char_eval, letter_action, multiply, phi, phi_order, word_name


@dataclass(frozen=True)
class GradedBasis:
    """Monomial bases at one degree: lowering monomials and their positional
    mirrors on the raising side, listed in matching order."""

    minus: tuple
    plus: tuple


_DEGREE_ZERO = (GradedBasis(((),), ((),)), ((ONE_POLY,),))  # (basis, rows) at degree 0


def _index(words):
    return {w: i for i, w in enumerate(words)}


# -- basis construction ------------------------------------------------------


def _neg_generators(algebra):
    return sorted(
        (g for g in algebra.generators if g.degree < 0), key=lambda g: (g.degree, g.id)
    )


def _monomials(gens, total):
    """Sorted words in `gens` (all of negative degree) with |degree| = total."""
    if not gens:
        return [] if total else [()]
    g, step = gens[0].id, -gens[0].degree
    if len(gens) == 1:  # the last generator takes up the rest
        return [] if total % step else [(g,) * (total // step)]
    return [(g,) * count + w for count in range(total // step, -1, -1)
            for w in _monomials(gens[1:], total - count * step)]


def mirror_map(algebra):
    """Pair each lowering generator with the raising generator in the same
    position at the opposite degree.  Fails when the dimensions differ."""
    mapping = {}
    for d in sorted({abs(g.degree) for g in algebra.generators if g.degree != 0}):
        minus = sorted(g.id for g in algebra.generators if g.degree == -d)
        plus = sorted(g.id for g in algebra.generators if g.degree == d)
        if len(minus) != len(plus):
            raise SingularCharacterError(
                f"{algebra.name}: {len(minus)} generators at degree -{d} "
                f"but {len(plus)} at degree +{d}"
            )
        mapping.update(zip(minus, plus))
    return mapping


def build_basis(algebra, degree, tie_break="desc"):
    """Monomials of the given |degree|, longest first; equal lengths are tied
    by exponent vector, descending by default ("asc" flips only the tie)."""
    if tie_break not in ("desc", "asc"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    gens = _neg_generators(algebra)
    pos = {g.id: i for i, g in enumerate(gens)}
    # words are sorted by position: at one length, the exponent vectors
    # descend exactly as the words' position tuples ascend
    sign = 1 if tie_break == "desc" else -1
    key = lambda w: (-len(w), tuple(sign * pos[g] for g in w))
    minus = sorted(_monomials(gens, degree), key=key)
    mirror = mirror_map(algebra)
    modkey = {g: (algebra.degree(g), g) for g in mirror.values()}.__getitem__
    plus = tuple(tuple(sorted((mirror[g] for g in w), key=modkey)) for w in minus)
    return GradedBasis(tuple(minus), plus)


def dual_basis(algebra, degree):
    """Raising elements v_i dual to the lowering generators at -degree, with
    χ([u_i, v_j]) = δ_ij.  Returned as dicts over raising generator ids."""
    minus, plus, rows = algebra.character_pairing(degree)
    if len(minus) != len(plus):
        raise SingularCharacterError(
            f"{algebra.name}: no dual basis at degree {degree} (dimension mismatch)"
        )
    adj, det = adjugate(rows)
    if det.is_zero:
        raise SingularCharacterError(
            f"{algebra.name}: character pairing is singular at degree {degree}"
        )
    return [
        {plus[k]: Fraction(adj[k][j].lc) / det.lc for k in range(len(plus)) if adj[k][j]}
        for j in range(len(minus))
    ]


# -- the pairing, two ways ---------------------------------------------------


def pairing_entry(algebra, x, y):
    """(x, y) = scaled character of the zero-degree projection of S(y)·x,
    normal-ordered in the enveloping algebra.  The oracle route."""
    order = phi_order(algebra)
    return char_eval(algebra, phi(algebra, multiply(order, antipode(order, {y: 1}), {x: 1})))


def oracle_pairing(algebra, x, y):
    """The same scalar read off the module: the coefficient of v in S(y)·x·v,
    the route `pairing_matrix` computes with.  S(y) = (−1)^len y·reversed(y)
    acts with y[0] first: if y[0]·x·v = Σ p_w·w·v (`letter_action`), then
    (x, y) = −Σ p_w·(w, y[1:]), a pairing with a shorter y, here by recursion.
    `pairing_matrix` reads each (w, y[1:]) off the matrix below instead, and
    recurses only for a pair no matrix holds: one that a bracket table
    breaking the grading leaves off its degree."""
    if not y:
        return ZERO_POLY if x else ONE_POLY
    value = ZERO_POLY
    for w, p in letter_action(algebra, y[0], x, 1):
        value = value + p * oracle_pairing(algebra, w, y[1:])
    return -value


def pairing_matrix(algebra, degree, tie_break="desc"):
    """Matrix of the pairing at one degree, through the module action: rows
    over lowering monomials x_k, columns over mirrored raising monomials y_l.
    Returns (basis, rows), rows as tuples of tuples.  The "desc" matrix is
    memoized in `memo.pairings` by degree; "asc" permutes its rows and columns.

    The degrees are built lowest first, each row by one `oracle_pairing` step
    from the nonzero entries of the matrices one raising letter down
    (`_next_degree`).  A lower degree that was not asked for is dropped once
    no higher degree can read it, and the rest once `degree` is built.

    An entry (x, y) above λ-degree min(len x, len y) raises CertificateError:
    each power of λ comes from a disjoint bracket cluster holding a letter of
    x and one of y.  A degree beyond a truncated algebra's cutoff raises
    CutoffExceededError."""
    if algebra.truncated and degree > algebra.cutoff:
        raise CutoffExceededError(
            f"{algebra.name}: the pairing at degree {degree} needs a window of at "
            f"least ±{degree}, but the window is ±{algebra.cutoff}"
        )
    pairings = algebra.memo.pairings
    if degree not in pairings:
        # degree n reads the degrees n − d, d up to the largest raising degree
        reach = max((g.degree for g in algebra.generators if g.degree > 0), default=0)
        window = {0: _DEGREE_ZERO}
        for n in range(1, degree + 1):
            window.pop(n - reach - 1, None)
            window[n] = pairings.get(n) or _next_degree(algebra, n, window)
        pairings[degree] = window[degree]
    if tie_break == "desc":
        return pairings[degree]
    basis, rows = pairings[degree]
    asked = build_basis(algebra, degree, tie_break)
    row_at, col_at = _index(basis.minus), _index(basis.plus)
    return asked, tuple(tuple(rows[row_at[x]][col_at[y]] for y in asked.plus) for x in asked.minus)


def _next_degree(algebra, n, window):
    """(basis, rows) at degree n, a row at a time, from the matrices of
    `window` at n − deg g, g the first letter of a column.  Per letter g, each
    lower row's nonzero entries are listed once as (column, value), the
    column that of g followed by the lower column's word.  If
    g·x·v = Σ p_w·w·v, row x over g's columns is −Σ p_w·(row w's list), and
    every other slot is the shared `ZERO_POLY`; a w that the lower basis
    lacks takes `oracle_pairing`.  The touched columns are checked in order,
    so the first entry above its bound in row-major order raises."""
    basis = build_basis(algebra, n)
    col_of, letters = _index(basis.plus), {}
    for y in basis.plus:
        if y[0] not in letters:
            lower, rows = window[n - algebra.degree(y[0])]
            to = [col_of.get((y[0], *r)) for r in lower.plus]
            nonzero = [[(to[j], v) for j, v in enumerate(row) if to[j] is not None and v] for row in rows]
            letters[y[0]] = (_index(lower.minus), nonzero)
    out = []
    for x in basis.minus:
        acc = {}
        for g, (row_at, nonzero) in letters.items():
            for w, p in letter_action(algebra, g, x, 1):
                i = row_at.get(w)
                terms = nonzero[i] if i is not None else [
                    (c, v) for c, y in enumerate(basis.plus)
                    if y[0] == g and (v := oracle_pairing(algebra, w, y[1:]))]
                for c, v in terms:
                    acc[c] = acc.get(c, ZERO_POLY) + p * v
        row = [ZERO_POLY] * len(basis.plus)
        for c in sorted(acc):
            if acc[c].degree > min(len(x), len(basis.plus[c])):
                where = f"{word_name(algebra, x)} | {word_name(algebra, basis.plus[c])}"
                raise CertificateError(
                    f"{algebra.name}: pairing entry [{where}] of λ-degree {acc[c].degree} "
                    f"exceeds its bound at degree {n}"
                )
            row[c] = -acc[c]
        out.append(tuple(row))
    return basis, tuple(out)


# -- exact inversion ---------------------------------------------------------


def invert_pairing(block):
    """(adj, det) of one block A_b of a pairing matrix, by `adjugate`, so
    that A_b⁻¹ = adj/det over ℚ(λ) with adj and det in ℚ[λ].  Raises
    SingularCharacterError when det = 0, and CertificateError unless
    A_b·adj = det·I holds exactly in ℚ[λ] (`_certify_adjugate`)."""
    adj, det = adjugate(block)
    if adj is None:
        raise SingularCharacterError("pairing matrix is singular")
    _certify_adjugate(block, adj, det)
    return adj, det


def _certify_adjugate(block, adj, det):
    """Raise CertificateError unless A_b·adj = det·I for one block A_b and the
    adj and det returned for it.  On n columns it is decided on integers:
    with d·A_b and e·(adj, det) cleared (`clear_denominators`), every
    coefficient of d·e·(A_b·adj − det·I) is at most n·H_A·H_adj + d·H_det in
    size (H the largest ℓ1 norm of an entry), below B for B = 2^b,
    b = bits(bound).  So each entry's value at λ = B, a packed row times a
    packed column, is 0 only for the zero polynomial, as in `verify._pack`."""
    norm = lambda m: max(sum(map(abs, x.coeffs)) for row in m for x in row)
    d, a = clear_denominators(block)
    _, (*c, (e_det,)) = clear_denominators([*adj, [det]])
    big = 1 << (len(block) * norm(a) * norm(c) + d * norm([[e_det]])).bit_length()
    packed_cols = list(zip(*([horner(x.coeffs, big) for x in row] for row in c)))
    target = d * horner(e_det.coeffs, big)
    for i, row in enumerate(a):
        packed = [horner(x.coeffs, big) for x in row]
        for j, col in enumerate(packed_cols):
            if sum(map(mul, packed, col)) != (target if i == j else 0):
                raise CertificateError("adjugate certificate A·adj = det·I failed")


# -- the determinant alone ----------------------------------------------------


def pairing_determinant(algebra, n, tie_break="desc"):
    """(basis, matrix, det) at degree n: the memoized pairing matrix and its det
    alone, interpolated per block past its rows' shared powers of λ
    (`_interpolated_det`).  Raises SingularCharacterError when det = 0."""
    basis, matrix = pairing_matrix(algebra, n, tie_break)
    det = _interpolated_det(matrix, [len(x) for x in basis.minus], f"{algebra.name}: degree {n}: ")
    if det.is_zero:
        raise SingularCharacterError(f"{algebra.name}: pairing matrix at degree {n} is singular")
    return basis, matrix, det


def _interpolated_det(matrix, lengths, where):
    """sign·Π det(block) / d^n over the `blocks` of d·A (`clear_denominators`).
    Row k of a block has λ-degree ≤ lengths[k] and its nonzero entries share
    λ^v_k at least, so A'_b = diag(λ^−v_k)·A_b has det of degree ≤ D' =
    Σ (lengths[k] − v_k), interpolated from its `_integer_det`s at λ = 0…D',
    and det A_b = λ^(Σ v_k)·det A'_b.  By `determinant`, each matrix taken
    whole, its λ^D' coefficient must be det N₀ (the rows' λ^lengths[k]
    coefficients) and its value at D' + 1 det A'_b(D' + 1); sign·Π must match
    `_integer_det` of d·A at the first nonzero x > Σ lengths.
    CertificateError otherwise, led by `where` and the block's rows."""
    d, cleared = clear_denominators(matrix)
    sign, parts = blocks(cleared)
    dets = [Polynomial([sign])]
    for rows, _, block in parts:
        if not dets[-1]:
            break
        if len(block) == 1:
            dets.append(block[0][0])
            continue
        at = where + (f"block at rows {rows}: " if len(parts) > 1 else "")
        vs = [min(next(i for i, c in enumerate(e.coeffs) if c) for e in row if e) for row in block]
        block = [[Polynomial(e.coeffs[v:]) for e in row] for row, v in zip(block, vs)]
        ells = [lengths[i] - v for i, v in zip(rows, vs)]
        top = sum(ells)
        coeffs = _interpolate([_integer_det(_at(block, x)) for x in range(top + 1)], at)
        n0 = [[Polynomial(e.coeffs[ell:]) for e in row] for row, ell in zip(block, ells)]
        value = [[Polynomial([v]) for v in row] for row in _at(block, top + 1)]
        try:
            det_n0, det_value = determinant(n0), determinant(value)
        except CertificateError as exc:
            raise CertificateError(f"{at}{exc}") from None
        if det_n0 != Polynomial(coeffs[top:]):
            raise CertificateError(f"{at}det's λ^{top} coefficient differs from det N₀")
        if det_value != Polynomial([horner(coeffs, top + 1)]):
            raise CertificateError(f"{at}det differs from det A at λ = {top + 1}")
        dets.append(Polynomial([0] * sum(vs) + coeffs))
    det = product(dets)
    if len(parts) > 1 and det:
        x = next(x for x in count(sum(lengths) + 1) if horner(det.coeffs, x))
        if horner(det.coeffs, x) != _integer_det(_at(cleared, x)):
            raise CertificateError(f"{where}sign·Π det(block) differs from det A at λ = {x}")
    return det.scale(Fraction(1, d ** len(matrix)))


def _at(matrix, x):
    return [[horner(e.coeffs, x) for e in row] for row in matrix]


def _interpolate(values, where):
    """Ascending coefficients of the integer polynomial of degree ≤ D through
    (x, values[x]), x = 0…D: Newton's c_k = Δ^k v(0) / k!, and
    c_0 + λ(c_1 + (λ − 1)(c_2 + …)) multiplied out (von zur Gathen & Gerhard,
    Modern Computer Algebra, ch. 5).  CertificateError if k! ∤ Δ^k v(0)."""
    v, newton, top = list(values), [], len(values) - 1
    for k in range(top + 1):
        c, rem = divmod(v[0], factorial(k))
        if rem:
            raise CertificateError(f"{where}det values at λ = 0…{top} fit no integer polynomial")
        newton.append(c)
        v = [b - a for a, b in zip(v, v[1:])]
    coeffs = []
    for k in range(top, -1, -1):  # coeffs ← coeffs·(λ − k) + c_k
        coeffs = [a - k * b for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += newton[k]
    return coeffs


def _integer_det(rows):
    """det of a square integer matrix, apart from the ℤ[λ] kernel.  A row is
    mul/div times a primitive vector; clearing column k takes row ← (p·row −
    f·top)/g (g its gcd), mul ← mul·g, div ← div·p, and skips a row with f = 0,
    so scattered blocks cost what the blocks do.  det = ±Π mul·p/div."""
    m = [[1, 1, list(row)] for row in rows]  # [mul, div, row]
    size, num, den = len(m), 1, 1
    for k in range(size):
        piv = next((r for r in range(k, size) if m[r][2][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            num = -num
        mul, div, top = m[k]
        p, top = top[k], top[k + 1:]
        num, den = num * mul * p, den * div
        g = gcd(num, den)
        num, den = num // g, den // g
        for entry in m[k + 1:]:
            row = entry[2]
            f = row[k]
            if f:
                new = [p * a - f * b for a, b in zip(row[k + 1:], top)]
                g = gcd(*new)
                row[k + 1:] = [a // g for a in new] if g > 1 else new
                entry[0] *= g
                entry[1] *= p
    return num // den


# -- the canonical element ---------------------------------------------------


class CanonicalElement:
    """Per-degree components of the canonical element: at degree n the
    coefficient of x_k ⊗ y_l is the (l, k) entry of the inverse pairing
    matrix, stored in `entries[n]` as (num, den), den the det of the block
    that holds it, and listed block by block; `dets[n]` is the whole det.
    `component` hands each entry out as a RationalFunction, a value to
    compare."""

    def __init__(self, bases, entries, dets):
        self.bases = bases
        self.entries = entries
        self.dets = dets

    def component(self, n):
        return {pair: RationalFunction(num, den) for pair, (num, den) in self.entries[n].items()}


def exact_component(algebra, n, tie_break="desc"):
    """The degree-n component over ℚ(λ) as (basis, {(x, y): (num, den)}, det),
    memoized in `memo.components`.  The pairing matrix A is split into its
    `blocks` once, and A⁻¹ is block-diagonal on the transposed blocks: each
    block's `invert_pairing` gives (adj_b, det_b), and the entry at
    (x_k, y_l), k = rows[i] and l = cols[j], is adj_b[j][i] over det_b,
    listed block by block, row-major in each, when nonzero.  det =
    sign·Π det_b, and a matrix of one block has its block's det, with no
    product formed.  Raises SingularCharacterError when A is singular and
    CertificateError when a block's A_b·adj_b = det_b·I fails, each naming
    the algebra and the degree."""
    key = (n, tie_break)
    components = algebra.memo.components
    if key not in components:
        basis, matrix = pairing_matrix(algebra, n, tie_break)
        sign, parts = blocks(matrix)
        singular = f"{algebra.name}: pairing matrix at degree {n} is singular"
        if not sign:
            raise SingularCharacterError(singular)
        entries, dets = {}, [Polynomial([sign])]
        try:
            for rows, cols, block in parts:
                adj, det_b = invert_pairing(block)
                dets.append(det_b)
                for i, k in enumerate(rows):
                    for j, l in enumerate(cols):
                        if adj[j][i]:
                            entries[basis.minus[k], basis.plus[l]] = (adj[j][i], det_b)
        except SingularCharacterError:
            raise SingularCharacterError(singular) from None
        except CertificateError as exc:
            raise CertificateError(f"{algebra.name}: degree {n}: {exc}") from None
        components[key] = (basis, entries, dets[1] if len(parts) == 1 else product(dets))
    return components[key]


def expanded_component(algebra, n, order):
    """{(x, y): coefficients of ħ^0 … ħ^order} of the exact degree-n
    component, expanded at λ = ∞: the exact route to what `series_component`
    computes."""
    _, entries, _ = exact_component(algebra, n)
    return {pair: expand_at_infinity(num, den, order) for pair, (num, den) in entries.items()}


def canonical_element(algebra, max_degree, tie_break="desc"):
    bases, entries, dets = {0: _DEGREE_ZERO[0]}, {0: {((), ()): (ONE_POLY, ONE_POLY)}}, {0: ONE_POLY}
    for n in range(1, max_degree + 1):
        bases[n], entries[n], dets[n] = exact_component(algebra, n, tie_break)
    return CanonicalElement(bases, entries, dets)


# -- the inverse at λ = ∞ ------------------------------------------------------


def inverse_series(matrix, lengths, order):
    """The inverse of A = `matrix` as a series in ħ = 1/λ, through ħ^order.

    Row k of A must have λ-degree at most lengths[k].  Then A = L·N with
    L = diag(λ^lengths[k]) and N = Σ_j N_j·ħ^j a polynomial in ħ, so
    A⁻¹ = N⁻¹·L⁻¹ and column c of A⁻¹ starts at ħ^lengths[c].  N⁻¹ = Σ_t Q_t·ħ^t
    lifts ħ-adically from Q_0 = N_0⁻¹ by Q_t = −Q_0·Σ_{j≥1} N_j·Q_{t−j}
    (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 9), and column c
    needs only t ≤ order − lengths[c].  Every N_j vanishes off A's `blocks`,
    so N⁻¹ is block-diagonal on the transposed blocks, and each block runs
    alone: its denominators are cleared once, its N_0 (read off d·A as in
    `_interpolated_det`) is inverted whole by `adjugate`, with no second
    split, and each column lifts in integers over one common denominator.

    Returns {(l, c): (coefficients of ħ^0 … ħ^order of A⁻¹[l][c])} for the
    entries with a nonzero coefficient, or None when the route does not apply:
    an entry exceeds its row's bound, or N_0 is singular.  Raises
    CertificateError unless N_b·Σ_t Q_t·ħ^t ≡ I mod ħ^(K+1) holds exactly for
    every block b, column and its K; an off-block product is zero by the
    pattern, and the truncated inverse is unique, so a pass is a proof."""
    sign, parts = blocks(matrix)
    if not sign:
        return None
    out = {}
    for rows, cols, block in parts:
        ells = [lengths[i] for i in rows]
        d, cleared = clear_denominators(block)
        hrows = []  # per row: (k, [ħ^0, ħ^1, … coefficients of d·A[i][k] / λ^len])
        for row, ell in zip(cleared, ells):
            entries = []
            for k, e in enumerate(row):
                if e.degree > ell:
                    return None
                if e:
                    entries.append((k, (e.coeffs + (0,) * (ell - e.degree))[::-1]))
            hrows.append(entries)
        n0 = [[Polynomial(e.coeffs[ell:]) for e in row] for row, ell in zip(cleared, ells)]
        adj, det = adjugate(n0)
        if det.is_zero:
            return None
        n0_sign = 1 if det.lc > 0 else -1
        q0 = [[n0_sign * e.lc for e in row] for row in adj]
        for c, ell in enumerate(ells):
            if ell > order:
                continue
            lifted, den = _lift(hrows, q0, n0_sign * det.lc, c, order - ell)
            _certify(hrows, lifted, den, c, rows[c])
            for l in range(len(block)):
                cs = [Fraction(d * v[l], den) for v in lifted]
                if any(cs):
                    out[(cols[l], rows[c])] = (Fraction(0),) * ell + tuple(cs)
    return out


def _lift(hrows, q0, det, c, steps):
    """Column c of Q_0 … Q_steps over one common denominator: (vectors, den)
    with Q_t[l][c] = vectors[t][l] / den, reduced.  q0 = det·N_0⁻¹, det > 0.
    Step t's new vector is over den·det; as gcd(den, earlier vectors) = 1, the
    gcd of the set is g = gcd(det, *new), and the rest is rescaled by det // g."""
    size = len(q0)
    g = gcd(det, *(row[c] for row in q0))
    vectors, den = [[row[c] // g for row in q0]], det // g
    for t in range(1, steps + 1):
        s = [0] * size  # Σ_{j≥1} N_j·Q_{t−j}, over den
        for i, entries in enumerate(hrows):
            acc = 0
            for k, h in entries:
                for j in range(1, min(t, len(h) - 1) + 1):
                    if h[j]:
                        acc += h[j] * vectors[t - j][k]
            s[i] = acc
        new = [-sum(a * b for a, b in zip(row, s) if a) for row in q0]
        g = gcd(det, *new)
        scale = det // g
        if scale > 1:
            vectors = [[v * scale for v in vec] for vec in vectors]
            den *= scale
        vectors.append([v // g for v in new] if g > 1 else new)
    return vectors, den


def _certify(hrows, vectors, den, c, name):
    """Raise CertificateError, naming column `name`, unless
    N·Σ_t Q_t·ħ^t ≡ e_c mod ħ^(K+1) in column c, each product N[i][k](ħ)·q_k(ħ)
    formed afresh as a truncated product."""
    top = len(vectors)
    for i, entries in enumerate(hrows):
        acc = [0] * top
        for k, h in entries:
            q = [vec[k] for vec in vectors]
            for j, a in enumerate(h[:top]):
                if a:
                    for t in range(top - j):
                        acc[j + t] += a * q[t]
        if acc != [den if i == c else 0] + [0] * (top - 1):
            raise CertificateError(
                f"ħ-adic inverse certificate N·Q ≡ I mod ħ^{top} fails in column {name}"
            )


def series_component(algebra, n, order):
    """{(x, y): coefficients of ħ^0 … ħ^order} of the degree-n component of
    the canonical element, a function of the memoized pairing matrix alone:
    nothing of the series is kept, so each call lifts afresh.

    The coefficients come from `inverse_series` of the pairing matrix, with
    row bounds the word lengths.  Where that route does not apply (a singular
    N_0, since `pairing_matrix` enforces the bounds), the degree takes the
    exact route: its component over ℚ(λ), expanded at λ = ∞.  N_0 is block
    lower-triangular by word length, its length-k diagonal block the k-th
    symmetric power of χ([·,·]), so only a character singular through degree
    n (`check_nonsingular`) takes that fallback.
    Raises CertificateError, naming the algebra and the degree, when the
    certificate of the ħ-adic inverse fails."""
    basis, matrix = pairing_matrix(algebra, n)
    try:
        inv = inverse_series(matrix, [len(x) for x in basis.minus], order)
    except CertificateError as exc:
        raise CertificateError(f"{algebra.name}: degree {n}: {exc}") from None
    if inv is None:
        return expanded_component(algebra, n, order)
    return {(basis.minus[c], basis.plus[l]): cs for (l, c), cs in inv.items()}
