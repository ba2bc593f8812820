"""The contravariant pairing between the highest-weight module and its mirror,
per-degree matrices of that pairing, their exact inverses, and the canonical
element assembled from them.

Each pairing entry is read off the Verma module: act with S(y) on x·v and
take the coefficient of v.  The PBW projection of S(y)·x (`pairing_entry`)
computes the same scalar by another route and serves as its oracle.

All scalars are polynomials or rational functions in the character scale λ,
handled exactly.  Each pairing matrix A is inverted by fraction-free
Gauss–Jordan elimination on [A | I], which yields det A and the adjugate as
polynomials; the result is accepted only after A·adj = det·I is checked in
ℚ[λ].

Each (degree, tie_break) component of the canonical element is built once per
algebra, in its `memo.components`, and shared by `star_series` and every check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CutoffExceededError, SingularCharacterError
from .scalars import ONE_POLY, ZERO_POLY, Polynomial, RationalFunction, adjugate
from .uea import antipode, char_eval, mono_degree, multiply, phi, phi_order, verma_act


@dataclass(frozen=True)
class GradedBasis:
    """Monomial bases at one degree: lowering monomials and their positional
    mirrors on the raising side, listed in matching order."""

    degree: int
    minus: tuple
    plus: tuple


# -- basis construction ------------------------------------------------------


def _neg_generators(algebra):
    return sorted(
        (g for g in algebra.generators if g.degree < 0), key=lambda g: (g.degree, g.id)
    )


def _monomials(gens, total):
    """Sorted words in `gens` (all of negative degree) with |degree| = total."""
    out = []

    def rec(i, remaining, word):
        if remaining == 0:
            out.append(tuple(word))
            return
        if i == len(gens):
            return
        step = -gens[i].degree
        for count in range(remaining // step, -1, -1):
            rec(i + 1, remaining - count * step, word + [gens[i].id] * count)

    rec(0, total, [])
    return out


def mirror_map(algebra):
    """Pair each lowering generator with the raising generator in the same
    position at the opposite degree.  Fails when the dimensions differ."""
    if algebra.memo.mirror is not None:
        return algebra.memo.mirror
    mapping = {}
    degrees = sorted({abs(g.degree) for g in algebra.generators if g.degree != 0})
    for d in degrees:
        minus = sorted(g.id for g in algebra.generators if g.degree == -d)
        plus = sorted(g.id for g in algebra.generators if g.degree == d)
        if len(minus) != len(plus):
            raise SingularCharacterError(
                f"{algebra.name}: {len(minus)} generators at degree -{d} "
                f"but {len(plus)} at degree +{d}"
            )
        mapping.update(zip(minus, plus))
    algebra.memo.mirror = mapping
    return mapping


def build_basis(algebra, degree, tie_break="desc"):
    """Monomials of the given |degree|, longest first; equal lengths are tied
    by exponent vector, descending by default ("asc" flips only the tie)."""
    if tie_break not in ("desc", "asc"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    gens = _neg_generators(algebra)
    pos = {g.id: i for i, g in enumerate(gens)}

    def expvec(word):
        v = [0] * len(gens)
        for g in word:
            v[pos[g]] += 1
        return tuple(v)

    if tie_break == "desc":
        key = lambda w: (-len(w), tuple(-e for e in expvec(w)))
    else:
        key = lambda w: (-len(w), expvec(w))
    minus = sorted(_monomials(gens, degree), key=key)
    mirror = mirror_map(algebra)
    modkey = lambda gid: (algebra.degree(gid), gid)
    plus = tuple(tuple(sorted((mirror[g] for g in w), key=modkey)) for w in minus)
    return GradedBasis(degree, tuple(minus), plus)


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
    if not isinstance(y, dict):
        y = {y: Fraction(1)}
    if not isinstance(x, dict):
        x = {x: Fraction(1)}
    return char_eval(algebra, phi(algebra, multiply(order, antipode(order, y), x)))


def oracle_pairing(algebra, x, y):
    """The same scalar read off the module: act with S(y), letter by letter, on
    the vector x·v and take the coefficient of v.  The route `pairing_matrix`
    computes with; its action terms are memoized in `memo.actions`."""
    sign = Fraction(-1) if len(y) % 2 else Fraction(1)
    acted = verma_act(algebra, {tuple(reversed(y)): sign}, x, side=1)
    return acted.get((), Polynomial())


def pairing_matrix(algebra, degree, tie_break="desc"):
    """Matrix of the pairing at one degree, through the module action: rows
    over lowering monomials x_k, columns over mirrored raising monomials y_l.

    A truncated algebra defines the pairing only inside its window, so a
    degree beyond the cutoff raises CutoffExceededError."""
    if algebra.truncated and degree > algebra.cutoff:
        raise CutoffExceededError(
            f"{algebra.name}: the pairing at degree {degree} needs a window of at "
            f"least ±{degree}, but the window is ±{algebra.cutoff}"
        )
    basis = build_basis(algebra, degree, tie_break)
    rows = []
    for x in basis.minus:
        row = []
        for y in basis.plus:
            entry = oracle_pairing(algebra, x, y)
            if entry.degree > degree:
                raise ArithmeticError(
                    f"{algebra.name}: pairing entry of λ-degree {entry.degree} "
                    f"exceeds its bound at degree {degree}"
                )
            row.append(entry)
        rows.append(row)
    return basis, rows


# -- exact inversion ---------------------------------------------------------


def invert_pairing(matrix):
    """Invert a square Polynomial matrix over ℚ(λ).

    Returns (adjugate, det), with inverse[i][j] = adjugate[i][j] / det.
    Raises SingularCharacterError when the determinant vanishes, and
    ArithmeticError unless matrix·adjugate = det·I holds exactly in ℚ[λ].
    """
    adj, det = adjugate(matrix)
    if det.is_zero:
        raise SingularCharacterError("pairing matrix is singular")
    n = len(matrix)
    for i, row in enumerate(matrix):
        nonzero = [(k, a) for k, a in enumerate(row) if a]
        for j in range(n):
            s = ZERO_POLY
            for k, a in nonzero:
                if adj[k][j]:
                    s = s + a * adj[k][j]
            if s != (det if i == j else ZERO_POLY):
                raise ArithmeticError("adjugate certificate A·adj = det·I failed")
    return adj, det


# -- the canonical element ---------------------------------------------------


class CanonicalElement:
    """Per-degree components of the canonical element: at degree n the
    coefficient of x_k ⊗ y_l is the (l, k) entry of the inverse pairing matrix,
    stored as a polynomial numerator over one common determinant."""

    def __init__(self, algebra, max_degree, bases, nums, dets):
        self.algebra = algebra
        self.max_degree = max_degree
        self.bases = bases
        self.nums = nums
        self.dets = dets

    def component(self, n):
        det = self.dets[n]
        return {pair: RationalFunction(num, det) for pair, num in self.nums[n].items()}

    def coefficient(self, x, y):
        n = -mono_degree(self.algebra, x)
        if n > self.max_degree or n != mono_degree(self.algebra, y):
            return RationalFunction(0)
        num = self.nums[n].get((x, y))
        return RationalFunction(num, self.dets[n]) if num is not None else RationalFunction(0)


def canonical_element(algebra, max_degree, tie_break="desc"):
    bases, nums, dets = {}, {}, {}
    bases[0] = GradedBasis(0, ((),), ((),))
    nums[0] = {((), ()): ONE_POLY}
    dets[0] = ONE_POLY
    components = algebra.memo.components
    for n in range(1, max_degree + 1):
        if (n, tie_break) not in components:
            basis, matrix = pairing_matrix(algebra, n, tie_break)
            try:
                inv_nums, det = invert_pairing(matrix)
            except SingularCharacterError:
                raise SingularCharacterError(
                    f"{algebra.name}: pairing matrix at degree {n} is singular"
                ) from None
            coeffs = {}
            for k, x in enumerate(basis.minus):
                for l, y in enumerate(basis.plus):
                    if inv_nums[l][k]:
                        coeffs[(x, y)] = inv_nums[l][k]
            components[(n, tie_break)] = (basis, coeffs, det)
        bases[n], nums[n], dets[n] = components[(n, tie_break)]
    return CanonicalElement(algebra, max_degree, bases, nums, dets)
