"""Exact scalar arithmetic: arbitrary-precision rationals, dense polynomials in
the formal parameter λ and fraction-free elimination over them (one loop, as
Gauss–Jordan for the adjugate and forward for the determinant, on the matrix
it is given, on int coefficient lists, building Polynomials only for its
result), the blocks of a nonzero pattern (`blocks`), ratios of polynomials
compared by cross-multiplication, and truncated power series in ħ obtained
by expanding at λ = ∞ (ħ = 1/λ), as tuples of Fractions."""

from __future__ import annotations

import sys
from decimal import Decimal
from fractions import Fraction
from itertools import compress, count
from math import lcm
from operator import add, sub

from .errors import CertificateError, PoleAtInfinityError


def frac_to_str(x: Fraction) -> str:
    """Render a rational as "p/q", or just "p" when q = 1, with every digit."""
    if x.denominator == 1:
        return _digits(x.numerator)
    return f"{_digits(x.numerator)}/{_digits(x.denominator)}"


def _digits(n: int) -> str:
    # str() refuses an int above sys.get_int_max_str_digits() digits (4300 by
    # default); Decimal converts any int exactly
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def horner(coeffs, x):
    """The polynomial with these ascending coefficients, evaluated at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def frac_from_str(s) -> Fraction:
    """The rational that `Fraction` reads from str(s).  An exponent larger than
    Python's int digit limit is refused before its power of ten is built."""
    text, limit = str(s), sys.get_int_max_str_digits()
    try:
        if not 0 < limit < abs(int(text.lower().partition("e")[2] or 0)):
            return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {s!r}") from exc
    raise ValueError(f"{s!r} has an exponent beyond ±{limit}, the int digit limit")


class Polynomial:
    """Univariate polynomial over ℚ; coefficients ascending by power, trailing
    zeros stripped, so the last coefficient is the (nonzero) leading one.

    Coefficients are stored as plain ints while they stay integral (the common
    case, and int arithmetic is far cheaper than Fraction's per-op gcd), and as
    Fractions otherwise; the two mix exactly and compare/hash consistently.
    `exact_div` takes c // lc whenever an int c is divisible by an int leading
    coefficient lc, and divides in Fractions otherwise, so exact division in
    ℤ[λ] (as in `verify`'s common denominator) never leaves the ints.  A value
    never changes once built, so operands are shared, never copied: a sum with
    zero, a product with the constant 1 and `scale(1)` return an operand."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = []
        for c in coeffs:
            if type(c) is not int:
                if type(c) is Fraction:
                    if c.denominator == 1:
                        c = c.numerator
                elif isinstance(c, float):
                    raise TypeError(f"polynomial coefficient {c!r} is a float, not exact")
                else:
                    c = Fraction(c)
            cs.append(c)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        # degree of the zero polynomial is taken as -1
        return len(self.coeffs) - 1

    @property
    def lc(self):
        return self.coeffs[-1] if self.coeffs else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return self if a else other
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO_POLY
        if a == (1,) or b == (1,):
            return other if a == (1,) else self
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
        return Polynomial(out)

    def scale(self, k):
        if k == 1:
            return self
        if not k:
            return ZERO_POLY
        if type(k) is Fraction and k.denominator == 1:
            k = k.numerator
        return Polynomial([c * k for c in self.coeffs])

    def exact_div(self, other):
        """The quotient self / other in ℚ[λ]; raises ArithmeticError unless
        the division leaves no remainder."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db, lc = other.degree, other.lc
        int_lc = type(lc) is int
        quo = [0] * max(len(rem) - db, 0)
        for k in range(len(quo) - 1, -1, -1):
            top = rem[db + k]
            if int_lc and type(top) is int and not top % lc:
                c = top // lc
            else:
                c = Fraction(top) / lc
            quo[k] = c
            if c:
                for i, oc in enumerate(other.coeffs):
                    rem[i + k] -= c * oc
        if any(rem):
            raise ArithmeticError("polynomial division was expected to be exact")
        return Polynomial(quo)

    def render(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(frac_to_str(c))
                continue
            mag = "" if abs(c) == 1 else frac_to_str(abs(c)) + "*"
            body = "λ" if i == 1 else f"λ^{i}"
            parts.append(("-" if c < 0 else "+") + mag + body)
        out = "".join(parts)
        return out[1:] if out.startswith("+") else out

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Polynomial({self.render()})"


ZERO_POLY = Polynomial()
ONE_POLY = Polynomial([1])


def clear_denominators(matrix):
    """(d, d·A), d the lcm of every coefficient's denominator: d·A is in ℤ[λ],
    in fresh rows that share each entry d leaves as it is (d = 1, or zero)."""
    d = lcm(*(c.denominator for row in matrix for e in row for c in e.coeffs))
    return d, [[e.scale(d) if d > 1 and e else e for e in row] for row in matrix]


def _step(a, p, f, t, prev):
    """(a·p − f·t) / prev over ascending int coefficient sequences, as a list
    with no trailing zeros: both products summed into one list, then exact
    long division by prev (none if prev = 1, one divmod if all five are
    constants).  CertificateError if a remainder is left."""
    if len(p) == 1 == len(prev) and len(a) < 2 and len(f) < 2 and len(t) < 2:
        q, r = divmod((a[0] * p[0] if a else 0) - (f[0] * t[0] if f and t else 0), prev[0])
        if r:
            raise CertificateError("Bareiss division by the previous pivot leaves a remainder")
        return [q] if q else []
    out = [0] * max(len(a) + len(p), len(f) + len(t))
    for i in compress(range(len(a)), a):
        out[i:i + len(p)] = map(add, out[i:i + len(p)], map(a[i].__mul__, p))
    for i in compress(range(len(f)), f):
        out[i:i + len(t)] = map(sub, out[i:i + len(t)], map(f[i].__mul__, t))
    while out and not out[-1]:
        out.pop()
    top, lc = len(prev) - 1, prev[-1]
    if not top and lc == 1:
        return out
    quo = [0] * max(len(out) - top, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = out[k + top] // lc  # a remainder stays in out, which is never read above k + top
        if c:
            quo[k] = c
            out[k:k + top + 1] = map(sub, out[k:k + top + 1], map(c.__mul__, prev))
    if any(out):
        raise CertificateError("Bareiss division by the previous pivot leaves a remainder")
    return quo


def _bareiss(matrix, gauss_jordan):
    """(adj, det) of A over ℚ[λ] by fraction-free elimination (Bareiss 1968) on
    d·A/λ^v (`clear_denominators`, λ^v the power of λ that every entry shares),
    each intermediate a minor in ℤ[λ].  At column k the first row from k on
    that is nonzero there is swapped up, and each other row right of k becomes
    (row·p − row[k]·top) / prev, p the new pivot and prev the last, exactly
    (`_step`); an entry sure to stay zero is skipped.  Gauss–Jordan clears
    [d·A/λ^v | I] above and below each pivot; forward, d·A/λ^v below it, adj
    None.  The loop runs on int coefficient lists; Polynomials are built only
    for the result, as the last pivot and the right block are divided back by
    sign·d^n/λ^(vn) and sign·d^(n−1)/λ^(v(n−1)), sign that of the row swaps.
    A 1×1 A is its own det.  (None, ZERO_POLY) if singular."""
    n = len(matrix)
    if n == 1:
        return ([[ONE_POLY]] if gauss_jordan and matrix[0][0] else None), matrix[0][0]
    d, cleared = clear_denominators(matrix)
    v = min((next(compress(count(), e.coeffs)) for row in cleared for e in row if e), default=0)
    rows = [[e.coeffs[v:] for e in row] for row in cleared]  # d·A / λ^v
    if gauss_jordan:
        rows = [row + [(1,) if i == j else () for j in range(n)] for i, row in enumerate(rows)]
    width = 2 * n if gauss_jordan else n
    sign, prev = 1, (1,)
    try:
        for k in range(n):
            piv = next((r for r in range(k, n) if rows[r][k]), None)
            if piv is None:
                return None, ZERO_POLY
            if piv != k:
                rows[k], rows[piv] = rows[piv], rows[k]
                sign = -sign
            top = rows[k]
            p = top[k]
            for i in range(0 if gauss_jordan else k + 1, n):
                if i == k:
                    continue
                row = rows[i]
                f = row[k]
                for j in range(k + 1, width):
                    if row[j] or f and top[j]:
                        row[j] = _step(row[j], p, f, top[j], prev)
            prev = p
    except CertificateError as exc:
        raise CertificateError(f"{exc} at column {k}") from None
    s, shift = (Fraction(sign, d ** (n - 1)) if d > 1 else sign), [0] * (v * (n - 1))
    adj = [[Polynomial(shift + [c * s for c in e]) for e in row[n:]] for row in rows] if gauss_jordan else None
    return adj, Polynomial([0] * (v * n) + [Fraction(c * sign, d ** n) for c in prev])


def _perm_sign(perm):
    """The sign of a permutation: −1 to the number of its inversions."""
    return -1 if sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:]) % 2 else 1


def blocks(matrix):
    """The blocks of a square matrix A: the connected components of the
    bipartite graph joining row i to column j wherever A[i][j] ≠ 0, by
    union-find.  Returns (sign, parts), each part (rows, cols, block) with
    ascending index lists and block = A[rows][cols], ordered by first row (a
    zero column, a part with no row, comes last); a matrix of one part is its
    own block.  Listing the rows and the columns part by part makes A
    block-diagonal, so det A = sign·Π det(block), sign the product of the two
    permutations' signs; a part with unequal row and column counts makes A
    singular, and sign is then 0."""
    n = len(matrix)
    parent = list(range(2 * n))  # rows 0 … n−1, then columns n … 2n−1

    def find(a):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    for i, row in enumerate(matrix):
        for j, e in enumerate(row):
            if e.coeffs:
                a, b = find(i), find(n + j)
                if a != b:
                    parent[b] = a
    groups = {}
    for a in range(2 * n):
        groups.setdefault(find(a), ([], []))[a >= n].append(a % n)
    parts = list(groups.values())
    if len(parts) == 1:
        return 1, [(*parts[0], matrix)]
    if any(len(rows) != len(cols) for rows, cols in parts):
        sign = 0
    else:
        sign = (_perm_sign([i for rows, _ in parts for i in rows])
                * _perm_sign([j for _, cols in parts for j in cols]))
    return sign, [(rows, cols, [[matrix[i][j] for j in cols] for i in rows])
                  for rows, cols in parts]


def product(factors):
    """The product of one or more polynomials, multiplied in pairs up a
    balanced tree, so many short factors never make one long product grow by
    a short one at a time."""
    level = list(factors)
    while len(level) > 1:
        paired = [a * b for a, b in zip(level[::2], level[1::2])]
        level = paired + level[-1:] if len(level) % 2 else paired
    return level[0]


def adjugate(matrix):
    """(adj, det) with A·adj = det·I over ℚ[λ], both polynomial, by
    Gauss–Jordan `_bareiss` on A as given; a caller that knows A's `blocks`
    passes one block at a time.  A singular matrix gives (None, ZERO_POLY);
    whether that is an error is the caller's choice."""
    return _bareiss(matrix, True)


def determinant(matrix):
    """det A over ℚ[λ] by forward `_bareiss` on A as given; ZERO_POLY if singular."""
    return _bareiss(matrix, False)[1]


class RationalFunction:
    """A ratio of polynomials in λ, a value to build and compare.  The pair is
    kept as given, with no common factor removed, so two ratios are equal when
    their cross products are (a.num·b.den == b.num·a.den), or over one den
    their numerators; having no normal form, the value is not hashable."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE_POLY):
        if isinstance(num, (int, Fraction)):
            num = Polynomial([num])
        if isinstance(den, (int, Fraction)):
            den = Polynomial([den])
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        self.num, self.den = num, den

    def __bool__(self):
        return not self.num.is_zero

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    def __repr__(self):
        return f"RationalFunction(({self.num.render()})/({self.den.render()}))"


def series_ratio(num, den, order):
    """The ħ⁰ … ħ^order coefficients, as Fractions, of the power-series quotient
    of two coefficient lists in ħ; den[0] must be nonzero."""
    if not den or not den[0]:
        raise ZeroDivisionError("series division needs an invertible denominator")
    inv0 = 1 / Fraction(den[0])
    out = []
    for k in range(order + 1):
        acc = Fraction(num[k]) if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc * inv0)
    return tuple(out)


def expand_at_infinity(num: Polynomial, den: Polynomial, n: int) -> tuple:
    """First n+1 Taylor coefficients of num(1/ħ)/den(1/ħ) at ħ = 0.

    Requires the ratio regular at λ = ∞, i.e. deg num ≤ deg den.  The pair
    need not be reduced: a common factor changes neither the series nor that
    condition."""
    if num.is_zero:
        return (Fraction(0),) * (n + 1)
    dn, dd = num.degree, den.degree
    if dn > dd:
        raise PoleAtInfinityError(
            f"pole at infinity: numerator degree {dn} exceeds denominator degree {dd}"
        )
    # substitute λ = 1/ħ and clear ħ^dd; only the first n+1 coefficients count
    top = [num.coeffs[dd - k] if dd - k <= dn else 0 for k in range(min(dd, n) + 1)]
    bottom = [den.coeffs[dd - k] for k in range(min(dd, n) + 1)]
    return series_ratio(top, bottom, n)
