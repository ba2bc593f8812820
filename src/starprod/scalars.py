"""Exact scalar arithmetic: arbitrary-precision rationals, dense polynomials in
the formal parameter λ, reduced rational functions with monic denominators, and
truncated power series in ħ obtained by expanding at λ = ∞ (ħ = 1/λ)."""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm

from .errors import PoleAtInfinityError


def frac_to_str(x: Fraction) -> str:
    """Render a rational as "p/q", or just "p" when q = 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def frac_from_str(s) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {s!r}") from exc


class Polynomial:
    """Univariate polynomial over ℚ; coefficients ascending by power, trailing
    zeros stripped, so the last coefficient is the (nonzero) leading one.

    Coefficients are stored as plain ints while they stay integral (the common
    case, and int arithmetic is far cheaper than Fraction's per-op gcd), and as
    Fractions otherwise; the two mix exactly and compare/hash consistently.
    `divmod` takes c // lc whenever an int c is divisible by an int leading
    coefficient lc, and divides exactly in Fractions otherwise, so exact
    division in ℤ[λ] (as in `adjugate`) never leaves the ints."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = []
        for c in coeffs:
            if type(c) is not int:
                if type(c) is Fraction:
                    if c.denominator == 1:
                        c = c.numerator
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
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO_POLY
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
        return Polynomial(out)

    def scale(self, k):
        if not k:
            return ZERO_POLY
        if type(k) is Fraction and k.denominator == 1:
            k = k.numerator
        return Polynomial([c * k for c in self.coeffs])

    def monic(self):
        if self.is_zero or self.lc == 1:
            return self
        return self.scale(Fraction(1) / self.lc)

    def divmod(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return ZERO_POLY, self
        quo = [0] * (dq + 1)
        lc = other.lc
        int_lc = type(lc) is int
        for k in range(dq, -1, -1):
            top = rem[other.degree + k]
            if int_lc and type(top) is int and not top % lc:
                c = top // lc
            else:
                c = Fraction(top) / lc
            quo[k] = c
            if c:
                for i, oc in enumerate(other.coeffs):
                    rem[i + k] -= c * oc
        return Polynomial(quo), Polynomial(rem)

    def exact_div(self, other):
        quo, rem = self.divmod(other)
        if not rem.is_zero:
            raise ArithmeticError("polynomial division was expected to be exact")
        return quo

    def render(self, var="λ"):
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
            body = var if i == 1 else f"{var}^{i}"
            parts.append(("-" if c < 0 else "+") + mag + body)
        out = "".join(parts)
        return out[1:] if out.startswith("+") else out

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Polynomial({self.render()})"


ZERO_POLY = Polynomial()
ONE_POLY = Polynomial([1])


def _int_primitive(p: Polynomial):
    """Integer coefficient list of p scaled primitive, positive leading."""
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // _int_gcd(den, c.denominator)
    ints = [int(c.numerator * (den // c.denominator)) for c in p.coeffs]
    g = 0
    for c in ints:
        g = _int_gcd(g, abs(c))
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def _prem(a, b):
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b on integer lists."""
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    for k in range(len(a) - len(b), -1, -1):
        top = r[db + k]
        r = [lb * c for c in r]
        for i in range(db + 1):
            r[i + k] -= top * b[i]
    del r[db:]
    while r and not r[-1]:
        r.pop()
    return r


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over ℚ via the subresultant PRS (keeps integer coefficients
    small without full-rational remainder blow-up)."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    if a.degree == 0 or b.degree == 0:
        return ONE_POLY
    fa, fb = _int_primitive(a), _int_primitive(b)
    if len(fa) < len(fb):
        fa, fb = fb, fa
    g = h = 1
    while True:
        delta = len(fa) - len(fb)
        r = _prem(fa, fb)
        if not r:
            break
        div = g * h**delta
        fa, fb = fb, [c // div for c in r]
        if len(fb) == 1:
            return ONE_POLY
        g = fa[-1]
        if delta:
            h = g**delta // h ** (delta - 1)
    sign = -1 if fb[-1] < 0 else 1
    cont = 0
    for c in fb:
        cont = _int_gcd(cont, abs(c))
    cont *= sign
    return Polynomial([Fraction(c, cont) for c in fb]).monic()


def adjugate(matrix):
    """Fraction-free Gauss–Jordan elimination (Bareiss 1968) on [A | I] over ℚ[λ].

    Returns (adj, det) with A·adj = det·I, both polynomial.  A singular matrix
    gives (None, ZERO_POLY); whether that is an error is the caller's choice.
    The denominators are cleared once: elimination runs on d·A, d the lcm of
    every coefficient's denominator, so each intermediate is a minor in ℤ[λ]
    and each division by the previous pivot is exact in integers.  The result
    is unscaled once at the end.  Each row keeps the set of its nonzero
    columns right of the pivot, and only those are visited, so sparse and
    diagonal matrices stay cheap."""
    n = len(matrix)
    d = lcm(*(c.denominator for row in matrix for e in row for c in e.coeffs))
    aug = [
        [e.scale(d) for e in row] + [ONE_POLY if i == j else ZERO_POLY for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    nonzero = [{j for j, e in enumerate(row) if e.coeffs} for row in aug]
    sign, prev = 1, ONE_POLY
    for k in range(n):
        piv = next((r for r in range(k, n) if k in nonzero[r]), None)
        if piv is None:
            return None, ZERO_POLY
        if piv != k:
            aug[k], aug[piv] = aug[piv], aug[k]
            nonzero[k], nonzero[piv] = nonzero[piv], nonzero[k]
            sign = -sign
        # columns through k are settled: only the implied diagonal is nonzero
        for cols in nonzero:
            cols.discard(k)
        top, pcols = aug[k], nonzero[k]
        p = top[k]
        for i, row in enumerate(aug):
            if i == k:
                continue
            f, cols = row[k], nonzero[i]
            if not f.coeffs:
                for j in cols:
                    row[j] = (row[j] * p).exact_div(prev)
                continue
            cols |= pcols
            for j in list(cols):
                row[j] = e = (row[j] * p - f * top[j]).exact_div(prev)
                if not e.coeffs:
                    cols.discard(j)
        prev = p
    # the right block is det(P·dA)·(dA)⁻¹ = sign·adj(dA) = sign·d^(n-1)·adj(A)
    # for the row permutation P, and prev = det(P·dA) = sign·d^n·det(A)
    if sign > 0 and d == 1:
        return [row[n:] for row in aug], prev
    k = Fraction(sign, d ** (n - 1))
    return [[e.scale(k) for e in row[n:]] for row in aug], prev.scale(k / d)


class RationalFunction:
    """Reduced ratio of polynomials in λ with monic denominator, so structural
    equality doubles as mathematical equality."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = Polynomial([num])
        if den is None:
            den = ONE_POLY
        elif isinstance(den, (int, Fraction)):
            den = Polynomial([den])
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num, self.den = ZERO_POLY, ONE_POLY
            return
        if den.degree > 0 and num.degree > 0:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        if den.lc != 1:
            inv = Fraction(1) / den.lc
            num, den = num.scale(inv), den.scale(inv)
        self.num, self.den = num, den

    @classmethod
    def _reduced(cls, num, den):
        """Wrap an already coprime pair, normalizing only the leading coefficient."""
        self = object.__new__(cls)
        if num.is_zero:
            self.num, self.den = ZERO_POLY, ONE_POLY
            return self
        if den.lc != 1:
            inv = Fraction(1) / den.lc
            num, den = num.scale(inv), den.scale(inv)
        self.num, self.den = num, den
        return self

    @property
    def is_zero(self):
        return self.num.is_zero

    def __bool__(self):
        return not self.num.is_zero

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return RationalFunction._reduced(-self.num, self.den)

    def __add__(self, other):
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return RF_ZERO
        na, da = self.num, self.den
        nb, db = other.num, other.den
        g1 = poly_gcd(na, db) if na.degree > 0 and db.degree > 0 else ONE_POLY
        if g1.degree > 0:
            na, db = na.exact_div(g1), db.exact_div(g1)
        g2 = poly_gcd(nb, da) if nb.degree > 0 and da.degree > 0 else ONE_POLY
        if g2.degree > 0:
            nb, da = nb.exact_div(g2), da.exact_div(g2)
        return RationalFunction._reduced(na * nb, da * db)

    def __truediv__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return self * RationalFunction(other.den, other.num)

    def scale(self, k):
        if not k:
            return RF_ZERO
        return RationalFunction._reduced(self.num.scale(k), self.den)

    def render(self, var="λ"):
        if self.den == ONE_POLY:
            return self.num.render(var)
        return f"({self.num.render(var)})/({self.den.render(var)})"

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"RationalFunction({self.render()})"


RF_ZERO = RationalFunction(0)


class HbarSeries:
    """Truncated power series in ħ with exact rational coefficients (ħ⁰ … ħ^N)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        coeffs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        if len(coeffs) != order + 1:
            raise ValueError("series needs exactly order+1 coefficients")
        self.order = order
        self.coeffs = tuple(coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, HbarSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    @classmethod
    def ratio(cls, num, den, order):
        """Power-series division of coefficient lists in ħ; den[0] must be nonzero."""
        num = [c if isinstance(c, Fraction) else Fraction(c) for c in num]
        den = [c if isinstance(c, Fraction) else Fraction(c) for c in den]
        if not den or not den[0]:
            raise ZeroDivisionError("series division needs an invertible denominator")
        inv0 = 1 / den[0]
        out = []
        for k in range(order + 1):
            acc = num[k] if k < len(num) else Fraction(0)
            for j in range(1, min(k, len(den) - 1) + 1):
                acc -= den[j] * out[k - j]
            out.append(acc * inv0)
        return cls(order, out)

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(frac_to_str(c))
            else:
                h = "ħ" if i == 1 else f"ħ^{i}"
                terms.append(f"{frac_to_str(c)}*{h}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return f"HbarSeries({self})"


def expand_at_infinity(num: Polynomial, den: Polynomial, n: int) -> HbarSeries:
    """First n+1 Taylor coefficients of num(1/ħ)/den(1/ħ) at ħ = 0.

    Requires the ratio regular at λ = ∞, i.e. deg num ≤ deg den.  The pair
    need not be reduced: a common factor changes neither the series nor that
    condition."""
    if num.is_zero:
        return HbarSeries(n, [Fraction(0)] * (n + 1))
    dn, dd = num.degree, den.degree
    if dn > dd:
        raise PoleAtInfinityError(
            f"pole at infinity: numerator degree {dn} exceeds denominator degree {dd}"
        )
    # substitute λ = 1/ħ and clear ħ^dd; only the first n+1 coefficients count
    top = [num.coeffs[dd - k] if dd - k <= dn else 0 for k in range(min(dd, n) + 1)]
    bottom = [den.coeffs[dd - k] for k in range(min(dd, n) + 1)]
    return HbarSeries.ratio(top, bottom, n)
