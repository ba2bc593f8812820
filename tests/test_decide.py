"""The exact zero test behind the global identities: every component is one
integer, the value of its residual at λ = B = 2^b, and `verify._pack` packs
at the width b = bits(den·s·H^power) that the check's tally proves."""

from fractions import Fraction
from math import lcm

import pytest

from starprod import verify
from starprod.scalars import ZERO_POLY, Polynomial, horner

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

COEFFS = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6))
SCALARS = COEFFS.filter(bool)


@st.composite
def sums(draw, power):
    """(terms, contributions) in the shape a check's pass sees: terms
    (n, pair, (v, tail)) with tail[0] ≠ 0, and contributions (key, k, i, j),
    k a scalar times terms i and j (power 2) or a coefficient tuple times
    term i (power 1).  Each tail comes as three terms, as drawn, scaled by c,
    and moved up one power of λ, so that some keys get a twin contribution
    that cancels theirs exactly through another packed term."""
    tails = draw(st.lists(st.lists(COEFFS, min_size=1, max_size=4), min_size=1, max_size=4))
    terms, scales = [], []
    for i, tail in enumerate(tails):
        tail = (tail[0] or 1, *tail[1:])
        v, c = draw(st.integers(0, 3)), draw(SCALARS)
        terms += [(i, (i, 0), (v, tail)), (i, (i, 1), (v, tuple(c * t for t in tail)))]
        terms.append((i, (i, 2), (v + 1, tail)))
        scales += [c] * 3
    ids = st.integers(0, len(terms) - 1)
    contributions = []
    for key in range(draw(st.integers(1, 6))):
        for _ in range(draw(st.integers(1, 3))):
            i, j = draw(ids), draw(ids)
            k = draw(SCALARS) if power == 2 else tuple(draw(st.lists(COEFFS, max_size=3)))
            contributions.append((key, k, i, j))
            if not draw(st.booleans()):
                continue
            base, c, kind = i - i % 3, Fraction(scales[i]), i % 3
            if kind == 2:  # λ·t against t: swap the factors, or move λ into k
                twin = (key, -k, j, i) if power == 2 else (key, (0, *(-x for x in k)), base, j)
            elif power == 1 and kind == 0 and k and not k[0]:  # k = λ·k′ against λ·t
                twin = (key, tuple(-x for x in k[1:]), base + 2, j)
            else:  # t against c·t
                r = -1 / c if kind == 0 else -c
                k2 = r * k if power == 2 else tuple(r * x for x in k)
                twin = (key, k2, base + 1 - kind, j)
            contributions.append(twin)
    return terms, contributions


def _tally(power, contributions):
    """s = Σ|k| and den, the lcm of k's denominators (for power 1, over the
    coefficients of each k)."""
    ks = [c for _, k, *_ in contributions for c in ((k,) if power == 2 else k)]
    return sum(map(abs, ks)), lcm(*(Fraction(c).denominator for c in ks))


def _decide(terms, power, contributions):
    """The packed sum of each key's contributions, at the tally's width."""
    packed, point = verify._pack(terms, power, *_tally(power, contributions))
    acc = {}
    for key, k, i, j in contributions:
        if power == 2:
            value = k * packed[i] * packed[j]
        else:
            value = horner(k, point) * packed[i]
        acc[key] = acc.get(key, 0) + value
    return acc


def _polynomial_sums(terms, power, contributions):
    def poly(i):
        v, tail = terms[i][2]
        return Polynomial((0,) * v + tail)

    out = {}
    for key, k, i, j in contributions:
        term = poly(i) * poly(j) * Polynomial((k,)) if power == 2 else Polynomial(k) * poly(i)
        out[key] = out.get(key, ZERO_POLY) + term
    return out


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_packed_decision_agrees_with_polynomial_sums(data):
    power = data.draw(st.sampled_from([1, 2]))
    terms, contributions = data.draw(sums(power))
    want = _polynomial_sums(terms, power, contributions)
    acc = _decide(terms, power, contributions)
    assert acc.keys() == want.keys()
    assert {key: bool(v) for key, v in acc.items()} == {key: bool(p) for key, p in want.items()}


def test_twins_cancel_exactly():
    # a scaled copy and a one-power shift, each made to cancel: the packed sums
    # are exactly 0 at any width, and a near miss is not
    terms = [(0, (0,), (2, (3, Fraction(-1, 2)))), (0, (1,), (2, (Fraction(9, 7), Fraction(-3, 14)))),
             (0, (2,), (3, (3, Fraction(-1, 2))))]
    cases = {
        2: [("a", 1, 0, 0), ("a", Fraction(-7, 3), 1, 0), ("b", 1, 0, 2), ("b", -1, 2, 0),
            ("c", 1, 0, 0), ("c", Fraction(-7, 3), 1, 0), ("c", Fraction(1, 10**30), 2, 2)],
        1: [("a", (0, 1), 0, 0), ("a", (-1,), 2, 0), ("b", (0, 1), 0, 0), ("b", (-1, 1), 2, 0)],
    }
    for power, contributions in cases.items():
        acc = _decide(terms, power, contributions)
        want = _polynomial_sums(terms, power, contributions)
        assert {key: bool(v) for key, v in acc.items()} == {key: bool(p) for key, p in want.items()}
        assert [key for key, v in sorted(acc.items()) if v] == (["c"] if power == 2 else ["b"])


def test_a_zero_at_too_narrow_a_width_is_not_trusted():
    # 2 − λ vanishes at B = 2 and 4 − λ at B = 4 (H = 1), the widths that
    # power·bits(H) alone would give; the tallies s·H^power = 3 and 5 pack
    # at B = 4 and B = 8 instead, where both are nonzero
    terms = [(0, (0,), (0, (1,))), (1, (1,), (1, (1,)))]
    for power, contributions, value in (
        (1, [("p", (2, -1), 0, 0)], 2 - 4),
        (2, [("p", 4, 0, 0), ("p", -1, 0, 1)], 4 - 8),
    ):
        assert _decide(terms, power, contributions) == {"p": value}
