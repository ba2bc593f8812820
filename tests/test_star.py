"""The product series: expansion at large scale, residues, serialization."""

import json
from fractions import Fraction
from math import factorial

import pytest

from starprod.errors import CutoffExceededError
from starprod.lie import heisenberg, sl2, virasoro
from starprod.star import expected_residue, first_order, residue, star_series


def _w(algebra, *names):
    return tuple(algebra.by_name(n).id for n in names)


def test_sl2_series():
    alg = sl2(1)
    f, e = _w(alg, "f"), _w(alg, "e")
    star = star_series(alg, 3)
    assert star.orders[0] == {((), ()): 1}
    assert star.orders[1] == {(f, e): -1}
    assert star.orders[2] == {(f * 2, e * 2): Fraction(1, 2)}
    assert star.orders[3] == {
        (f * 2, e * 2): Fraction(1, 2),
        (f * 3, e * 3): Fraction(-1, 6),
    }
    assert [star.orders[m].get((f * 2, e * 2), 0) for m in range(4)] == [
        0, 0, Fraction(1, 2), Fraction(1, 2)
    ]
    assert all((f, e * 2) not in star.orders[m] for m in range(4))


def test_heisenberg_series_is_exponential():
    alg = heisenberg(1, 1)
    q, p = _w(alg, "q1"), _w(alg, "p1")
    star = star_series(alg, 4)
    for m in range(5):
        sign = -1 if m % 2 else 1
        assert star.orders[m] == {(q * m, p * m): Fraction(sign, factorial(m))}


def test_heisenberg_two_modes():
    alg = heisenberg(2, 1)
    q1, q2, p1, p2 = (alg.by_name(n).id for n in ("q1", "q2", "p1", "p2"))
    star = star_series(alg, 2)
    assert star.orders[2] == {
        ((q1, q1), (p1, p1)): Fraction(1, 2),
        ((q1, q2), (p1, p2)): 1,
        ((q2, q2), (p2, p2)): Fraction(1, 2),
    }


def test_slot_degree_limit():
    alg = sl2(1)
    f, e = _w(alg, "f"), _w(alg, "e")
    star = star_series(alg, 4, slot_degree_limit=2)
    assert star.slot_degree_limit == 2
    # the f³ ⊗ e³ term is outside the slot window; the f² ⊗ e² tail continues
    assert star.orders[3] == {(f * 2, e * 2): Fraction(1, 2)}
    assert star.orders[4] == {(f * 2, e * 2): Fraction(1, 2)}


def test_truncated_algebra_window():
    with pytest.raises(CutoffExceededError):
        star_series(virasoro(1, 1), 3)
    star = star_series(virasoro(1, 1), 3, slot_degree_limit=2)
    assert star.max_order == 3


def test_expected_residue():
    alg = sl2(2)
    assert expected_residue(alg) == {(_w(alg, "f"), _w(alg, "e")): Fraction(-1, 2)}

    h = heisenberg(2, 3)
    assert expected_residue(h) == {
        (_w(h, "q1"), _w(h, "p1")): Fraction(-1, 3),
        (_w(h, "q2"), _w(h, "p2")): Fraction(-1, 3),
    }

    v = virasoro(1, 1)
    assert expected_residue(v) == {
        (_w(v, "L-1"), _w(v, "L1")): Fraction(-1, 2),
        (_w(v, "L-2"), _w(v, "L2")): Fraction(-2, 9),
    }


def test_residue_matches_expected():
    for alg in (sl2(Fraction(5, 3)), heisenberg(2, 2), virasoro(2, -1)):
        assert residue(alg) == expected_residue(alg)


def test_first_order_skew():
    alg = sl2(1)
    f, e = _w(alg, "f"), _w(alg, "e")
    fo = first_order(alg)
    assert fo.b1 == {(f, e): -1}
    assert fo.skew == {(f, e): -1, (e, f): 1}


def test_to_json_deterministic():
    a = json.dumps(star_series(sl2(1), 3).to_json(), sort_keys=True)
    b = json.dumps(star_series(sl2(1), 3).to_json(), sort_keys=True)
    assert a == b
    data = json.loads(a)
    assert data["algebra"] == "sl2"
    assert data["max_order"] == 3
    assert set(data["orders"]) == {"0", "1", "2", "3"}
    assert data["orders"]["1"] == [{"left": ["f"], "right": ["e"], "coeff": "-1"}]
    assert data["orders"]["0"] == [{"left": [], "right": [], "coeff": "1"}]
