"""PBW normal forms, Hopf operations, projections, and the module action."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from starprod.errors import CutoffExceededError
from starprod.lie import GradedLieAlgebra, heisenberg, random_two_step, sl2, virasoro
from starprod.scalars import Polynomial
from starprod.shapovalov import oracle_pairing
from starprod.uea import (
    BasisOrder,
    antipode,
    char_eval,
    coproduct,
    counit,
    letter_action,
    mono_degree,
    mono_splits,
    multiply,
    normal_form,
    normal_form_random,
    phi,
    phi_order,
    pi_order,
    tensor_mul2,
    word_name,
)
from starprod.verify import _random_groups, _window_budget_ok

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _sl2_ids():
    alg = sl2(1)
    return alg, alg.by_name("f").id, alg.by_name("h").id, alg.by_name("e").id


def test_normal_form_ef():
    alg, f, h, e = _sl2_ids()
    assert normal_form(phi_order(alg), {(e, f): 1}) == {(f, e): 1, (h,): 1}
    # pi order also puts f before e, so the straightened word is the same
    assert normal_form(pi_order(alg), {(e, f): 1}) == {(f, e): 1, (h,): 1}


def test_normal_form_virasoro():
    alg = virasoro(1, 1)
    lid = {g.name: g.id for g in alg.generators}
    got = normal_form(phi_order(alg), {(lid["L1"], lid["L-1"]): 1})
    assert got == {(lid["L-1"], lid["L1"]): 1, (lid["L0"],): 2}


def test_order_ranks():
    alg, f, h, e = _sl2_ids()
    order = phi_order(alg)
    assert order.is_sorted((f, h, e))
    assert not order.is_sorted((e, f))
    assert tuple(sorted((e, h, f), key=order.key)) == (f, h, e)
    # pi order moves zero-degree letters to the end
    assert tuple(sorted((e, h, f), key=pi_order(alg).key)) == (f, e, h)


def test_confluence_random_schedules():
    alg, f, h, e = _sl2_ids()
    rng = random.Random(11)
    letters = (f, h, e)
    for _ in range(60):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
        for order in (phi_order(alg), pi_order(alg)):
            want = normal_form(order, {word: 1})
            assert normal_form_random(order, word, rng) == want


def test_multiply_associates():
    alg, f, h, e = _sl2_ids()
    order = phi_order(alg)
    x = {(e,): 1, (h,): Fraction(1, 2)}
    y = {(f, f): 1}
    z = {(e, h): 1, (): -2}
    left = multiply(order, multiply(order, x, y), z)
    right = multiply(order, x, multiply(order, y, z))
    assert left == right
    # unit
    assert multiply(order, x, {(): 1}) == normal_form(order, x)


def test_multiply_concrete():
    # e·f² = f²e + 2fh - 2f  (straightening twice past f)
    alg, f, h, e = _sl2_ids()
    got = multiply(phi_order(alg), {(e,): 1}, {(f, f): 1})
    assert got == {(f, f, e): 1, (f, h): 2, (f,): -2}


def test_antipode():
    alg, f, h, e = _sl2_ids()
    order = phi_order(alg)
    assert antipode(order, {(e,): 1}) == {(e,): -1}
    # S(ef) = fe, already normal
    assert antipode(order, {(e, f): 1}) == {(f, e): 1}
    # S is an involution here
    x = {(f, h, e): 2, (e,): -1, (): 3}
    assert antipode(order, antipode(order, x)) == normal_form(order, x)
    # and an antihomomorphism: S(xy) = S(y)S(x)
    y = {(f, e): 1}
    assert antipode(order, multiply(order, x, y)) == multiply(
        order, antipode(order, y), antipode(order, x)
    )


def test_mono_splits():
    alg, f, h, e = _sl2_ids()
    got = mono_splits((f, f, e))
    assert len(got) == 6
    assert sum(mult for _, _, mult in got) == 2 ** 3
    assert ((f,), (f, e), 2) in got
    assert ((f, f, e), (), 1) in got
    order = phi_order(alg)
    for left, right, _ in got:
        assert order.is_sorted(left) and order.is_sorted(right)
        assert tuple(sorted(left + right, key=order.key)) == (f, f, e)


def test_coproduct_and_counit():
    alg, f, h, e = _sl2_ids()
    assert coproduct({(f, f): 1}) == {
        ((), (f, f)): 1,
        ((f,), (f,)): 2,
        ((f, f), ()): 1,
    }
    assert counit({(): 5, (f,): 7}) == 5
    # multiplicativity on a small pair
    order = phi_order(alg)
    x, y = {(f,): 1}, {(e,): 1}
    assert tensor_mul2(order, coproduct(x), coproduct(y)) == coproduct(
        multiply(order, x, y)
    )


def test_projections():
    alg, f, h, e = _sl2_ids()
    # ef = fe + h: phi keeps the zero-degree part
    assert phi(alg, {(e, f): 1}) == {(h,): 1}
    assert phi(alg, {(h, h): 1, (f, e): 4}) == {(h, h): 1}


def test_char_eval():
    alg = sl2(Fraction(5, 3))
    h = alg.by_name("h").id
    got = char_eval(alg, {(h, h): 1, (h,): 2, (): 3})
    assert got == Polynomial((3, Fraction(10, 3), Fraction(25, 9)))
    with pytest.raises(ValueError):
        char_eval(alg, {(alg.by_name("e").id,): 1})


def test_mono_degree():
    alg, f, h, e = _sl2_ids()
    assert mono_degree(alg, (f, f, h, e)) == -1
    assert mono_degree(alg, ()) == 0


def test_verma_action():
    alg, f, h, e = _sl2_ids()
    # e·(f·v) = h·v = λ v for z = 1
    assert dict(letter_action(alg, e, (f,), 1)) == {(): Polynomial((0, 1))}
    # the pairing reads the same coefficient of v, through S(e) = -e
    assert -oracle_pairing(alg, (f,), (e,)) == Polynomial((0, 1))
    # positive letters kill the highest-weight vector
    assert dict(letter_action(alg, e, (), 1)) == {}
    assert oracle_pairing(alg, (), (e,)) == Polynomial()
    assert dict(letter_action(alg, f, (), 1)) == {(f,): Polynomial((1,))}
    # h on f²·v: weight λ - 2·2 ... χ is scaled by λ, commutators are not:
    # h f² v = f² h v + [h, f²] v = (λ - 4) f² v
    assert dict(letter_action(alg, h, (f, f), 1)) == {(f, f): Polynomial((-4, 1))}
    # mirror module: f kills v, h acts by -λ
    assert dict(letter_action(alg, f, (), -1)) == {}
    assert dict(letter_action(alg, f, (e,), -1)) == {(): Polynomial((0, 1))}
    assert dict(letter_action(alg, h, (e, e), -1)) == {(e, e): Polynomial((4, -1))}


def test_verma_action_heisenberg():
    alg = heisenberg(1, 2)
    q, p = alg.by_name("q1").id, alg.by_name("p1").id
    # p·(q·v) = [p, q]·v = c·v = 2λ v
    assert dict(letter_action(alg, p, (q,), 1)) == {(): Polynomial((0, 2))}
    assert -oracle_pairing(alg, (q,), (p,)) == Polynomial((0, 2))
    assert dict(letter_action(alg, p, (q, q), 1)) == {(q,): Polynomial((0, 4))}


def test_word_name():
    alg, f, h, e = _sl2_ids()
    assert word_name(alg, ()) == "1"
    assert word_name(alg, (f, f, h, e)) == "f^2 h e"


def _folded(order, word):
    """The normal form of word as every letter inserted in turn, from ()."""
    state = {(): 1}
    for g in word:
        nxt = {}
        for w, c in state.items():
            for w1, c1 in order.insert(w, g).items():
                nxt[w1] = nxt.get(w1, 0) + c * c1
        state = {w: c for w, c in nxt.items() if c}
    return state


def _outcome(nf, order, word):
    try:
        return nf(order, word)
    except CutoffExceededError:
        return "cutoff"


def _sl3():
    spec = json.loads((FIXTURES / "sl3_principal.json").read_text(encoding="utf-8"))
    return GradedLieAlgebra.from_json(spec)


@pytest.mark.parametrize("make, longest", [(lambda: virasoro(1, 1, cutoff=2), 4), (_sl3, 3),
                                           (lambda: random_two_step(17), 3)],
                         ids=["virasoro", "sl3", "two-step-17"])
def test_nf_word_equals_the_letter_by_letter_fold(make, longest):
    # nf_word starts at the word's sorted prefix; on every word up to `longest`
    # letters it must equal the fold from the empty word, for both orders,
    # raising CutoffExceededError exactly where the fold does
    alg, ref = make(), make()
    ids = [g.id for g in alg.generators]
    words = [w for k in range(longest + 1) for w in itertools.product(ids, repeat=k)]
    for order, ref_order in ((phi_order(alg), phi_order(ref)), (pi_order(alg), pi_order(ref))):
        got = [_outcome(BasisOrder.nf_word, order, w) for w in words]
        assert got == [_outcome(_folded, ref_order, w) for w in words]
    if alg.truncated:
        assert "cutoff" in got


def _probing_groups(algebra, rng, group, count, max_len):
    """`verify._random_groups` plus a cutoff probe: a group is also skipped
    when normal-ordering one of its words raises CutoffExceededError."""
    ids = [g.id for g in algebra.generators]
    out = []
    while len(out) < count:
        words = tuple(
            tuple(rng.choice(ids) for _ in range(rng.randint(0, max_len)))
            for _ in range(group)
        )
        if not _window_budget_ok(algebra, words):
            continue
        try:
            for w in words:
                normal_form(phi_order(algebra), {w: 1})
                normal_form(pi_order(algebra), {w: 1})
        except CutoffExceededError:
            continue
        out.append(words)
    return out


@pytest.mark.parametrize("make", [lambda: sl2(1), lambda: heisenberg(2, 1), _sl3,
                                  lambda: random_two_step(17), lambda: virasoro(1, 1, cutoff=1),
                                  lambda: virasoro(1, 1, cutoff=2),
                                  lambda: virasoro(Fraction(1, 2), Fraction(3, 7), cutoff=3),
                                  lambda: virasoro(2, -1, cutoff=4)],
                         ids=["sl2", "heisenberg", "sl3", "two-step-17", "virasoro-1",
                              "virasoro-2", "virasoro-3-rational", "virasoro-4"])
def test_random_groups_without_the_probe_match_the_probing_copy(make):
    # every letter a rewrite creates has as its degree the sum of a subset of
    # the group's letter degrees, which lies in [neg, pos] ⊆ [−cutoff, cutoff]
    # once `_window_budget_ok` holds, and a truncated bracket raises only
    # outside that window; so the probe rejects nothing, and it draws nothing
    # from the rng
    alg = make()
    for group, count, max_len in ((1, 60, 4), (3, 40, 3)):
        rng, ref_rng = random.Random(group), random.Random(group)
        assert _random_groups(alg, rng, group, count, max_len) == _probing_groups(
            make(), ref_rng, group, count, max_len)
        assert rng.getstate() == ref_rng.getstate()
