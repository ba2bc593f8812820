"""The verification suite itself: green on the built-ins, red when sabotaged."""

import hashlib
import json
from fractions import Fraction
from math import lcm
from pathlib import Path
from types import SimpleNamespace

import pytest

from starprod import cli, star, verify
from starprod.lie import GradedLieAlgebra, Generator, heisenberg, random_two_step, sl2, virasoro
from starprod.scalars import ZERO_POLY, Polynomial
from starprod.uea import mono_degree, mono_splits, pi_order
from starprod.shapovalov import canonical_element
from starprod.verify import (
    CheckResult,
    VerificationReport,
    _cleared,
    check_associativity,
    check_canonicity,
    check_closed_forms,
    check_determinant_structure,
    check_first_order,
    check_invariance,
    check_oracle_agreement,
    check_order_bounds,
    check_residue,
    property_suite,
    run_all,
)

BUILTIN_CHECKS = {
    "associativity",
    "invariance",
    "residue",
    "first-order",
    "order-bounds",
    "determinant",
    "oracle",
    "canonicity",
    "closed-form",
    "confluence",
    "product-associativity",
    "antipode",
    "coproduct",
}


def test_run_all_builtins():
    for alg in (sl2(1), heisenberg(2, 1), virasoro(1, 1)):
        report = run_all(alg, window=3)
        assert report.passed, report.to_text()
        assert {r.name for r in report.results} == BUILTIN_CHECKS


def test_run_all_random_algebra():
    report = run_all(random_two_step(3), window=3)
    assert report.passed, report.to_text()
    # no closed form is claimed for a random algebra
    assert {r.name for r in report.results} == BUILTIN_CHECKS - {"closed-form"}


def test_run_all_clamps_window_to_cutoff():
    report = run_all(virasoro(1, 1), window=5)
    assert report.passed
    assoc = next(r for r in report.results if r.name == "associativity")
    assert "window 2" in assoc.detail


def _tampered(alg, window, degree):
    """The algebra with one degree-`degree` coefficient of its canonical
    element (computed through `window`) doubled."""
    canonical_element(alg, window)
    basis, coeffs, det = alg.memo.components[degree]
    key = next(iter(coeffs))
    num, den = coeffs[key]
    coeffs[key] = (num.scale(2), den)
    return alg


def test_tampering_breaks_associativity():
    result = check_associativity(_tampered(sl2(1), 2, 1), 2)
    assert not result.passed
    assert "residual" in result.detail
    for alg, detail in (
        (random_two_step(17), "window 2: residual at [a1 | a1 | b1^2]"),
        (virasoro(1, 1), "window 2: residual at [L-2 | L-1 L1 | L1^2]"),
    ):
        result = check_associativity(_tampered(alg, 2, 2), 2)
        assert (result.passed, result.detail) == (False, detail)
    # the smallest residual word triple, not the smallest interned key
    result = check_associativity(_tampered(virasoro(1, 1, cutoff=3), 3, 2), 3)
    assert (result.passed, result.detail) == (
        False,
        "window 3: residual at [L-3 | L-1^2 L1^2 | L1^3]",
    )


def test_tampering_breaks_invariance():
    assert not check_invariance(_tampered(sl2(1), 2, 1), 2).passed
    for alg, detail in (
        (random_two_step(17), "generator a2 leaves a residual at [a1^2 | b1]"),
        (virasoro(1, 1), "generator L-2 leaves a residual at [L-1^2 | 1]"),
    ):
        result = check_invariance(_tampered(alg, 2, 2), 2)
        assert (result.passed, result.detail) == (False, detail)


def test_tampering_across_valuations():
    # λ⁰ added to a numerator that is a pure power of λ gives its cleared form
    # a lower λ-adic valuation than every other term's, so the accumulators
    # must align contributions that start at different powers of λ
    alg = random_two_step(17)
    canonical_element(alg, 2)
    _, coeffs, _ = alg.memo.components[2]
    key = next(iter(coeffs))
    num, den = coeffs[key]
    coeffs[key] = (num + Polynomial((1,)), den)

    result = check_associativity(alg, 2)
    assert (result.passed, result.detail) == (False, "window 2: residual at [a1 | a1 | b1^2]")
    result = check_invariance(alg, 2)
    assert (result.passed, result.detail) == (
        False,
        "generator a2 leaves a residual at [a1^2 | b1]",
    )


@pytest.mark.parametrize("lead", [0, 2], ids=["missing", "doubled"])
def test_a_wrong_leading_word_breaks_associativity(lead):
    # the two sides share the commutator nf(y·x) − x·y: with the memoized
    # pi-order normal form of one pos·neg word y·x holding its leading word
    # x·y with coefficient 0 or 2, the difference leaves a residual, where
    # dropping x·y from nf(y·x) would leave none
    for make, y, x, detail in (
        (lambda: sl2(1), "e", "f", "window 2: residual at [f | f e | e]"),
        (lambda: random_two_step(17), "b1", "a1", "window 2: residual at [a1 | a1 b1 | b1]"),
        (lambda: virasoro(1, 1), "L1", "L-1", "window 2: residual at [L-2 | L-1 L1 | L1^2]"),
    ):
        alg = make()
        y, x = alg.by_name(y).id, alg.by_name(x).id
        order = pi_order(alg)
        nf = {w: c for w, c in order.nf_word((y, x)).items() if w != (x, y)}
        order._words[(y, x)] = {**nf, (x, y): lead} if lead else nf
        result = check_associativity(alg, 2)
        assert (result.passed, result.detail) == (False, detail)


def test_associativity_component_counts():
    for alg, detail in (
        (random_two_step(0), "window 3: 29273 components vanish"),
        (virasoro(1, 1, cutoff=3), "window 3: 340 components vanish"),
    ):
        result = check_associativity(alg, 3)
        assert (result.passed, result.detail) == (True, detail)


def _tampered_series(monkeypatch, degree):
    """Make `star_series` read the degree-`degree` series with its first
    ħ-coefficient list doubled."""
    real = star.series_component

    def tampered(algebra, n, order):
        terms = real(algebra, n, order)
        if n == degree:
            key = next(iter(terms))
            terms[key] = tuple(2 * c for c in terms[key])
        return terms

    monkeypatch.setattr(star, "series_component", tampered)


def test_tampering_breaks_residue_and_closed_form(monkeypatch):
    # the exact components: the closed form and the route comparison
    alg = _tampered(sl2(1), 2, 1)
    assert not check_closed_forms(alg).passed
    assert not check_order_bounds(alg, 2).passed
    # the series that star_series reads: residue and first order
    _tampered_series(monkeypatch, 1)
    alg = sl2(1)
    residue_check = check_residue(alg, 2)
    assert (residue_check.passed, residue_check.detail) == (
        False,
        "first-order term differs from Σ uᵢ⊗vᵢ",
    )
    result = check_first_order(residue_check)
    assert (result.passed, result.detail) == (
        False,
        "order-1 coefficients differ from the residue",
    )


def _sl3():
    spec = (RATIONAL.parent / "sl3_principal.json").read_text(encoding="utf-8")
    return GradedLieAlgebra.from_json(json.loads(spec))


def _scaled_block(factor):
    """Scale the numerators and den of the block with the den of highest
    degree by 3, and the whole det by `factor`."""
    def tamper(basis, coeffs, det):
        top = max((den for _, den in coeffs.values()), key=lambda den: den.degree)
        return basis, {pair: (num.scale(3), den.scale(3)) if den == top else (num, den)
                       for pair, (num, den) in coeffs.items()}, det.scale(factor)
    return tamper


def test_tampering_breaks_canonicity(monkeypatch):
    # each mutant fails at the tampered degree 2, on Virasoro (one block per
    # degree) and on sl3 (blocks of 1, 2 and 1 rows at degree 2)
    def entry(basis, coeffs, det):  # one entry of the memoized element
        key = next(iter(coeffs))
        num, den = coeffs[key]
        return basis, {**coeffs, key: (num + Polynomial((0, 1)), den)}, det

    def top(coeffs):  # the den of highest degree: one block's
        return max((den for _, den in coeffs.values()), key=lambda den: den.degree)

    def mixed(basis, coeffs, det):  # one entry of that block over 2·den, the same value
        pair = next(p for p, (_, den) in coeffs.items() if den == top(coeffs))
        num, den = coeffs[pair]
        return basis, {**coeffs, pair: (num.scale(2), den.scale(2))}, det

    def zeroed(basis, coeffs, det):  # that block as 0/0, which A·0 = 0·I accepts
        return basis, {p: (ZERO_POLY, ZERO_POLY) if den == top(coeffs) else (num, den)
                       for p, (num, den) in coeffs.items()}, det

    def extra(basis, coeffs, det):  # an entry off every block (sl3 only: Virasoro's is full)
        pair = next((x, y) for x in basis.minus for y in basis.plus if (x, y) not in coeffs)
        return basis, {**coeffs, pair: next(iter(coeffs.values()))}, det

    real = verify.pairing_determinant

    def asc(matrix_plus=ZERO_POLY, det_plus=ZERO_POLY):
        def tampered(algebra, n, order):
            basis, matrix, det = real(algebra, n, order)
            if n == 2:
                matrix = ((matrix[0][0] + matrix_plus, *matrix[0][1:]), *matrix[1:])
                det = det + det_plus
            return basis, matrix, det
        return tampered

    for make in (lambda: virasoro(1, 1, cutoff=3), _sl3):
        cases = [(entry, real), (_scaled_block(3), real), (None, asc(matrix_plus=Polynomial((1,)))),
                 (None, asc(det_plus=Polynomial((1,)))), (mixed, real), (zeroed, real)]
        cases += [(extra, real)] * (make is _sl3)
        for tamper, route in cases:
            alg = make()
            monkeypatch.setattr(verify, "pairing_determinant", real)
            assert check_canonicity(alg, 3).passed
            if tamper is not None:
                alg.memo.components[2] = tamper(*alg.memo.components[2])
            monkeypatch.setattr(verify, "pairing_determinant", route)
            result = check_canonicity(alg, 3)
            assert (result.passed, result.detail) == (False, "components differ at degree 2"), (alg.name, tamper)
        # the scaled block alone, with the det left as it was, inverts the asc
        # matrix as values: the certificate accepts it, and only the det refuses
        alg = make()
        monkeypatch.setattr(verify, "pairing_determinant", real)
        canonical_element(alg, 3)
        alg.memo.components[2] = _scaled_block(1)(*alg.memo.components[2])
        assert check_canonicity(alg, 3).passed


def test_long_slot_in_the_series_breaks_order_bounds(monkeypatch):
    # an order-1 coefficient on the length-2 slot f^2 ⊗ e^2, which the exact
    # route has starting at ħ^2
    alg = sl2(1)
    f, e = alg.by_name("f").id, alg.by_name("e").id
    real = star.series_component

    def tampered(algebra, n, order):
        terms = real(algebra, n, order)
        if n == 2:
            cs = terms[((f, f), (e, e))]
            assert cs[:2] == (0, 0)
            terms[((f, f), (e, e))] = (cs[0], 1, *cs[2:])
        return terms

    monkeypatch.setattr(star, "series_component", tampered)
    result = check_order_bounds(alg, 2)
    assert (result.passed, result.detail) == (
        False,
        "order-1 series term at [f^2 | e^2] differs from the exact route",
    )


def test_untampered_checks_pass_directly():
    alg = virasoro(1, 1)
    assert check_associativity(alg, 2).passed
    assert check_invariance(alg, 2).passed
    residue_check = check_residue(alg, 2)
    assert residue_check.passed
    assert check_first_order(residue_check).passed
    assert check_order_bounds(alg, 2).passed
    assert check_determinant_structure(alg, 2).passed
    assert check_oracle_agreement(alg, 2).passed
    assert check_canonicity(alg, 2).passed
    assert check_closed_forms(alg).passed


def test_closed_form_dispatch():
    assert check_closed_forms(random_two_step(0)) is None
    assert check_closed_forms(sl2(1)).detail.startswith("matches 1/(n!")
    assert "exp(" in check_closed_forms(heisenberg(1, 1)).detail
    assert "two-generator table" in check_closed_forms(virasoro(1, 1)).detail


def _times(alg, degree, factor, pair=None):
    """The algebra with its degree-`degree` determinant (or, given `pair`,
    that pair's numerator, 1 over the det for a pair it lacks) multiplied by
    the polynomial `factor`."""
    canonical_element(alg, degree)
    basis, coeffs, det = alg.memo.components[degree]
    if pair is None:
        det = det * factor
    else:
        num, den = coeffs.get(pair, (Polynomial((1,)), det))
        coeffs[pair] = (num * factor, den)
    alg.memo.components[degree] = (basis, coeffs, det)
    return alg


def _doubled_order(monkeypatch, order):
    """Make `verify.star_series` return its series with the ħ^`order`
    coefficients doubled."""
    real = verify.star_series

    def tampered(*args, **kwargs):
        orders = dict(real(*args, **kwargs).orders)
        orders[order] = {key: 2 * c for key, c in orders[order].items()}
        return SimpleNamespace(orders=orders)

    monkeypatch.setattr(verify, "star_series", tampered)


LAMBDA, TWO = Polynomial((0, 1)), Polynomial((2,))


def test_a_slowly_decaying_coefficient_breaks_order_bounds():
    # sl2's degree-1 coefficient 1/(−λ) times λ no longer vanishes at λ = ∞
    result = check_order_bounds(_times(sl2(1), 1, LAMBDA, ((0,), (2,))), 1)
    assert result == CheckResult("order-bounds", False, "coefficient at [f | e] decays too slowly")


def test_a_determinant_of_the_wrong_degree_breaks_the_structure_check():
    result = check_determinant_structure(_times(sl2(1), 1, LAMBDA), 2)
    assert result == CheckResult("determinant", False, "degree 1: det has λ-degree 2, expected 1")


def test_a_cross_degree_oracle_value_breaks_oracle_agreement(monkeypatch):
    monkeypatch.setattr(verify, "oracle_pairing", lambda algebra, x, y: 1)
    result = check_oracle_agreement(sl2(1), 2)
    assert result == CheckResult("oracle", False, "cross-degree pair (1,2) does not vanish")


@pytest.mark.parametrize("make, tamper, detail", [
    (lambda: _tampered(sl2(1), 2, 2), None, "coefficient at degree 2 is off"),
    (lambda: sl2(1), 3, "series differs from the rational closed form"),
    (lambda: sl2(Fraction(1, 3)), 4, "series differs from the rational closed form"),
    (lambda: _tampered(heisenberg(2, 1), 1, 1), None, "diagonal term at degree 1 is off"),
    (lambda: _times(heisenberg(2, 1), 1, LAMBDA, ((0,), (4,))), None,
     "unexpected off-diagonal terms at degree 1"),
    (lambda: heisenberg(2, Fraction(1, 3)), 2, "series differs from the exponential form"),
    (lambda: _times(virasoro(1, 1, cutoff=1), 1, TWO), None, "degree-1 determinant is off"),
    (lambda: virasoro(1, 1, cutoff=1), 1, "order ≤ 1 series differs from the table"),
    (lambda: virasoro(1, -8), None, "leading coefficient A vanishes"),
    (lambda: _times(virasoro(1, 1), 1, TWO), None, "degree-1 determinant is off"),
    (lambda: _times(virasoro(1, 1), 2, TWO), None, "degree-2 determinant is not Aλ³+Bλ²"),
    (lambda: virasoro(Fraction(1, 2), Fraction(3, 7)), 2, "order ≤ 2 series differs from the table"),
], ids=["sl2-coefficient", "sl2-series", "sl2-rational-series", "heisenberg-diagonal",
        "heisenberg-off-diagonal", "heisenberg-series", "virasoro-1-det", "virasoro-1-series",
        "virasoro-A-vanishes", "virasoro-2-det1", "virasoro-2-det2", "virasoro-2-series"])
def test_each_closed_form_failure_is_reachable(make, tamper, detail, monkeypatch):
    # a corrupted component or series (ħ^tamper doubled), or, for Virasoro at
    # Δ = 1, c = −8, a character that `run_all` refuses up front because χ is
    # singular at degree 2, where A = −32Δ³ − 4Δ²c vanishes
    if tamper is not None:
        _doubled_order(monkeypatch, tamper)
    result = check_closed_forms(make())
    assert result == CheckResult("closed-form", False, detail)


def test_property_suite():
    results = property_suite(sl2(1), seed=5, samples=25)
    assert [r.name for r in results] == [
        "confluence",
        "product-associativity",
        "antipode",
        "coproduct",
    ]
    assert all(r.passed for r in results)
    # truncated algebras sample only in-window words, so this must also pass
    assert all(r.passed for r in property_suite(virasoro(1, 1), seed=5, samples=25))


_SUITE_PASSES = [
    ("confluence", True, "25 rewrite schedules agree"),
    ("product-associativity", True, "25 triples associate"),
    ("antipode", True, "25 antihomomorphism and fold checks"),
    ("coproduct", True, "25 multiplicativity and coassociativity checks"),
]


def _suite_with(alg, failing):
    """property_suite's results on alg against the passing ones, with the
    checks named in `failing` (name -> detail) failing instead."""
    got = [(r.name, r.passed, r.detail) for r in property_suite(alg, seed=5, samples=25)]
    assert got == [(name, False, failing[name]) if name in failing else (name, ok, detail)
                   for name, ok, detail in _SUITE_PASSES]


def test_confluence_fails_when_a_schedule_drops_the_bracket_term(monkeypatch):
    sym = lambda order, word, rng: {tuple(sorted(word, key=order.key)): 1}
    monkeypatch.setattr(verify, "normal_form_random", sym)
    _suite_with(sl2(1), {"confluence": "schedules diverge"})


def test_product_associativity_fails_without_the_jacobi_identity():
    # sl2 with [h, e] = 3e: [e, [f, h]] + [f, [h, e]] + [h, [e, f]] = −h
    gens = [Generator(0, "f", -1), Generator(1, "h", 0), Generator(2, "e", +1)]
    alg = GradedLieAlgebra("sl2", gens, {(2, 0): [(1, 1)], (1, 2): [(2, 3)], (1, 0): [(0, -2)]}, {1: 1})
    _suite_with(alg, {"product-associativity": "association fails", "antipode": "antipode identity fails"})


def test_antipode_fails_without_its_sign(monkeypatch):
    real = verify.antipode
    unsigned = lambda order, x: real(order, {w: (-1) ** len(w) * c for w, c in x.items()})
    monkeypatch.setattr(verify, "antipode", unsigned)
    _suite_with(sl2(1), {"antipode": "antipode identity fails"})


def test_coassociativity_fails_at_split_multiplicity_one(monkeypatch):
    real = verify.mono_splits
    monkeypatch.setattr(verify, "mono_splits", lambda word: [(a, b, 1) for a, b, _ in real(word)])
    _suite_with(sl2(1), {"coproduct": "coproduct identity fails"})


def test_multiplicativity_fails_when_the_slot_factors_swap(monkeypatch):
    real = verify.tensor_mul2
    monkeypatch.setattr(verify, "tensor_mul2", lambda order, s, t: real(order, t, s))
    _suite_with(sl2(1), {"coproduct": "coproduct identity fails"})


def test_report_rendering():
    report = VerificationReport("demo")
    report.add(CheckResult("alpha", True, "fine"))
    text = report.to_text()
    assert text.splitlines()[0] == "verification of demo"
    assert "PASS alpha: fine" in text
    assert text.splitlines()[-1] == "OK"

    report.add(CheckResult("beta", False, "broken"))
    assert not report.passed
    assert report.to_text().splitlines()[-1] == "FAILED"
    assert "FAIL beta: broken" in report.to_text()

    data = json.loads(json.dumps(report.to_json()))
    assert data["algebra"] == "demo"
    assert data["passed"] is False
    assert data["checks"][0] == {"name": "alpha", "passed": True, "detail": "fine"}


def test_cleared_terms_share_a_common_multiple_of_the_block_dets():
    # every numerator is carried over L / den, den the det of its block: L =
    # det_w when each det divides the next, and the product of two dens when
    # neither divides the other, across degrees or between one degree's blocks
    lam, one, shifted = Polynomial((0, 1)), Polynomial((1,)), Polynomial((1, 1))
    for dens, common in (
        ([[one], [lam], [lam * lam]], lam * lam),
        ([[one], [lam], [shifted]], lam * shifted),
        ([[one], [lam * shifted], [lam]], lam * shifted),
        ([[one], [lam], [lam, shifted]], lam * shifted),  # two blocks at degree 2
    ):
        entries = {n: {((n, k), (k,)): (Polynomial((n + k + 1,)), den) for k, den in enumerate(row)}
                   for n, row in enumerate(dens)}
        terms = _cleared(SimpleNamespace(entries=entries), 2)
        assert [(n, pair) for n, pair, _ in terms] == [(n, pair) for n in entries for pair in entries[n]]
        for n, pair, (v, tail) in terms:
            num, den = entries[n][pair]
            want = (num * common.exact_div(den)).coeffs
            assert (v, tail) == (next(i for i, c in enumerate(want) if c), want[v:]), n


RATIONAL = Path(__file__).resolve().parent / "fixtures" / "sl3_rational.json"


def _rational():
    return GradedLieAlgebra.from_json(json.loads(RATIONAL.read_text(encoding="utf-8")))


def test_rational_brackets_and_character(capsys):
    # sl3 in the principal grading with f12 scaled by 3 and e12 by 1/2, so the
    # brackets carry 1/3, 1/2 and 3/2, and χ(h1) = 2/5: the constants of both
    # global checks are fractions.  Details and bytes as the list accumulators
    # printed them before each component became one packed integer.
    report = run_all(_rational(), window=3)
    assert report.passed, report.to_text()
    assert report.results[0].detail == "window 3: 681 components vanish"
    for degree, assoc, inv in (
        (1, "[f1 | f1 | e1^2]", "[f1 | 1]"),
        (3, "[f1 | f1^2 | e1^3]", "[f1^3 | e1^2]"),
    ):
        result = check_associativity(_tampered(_rational(), 3, degree), 3)
        assert (result.passed, result.detail) == (False, f"window 3: residual at {assoc}")
        result = check_invariance(_tampered(_rational(), 3, degree), 3)
        assert (result.passed, result.detail) == (False, f"generator f1 leaves a residual at {inv}")
    assert cli.main(["verify", "--spec", str(RATIONAL), "--max-degree", "3", "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "0d7b33ff2a082278117349e822ddf15624988b383114766b9896f891c141762c"
    result = check_associativity(sl2(Fraction(1, 2), cutoff=4), 4)
    assert (result.passed, result.detail) == (True, "window 4: 55 components vanish")


def _packings(monkeypatch):
    """Record (terms, power, s, den, B) of every packing `_pack` makes."""
    seen = []
    real = verify._pack

    def spy(terms, power, s, den):
        packed, point = real(terms, power, s, den)
        seen.append((terms, power, s, den, point))
        return packed, point

    monkeypatch.setattr(verify, "_pack", spy)
    return seen


@pytest.mark.parametrize("check", [check_associativity, check_invariance])
def test_one_packing_at_the_tally_width(check, monkeypatch):
    # pinned results, each from one packing at b = bits(den·s·H^power)
    algebras = [
        lambda: virasoro(1, 1, cutoff=3),
        lambda: random_two_step(17),
        _rational,
        lambda: _tampered(virasoro(1, 1, cutoff=3), 3, 2),
        lambda: _tampered(_rational(), 3, 3),
    ]
    want = {
        check_associativity: [
            "window 3: 340 components vanish",
            "window 3: 29273 components vanish",
            "window 3: 681 components vanish",
            "window 3: residual at [L-3 | L-1^2 L1^2 | L1^3]",
            "window 3: residual at [f1 | f1^2 | e1^3]",
        ],
        check_invariance: ["window 3: all generators annihilate the element"] * 3 + [
            "generator L-2 leaves a residual at [L-1^2 | 1]",
            "generator f1 leaves a residual at [f1^3 | e1^2]",
        ],
    }[check]
    seen = _packings(monkeypatch)
    for make, detail, passed in zip(algebras, want, [True] * 3 + [False] * 2):
        del seen[:]
        result = check(make(), 3)
        assert (result.passed, result.detail) == (passed, detail)
        [(terms, power, s, den, point)] = seen
        scale = lcm(*(c.denominator for *_, (_, tail) in terms for c in tail))
        h = max(sum(abs(c * scale) for c in tail) for *_, (_, tail) in terms)
        assert (power, point) == (2 if check is check_associativity else 1, 1 << int(den * s * h**power).bit_length())


def _brute_tally(alg, window):
    """The number of contributions of the associativity pass, their Σ|k| and
    the lcm of k's denominators, enumerated term pair by term pair: the left
    skips the split x1 = (), and the right's split y2 = () reads the
    commutator nf(y1·xq) − xq·y1, which the two sides share."""
    nf = pi_order(alg).nf_word
    terms = _cleared(canonical_element(alg, window), window)
    deg = lambda w: mono_degree(alg, w)
    ks = []
    for _, (x, y), _ in terms:
        for n, (xq, yq), _ in terms:
            for x1, _, mult in mono_splits(x):
                if x1 and n <= window + deg(x1):
                    ks += [mult * c1 for c1 in nf(x1 + xq).values()]
            for y1, y2, mult in mono_splits(y):
                if n <= window - deg(y2):
                    mid = dict(nf(y1 + xq))
                    if not y2:
                        mid[xq + y1] = mid.get(xq + y1, 0) - 1
                    ks += [
                        mult * c2 * c3
                        for w2, c2 in mid.items() if c2 and all(map(alg.degree, w2))
                        for c3 in nf(y2 + yq).values()
                    ]
    return len(ks), sum(map(abs, ks)), lcm(*(Fraction(k).denominator for k in ks))


def _sl3_halves():
    """sl3 in the principal grading with e12 and f2 doubled, so that
    [e1, e2] = e12/2 and [f12, e1] = f2/2."""
    spec = json.loads((RATIONAL.parent / "sl3_principal.json").read_text(encoding="utf-8"))
    scale = {"e12": 2, "f2": 2}
    for bracket in spec["brackets"]:
        for term in bracket["terms"]:
            c = Fraction(term["coeff"]) * scale.get(bracket["a"], 1) * scale.get(bracket["b"], 1)
            term["coeff"] = str(c / scale.get(term["gen"], 1))
    return GradedLieAlgebra.from_json(spec)


def test_the_plan_tally_is_the_brute_force_tally(monkeypatch):
    seen, sizes, counts = _packings(monkeypatch), [], []
    real = verify._tallied
    monkeypatch.setattr(verify, "_tallied", lambda plan, ks: sizes.append(len(ks)) or real(plan, ks))
    for make, window in (
        (lambda: random_two_step(17), 3),
        (_rational, 3),
        (lambda: virasoro(1, 1, cutoff=4), 4),
        (_sl3_halves, 3),
    ):
        del seen[:], sizes[:]
        assert check_associativity(make(), window).passed
        [(terms, _, s, den, _)] = seen
        count, *tally = _brute_tally(make(), window)
        assert (s, den) == tuple(tally)
        # one plan per distinct x, then one per distinct y; each term t
        # makes its x's and its y's contributions
        xs, ys = (list(dict.fromkeys(pair[i] for _, pair, _ in terms)) for i in (0, 1))
        assert len(sizes) == len(xs) + len(ys)
        size = dict(zip([(0, x) for x in xs] + [(1, y) for y in ys], sizes))
        assert sum(size[0, x] + size[1, y] for _, (x, y), _ in terms) == count
        counts.append(count)
    # adding the shared commutator once, not both of its sides: 26 876
    # contributions where the unshared sides made 69 508
    assert counts[0] == 26876
    # on the halved sl3, c2 = c3 = -1/2 meet in one constant k = 1/4: den is
    # the denominator of the product, 4, where the factors' lcm would give 2
    assert den == 4
