"""Graded Lie algebras: structure constants, validation, JSON format, built-ins."""

import json
from fractions import Fraction

import pytest

from starprod.errors import CutoffExceededError, SpecError
from starprod.lie import (
    GradedLieAlgebra,
    Generator,
    builtin,
    heisenberg,
    random_two_step,
    sl2,
    virasoro,
)
from starprod.star import star_series


def test_sl2_brackets():
    alg = sl2(1)
    f, h, e = (alg.by_name(n).id for n in ("f", "h", "e"))
    assert alg.bracket(e, f) == ((h, 1),)
    assert alg.bracket(f, e) == ((h, -1),)
    assert alg.bracket(h, e) == ((e, 2),)
    assert alg.bracket(h, f) == ((f, -2),)
    assert alg.bracket(e, e) == ()
    assert alg.chi(h) == 1
    assert sl2(Fraction(5, 3)).chi(h) == Fraction(5, 3)


def test_heisenberg_brackets():
    alg = heisenberg(2, 3)
    q1, q2, c, p1, p2 = (alg.by_name(n).id for n in ("q1", "q2", "c", "p1", "p2"))
    assert alg.bracket(p1, q1) == ((c, 1),)
    assert alg.bracket(q1, p1) == ((c, -1),)
    assert alg.bracket(p1, q2) == ()
    assert alg.bracket(p1, p2) == ()
    assert alg.chi(c) == 3
    assert [g.degree for g in alg.generators] == [-1, -1, 0, 1, 1]


def test_virasoro_brackets():
    alg = virasoro(1, 1)
    lid = {g.name: g.id for g in alg.generators}
    # [L2, L-2] = 4 L0 + (1/2) c
    assert alg.bracket(lid["L2"], lid["L-2"]) == (
        (lid["L0"], 4),
        (lid["c"], Fraction(1, 2)),
    )
    assert alg.bracket(lid["L1"], lid["L-1"]) == ((lid["L0"], 2),)
    assert alg.bracket(lid["L0"], lid["L1"]) == ((lid["L1"], -1),)
    # requests leaving the window raise instead of returning zero
    with pytest.raises(CutoffExceededError):
        alg.bracket(lid["L2"], lid["L1"])
    # a wider window has the bracket
    wide = virasoro(1, 1, cutoff=3)
    wid = {g.name: g.id for g in wide.generators}
    assert wide.bracket(wid["L2"], wid["L1"]) == ((wid["L3"], 1),)


def test_central_term_coefficient():
    # (a³ - a)/12 at a = 2 is 1/2; at a = 3 it is 2
    alg = virasoro(1, 1, cutoff=3)
    lid = {g.name: g.id for g in alg.generators}
    assert dict(alg.bracket(lid["L3"], lid["L-3"]))[lid["c"]] == 2
    assert dict(alg.bracket(lid["L2"], lid["L-2"]))[lid["c"]] == Fraction(1, 2)


def test_validation_passes_builtins():
    for alg in (sl2(1), heisenberg(2, 1), virasoro(1, 1), virasoro(2, -1, cutoff=3)):
        report = alg.validate()
        assert report.passed, report.to_text()


def test_validation_catches_broken_jacobi():
    gens = [Generator(0, "f", -1), Generator(1, "h", 0), Generator(2, "e", 1)]
    brackets = {(2, 0): [(1, 1)], (1, 2): [(2, 3)], (1, 0): [(0, -2)]}  # [h,e]=3e
    alg = GradedLieAlgebra("bad", gens, brackets, {1: 1})
    report = alg.validate()
    assert not report.passed
    assert any(check == "jacobi" for check, _ in report.failures)


def test_validation_catches_bad_grading():
    gens = [Generator(0, "a", -1), Generator(1, "z", 0), Generator(2, "b", 1)]
    alg = GradedLieAlgebra("bad", gens, {(2, 0): [(2, 1)]}, {1: 1})  # [b,a] = b
    report = alg.validate()
    assert any(check == "grading" for check, _ in report.failures)


def test_validation_catches_character_on_commutators():
    # χ must vanish on [g0, g0]
    gens = [Generator(0, "x", 0), Generator(1, "y", 0), Generator(2, "z", 0)]
    alg = GradedLieAlgebra("bad", gens, {(0, 1): [(2, 1)]}, {2: 1})
    report = alg.validate()
    assert any(check == "character" for check, _ in report.failures)


def test_validation_reports_what_no_spec_can_declare():
    # a spec names each generator once, numbers the ids itself and declares a
    # pair one way only, so these reports come from the constructor alone
    f, h, e = Generator(0, "f", -1), Generator(1, "h", 0), Generator(2, "e", 1)
    cases = [
        ([f, Generator(1, "f", 1)], {}, [("unique-names", "duplicate generator names")]),
        ([f, Generator(0, "e", 1)], {}, [("unique-ids", "duplicate generator ids")]),
        (
            [f, h, e],
            {(2, 0): [(1, 1)], (0, 2): [(1, 1)]},  # [e, f] = h = [f, e]
            [("antisymmetry", "[f, e] is not minus [e, f]")],  # once for the pair
        ),
    ]
    for gens, brackets, failures in cases:
        assert GradedLieAlgebra("bad", gens, brackets, {}).validate().failures == failures


def test_character_is_read_only():
    # the per-degree caches are not keyed on the character, so it cannot change
    alg = sl2(1)
    before = star_series(alg, 2).orders
    with pytest.raises(TypeError):
        alg.character[alg.by_name("h").id] = 2
    with pytest.raises(TypeError):
        del alg.character[alg.by_name("h").id]
    assert alg.chi(alg.by_name("h").id) == 1
    assert star_series(alg, 2).orders == before


def test_attributes_cannot_be_reassigned():
    # nor can the attributes the caches depend on be swapped out
    alg = sl2(1)
    before = star_series(alg, 1).orders
    h = alg.by_name("h").id
    with pytest.raises(AttributeError):
        alg.character = {h: 2}
    for attr, value in (
        ("name", "sl2'"),
        ("generators", ()),
        ("cutoff", 3),
        ("truncated", True),
        ("_table", {}),
    ):
        with pytest.raises(AttributeError):
            setattr(alg, attr, value)
        with pytest.raises(AttributeError):
            delattr(alg, attr)
    assert alg.chi(h) == 1 and alg.cutoff == 1 and alg.name == "sl2"
    assert star_series(alg, 1).orders == before


@pytest.mark.parametrize(
    "make",
    [lambda: sl2(0.1), lambda: heisenberg(2, 0.1), lambda: virasoro(0.1, 1), lambda: virasoro(1, 0.1)],
    ids=["sl2", "heisenberg", "virasoro-delta", "virasoro-c"],
)
def test_builtins_refuse_a_float_parameter(make):
    # sl2(0.1) would otherwise take χ(h) = 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match=r"^0\.1 is a float"):
        make()
    assert sl2(Fraction(1, 10)).chi(1) == Fraction(1, 10)


def test_algebra_refuses_a_float_character_value():
    gens = [Generator(0, "f", -1), Generator(1, "h", 0), Generator(2, "e", 1)]
    with pytest.raises(TypeError, match=r"^0\.5 is a float"):
        GradedLieAlgebra("sl2", gens, {(2, 0): [(1, 1)]}, {1: 0.5})


def test_algebra_refuses_a_float_bracket_coefficient():
    gens = [Generator(0, "f", -1), Generator(1, "h", 0), Generator(2, "e", 1)]
    with pytest.raises(TypeError, match=r"^1\.0 is a float"):
        GradedLieAlgebra("sl2", gens, {(2, 0): [(1, 1.0)]}, {1: 1})


def test_nonsingularity():
    assert sl2(1).check_nonsingular(1) == {1: True}
    assert heisenberg(2, 0).check_nonsingular(1) == {1: False}
    assert virasoro(1, 1).check_nonsingular(2) == {1: True, 2: True}
    # mismatched dimensions at a degree count as singular
    gens = [Generator(0, "a", -1), Generator(1, "z", 0)]
    lop = GradedLieAlgebra("lop", gens, {}, {1: 1})
    assert lop.check_nonsingular(1) == {1: False}


def test_json_round_trip():
    for alg in (sl2(2), heisenberg(2, 3), virasoro(1, -2)):
        data = alg.to_json()
        back = GradedLieAlgebra.from_json(json.loads(json.dumps(data)))
        assert back.name == alg.name
        assert [(g.id, g.name, g.degree) for g in back.generators] == [
            (g.id, g.name, g.degree) for g in alg.generators
        ]
        assert back.character == alg.character
        assert back.cutoff == alg.cutoff and back.truncated == alg.truncated
        for a in (g.id for g in alg.generators):
            for b in (g.id for g in alg.generators):
                try:
                    want = alg.bracket(a, b)
                except CutoffExceededError:
                    with pytest.raises(CutoffExceededError):
                        back.bracket(a, b)
                    continue
                assert back.bracket(a, b) == want


def test_from_json_rejects_malformed():
    good = sl2(1).to_json()

    bad = json.loads(json.dumps(good))
    bad["generators"][0]["degree"] = "minus one"
    with pytest.raises(SpecError):
        GradedLieAlgebra.from_json(bad)

    bad = json.loads(json.dumps(good))
    bad["brackets"].append(bad["brackets"][0])
    with pytest.raises(SpecError):
        GradedLieAlgebra.from_json(bad)

    bad = json.loads(json.dumps(good))
    bad["brackets"][0]["terms"][0]["gen"] = "nope"
    with pytest.raises(SpecError):
        GradedLieAlgebra.from_json(bad)

    bad = json.loads(json.dumps(good))
    del bad["name"]
    with pytest.raises(SpecError):
        GradedLieAlgebra.from_json(bad)

    bad = json.loads(json.dumps(good))
    bad["cutoff"] = 0
    with pytest.raises(SpecError):
        GradedLieAlgebra.from_json(bad)


def test_builtin_dispatch():
    assert builtin("sl2", {"z": Fraction(2)}).name == "sl2"
    assert builtin("heisenberg", {"n": Fraction(2), "w": Fraction(1)}).name == "heisenberg(2)"
    v = builtin("virasoro", {"delta": Fraction(1), "c": Fraction(1)}, cutoff=3)
    assert v.cutoff == 3
    with pytest.raises(SpecError):
        builtin("so8", {})
    with pytest.raises(SpecError):
        builtin("sl2", {})
    with pytest.raises(SpecError):
        builtin("sl2", {"z": Fraction(1), "extra": Fraction(1)})
    with pytest.raises(SpecError):
        builtin("heisenberg", {"n": Fraction(1, 2), "w": Fraction(1)})
    with pytest.raises(SpecError):
        builtin("sl2", {"z": Fraction(1)}, cutoff=0)


def test_random_two_step():
    for seed in range(8):
        alg = random_two_step(seed)
        assert alg.validate().passed
        assert alg.check_nonsingular(1)[1]
        # same seed, same algebra
        again = random_two_step(seed)
        assert again.to_json() == alg.to_json()
    assert random_two_step(0).to_json() != random_two_step(1).to_json()


def test_degree_helpers():
    alg = virasoro(1, 1)
    assert sorted(alg.gen_name(g) for g in alg.zero_ids()) == ["L0", "c"]
