"""Command-line behavior: output formats, exit codes, spec loading."""

import hashlib
import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from starprod import cli, scalars, shapovalov, verify
from starprod.cli import main
from starprod.errors import SpecError
from starprod.lie import GradedLieAlgebra, Generator, heisenberg, random_two_step, sl2


def _run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_validate_text(capsys):
    code, out, err = _run(capsys, "validate", "--builtin", "sl2", "--param", "z=1")
    assert code == 0 and err == ""
    assert out.splitlines() == ["sl2: valid", "  character pairing at degree 1: nonsingular"]


def test_validate_json(capsys):
    code, out, _ = _run(
        capsys, "validate", "--builtin", "sl2", "--param", "z=5/3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data == {"algebra": "sl2", "passed": True, "failures": [], "nonsingular": {"1": True}}


def test_validate_singular_character(capsys):
    code, out, _ = _run(
        capsys, "validate", "--builtin", "heisenberg", "--param", "n=1", "--param", "w=0"
    )
    assert code == 3
    assert "SINGULAR" in out


def test_pairing_text(capsys):
    code, out, _ = _run(
        capsys,
        "pairing", "--builtin", "virasoro", "--param", "delta=1", "--param", "c=1",
        "--degree", "2",
    )
    assert code == 0
    assert out == (
        "virasoro, degree 2\n"
        "basis: L-1^2, L-2\n"
        "  [4*λ+8*λ^2, -6*λ]\n"
        "  [6*λ, -9/2*λ]\n"
        "det = 18*λ^2-36*λ^3\n"
    )


def test_pairing_json(capsys):
    code, out, _ = _run(
        capsys,
        "pairing", "--builtin", "virasoro", "--param", "delta=1", "--param", "c=1",
        "--degree", "2", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["basis"] == {"minus": ["L-1^2", "L-2"], "plus": ["L1^2", "L2"]}
    assert data["matrix"] == [["4*λ+8*λ^2", "-6*λ"], ["6*λ", "-9/2*λ"]]
    assert data["det"] == "18*λ^2-36*λ^3"


def test_pairing_singular_exit(capsys):
    code, _, err = _run(
        capsys,
        "pairing", "--builtin", "heisenberg", "--param", "n=1", "--param", "w=0",
        "--degree", "1",
    )
    assert code == 3
    assert err == "error: heisenberg(1): pairing matrix at degree 1 is singular\n"
    code, _, err = _run(
        capsys,
        "pairing", "--builtin", "virasoro", "--param", "delta=0", "--param", "c=1",
        "--degree", "1",
    )
    assert code == 3
    assert err == "error: virasoro: pairing matrix at degree 1 is singular\n"


def test_pairing_window_exit(capsys):
    # an explicit cutoff is never widened, so degree 3 cannot be computed
    code, _, err = _run(
        capsys,
        "pairing", "--builtin", "virasoro", "--param", "delta=1", "--param", "c=1",
        "--degree", "3", "--cutoff", "2",
    )
    assert code == 4
    assert err.startswith("error:")


def test_pairing_window_table(capsys):
    # a truncated window defines the pairing only through its cutoff: beyond
    # it the request exits 4, inside it the output is the widened builtin's
    vir = ("pairing", "--builtin", "virasoro", "--param", "delta=1", "--param", "c=1")
    for cutoff in (1, 2, 3):
        for degree in range(1, 6):
            code, out, err = _run(
                capsys, *vir, "--degree", str(degree), "--cutoff", str(cutoff)
            )
            if degree > cutoff:
                assert (code, out) == (4, "")
                assert err == (
                    f"error: virasoro: the pairing at degree {degree} needs a window "
                    f"of at least ±{degree}, but the window is ±{cutoff}\n"
                )
            else:
                assert (code, err) == (0, "")
                assert out == _run(capsys, *vir, "--degree", str(degree))[1]


def test_pairing_order_flag(capsys):
    base = [
        "pairing", "--builtin", "virasoro", "--param", "delta=1", "--param", "c=1",
        "--degree", "4",
    ]
    _, out_desc, _ = _run(capsys, *base)
    _, out_asc, _ = _run(capsys, *base, "--order", "asc")
    assert "basis: L-1^4, L-2 L-1^2, L-3 L-1, L-2^2, L-4" in out_desc
    assert "basis: L-1^4, L-2 L-1^2, L-2^2, L-3 L-1, L-4" in out_asc


def test_pairing_det_certificate_catches_a_wrong_kernel(capsys, monkeypatch):
    # Virasoro at degree 3 is one 3×3 block with D = Σ len = 6, and each row
    # shares one power of λ, so D' = Σ (len − 1) = 3: its det over λ³ is
    # interpolated from the integer dets at λ = 0…3 and checked by the
    # independent kernel `determinant`, at N₀ and at λ = 4.  One wrong value
    # fits no integer polynomial, values all off by one fit one that fails at
    # λ = 4, and a scaled `determinant` fails at N₀; each exits 2, naming the
    # algebra and the degree
    integer_det, determinant = shapovalov._integer_det, shapovalov.determinant
    vir = ("pairing", "--builtin", "virasoro", "--param", "delta=1", "--param", "c=1")

    calls = []

    def one_wrong_value(rows):  # the value at λ = 3 is off by one
        calls.append(rows)
        return integer_det(rows) + (len(calls) == 4)

    failures = [
        ("_integer_det", one_wrong_value, "det values at λ = 0…3 fit no integer polynomial"),
        ("_integer_det", lambda rows: integer_det(rows) + 1, "det differs from det A at λ = 4"),
        ("determinant", lambda m: determinant(m).scale(2), "det's λ^3 coefficient differs from det N₀"),
    ]
    for name, wrong, message in failures:
        with monkeypatch.context() as patch:
            patch.setattr(shapovalov, name, wrong)
            code, out, err = _run(capsys, *vir, "--degree", "3")
        assert (code, out) == (2, "")
        assert err == f"error: virasoro: degree 3: {message}\n"
    assert _run(capsys, *vir, "--degree", "3")[0] == 0


def test_an_inexact_bareiss_division_exits_2(capsys, monkeypatch):
    # a step that divides by 3·prev leaves a remainder in Virasoro's first
    # 2×2 inversion; the error names the algebra, the degree and the column
    real = scalars._step
    monkeypatch.setattr(scalars, "_step", lambda a, p, f, t, prev: real(a, p, f, t, [3 * c for c in prev]))
    code, out, err = _run(capsys, "verify", "--builtin", "virasoro", "--param", "delta=1",
                          "--param", "c=1", "--max-degree", "2")
    assert (code, out) == (2, "")
    assert err == ("error: virasoro: degree 2: "
                   "Bareiss division by the previous pivot leaves a remainder at column 0\n")


def test_an_inexact_division_in_the_det_checks_names_its_degree(capsys, monkeypatch):
    # the same step inside pairing's own det checks (det N₀, det A at D + 1):
    # the error is led by the algebra, the degree and, with several blocks,
    # the block's rows
    real = scalars._step
    monkeypatch.setattr(scalars, "_step", lambda a, p, f, t, prev: real(a, p, f, t, [3 * c for c in prev]))
    sl3 = str(Path(__file__).resolve().parent / "fixtures" / "sl3_principal.json")
    remainder = "Bareiss division by the previous pivot leaves a remainder"
    cases = {
        ("--builtin", "virasoro", "--param", "delta=1", "--param", "c=1", "--degree", "4"):
            f"error: virasoro: degree 4: {remainder} at column 2\n",
        ("--spec", sl3, "--degree", "2"):
            f"error: sl3: degree 2: block at rows [1, 3]: {remainder} at column 0\n",
    }
    for argv, message in cases.items():
        assert _run(capsys, "pairing", *argv) == (2, "", message), argv


def test_sl3_blocks_print_the_recorded_bytes(capsys):
    # sl3 in the principal grading, χ(h1) = χ(h2) = 1: each pairing matrix
    # splits into blocks of several sizes (1, 1, 2, 2, …, 5 at degree 8); the
    # digests are those the whole-matrix elimination printed, and for verify,
    # the inverse whose entries shared the whole det
    spec = str(Path(__file__).resolve().parent / "fixtures" / "sl3_principal.json")
    digests = {
        ("pairing", "--degree", "8"):
            "20a4bcb1134afdcd34bfc26fdeebdf039f1fd7afba213fa716a622ee4b5bdbd2",
        ("star", "--max-degree", "6"):
            "3beefcc9b2aa3102a2ddad1a879453c0cef1a4795bb65db1a318b117e50d1165",
        ("verify", "--max-degree", "5"):
            "d9bd4e9e437ac9b10d0a9e40a97bda4ccbd65978d7b5b6112ff496862cab906a",
    }
    for (command, *rest), digest in digests.items():
        code, out, err = _run(capsys, command, "--spec", spec, *rest, "--format", "json")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


def test_heisenberg_blocks_verify_to_the_recorded_bytes(capsys):
    # Heisenberg(3) has one 1×1 block per pairing matrix row (15 at degree
    # 4); the digest is the one printed when every entry shared the whole det
    code, out, err = _run(capsys, "verify", "--builtin", "heisenberg", "--param", "n=3",
                          "--param", "w=2/3", "--max-degree", "4", "--format", "json")
    assert (code, err) == (0, "")
    digest = "4d9e1617a3f7324bfc891a6fb83169640bf5924764282712710a322c53d6fe4f"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_degree_zero_and_no_raising_generator_print_the_recorded_bytes(tmp_path, capsys):
    # degree 0 is the 1×1 matrix [1]; with no raising generator no degree
    # reads another, and each keeps the one it has just built
    abelian = tmp_path / "abelian.json"
    abelian.write_text(json.dumps({
        "name": "abelian", "generators": [{"name": "h", "degree": 0}], "brackets": [],
        "character": [{"gen": "h", "value": "1"}],
    }))
    digests = {
        ("pairing", "--builtin", "sl2", "--param", "z=1", "--degree", "0"):
            "7a202e2baf4a05c133610770feb1e4934f8cd7d9255f43b530ccb2bf6f07ad33",
        ("pairing", "--spec", str(abelian), "--degree", "2"):
            "c3ad68fb1ed28bf529ec72b8243911b88e140685b7d50c3215fb07551ff24667",
        ("star", "--spec", str(abelian), "--max-degree", "2"):
            "bb0f857106b7006fc9dc08ba37e74b31d915b0384b7ecd9a4d7d5d65b2e074e1",
    }
    for argv, digest in digests.items():
        code, out, err = _run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
        if argv[-1] == "0":
            data = json.loads(out)
            assert (data["matrix"], data["det"]) == ([["1"]], "1")


def test_a_table_that_breaks_the_grading_keeps_its_pairing(tmp_path, capsys):
    # [e, g] and [k, f] land in h, off the degrees -1 and +1: a letter action
    # leaves words that the matrix one letter down does not hold, and the
    # module route recurses for them; the digests are the bytes of the
    # route that recursed for every entry
    gens = [("f", -1), ("g", -2), ("h", 0), ("e", 1), ("k", 2)]
    spec = tmp_path / "ungraded.json"
    spec.write_text(json.dumps({
        "name": "ungraded",
        "generators": [{"name": n, "degree": d} for n, d in gens],
        "brackets": [
            {"a": a, "b": b, "terms": [{"gen": "h", "coeff": "1"}]}
            for a, b in (("e", "f"), ("k", "g"), ("e", "g"), ("k", "f"))
        ],
        "character": [{"gen": "h", "value": "1"}],
    }))
    code, out, _ = _run(capsys, "validate", "--spec", str(spec), "--format", "json")
    assert code == 2
    assert [f["check"] for f in json.loads(out)["failures"]] == ["grading", "grading"]
    digests = {
        "3": "367c9dead81df38fcff8b97b5eeb0ae3e382bea68a8a03c6012c4c85216dc67b",
        "4": "481d9e42fbbd38d1f9a28f636b5d508d30da50c078f38be161558487bb385321",
    }
    for degree, digest in digests.items():
        code, out, err = _run(
            capsys, "pairing", "--spec", str(spec), "--degree", degree, "--format", "json"
        )
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, degree
    assert json.loads(out)["det"] == "-288*λ^9"


def test_pairing_prints_every_digit():
    # the λ coefficient of det at sl2 degree 900, -(900!·899!), has 4540 digits,
    # above the 4300 that str() allows an int by default; a child process, so
    # that its memory is not held by the test process
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "starprod.cli", "pairing", "--builtin", "sl2", "--param", "z=1",
         "--degree", "900", "--format", "json"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    det = json.loads(done.stdout)["det"]
    assert max(int(k) for k in re.findall(r"λ\^(\d+)", det)) == 900
    assert det.startswith(f"-{Decimal(factorial(900) * factorial(899))}*λ+")
    assert det.endswith(f"+{factorial(900)}*λ^900")


def test_pairing_stack_depth_does_not_grow_with_the_degree():
    # 100 frames, far fewer than the 400 letters of each word: the module route
    # builds the lower degrees first, so each entry reads the matrix below, and
    # every recursion of `letter_action` finds its shorter suffix memoized
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    code = "import sys; sys.setrecursionlimit(100); from starprod.cli import main; sys.exit(main())"
    done = subprocess.run(
        [sys.executable, "-c", code, "pairing", "--builtin", "sl2", "--param", "z=1",
         "--degree", "400", "--format", "json"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["det"].endswith(f"+{factorial(400)}*λ^400")


def test_pairing_builds_no_inverse(capsys, monkeypatch):
    # `pairing` prints det only, so it neither inverts nor stores a component
    calls, loaded = [], []
    for name in ("adjugate", "invert_pairing"):
        real = getattr(shapovalov, name)
        monkeypatch.setattr(
            shapovalov, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
        )
    load = cli._load_algebra

    def kept(*args, **kwargs):
        loaded.append(load(*args, **kwargs))
        return loaded[-1]

    monkeypatch.setattr(cli, "_load_algebra", kept)
    code, _, _ = _run(
        capsys, "pairing", "--builtin", "virasoro", "--param", "delta=1", "--param", "c=1",
        "--degree", "6",
    )
    assert code == 0
    assert calls == []
    assert list(loaded[0].memo.pairings) == [6]
    assert loaded[0].memo.components == {}


def test_star_text(capsys):
    code, out, _ = _run(capsys, "star", "--builtin", "sl2", "--param", "z=1")
    assert code == 0
    assert out == (
        "sl2: product series through ħ^3 (slots within ±3)\n"
        "  ħ^0: 1 · 1 ⊗ 1\n"
        "  ħ^1: -1 · f ⊗ e\n"
        "  ħ^2: 1/2 · f^2 ⊗ e^2\n"
        "  ħ^3: 1/2 · f^2 ⊗ e^2  +  -1/6 · f^3 ⊗ e^3\n"
    )


def test_star_truncated_header(capsys):
    code, out, _ = _run(
        capsys,
        "star", "--builtin", "virasoro", "--param", "delta=1", "--param", "c=1",
        "--max-degree", "3", "--cutoff", "2",
    )
    assert code == 0
    assert out.splitlines()[0] == "virasoro: product series through ħ^3 (slots within ±2)"


def test_star_json_deterministic(capsys):
    argv = ("star", "--builtin", "sl2", "--param", "z=1", "--format", "json")
    _, first, _ = _run(capsys, *argv)
    _, second, _ = _run(capsys, *argv)
    assert first == second
    data = json.loads(first)
    assert data["orders"]["0"] == [{"coeff": "1", "left": [], "right": []}]
    assert data["orders"]["1"] == [{"coeff": "-1", "left": ["f"], "right": ["e"]}]


def test_star_prints_every_digit(capsys):
    # at z = 10^-600 the ħ^8 coefficient of f^8 ⊗ e^8, 1/(8!·z^8), has a
    # 4798-digit numerator, above the 4300 digits str() allows an int by default
    argv = ("star", "--builtin", "sl2", "--param", "z=1/1" + "0" * 600, "--max-degree", "8")
    code, text, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    code, out, err = _run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    want = Fraction(10**4800, factorial(8))
    (coeff,) = [t["coeff"] for t in json.loads(out)["orders"]["8"] if t["left"] == ["f"] * 8]
    assert coeff == f"{Decimal(want.numerator)}/{Decimal(want.denominator)}"
    assert f" {coeff} · f^8 ⊗ e^8" in text.splitlines()[-1]


def test_star_and_verify_bytes_do_not_depend_on_the_order(tmp_path, capsys):
    # the canonical element does not depend on the basis, so --order reaches
    # only the matrix that `pairing` prints
    spec = tmp_path / "nilpotent.json"
    spec.write_text(json.dumps(random_two_step(17).to_json()), encoding="utf-8")
    algebras = [
        ("--builtin", "sl2", "--param", "z=1"),
        ("--builtin", "heisenberg", "--param", "n=2", "--param", "w=1"),
        ("--builtin", "virasoro", "--param", "delta=1", "--param", "c=-8"),
        ("--spec", str(spec)),
    ]
    codes = []
    for algebra in algebras:
        for command in ("star", "verify"):
            for fmt in ("text", "json"):
                argv = (command, *algebra, "--max-degree", "3", "--format", fmt)
                desc = _run(capsys, *argv)
                assert _run(capsys, *argv, "--order", "asc") == desc, argv
                codes.append(desc[0])
    # Virasoro Δ = 1, c = −8 is singular at degree 2: `verify` exits 3
    assert codes == [0] * 8 + [0, 0, 3, 3] + [0] * 4


def test_verify_command(capsys):
    code, out, _ = _run(
        capsys, "verify", "--builtin", "sl2", "--param", "z=1", "--max-degree", "2"
    )
    assert code == 0
    assert out.splitlines()[0] == "verification of sl2"
    assert out.splitlines()[-1] == "OK"

    code, out, _ = _run(
        capsys,
        "verify", "--builtin", "heisenberg", "--param", "n=1", "--param", "w=1",
        "--max-degree", "2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_refuses_a_singular_character_before_any_check(capsys, monkeypatch):
    # the canonical element and the residue's dual basis are formed first, so
    # a singular pairing or character exits 3 before associativity runs
    calls = []
    real = verify.check_associativity
    monkeypatch.setattr(
        verify, "check_associativity", lambda *a, **k: calls.append(a) or real(*a, **k)
    )
    for argv, message in (
        (
            ("--builtin", "virasoro", "--param", "delta=1", "--param", "c=-8", "--max-degree", "4"),
            "error: virasoro: character pairing is singular at degree 2\n",
        ),
        (
            # window 1, but the closed form reads degree 2 of the widened cutoff
            ("--builtin", "virasoro", "--param", "delta=1", "--param", "c=-8", "--max-degree", "1"),
            "error: virasoro: character pairing is singular at degree 2\n",
        ),
        (
            ("--builtin", "sl2", "--param", "z=0", "--max-degree", "3"),
            "error: sl2: pairing matrix at degree 1 is singular\n",
        ),
    ):
        assert _run(capsys, "verify", *argv) == (3, "", message)
    assert calls == []


def test_spec_file(tmp_path, capsys):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(sl2(2).to_json()))
    code, out, _ = _run(capsys, "validate", "--spec", str(path))
    assert code == 0
    assert "sl2: valid" in out


def test_spec_file_failing_validation(tmp_path, capsys):
    gens = [Generator(0, "f", -1), Generator(1, "h", 0), Generator(2, "e", 1)]
    brackets = {(2, 0): [(1, 1)], (1, 2): [(2, 3)], (1, 0): [(0, -2)]}
    bad = GradedLieAlgebra("bad", gens, brackets, {1: 1})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json()))
    code, out, _ = _run(capsys, "validate", "--spec", str(path))
    assert code == 2
    assert "INVALID" in out


def test_validate_reports_each_spec_failure(tmp_path, capsys):
    # exit 2 with the exact report: a generator outside the window, a nonzero
    # [e, e], and a character value off degree 0
    good = sl2(1).to_json()
    cases = [
        (
            {"generators": good["generators"] + [{"name": "x", "degree": 2}], "cutoff": 1},
            ["window: generator x has degree 2 outside ±1"],
        ),
        (
            {"brackets": good["brackets"] + [{"a": "e", "b": "e", "terms": [{"gen": "h", "coeff": "1"}]}]},
            ["antisymmetry: [e, e] != 0", "grading: [e, e] contains h of degree 0, expected 2"],
        ),
        (
            {"character": good["character"] + [{"gen": "e", "value": "1"}]},
            ["character: character value on non-degree-0 generator e"],
        ),
    ]
    path = tmp_path / "alg.json"
    for change, failures in cases:
        path.write_text(json.dumps(dict(good, **change)))
        code, out, err = _run(capsys, "validate", "--spec", str(path))
        lines = ["sl2: INVALID", *(f"  {f}" for f in failures), "  character pairing at degree 1: nonsingular"]
        assert (code, out, err) == (2, "\n".join(lines) + "\n", ""), change


def test_verify_spec_outside_its_named_family(tmp_path, capsys):
    # a valid algebra named after a family whose generators it lacks fails the
    # closed-form check with exit 2 instead of crashing
    for name, family, missing in (
        ("sl2", "sl2", "h"),
        ("virasoro", "virasoro", "L0"),
        ("heisenberg(2)", "heisenberg", "p1"),
    ):
        data = dict(random_two_step(3).to_json(), name=name)
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(data))
        code, out, err = _run(capsys, "verify", "--spec", str(path), "--max-degree", "2")
        assert code == 2 and err == ""
        assert (
            f"  FAIL closed-form: the {family} closed form needs generator {missing}, "
            "which the algebra lacks"
        ) in out.splitlines()
        assert out.count("  FAIL ") == 1 and out.endswith("FAILED\n")


def test_verify_virasoro_window_one(capsys):
    vir = ("verify", "--builtin", "virasoro", "--param", "delta=1", "--param", "c=1")
    # a window of 1 holds no L±2, so the closed form checks the degree-1 part
    code, out, err = _run(capsys, *vir, "--cutoff", "1", "--max-degree", "1")
    assert code == 0 and err == ""
    assert "  PASS closed-form: order ≤ 1 series matches the table's degree-1 part" in out.splitlines()
    assert "  FAIL " not in out and out.endswith("OK\n")
    # without --cutoff the builtin's window stays ±2, so the full table is checked
    code, out, err = _run(capsys, *vir, "--max-degree", "1")
    assert code == 0 and err == ""
    assert "  PASS closed-form: order ≤ 2 series matches the two-generator table" in out.splitlines()
    assert "  FAIL " not in out and out.endswith("OK\n")


def test_parse_errors(capsys):
    assert _run(capsys, "star")[0] == 5  # no algebra given
    assert _run(capsys)[0] == 5  # no subcommand
    assert _run(capsys, "validate", "--builtin", "sl2", "--param", "z=banana")[0] == 5
    assert _run(capsys, "validate", "--builtin", "sl2", "--param", "z")[0] == 5
    assert _run(capsys, "validate", "--builtin", "so8")[0] == 5  # not a choice
    assert _run(capsys, "validate", "--spec", "/no/such/file.json")[0] == 5
    code, _, err = _run(
        capsys, "validate", "--builtin", "sl2", "--param", "z=1", "--spec", "x.json"
    )
    assert code == 5 and "mutually exclusive" in err
    # negative degrees and a zero cutoff are refused before any output
    sl2_args = ("--builtin", "sl2", "--param", "z=1")
    for argv in (
        ("pairing", *sl2_args, "--degree", "-1"),
        ("star", *sl2_args, "--max-degree", "-1"),
        ("verify", *sl2_args, "--max-degree", "-2"),
        ("star", *sl2_args, "--cutoff", "0"),
    ):
        code, out, _ = _run(capsys, *argv)
        assert (code, out) == (5, "")


def test_spec_field_types(tmp_path, capsys):
    # a spec field of the wrong JSON type exits 5 with a message naming the
    # field, where it used to crash or be coerced (1.5 → 1, "no" → true), and
    # a malformed entry with a message quoting it
    good = sl2(1).to_json()
    first = good["generators"][0]["name"]
    cases = [
        ({"generators": 5}, "algebra spec field 'generators' must be a list"),
        ({"brackets": {"a": "e"}}, "algebra spec field 'brackets' must be a list"),
        ({"character": "h=1"}, "algebra spec field 'character' must be a list"),
        (
            {"generators": [dict(good["generators"][0], degree=1.5)] + good["generators"][1:]},
            f"generator {first!r}: 'degree' must be an integer, not 1.5",
        ),
        ({"truncated": "no"}, "algebra spec field 'truncated' must be true or false"),
        ({"cutoff": True}, "cutoff must be a positive integer"),
        ({"generators": ["f"] + good["generators"][1:]}, "bad generator entry: 'f'"),
        ({"generators": good["generators"] + [{"name": "f", "degree": 1}]}, "duplicate generator name 'f'"),
        (
            {"brackets": [dict(good["brackets"][0], terms=[{"gen": "f", "coeff": "x"}])]},
            "not a rational: 'x'",
        ),
        ({"character": [{"gen": "h"}]}, "bad character entry: {'gen': 'h'}"),
        ({"character": [{"gen": "h", "value": "1/0"}]}, "not a rational: '1/0'"),
    ]
    path = tmp_path / "alg.json"
    for change, message in cases:
        path.write_text(json.dumps(dict(good, **change)))
        code, out, err = _run(capsys, "validate", "--spec", str(path))
        assert (code, out, err) == (5, "", f"error: {message}\n"), change


def test_spec_guesses_refused(tmp_path, capsys):
    # a generator listed twice in the character used to take the last value,
    # and a non-string name was coerced by str()
    good = sl2(1).to_json()
    cases = [
        (
            {"character": good["character"] + [{"gen": "h", "value": "7"}]},
            "algebra spec field 'character' lists generator 'h' twice",
        ),
        ({"name": ["x", 1]}, "algebra spec field 'name' must be a string, not ['x', 1]"),
    ]
    # a generator named by a number passed validate and crashed star, and one
    # named by a list crashed validate itself; rename f everywhere it is used
    for name in ("5", '["f"]'):
        renamed = json.loads(json.dumps(good).replace('"f"', name))
        cases.append((renamed, f"generator field 'name' must be a string, not {json.loads(name)!r}"))
    path = tmp_path / "alg.json"
    for change, message in cases:
        path.write_text(json.dumps(dict(good, **change)))
        code, out, err = _run(capsys, "validate", "--spec", str(path))
        assert (code, out, err) == (5, "", f"error: {message}\n"), change


def test_spec_without_generators(tmp_path, capsys):
    # an empty algebra is refused up front by every command; verify used to
    # crash sampling words from no letters
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"name": "empty", "generators": [], "brackets": [], "character": []}))
    for argv in (("validate",), ("verify", "--max-degree", "1")):
        code, out, err = _run(capsys, *argv, "--spec", str(path))
        assert (code, out, err) == (5, "", "error: algebra spec has no generators\n")


def test_spec_that_is_not_json_or_not_an_object(tmp_path, capsys):
    bad, listed = tmp_path / "bad.json", tmp_path / "list.json"
    bad.write_text("{bad")
    listed.write_text("[1, 2]")
    code, out, err = _run(capsys, "validate", "--spec", str(bad))
    why = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    assert (code, out, err) == (5, "", f"error: {bad} is not valid JSON: {why}\n")
    # --cutoff overrides a key of the spec, so the spec must be an object;
    # without it, the spec reaches `from_json`, which refuses it too
    code, out, err = _run(capsys, "validate", "--spec", str(listed), "--cutoff", "2")
    assert (code, out, err) == (5, "", "error: algebra spec must be a JSON object\n")
    code, out, err = _run(capsys, "pairing", "--spec", str(listed), "--degree", "1")
    assert (code, out, err) == (5, "", "error: algebra spec must be a JSON object\n")


def _refused_spec(tmp_path, capsys, content):
    """(out, err) of `validate` on a spec file holding these bytes, which must
    exit 5 at once with one line naming the file and no traceback."""
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    code, out, err = _run(capsys, "validate", "--spec", str(path))
    assert (code, out) == (5, "") and err.startswith(f"error: {path} is not valid JSON: ")
    assert err.count("\n") == 1
    return err


def test_spec_with_an_integer_past_the_digit_limit(tmp_path, capsys):
    # json reads a 5000-digit integer with int(), which refuses more than 4300
    # digits: a ValueError that is not a json.JSONDecodeError
    good = json.dumps(sl2(1).to_json())
    for field in ('"cutoff": 1', '"coeff": "2"'):  # the cutoff, and a bracket coefficient
        assert field in good
        spec = good.replace(field, field.split()[0] + " " + "1" * 5000)
        assert "Exceeds the limit (4300 digits)" in _refused_spec(tmp_path, capsys, spec.encode())


def test_spec_nested_past_the_recursion_limit(tmp_path, capsys):
    err = _refused_spec(tmp_path, capsys, b"[" * 100_000)
    assert "maximum recursion depth exceeded" in err


def test_spec_that_is_not_utf8(tmp_path, capsys):
    # a UTF-16 byte order mark: JSON files are UTF-8, whatever the locale
    err = _refused_spec(tmp_path, capsys, b"\xff\xfe{}")
    assert "'utf-8' codec can't decode byte 0xff in position 0" in err


def test_an_exponent_past_the_digit_limit_is_refused_up_front(tmp_path, capsys):
    # Fraction would build 10^9999999, for minutes, before any check; an
    # exponent above the int digit limit exits 5 at once, by --param and in a
    # spec alike, while 10^±4300 itself is still read
    for value in ("1e-9999999", "1E+4301", "-2.5e1_0000"):
        code, out, err = _run(capsys, "star", "--builtin", "sl2", "--param", f"z={value}")
        assert (code, out, err) == (5, "", f"error: {value!r} has an exponent beyond ±4300, the int digit limit\n")
    spec = sl2(1).to_json()
    for entry in spec["character"]:
        entry["value"] = "1e-99999999"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = _run(capsys, "star", "--spec", str(path))
    assert (code, out, err) == (5, "", "error: '1e-99999999' has an exponent beyond ±4300, the int digit limit\n")
    assert scalars.frac_from_str("1e-4300") == Fraction(1, 10**4300)
    assert scalars.frac_from_str("-3E+2") == -300


def test_spec_numbers_are_read_as_written(tmp_path, capsys):
    # a JSON number used to become a float before frac_from_str read it:
    # 0.30000000000000001 became 3/10, and a bracket coefficient 1e-400
    # became 0, so [p1, q1] vanished and the pairing turned singular
    path = tmp_path / "spec.json"
    cases = [
        (sl2(1), '"value": 0.30000000000000001', "-30000000000000001/100000000000000000*λ"),
        (heisenberg(1, 1), '"coeff": 1e-400', f"-1/{10**400}*λ"),
        (heisenberg(1, 1), '"coeff": -25E-1', "5/2*λ"),
    ]
    for algebra, number, det in cases:
        text = json.dumps(algebra.to_json())
        quoted = re.sub(r": (.*)", r': "1"', number)
        assert quoted in text
        path.write_text(text.replace(quoted, number))
        code, out, err = _run(capsys, "validate", "--spec", str(path))
        assert (code, err) == (0, ""), number
        code, out, err = _run(capsys, "pairing", "--spec", str(path), "--degree", "1", "--format", "json")
        assert (code, err, json.loads(out)["det"]) == (0, "", det), number
    # an exponent past the int digit limit is still refused before it is built,
    # and NaN, which JSON reads as a float whatever the number parser, by name
    for number, message in (
        ("1e-99999999", "1e-99999999 has an exponent beyond ±4300, the int digit limit"),
        ("NaN", "bad character entry: {'gen': 'h', 'value': nan}"),
    ):
        path.write_text(json.dumps(sl2(1).to_json()).replace('"value": "1"', f'"value": {number}'))
        code, out, err = _run(capsys, "star", "--spec", str(path))
        assert (code, out, err) == (5, "", f"error: {message}\n")


def test_from_json_refuses_a_float_by_its_entry():
    # the API hands from_json Python objects: a float, already rounded, is
    # refused with the entry it sits in, as a float given to the constructor is
    for field, key in (("character", "value"), ("brackets", "coeff")):
        spec = sl2(1).to_json()
        entry = spec[field][0]
        (entry["terms"][0] if field == "brackets" else entry)[key] = 0.1
        with pytest.raises(SpecError) as caught:
            GradedLieAlgebra.from_json(spec)
        kind = "bracket" if field == "brackets" else "character"
        assert str(caught.value) == f"bad {kind} entry: {entry!r}"
        assert str(caught.value.__cause__).startswith("0.1 is a float")


def test_spec_cutoff_flag_widens_the_validated_window(capsys):
    # the fixture's own cutoff is 2, so only degrees 1 and 2 are checked there
    spec = str(Path(__file__).resolve().parent / "fixtures" / "sl3_principal.json")
    for argv, degrees in (((), ["1", "2"]), (("--cutoff", "3"), ["1", "2", "3"])):
        code, out, _ = _run(capsys, "validate", "--spec", spec, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["nonsingular"] == dict.fromkeys(degrees, True)


def test_star_text_prints_a_vanishing_order(capsys):
    code, out, err = _run(
        capsys,
        "star", "--builtin", "virasoro", "--param", "delta=1", "--param", "c=1",
        "--cutoff", "1", "--max-degree", "3",
    )
    assert (code, err) == (0, "")
    assert out == (
        "virasoro: product series through ħ^3 (slots within ±1)\n"
        "  ħ^0: 1 · 1 ⊗ 1\n"
        "  ħ^1: -1/2 · L-1 ⊗ L1\n"
        "  ħ^2: 0\n"
        "  ħ^3: 0\n"
    )


def test_spec_with_param_rejected(tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(sl2(1).to_json()))
    code, _, err = _run(capsys, "validate", "--spec", str(path), "--param", "z=2")
    assert code == 5
    assert "--param only applies to --builtin" in err
