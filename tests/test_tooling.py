"""Source-level rules for the package itself."""

import ast
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from starprod import cli, scalars, shapovalov
from starprod.lie import GradedLieAlgebra, heisenberg, random_two_step, virasoro
from starprod.scalars import Polynomial
from starprod.shapovalov import pairing_matrix

SRC = Path(__file__).resolve().parent.parent / "src" / "starprod"


def test_no_assert_in_src():
    # python -O strips assert statements, so checks in the package must raise
    files = sorted(SRC.rglob("*.py"))
    assert files, f"no sources found under {SRC}"
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, "assert statements in src/starprod: " + ", ".join(found)


def test_no_module_imports_another_modules_private_name():
    # an underscore name is private to its module: a second module that needs
    # it should use a public name, so one kernel is never reached two ways
    private = lambda name: name.startswith("_") and not name.endswith("__")
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = set()  # local names bound to starprod modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "starprod"
            ):
                for alias in node.names:
                    if private(alias.name):
                        found.append(f"{path.name}:{node.lineno} imports {alias.name}")
                    if node.module in (None, "starprod"):
                        modules.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "starprod":
                        modules.add(alias.asname or alias.name.split(".")[0])
        found += [
            f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and private(node.attr)
            and isinstance(node.value, ast.Name) and node.value.id in modules
        ]
    assert not found, "private names read across modules: " + ", ".join(found)


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(SRC.rglob("*.py"))}


def _read_names(tree):
    """Every name a syntax tree reads: loaded names, attribute names, and the
    strings listed in an __all__."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(elt.value for elt in node.value.elts)
    return names


def test_no_module_imports_a_name_it_never_reads():
    # a name left in an import list after its last use was deleted
    found = []
    for name, tree in _trees().items():
        read = _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        found.append(f"{name}:{node.lineno} imports {bound}")
    assert not found, "unused imports in src/starprod: " + ", ".join(found)


def test_every_public_name_has_a_caller_in_src():
    # API that only the tests call is deleted, not kept: every public top-level
    # function or class is read somewhere in src/ or exported in starprod.__all__
    # (a recursive call inside its own body does not count)
    import starprod

    stmts = [(name, node, _read_names(node)) for name, tree in _trees().items() for node in tree.body]
    found = [
        f"{name}:{node.lineno} {node.name}"
        for name, node, _ in stmts
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and node.name not in starprod.__all__
        and not any(node.name in read for _, other, read in stmts if other is not node)
    ]
    assert not found, "public names that nothing in src/ reads: " + ", ".join(found)


def test_every_public_method_has_a_caller_in_src():
    # the same rule one level down: every public method of a public top-level
    # class is read somewhere in src/ outside its own body (a private class's
    # methods, such as an argparse hook, are exempt)
    units = []  # top-level statements, each class member on its own
    for name, tree in _trees().items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                units += [(name, node, member) for member in node.body]
            else:
                units.append((name, None, node))
    units = [(name, cls, node, _read_names(node)) for name, cls, node in units]
    found = [
        f"{name}:{node.lineno} {cls.name}.{node.name}"
        for name, cls, node, _ in units
        if cls is not None and not cls.name.startswith("_")
        and isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and not any(node.name in read for _, _, other, read in units if other is not node)
    ]
    assert not found, "public methods that nothing in src/ reads: " + ", ".join(found)


def test_nothing_assigns_a_polynomials_attributes_outside_its_init():
    # a sum with zero, a product with 1 and scale(1) hand back an operand, and
    # the constants ZERO_POLY and ONE_POLY are shared by every route: sound only
    # while a Polynomial never changes once built.  Its one slot is set in
    # Polynomial.__init__ and nowhere else in src/ or tests/, by an assignment,
    # a del or a setattr; with no __dict__, no other attribute can be set
    slots = set(Polynomial.__slots__)
    assert slots == {"coeffs"} and not hasattr(Polynomial(), "__dict__")
    init = next(node for cls in _trees()["scalars.py"].body
                if isinstance(cls, ast.ClassDef) and cls.name == "Polynomial"
                for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    allowed = {(SRC / "scalars.py", line) for line in range(init.lineno, init.end_lineno + 1)}
    found = []
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).resolve().parent.glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
                hit = node.attr in slots
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                hit = name in ("setattr", "delattr", "__setattr__", "__delattr__") and any(
                    isinstance(a, ast.Constant) and a.value in slots for a in node.args)
            else:
                continue
            if hit and (path, node.lineno) not in allowed:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "assignments to a Polynomial's coefficients outside __init__: " + ", ".join(found)


def test_every_fail_detail_in_verify_is_asserted_by_a_test():
    # the checks are not vacuous only if each FAIL detail is reached by some
    # test: the longest literal part of every CheckResult(name, False, detail)
    # in verify.py (a bare-name detail read from its assignment in the same
    # function) must occur in a test file other than this one
    here = Path(__file__).resolve()
    corpus = "\n".join(p.read_text(encoding="utf-8") for p in sorted(here.parent.glob("test_*.py"))
                       if p != here)
    found = []
    for func in _trees()["verify.py"].body:
        if not isinstance(func, ast.FunctionDef):
            continue
        assigned = {t.id: node.value for node in ast.walk(func) if isinstance(node, ast.Assign)
                    for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(func):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CheckResult"
                    and len(node.args) == 3 and getattr(node.args[1], "value", None) is False):
                continue
            detail = node.args[2]
            detail = assigned.get(detail.id, detail) if isinstance(detail, ast.Name) else detail
            parts = detail.values if isinstance(detail, ast.JoinedStr) else [detail]
            literal = max((p.value for p in parts if isinstance(p, ast.Constant)), key=len, default="")
            if not literal or literal not in corpus:
                found.append(f"verify.py:{node.lineno} {literal!r}")
    assert not found, "FAIL details that no test asserts: " + ", ".join(found)


def test_bareiss_builds_polynomials_only_for_its_result(monkeypatch):
    # the elimination runs on int coefficient lists: a Gauss–Jordan _bareiss
    # of the 11×11 Virasoro degree-6 pairing builds Polynomials for d·A, adj
    # and det (243), against 6353 with a Polynomial in every update
    _, matrix = pairing_matrix(virasoro(1, 1, cutoff=6), 6)
    n, calls, real = len(matrix), [], Polynomial.__init__

    def counted(self, coeffs=()):
        calls.append(1)
        real(self, coeffs)

    monkeypatch.setattr(Polynomial, "__init__", counted)
    adj, det = scalars._bareiss(matrix, True)
    assert n == 11 and det and len(calls) <= 4 * n * n


def test_the_det_interpolates_past_each_rows_power_of_lambda(monkeypatch):
    # pairing_determinant divides each row of a block by the power of λ its
    # entries share before interpolating: Virasoro's degree-6 block takes
    # D' + 1 = 25 integer dets (36 at D = 35), and random_two_step(17)'s
    # degree-3 block, every entry c·λ³, takes one (31)
    calls, real = [], shapovalov._integer_det
    monkeypatch.setattr(shapovalov, "_integer_det", lambda rows: calls.append(1) or real(rows))
    for algebra, n, want in ((virasoro(1, 1, cutoff=6), 6, 25), (random_two_step(17), 3, 1)):
        del calls[:]
        assert shapovalov.pairing_determinant(algebra, n)[2]
        assert len(calls) == want, algebra.name


def test_the_adjugate_certificate_multiplies_no_polynomials(monkeypatch):
    # invert_pairing decides A·adj = det·I on packed integers: on the Virasoro
    # degree-6 pairing it calls Polynomial.__mul__ and __add__ no more often
    # than adjugate alone (0 and 0), where summing Polynomial products makes
    # 1331 of each
    _, matrix = pairing_matrix(virasoro(1, 1, cutoff=6), 6)
    calls = []
    for name in ("__mul__", "__add__"):
        real = getattr(Polynomial, name)
        monkeypatch.setattr(Polynomial, name, lambda a, b, real=real, name=name: calls.append(name) or real(a, b))

    def counted(run):
        del calls[:]
        run(matrix)
        return calls.count("__mul__"), calls.count("__add__")

    alone, certified = counted(scalars.adjugate), counted(shapovalov.invert_pairing)
    assert certified[0] <= alone[0] and certified[1] <= alone[1]


SL3 = Path(__file__).resolve().parent / "fixtures" / "sl3_principal.json"


def test_the_inverse_forms_no_cofactor(monkeypatch):
    # exact_component keeps each entry over its own block's det: its only
    # Polynomial products are the balanced product sign·Π det_b, and it divides
    # nothing, where multiplying each adj_b by det / det_b made 56 products
    # and 28 divisions on Heisenberg(3)'s 28 blocks at degree 6, and 51 and 7
    # on sl3's 7 blocks at degree 6
    cases = (
        (heisenberg(3, Fraction(2, 3)), 28, 28),
        (GradedLieAlgebra.from_json(json.loads(SL3.read_text(encoding="utf-8"))), 7, 7),
    )
    calls = []
    for name in ("__mul__", "exact_div"):
        real = getattr(Polynomial, name)
        monkeypatch.setattr(Polynomial, name, lambda a, b, real=real, name=name: calls.append(name) or real(a, b))
    for algebra, parts, products in cases:
        _, matrix = pairing_matrix(algebra, 6)
        assert len(scalars.blocks(matrix)[1]) == parts, algebra.name
        del calls[:]
        shapovalov.exact_component(algebra, 6)
        assert (calls.count("__mul__"), calls.count("exact_div")) == (products, 0), algebra.name


def test_each_block_is_inverted_alone(monkeypatch):
    # exact_component splits the pairing matrix and hands invert_pairing one
    # block per call: 28 1×1 blocks on Heisenberg(3) at degree 6, and on sl3
    # at degree 6 seven blocks of 4, 3, 3, 2, 2, 1 and 1 rows
    sizes, real = [], shapovalov.invert_pairing
    monkeypatch.setattr(shapovalov, "invert_pairing", lambda block: sizes.append(len(block)) or real(block))
    cases = (
        (heisenberg(3, Fraction(2, 3)), [1] * 28),
        (GradedLieAlgebra.from_json(json.loads(SL3.read_text(encoding="utf-8"))), [4, 3, 3, 2, 2, 1, 1]),
    )
    for algebra, want in cases:
        del sizes[:]
        shapovalov.exact_component(algebra, 6)
        assert sorted(sizes, reverse=True) == want, algebra.name


def test_the_pairing_build_forms_no_zero(monkeypatch):
    # _next_degree builds each row from the nonzero entries of the rows one
    # letter down: on heisenberg(3) through degree 6, with the letter actions
    # memoized by a first build, it forms one product per nonzero contribution
    # (83) and negates only the 83 nonzero entries of the diagonal matrices,
    # where visiting every entry negated 1595 polynomials
    algebra = heisenberg(3, Fraction(2, 3))
    pairing_matrix(algebra, 6)
    algebra.memo.pairings.clear()
    calls, inside = [], []
    for name in ("__mul__", "__neg__"):
        real = getattr(Polynomial, name)
        monkeypatch.setattr(Polynomial, name, lambda *a, real=real, name=name: (inside and calls.append(name)) or real(*a))
    real_next = shapovalov._next_degree

    def counted(*args):
        inside.append(True)
        try:
            return real_next(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(shapovalov, "_next_degree", counted)
    pairing_matrix(algebra, 6)
    assert calls.count("__mul__") <= 83 and calls.count("__neg__") <= 83


def test_the_pairing_build_multiplies_by_no_constant_one(monkeypatch):
    # a sum with zero, a product with the constant 1 and scale(1) hand back an
    # operand, so a cold heisenberg(3) build through degree 6 (letter actions
    # not yet memoized) forms no such product and builds 219 polynomials, where
    # forming 198 products by 1 and copying each first sum built 806
    algebra = heisenberg(3, Fraction(2, 3))
    built, by_one = [], []
    real_init, real_mul = Polynomial.__init__, Polynomial.__mul__

    def mul(p, q):
        out = real_mul(p, q)
        if (1,) in (p.coeffs, q.coeffs) and out is not p and out is not q:
            by_one.append((p, q))
        return out

    monkeypatch.setattr(Polynomial, "__init__", lambda self, *a: built.append(1) or real_init(self, *a))
    monkeypatch.setattr(Polynomial, "__mul__", mul)
    pairing_matrix(algebra, 6)
    assert by_one == [] and len(built) == 219


def test_each_pairing_matrix_is_split_into_blocks_once(monkeypatch, capsys):
    # the code that owns a pairing matrix splits it into blocks once, and the
    # elimination kernel takes each block as given: one `blocks` call per
    # matrix, where splitting the kernel's input again made 89, 72 and 3
    calls, real = [], scalars.blocks
    counted = lambda matrix: calls.append(1) or real(matrix)
    monkeypatch.setattr(scalars, "blocks", counted)
    monkeypatch.setattr(shapovalov, "blocks", counted)
    cases = [
        (["star", "--builtin", "heisenberg", "--param", "n=3", "--param", "w=2/3", "--max-degree", "6"], 6),
        (["star", "--builtin", "sl2", "--param", "z=1", "--max-degree", "36"], 36),
        (["pairing", "--builtin", "virasoro", "--param", "delta=1", "--param", "c=1", "--degree", "6"], 1),
    ]
    for argv, want in cases:
        del calls[:]
        assert cli.main([*argv, "--format", "json"]) == 0, argv
        capsys.readouterr()
        assert len(calls) == want, argv


def test_exit_codes_survive_python_O(tmp_path):
    # the checks behind exit codes 2, 3, 4 and 5 must still fire with asserts stripped
    spec = tmp_path / "alg.json"
    spec.write_text(json.dumps(dict(random_two_step(3).to_json(), name="sl2")))
    vir = ["pairing", "--builtin", "virasoro", "--param", "c=1"]
    cases = (
        (vir + ["--param", "delta=1", "--cutoff", "1", "--degree", "2"], 4),
        (vir + ["--param", "delta=0", "--degree", "1"], 3),
        (["verify", "--spec", str(spec), "--max-degree", "2"], 2),
        (["pairing", "--builtin", "sl2", "--param", "z=x", "--degree", "1"], 5),
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    for argv, code in cases:
        done = subprocess.run(
            [sys.executable, "-O", "-m", "starprod.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == code, (argv, done.stdout, done.stderr)


def _load_perfbench(name):
    # read perfbench/<name>.py by path, as a module of its own, without editing it
    path = SRC.parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    # the benchmark's tracer wraps these functions by name; a rename must fail here
    loop = _load_perfbench("loop")
    assert loop.LAYERS
    missing = [
        f"{module}.{attr}"
        for _, module, attr, _ in loop.LAYERS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, "traced layers that no longer resolve: " + ", ".join(missing)


def test_traced_counters_read_every_workload(tmp_path):
    # the benchmark's counters read what the traced functions return (the
    # inverse as one block's (adj, det)); a result they cannot read fails the
    # traced request, so run one tiny request of each workload through them
    loop, workloads = _load_perfbench("loop"), _load_perfbench("workloads")
    specs = workloads.load_expected()["specs"]
    for workload in workloads.WORKLOADS:
        key = workloads.make_inputs(workload, 0, size="tiny")[0]
        argv, _ = workloads.materialize(key, str(tmp_path), specs)
        rec, out = loop.traced_request(argv)
        assert (rec["rc"], rec["error"]) == (0, None), workload
        assert workloads.check_output(workload, key, out.decode()) == [], workload
        if workload == "verify-nilpotent":
            assert rec["counts"]["shapovalov.det_degree"] > 0


def test_exported_names_resolve():
    # a stale name in __all__ breaks `from starprod import *` for a user; fail here first
    import starprod

    missing = [name for name in starprod.__all__ if not hasattr(starprod, name)]
    assert not missing, "names in starprod.__all__ that do not exist: " + ", ".join(missing)


def test_pairing_bytes_match_the_benchmark_digests(capsys):
    # every `pairing` request of the benchmark prints the bytes the seed commit
    # printed: the sha256 of stdout, as perfbench/make_expected.py hashes it
    path = SRC.parent.parent / "perfbench" / "expected.json"
    digests = json.loads(path.read_text(encoding="utf-8"))["digests"]
    keys = sorted(k for k in digests if k.startswith("pairing "))
    assert len(keys) == 17  # 16 workload argvs and the degree-5 baseline
    for key in keys:
        assert cli.main(key.split(" ")) == 0, key
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digests[key], key


def test_pairing_bytes_beyond_the_benchmark_degree(capsys):
    # Virasoro degree 8 and sl3 degree 10 lie past the benchmark's degree 6,
    # where dividing out each row's power of λ drops more interpolation
    # points; sl3's blocks have rows of different valuations, so the
    # whole-matrix sign check runs too.  heisenberg(3) degree 12 and sl3
    # degree 12 build their mostly zero matrices from the nonzero lower rows
    sl3 = str(Path(__file__).resolve().parent / "fixtures" / "sl3_principal.json")
    cases = [
        (["--builtin", "virasoro", "--param", "delta=1", "--param", "c=1", "--degree", "8"],
         "e3844c6c3bdff27a2178eb2dfc69484bd35d7b0d86a1b4994b1efb517d9c5b7c"),
        (["--spec", sl3, "--cutoff", "10", "--degree", "10"],
         "266216a269fd4308bc0ca1a53a89410cbdcdb0786571d5986396a965b5776020"),
        (["--builtin", "heisenberg", "--param", "n=3", "--param", "w=2/3", "--degree", "12"],
         "2a031bf1667167436df19c799c9677ce4037706115e1b293b16bb8ad1c6237aa"),
        (["--spec", sl3, "--cutoff", "12", "--degree", "12"],
         "d0b5eb396a7bd5248ddecfa2f84428743eb67ab226396eca6a0205eff5e8a1a2"),
    ]
    for argv, digest in cases:
        assert cli.main(["pairing", *argv, "--format", "json"]) == 0, argv
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, argv


def test_star_bytes_match_the_benchmark_digests(capsys):
    # every `star` request of the benchmark prints the seed commit's bytes, and
    # the same bytes under --order asc: the series does not depend on the basis
    path = SRC.parent.parent / "perfbench" / "expected.json"
    digests = json.loads(path.read_text(encoding="utf-8"))["digests"]
    keys = sorted(k for k in digests if k.startswith("star "))
    assert len(keys) == 32  # sl2 and heisenberg(3), eight characters each, two degrees
    for key in keys:
        for argv in (key.split(" "), key.split(" ") + ["--order", "asc"]):
            assert cli.main(argv) == 0, argv
            out = capsys.readouterr().out.encode()
            assert hashlib.sha256(out).hexdigest() == digests[key], argv


def _bench_argv(key, specs, tmp_path):
    """The argv of a benchmark digest key, its @name specs written from
    expected.json as perfbench/workloads.py writes them."""
    argv = []
    for arg in key.split(" "):
        if arg.startswith("@"):
            spec = tmp_path / f"{arg[1:]}.json"
            spec.write_text(json.dumps(specs[arg[1:]], sort_keys=True), encoding="utf-8")
            arg = str(spec)
        argv.append(arg)
    return argv


def test_verify_bytes_match_the_benchmark_digests(tmp_path, capsys):
    # every `verify` request of the benchmark prints the seed commit's bytes
    path = SRC.parent.parent / "perfbench" / "expected.json"
    expected = json.loads(path.read_text(encoding="utf-8"))
    digests, specs = expected["digests"], expected["specs"]
    keys = sorted(k for k in digests if k.startswith("verify "))
    assert len(keys) == 16  # four bases, each with χ and −χ, two degrees
    for key in keys:
        assert cli.main(_bench_argv(key, specs, tmp_path)) == 0, key
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digests[key], key


def test_json_output_never_builds_the_pure_python_encoder(tmp_path, capsys, monkeypatch):
    # json.dumps with an indent runs on the pure-Python encoder, which
    # json.encoder._make_iterencode builds; `--format json` of every command
    # is written without it, in the recorded bytes
    def refuse(*args, **kwargs):
        raise RuntimeError("the pure-Python JSON encoder was built")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    path = SRC.parent.parent / "perfbench" / "expected.json"
    expected = json.loads(path.read_text(encoding="utf-8"))
    digests, specs = expected["digests"], expected["specs"]
    for command in ("pairing", "star", "verify"):
        key = min(k for k in digests if k.startswith(command + " "))
        assert cli.main(_bench_argv(key, specs, tmp_path)) == 0, key
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digests[key], key
    assert cli.main(["validate", "--builtin", "sl2", "--param", "z=5/3", "--format", "json"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "algebra": "sl2",\n  "failures": [],\n  "nonsingular": {\n    "1": true\n  },\n'
        '  "passed": true\n}\n'
    )
