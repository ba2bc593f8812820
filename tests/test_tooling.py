"""Source-level rules for the package itself."""

import ast
import importlib
import importlib.util
from pathlib import Path

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


def _load_tracer():
    # read perfbench/loop.py by path, as a module of its own, without editing it
    path = SRC.parent.parent / "perfbench" / "loop.py"
    spec = importlib.util.spec_from_file_location("perfbench_loop", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    # the benchmark's tracer wraps these functions by name; a rename must fail here
    loop = _load_tracer()
    assert loop.LAYERS
    missing = [
        f"{module}.{attr}"
        for _, module, attr, _ in loop.LAYERS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, "traced layers that no longer resolve: " + ", ".join(missing)
