"""Import hygiene: every package module uses each name it imports, every
name the package exports resolves and is named in README's Library
section, and importing the package loads none of the standard modules
that only some commands need."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import domicert

PACKAGE = Path(domicert.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"


def _unused_imports(path: Path) -> list[str]:
    # names bound by an import statement that no Name node reads; an
    # attribute chain such as ``os.path`` reads its root ``os``
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(bound.items()) if name not in read]


def test_modules_use_what_they_import():
    # __init__.py imports names only to export them
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [entry for path in modules for entry in _unused_imports(path)] == []


def test_unused_import_is_reported(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import os\nimport os.path as osp\nfrom .graphs import Graph, _general_code\n\n"
                    "def f(g: Graph):\n    return osp.join(os.sep)\n", encoding="utf-8")
    assert _unused_imports(path) == ["module.py:3 _general_code"]


def test_exported_names_resolve():
    assert len(set(domicert.__all__)) == len(domicert.__all__)
    assert [name for name in domicert.__all__ if not hasattr(domicert, name)] == []


def test_exported_names_documented():
    # the Library section runs from its heading to the next one, and
    # names each export in backticks
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    assert [name for name in domicert.__all__ if f"`{name}`" not in library] == []


def test_import_defers_what_only_some_commands_use():
    # a fresh interpreter without site; a pooled census loads
    # multiprocessing, a written report json, the bundled fixture
    # importlib.resources, and nothing loads dataclasses or inspect
    deferred = ("multiprocessing", "dataclasses", "inspect", "json", "importlib.resources")
    code = ("import sys, domicert, domicert.census, domicert.cli; "
            f"print([name for name in {deferred!r} if name in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")
