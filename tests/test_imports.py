"""Import hygiene: every package module uses each name it imports, every
top-level private name is read somewhere in the package, every module
parses as the oldest Python that pyproject.toml admits, every name the
package exports resolves and is named in README's Library section, and
importing the package loads none of the standard modules that only some
commands need."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import domicert

PACKAGE = Path(domicert.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.with_name("pyproject.toml")


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


def _unread_private_names(paths: list[Path]) -> list[str]:
    # top-level private names (one leading underscore) that a module binds
    # by def, class or assignment, and that no module of ``paths`` reads:
    # a loaded Name, an attribute such as ``census._x`` and an imported
    # name all count as reads
    defined: list[tuple[str, int, str]] = []
    read: set[str] = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                bound = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [name.id for target in bound for name in ast.walk(target) if isinstance(name, ast.Name)]
            else:
                targets = []
            defined += [(path.name, node.lineno, name) for name in targets
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [f"{module}:{line} {name}" for module, line, name in defined if name not in read]


def test_private_names_are_read():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert _unread_private_names(modules) == []


def test_unread_private_name_is_reported(tmp_path):
    first, second = tmp_path / "first.py", tmp_path / "second.py"
    first.write_text("_LOADED = 1\n_imported = 2\n_attribute = 3\n_unread: int = 4\n__version__ = '0'\n\n"
                     "def _recursive(n):\n    return n and _recursive(n - 1)\n\n\n"
                     "class _Spare:\n    _field = _LOADED\n", encoding="utf-8")
    second.write_text("from . import first\nfrom .first import _imported\n\nfirst._attribute\n", encoding="utf-8")
    assert _unread_private_names([first, second]) == ["first.py:4 _unread", "first.py:11 _Spare"]


def test_modules_parse_as_the_oldest_supported_python():
    # a module that only a newer parser reads, such as one with
    # ``except*``, would fail to import there
    declared = re.search(r'^requires-python = ">=3\.(\d+)"$', PYPROJECT.read_text(encoding="utf-8"), re.MULTILINE)
    oldest = (3, int(declared[1]))
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=oldest)


def test_parse_check_refuses_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


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
    # multiprocessing, a written report json, and nothing loads
    # dataclasses, inspect or importlib.resources
    deferred = ("multiprocessing", "dataclasses", "inspect", "json", "importlib.resources")
    code = ("import sys, domicert, domicert.census, domicert.cli; "
            f"print([name for name in {deferred!r} if name in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")
