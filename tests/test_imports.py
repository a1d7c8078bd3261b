"""Every module-level import in ``src/repro``, ``tests/``,
``benchmarks/`` and ``examples/`` is used by its module.

An AST scan, not a linter: it binds each module-level import's name
and looks for that name anywhere else in the module — in code, in
annotations (string annotations included) and in ``__all__``.  Package
``__init__.py`` files are exempt, since their imports are re-exports,
and so are ``from __future__`` imports.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

import repro

SRC = Path(repro.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent


def _module_imports(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` of every import among the module's
    top-level statements, looking into top-level ``if``/``try``
    blocks."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno
        elif isinstance(node, ast.If):
            stack.extend(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            stack.extend(node.body + node.orelse + node.finalbody)
            for handler in node.handlers:
                stack.extend(handler.body)


def _names_used(tree: ast.Module) -> Set[str]:
    """Every name the module reads: bare names, string annotations and
    the string entries of ``__all__``."""
    used: Set[str] = set()
    annotations: List[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            for elt in getattr(node.value, "elts", ()):
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    used.add(elt.value)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(
                    n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)
                )
    return used


def unused_imports(path: Path) -> List[str]:
    """``"line: name"`` of each module-level import ``path`` never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _names_used(tree)
    return [
        f"{line}: {name}"
        for name, line in sorted(_module_imports(tree), key=lambda x: x[1])
        if name not in used
    ]


def _unused_under(folder: Path):
    """``{path: unused imports}`` of each module under ``folder`` that
    has some, ``__init__.py`` files exempt."""
    found = {}
    for path in sorted(folder.rglob("*.py")):
        if path.name != "__init__.py":
            unused = unused_imports(path)
            if unused:
                found[str(path.relative_to(folder.parent))] = unused
    return found


def test_no_unused_module_imports():
    assert _unused_under(SRC) == {}


def test_no_unused_imports_in_tests_benchmarks_and_examples():
    found = {}
    for folder in ("tests", "benchmarks", "examples"):
        found.update(_unused_under(ROOT / folder))
    assert found == {}


class TestScanner:
    def _scan(self, tmp_path, source):
        path = tmp_path / "module.py"
        path.write_text(source)
        return unused_imports(path)

    def test_finds_unused_imports(self, tmp_path):
        assert self._scan(tmp_path, (
            "import math\n"
            "import os.path\n"
            "from typing import List, Optional as Opt\n"
            "x: List[int] = []\n"
        )) == ["1: math", "2: os", "3: Opt"]

    def test_counts_annotations_all_and_nested_blocks(self, tmp_path):
        assert self._scan(tmp_path, (
            "from __future__ import annotations\n"
            "from typing import Dict, TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from decimal import Decimal\n"
            "try:\n"
            "    import json\n"
            "except ImportError:\n"
            "    json = None\n"
            "from fractions import Fraction\n"
            "__all__ = ['Fraction']\n"
            "def f(d: 'Dict[str, Decimal]') -> None:\n"
            "    return json\n"
        )) == []
