"""No module imports a name it never uses.

The repository has no lint step, so this stdlib-``ast`` check stands in for
one over ``src/`` and ``tests/``.  A name counts as used when the module
reads it, lists it in ``__all__`` (a re-export), or names it in a string
annotation; an import line marked ``# noqa`` is exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for directory in ("src", "tests")
    for path in (ROOT / directory).rglob("*.py")
)


def _annotations(tree: ast.AST) -> List[ast.expr]:
    found: List[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for argument in (
                arguments.posonlyargs + arguments.args + arguments.kwonlyargs
                + [arguments.vararg, arguments.kwarg]
            ):
                if argument is not None and argument.annotation is not None:
                    found.append(argument.annotation)
            if node.returns is not None:
                found.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            found.append(node.annotation)
    return found


def _used_names(tree: ast.AST) -> Set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> Dict[str, int]:
    """The names ``source`` imports and never uses, with their lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: Dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = _used_names(tree)
    return {name: line for name, line in imported.items() if name not in used}


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(path.relative_to(ROOT)) for path in MODULES]
)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == {}


def test_the_check_honours_all_noqa_and_string_annotations():
    source = (
        "from typing import TYPE_CHECKING, Dict, List\n"
        "import os.path\n"
        "import sys  # noqa: F401\n"
        "from json import dumps, loads\n"
        "if TYPE_CHECKING:\n"
        "    from collections import OrderedDict\n"
        "__all__ = ['dumps']\n"
        "def f(x: 'OrderedDict[str, int]') -> 'List[int]':\n"
        "    return []\n"
    )
    assert unused_imports(source) == {"Dict": 1, "os": 2, "loads": 4}
