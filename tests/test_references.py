"""Every definition in the package has a user.

The definitions checked are module-level functions and classes, class
methods other than dunder methods, dataclass fields, and module-level
constants.  A definition counts as used when its name appears anywhere in
the package, the tests, the scripts or the benchmark harness outside its
own definition: as a name, an attribute, an imported name or a string (the
benchmark tracer wraps functions by their names).  Click commands are
exempt; the command line reaches them through their decorators.
"""

import ast
import re
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "expldp"
TREES = ("src", "tests", "scripts", "perfbench")
CONSTANT_NAME = re.compile(r"_*[A-Z][A-Z0-9_]*")


def _identifiers(tree):
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names[node.value] += 1
    return names


def _is_click_command(node):
    return any(
        key in ast.unparse(dec)
        for dec in node.decorator_list
        for key in ("click", ".command", ".group")
    )


def _is_dataclass(node):
    return any("dataclass" in ast.unparse(dec) for dec in node.decorator_list)


@cache
def _trees():
    return {
        path: ast.parse(path.read_text(), filename=str(path))
        for top in TREES
        for path in sorted((ROOT / top).rglob("*.py"))
    }


@cache
def _used():
    used = Counter()
    for tree in _trees().values():
        used += _identifiers(tree)
    return used


def _module_functions_and_classes(module):
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not _is_click_command(node):
                yield node.name, node


def _methods(module):
    for cls in module.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                yield node.name, node


def _dataclass_fields(module):
    for cls in module.body:
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    yield node.target.id, node


def _module_constants(module):
    for node in module.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and CONSTANT_NAME.fullmatch(name.id):
                    yield name.id, node


def _unreferenced(definitions):
    trees, used = _trees(), _used()
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in definitions(trees[path]):
            # uses inside the definition itself (recursion, the assignment
            # target) do not count
            if used[name] - _identifiers(node)[name] <= 0:
                out.append(f"{path.name}:{node.lineno} {name}")
    return out


def test_no_unreferenced_module_level_definitions():
    unreferenced = _unreferenced(_module_functions_and_classes)
    assert not unreferenced, f"definitions nothing references: {unreferenced}"


@pytest.mark.parametrize("definitions", [
    _methods, _dataclass_fields, _module_constants,
], ids=["methods", "dataclass-fields", "constants"])
def test_no_unreferenced_members_or_constants(definitions):
    unreferenced = _unreferenced(definitions)
    assert not unreferenced, f"definitions nothing references: {unreferenced}"
