"""Every module-level function and class in the package has a user.

A definition counts as used when its name appears anywhere in the
package, the tests, the scripts or the benchmark harness outside its own
definition: as a name, an attribute, an imported name or a string (the
benchmark tracer wraps functions by their names).  Click commands are
exempt; the command line reaches them through their decorators.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "expldp"
TREES = ("src", "tests", "scripts", "perfbench")


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


def test_no_unreferenced_module_level_definitions():
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for top in TREES
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    used = Counter()
    for tree in trees.values():
        used += _identifiers(tree)
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if _is_click_command(node):
                continue
            # uses inside the definition itself (recursion) do not count
            if used[node.name] - _identifiers(node)[node.name] <= 0:
                unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unreferenced, f"definitions nothing references: {unreferenced}"
