"""No dead helpers: every private function or class in the package is used.

A `_`-prefixed function or class (dunder methods aside) that no code in
`src/nilmat` names, apart from its own definition, is dead.  A use is a
name, an attribute or an imported name anywhere in the package; one inside
the helper's own body, such as a recursive call, does not count."""

import ast
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nilmat"


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def dead_helpers(package=PACKAGE):
    """[(module, line, name)] of the private helpers nothing names."""
    defs, uses = [], defaultdict(list)
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and _is_private(node.name):
                defs.append((path.name, node))
            if isinstance(node, ast.Name):
                uses[node.id].append((path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses[node.attr].append((path.name, node.lineno))
            elif isinstance(node, ast.alias):
                uses[node.name].append((path.name, getattr(node, "lineno", 0)))
    return [
        (module, node.lineno, node.name)
        for module, node in defs
        if all(m == module and node.lineno <= line <= node.end_lineno for m, line in uses[node.name])
    ]


def test_no_dead_private_helpers():
    assert dead_helpers() == []


def test_an_uncalled_helper_is_found(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def _used():\n    return 1\n\n\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n\n\n"
        "class _Dead:\n    def __init__(self):\n        pass\n\n\n"
        "def public():\n    return _used()\n"
    )
    assert dead_helpers(tmp_path) == [("mod.py", 5, "_recursive"), ("mod.py", 9, "_Dead")]
