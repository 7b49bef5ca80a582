"""No dead helpers: every private function or class in the package is used,
and so is every public function or method outside the library API, and
every exception class in errors.py is raised.

A `_`-prefixed function or class, or a public function or method that
README's Library section does not show (dunder methods aside), that no
code in `src/nilmat` names, apart from its own definition, is dead.  A use
is a name, an attribute or an imported name anywhere in the package; one
inside the helper's own body, such as a recursive call, does not count.
An exception class is dead when no `raise` in the package raises it or a
class derived from it: catching it does not count."""

import ast
import re
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nilmat"
README = PACKAGE.parent.parent / "README.md"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def library_api(readme=README):
    """The identifiers in the code of README's Library section, comments
    left out: the names callers outside the package are shown."""
    section = readme.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = " ".join(re.sub(r"#.*", "", c) for c in re.findall(r"```.*?```|`[^`]*`", section, re.S))
    return set(re.findall(r"[A-Za-z_]\w*", code))


def dead_helpers(package=PACKAGE, exempt=frozenset()):
    """[(module, line, name)] of the private helpers, and of the public
    functions and methods not in exempt, that nothing names."""
    defs, uses = [], defaultdict(list)
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, FUNCTIONS + (ast.ClassDef,)) and _is_private(node.name):
                defs.append((path.name, node))
            elif isinstance(node, FUNCTIONS) and not node.name.startswith("_") and node.name not in exempt:
                defs.append((path.name, node))
            if isinstance(node, ast.Name):
                uses[node.id].append((path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses[node.attr].append((path.name, node.lineno))
            elif isinstance(node, ast.alias):
                uses[node.name].append((path.name, getattr(node, "lineno", 0)))
    return sorted(
        (module, node.lineno, node.name)
        for module, node in defs
        if all(m == module and node.lineno <= line <= node.end_lineno for m, line in uses[node.name])
    )


def unraised_errors(package=PACKAGE):
    """The exception classes of errors.py that no `raise` in the package
    raises, neither themselves nor through a class derived from them."""
    bases, raised = {}, set()
    for node in ast.walk(ast.parse((package / "errors.py").read_text())):
        if isinstance(node, ast.ClassDef):
            bases[node.name] = [b.id for b in node.bases if isinstance(b, ast.Name)]
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    live = set()
    todo = [name for name in bases if name in raised]
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo += bases.get(name, [])
    return sorted(set(bases) - live)


def test_no_dead_private_helpers():
    assert [d for d in dead_helpers() if _is_private(d[2])] == []


def test_no_dead_public_functions():
    api = library_api()
    assert {"is_nilpotent", "analyze", "from_ints", "GroupSpec"} <= api
    assert dead_helpers(exempt=api) == []


def test_an_uncalled_helper_is_found(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def _used():\n    return 1\n\n\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n\n\n"
        "class _Dead:\n    def __init__(self):\n        pass\n\n\n"
        "def public():\n    return _used()\n"
    )
    assert dead_helpers(tmp_path, exempt={"public"}) == [("mod.py", 5, "_recursive"), ("mod.py", 9, "_Dead")]


def test_an_unused_public_method_is_found(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Box:\n"
        "    def used(self):\n        return 1\n\n"
        "    def unused(self):\n        return self.unused() + self.used()\n\n"
        "    def __repr__(self):\n        return 'Box'\n\n\n"
        "def shown():\n    return Box().used()\n"
    )
    assert dead_helpers(tmp_path, exempt={"shown"}) == [("mod.py", 5, "unused")]
    assert dead_helpers(tmp_path) == [("mod.py", 5, "unused"), ("mod.py", 12, "shown")]


def test_no_unraised_error_classes():
    assert unraised_errors() == []


def test_a_caught_but_unraised_error_is_found(tmp_path):
    (tmp_path / "errors.py").write_text(
        "class Base(Exception):\n    pass\n\n\n"
        "class Raised(Base):\n    pass\n\n\n"
        "class OnlyCaught(Base):\n    pass\n\n\n"
        "class Unused(Exception):\n    pass\n"
    )
    (tmp_path / "mod.py").write_text(
        "from .errors import OnlyCaught, Raised\n\n\n"
        "def f():\n    try:\n        raise Raised('x')\n    except OnlyCaught:\n        pass\n"
    )
    assert unraised_errors(tmp_path) == ["OnlyCaught", "Unused"]
