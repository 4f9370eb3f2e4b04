"""Source hygiene checks over the library modules."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "choqlab"
PERFBENCH = ROOT / "perfbench"


def unused_imports(path: Path) -> list[str]:
    """Names a module imports but never references (``__all__`` counts)."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used and name not in exported]


def test_library_modules_use_every_import():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    unused = [entry for path in paths for entry in unused_imports(path)]
    assert unused == []


def test_unused_import_scan_fires(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import math\nimport os.path\nfrom typing import IO, Union\n"
        "__all__ = ['Union']\nx = os.path.join\n")
    assert unused_imports(module) == ["m.py:1 math", "m.py:3 IO"]


def unreferenced_definitions(modules: list[Path],
                             users=()) -> list[str]:
    """Public module-level functions and classes of `modules` that no code
    in `modules` or `users` refers to.

    A reference is a name or an attribute in the syntax tree; an import,
    a string and a docstring are not, so a definition only the tests call
    (or only ``__all__`` lists) is reported.
    """
    used: set[str] = set()
    defined = []
    for path in [*modules, *users]:
        tree = ast.parse(path.read_text(), str(path))
        used |= {n.id if isinstance(n, ast.Name) else n.attr
                 for n in ast.walk(tree)
                 if isinstance(n, (ast.Name, ast.Attribute))}
        if path in modules:
            defined += [(path.name, node.name) for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("_")]
    return [f"{module} {name}" for module, name in defined
            if name not in used]


def test_library_defines_nothing_only_tests_use():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    assert unreferenced_definitions(
        modules, sorted(PERFBENCH.glob("*.py"))) == []


def test_unreferenced_definition_scan_fires(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text(
        "__all__ = ['orphan']\n"
        "def used(): return Helper()\n"
        "def orphan(): 'Not called by used().'\n"
        "def _private(): pass\n"
        "class Helper: pass\n"
        "class Lonely: pass\n")
    user.write_text("import lib\nfrom lib import Lonely\nlib.used()\n")
    assert unreferenced_definitions([lib], [user]) == [
        "lib.py orphan", "lib.py Lonely"]
    assert unreferenced_definitions([lib]) == [
        "lib.py used", "lib.py orphan", "lib.py Lonely"]
