"""Source hygiene checks over the library modules."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "choqlab"


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
