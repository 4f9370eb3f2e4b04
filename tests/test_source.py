"""Source hygiene checks over the library modules."""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "choqlab"
PERFBENCH = ROOT / "perfbench"
TESTS = ROOT / "tests"


def library_modules() -> list[Path]:
    """The modules of src/choqlab; the count guards that the scans found
    the library at all."""
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 9
    return paths


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
    paths = library_modules() + sorted(TESTS.glob("*.py"))
    unused = [entry for path in paths for entry in unused_imports(path)]
    assert unused == []


def test_unused_import_scan_fires(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import math\nimport os.path\nfrom typing import IO, Union\n"
        "__all__ = ['Union']\nx = os.path.join\n")
    assert unused_imports(module) == ["m.py:1 math", "m.py:3 IO"]


def scipy_imports(paths: list[Path]) -> list[str]:
    """Every import of scipy or of a scipy module, at any depth."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] == "scipy"]
    return found


def test_library_imports_no_scipy():
    # the runtime needs numpy alone; scipy serves the tests as an oracle
    assert scipy_imports(library_modules()) == []


def test_scipy_import_scan_fires(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import numpy\nimport scipy.special as sp\nfrom scipy import linalg\n"
        "from scipyx import y\nfrom . import scipy\n"
        "def f():\n    from scipy.special import kve\n")
    assert scipy_imports([module]) == [
        "m.py:2 scipy.special", "m.py:3 scipy", "m.py:7 scipy.special"]


def numpy_polynomial_uses(paths: list[Path]) -> list[str]:
    """Every import of numpy.polynomial or of a module in it, and every
    attribute polynomial read off a plain name (np.polynomial), in line
    order."""
    found = []
    for path in paths:
        uses = []
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" if node.module ==
                         "numpy" else node.module for alias in node.names]
            elif (isinstance(node, ast.Attribute)
                  and node.attr == "polynomial"
                  and isinstance(node.value, ast.Name)):
                uses.append((node.lineno, f"{node.value.id}.polynomial"))
                continue
            else:
                continue
            uses += [(node.lineno, name) for name in names
                     if f"{name}.".startswith("numpy.polynomial.")]
        found += [f"{path.name}:{line} {name}" for line, name in sorted(uses)]
    return found


def test_library_uses_no_numpy_polynomial():
    # Gauss-Legendre comes from the Golub-Welsch rule at beta = 0 and the
    # Gauss series from kernels.horner, so there is one source of each
    assert numpy_polynomial_uses(library_modules()) == []


def test_numpy_polynomial_scan_fires(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import numpy as np\nimport numpy.polynomial.legendre as L\n"
        "from numpy.polynomial import polynomial\n"
        "from numpy import linalg, polynomial as P\n"
        "x = np.polynomial.polynomial.polyval\nimport numpy.linalg\n"
        "from numpyx.polynomial import y\n"
        "def f():\n    return numpy.polynomial.legendre.leggauss(3)\n")
    assert numpy_polynomial_uses([module]) == [
        "m.py:2 numpy.polynomial.legendre", "m.py:3 numpy.polynomial",
        "m.py:4 numpy.polynomial", "m.py:5 np.polynomial",
        "m.py:9 numpy.polynomial"]


# numpy calls whose bits depend on the CPU: the BLAS kernel sets those of
# a product (@, np.dot), np.correlate, lstsq, eigvalsh and polyfit, and
# the SIMD tier those of np.exp, np.expm1 and np.geomspace (which calls
# them).  Byte identity holds for one of each (README); each module lists
# the calls it makes, so a new one shows here before it moves an artifact
CPU_DISPATCHED = {"correlate", "dot", "lstsq", "eigvalsh", "polyfit", "exp",
                  "expm1", "geomspace"}
CPU_DISPATCHED_CALLS = {
    "asymptotics.py": {"@", "np.dot", "np.exp", "np.linalg.lstsq",
                       "np.polyfit"},
    "kernels.py": {"np.exp", "np.expm1"},
    "operators.py": {"@", "np.correlate", "np.exp", "np.linalg.eigvalsh"},
    "solver.py": {"@"},
    "verify.py": {"np.exp"},
}


def _dotted(node: ast.AST):
    """a.b.c for an attribute chain on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return (".".join([node.id, *reversed(parts)])
            if isinstance(node, ast.Name) else None)


def cpu_dispatched_calls(path: Path) -> set[str]:
    """Every matrix product (@ or @=), every name of CPU_DISPATCHED read
    off np or numpy at any depth (np.linalg.lstsq), and every such name
    imported from a numpy module."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)):
            found.add("@")
        elif isinstance(node, ast.Attribute) and node.attr in CPU_DISPATCHED:
            name = _dotted(node)
            if name and name.partition(".")[0] in ("np", "numpy"):
                found.add(name)
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.partition(".")[0] == "numpy"):
            found |= {f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name in CPU_DISPATCHED}
    return found


def test_library_lists_its_cpu_dispatched_calls():
    assert {path.name: cpu_dispatched_calls(path)
            for path in library_modules()
            if cpu_dispatched_calls(path)} == CPU_DISPATCHED_CALLS


def test_cpu_dispatched_call_scan_fires(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import math\nimport numpy as np\n"
        "from numpy.linalg import lstsq, norm\nx = np.exp(1.0) @ a\ny = math.exp(2.0) + np.sin(1.0)\n"
        "def f(m, b):\n    b @= m\n    return np.linalg.eigvalsh(m)\n"
        "z = v.dot(w) + numpy.geomspace(1, 2, 3)\n")
    assert cpu_dispatched_calls(module) == {
        "@", "np.exp", "np.linalg.eigvalsh", "numpy.geomspace",
        "numpy.linalg.lstsq"}


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
    assert unreferenced_definitions(
        library_modules(), sorted(PERFBENCH.glob("*.py"))) == []


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


def _functions(tree: ast.AST, prefix: str = ""):
    """(qualified name, call name, def node, leading parameters a call does
    not pass) for every def in the tree.

    A call reaches a method through an instance or a class, and __init__
    through the class name, so self or cls is never passed by position.
    """
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    call = node.name if item.name == "__init__" else item.name
                    yield (f"{node.name}.{item.name}", call, item,
                           0 if static else 1)
                    yield from _functions(item, f"{node.name}.{item.name}.")
                else:
                    yield from _functions(item, f"{node.name}.")
        elif isinstance(node, ast.FunctionDef):
            yield prefix + node.name, node.name, node, 0
            yield from _functions(node, f"{prefix}{node.name}.")
        else:
            yield from _functions(node, prefix)


def _called_name(node: ast.AST):
    """The name a call or a decorator refers to: a plain name or the last
    attribute, else None."""
    return (node.id if isinstance(node, ast.Name) else
            node.attr if isinstance(node, ast.Attribute) else None)


def _dataclass_inits(tree: ast.AST):
    """(qualified name, call name, parameters) of the __init__ that
    @dataclass generates for every dataclass in the tree, which has no def.

    Its parameters are the class's annotated names in order, each with the
    value assigned to it as its default; ClassVar and field() are not
    modelled.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                _called_name(d.func if isinstance(d, ast.Call) else d)
                == "dataclass" for d in node.decorator_list):
            fields = [item for item in node.body
                      if isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)]
            yield f"{node.name}.__init__", node.name, ast.arguments(
                posonlyargs=[], args=[ast.arg(f.target.id) for f in fields],
                vararg=None, kwonlyargs=[], kw_defaults=[], kwarg=None,
                defaults=[f.value for f in fields if f.value is not None])


def unread_parameters(modules: list[Path]) -> list[str]:
    """Parameters (self and cls aside) that their function never reads."""
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        for name, _, fn, skip in _functions(tree):
            a = fn.args
            params = [*a.posonlyargs, *a.args][skip:] + [
                *filter(None, [a.vararg]), *a.kwonlyargs,
                *filter(None, [a.kwarg])]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [f"{path.name} {name}({p.arg})" for p in params
                      if p.arg not in read]
    return found


def unpassed_defaults(modules: list[Path], users=()) -> list[str]:
    """Defaulted parameters of `modules` that no call in `modules` or
    `users` passes, by keyword or by position.

    Calls are matched by the called name alone (a plain name or the last
    attribute), and __init__ by its class name; a starred argument passes
    every position and a double-starred one every keyword; cls(...) in a
    class body calls that class.  A dataclass's defaulted fields count as
    the parameters of its generated __init__.
    """
    positions: dict[str, float] = {}
    keywords: dict[str, set] = {}
    for path in [*modules, *users]:
        tree = ast.parse(path.read_text(), str(path))
        calls = [(call, _called_name(call.func)) for call in ast.walk(tree)
                 if isinstance(call, ast.Call)]
        calls += [(call, node.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef)
                  for call in ast.walk(node) if isinstance(call, ast.Call)
                  and _called_name(call.func) == "cls"]
        for call, name in calls:
            if name is None:
                continue
            count = (math.inf if any(isinstance(arg, ast.Starred)
                                     for arg in call.args)
                     else len(call.args))
            positions[name] = max(positions.get(name, 0), count)
            keywords.setdefault(name, set()).update(
                kw.arg or "**" for kw in call.keywords)
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        signatures = [(name, call, fn.args, skip)
                      for name, call, fn, skip in _functions(tree)]
        signatures += [(name, call, args, 0)
                       for name, call, args in _dataclass_inits(tree)]
        for name, call, a, skip in signatures:
            positional = [*a.posonlyargs, *a.args]
            first_default = len(positional) - len(a.defaults)
            defaulted = [(p, i - skip) for i, p in enumerate(positional)
                         if i >= first_default] + [
                (p, math.inf) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                if d is not None]
            passed = keywords.get(call, set())
            found += [f"{path.name} {name}({p.arg})" for p, i in defaulted
                      if not (positions.get(call, 0) > i
                              or p.arg in passed or "**" in passed)]
    return found


def test_library_reads_every_parameter():
    assert unread_parameters(library_modules()) == []


def test_unread_parameter_scan_fires(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "def f(a, b, *rest, c, **extra):\n"
        "    return a + extra['x']\n"
        "class K:\n"
        "    def m(self, x, y):\n"
        "        def inner(z): return y + z\n"
        "        x = 1\n"
        "        return inner\n"
        "    @staticmethod\n"
        "    def s(w): pass\n")
    assert unread_parameters([lib]) == [
        "lib.py f(b)", "lib.py f(rest)", "lib.py f(c)", "lib.py K.m(x)",
        "lib.py K.s(w)"]


def test_library_defaults_have_callers():
    assert unpassed_defaults(library_modules(),
                             sorted(PERFBENCH.glob("*.py"))) == []


def test_unpassed_default_scan_fires(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text(
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    return a + b + c + d + e\n"
        "def g(a=0, b=0): return a + b\n"
        "def h(a=0): return a\n"
        "class K:\n"
        "    def __init__(self, x, y=0): self.v = x + y\n"
        "    def m(self, z=1): return z\n")
    user.write_text(
        "import lib\n"
        "lib.f(0, 1, e=5)\n"
        "lib.g(*[1, 2])\n"
        "lib.h(**{'a': 1})\n"
        "lib.K(1, 2).m()\n")
    assert unpassed_defaults([lib], [user]) == [
        "lib.py f(c)", "lib.py f(d)", "lib.py K.m(z)"]
    assert unpassed_defaults([lib]) == [
        "lib.py f(b)", "lib.py f(c)", "lib.py f(d)", "lib.py f(e)",
        "lib.py g(a)", "lib.py g(b)", "lib.py h(a)", "lib.py K.__init__(y)",
        "lib.py K.m(z)"]


def test_unpassed_default_scan_covers_dataclass_fields(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class P:\n"
        "    a: int\n"
        "    b: int = 1\n"
        "    c: int = 2\n"
        "    @classmethod\n"
        "    def make(cls): return cls(0, 1)\n"
        "@dataclasses.dataclass\n"
        "class Q:\n"
        "    x: int = 0\n"
        "class Plain:\n"
        "    y: int = 0\n")
    user.write_text("import lib\nlib.P(0, c=3)\nlib.Q\nlib.Plain()\n")
    assert unpassed_defaults([lib], [user]) == ["lib.py Q.__init__(x)"]
    assert unpassed_defaults([lib]) == [
        "lib.py P.__init__(c)", "lib.py Q.__init__(x)"]
