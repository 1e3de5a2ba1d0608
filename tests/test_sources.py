"""Static checks on the package sources."""
import ast
import builtins
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from kppwaves import errors

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kppwaves"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never references."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_unused_import_check_flags_dead_imports():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\n\nx = np.zeros(3) * tau\n"
    assert unused_imports(source) == ["os (line 1)", "pi (line 3)"]


def unreferenced_private_names(source: str) -> list[str]:
    """Private module-level functions, classes and constants that the
    module never references."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_unreferenced_private_check_flags_dead_names():
    source = ("_DEAD = 1\n_USED, _ALSO_DEAD = 2, 3\n\n\ndef _helper():\n    return _USED\n\n\n"
              "class _Gone:\n    pass\n\n\n__all__ = []\nx = _helper()\n")
    assert unreferenced_private_names(source) == [
        "_DEAD (line 1)", "_ALSO_DEAD (line 2)", "_Gone (line 9)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unreferenced_private_names(path):
    assert unreferenced_private_names(path.read_text()) == []


def unused_parameters(source: str) -> list[str]:
    """Parameters of every function, nested ones included, that the function
    never loads; a leading underscore marks one as deliberately unused."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)}
        found += [f"{node.name}.{p.arg} (line {node.lineno})" for p in params
                  if not p.arg.startswith("_") and p.arg not in used]
    return found


def test_unused_parameter_check_flags_dead_parameters():
    source = ("def f(a, b, _c, *args, d=1, **kw):\n    def g(x, y):\n        return a + y\n"
              "    return g(d, kw)\n\n\ndef h(n, *, key):\n    return key\n")
    assert unused_parameters(source) == [
        "f.b (line 1)", "f.args (line 1)", "h.n (line 7)", "g.x (line 2)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def single_use_one_line_helpers(source: str) -> list[str]:
    """Private module-level functions whose body, docstring aside, is one
    statement and which the module references once: such a wrapper hides
    nothing its one caller does not already know."""
    tree = ast.parse(source)
    loads = Counter(node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
    found = []
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_") and not node.name.startswith("__")
                and len(node.body) - (ast.get_docstring(node) is not None) == 1
                and loads[node.name] == 1):
            found.append(f"{node.name} (line {node.lineno})")
    return found


def test_single_use_helper_check_flags_one_line_wrappers():
    source = ('def _wrap(x):\n    """Doc."""\n    return [x]\n\n\n'
              "def _twice(x):\n    return x + 1\n\n\n"
              "def _long(x):\n    y = x * 2\n    return y\n\n\n"
              "def public(x):\n    return x\n\n\n"
              "print(_wrap(1), _twice(2), _twice(3), _long(4), public(5))\n")
    assert single_use_one_line_helpers(source) == ["_wrap (line 1)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_single_use_one_line_helpers(path):
    assert single_use_one_line_helpers(path.read_text()) == []


# __init__.py only re-exports, so its imports are referenced by no code
@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def redundant_handlers(source: str) -> list[str]:
    """``except`` tuples that name a kppwaves.errors class together with one
    of its bases, which already catches it."""
    known = {**vars(builtins), **vars(errors)}
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Tuple)):
            continue
        named = {n.id: known[n.id] for n in node.type.elts
                 if isinstance(n, ast.Name) and isinstance(known.get(n.id), type)}
        found += [f"{name} under {base} (line {node.lineno})"
                  for name, cls in named.items() if cls.__module__ == errors.__name__
                  for base, other in named.items() if other is not cls and issubclass(cls, other)]
    return found


def test_redundant_handler_check_flags_subclasses_beside_their_base():
    source = ("try:\n    pass\nexcept (ConfigError, KppWavesError, OSError):\n    pass\n"
              "try:\n    pass\nexcept (StepFailureError, InconclusiveError):\n    pass\n"
              "try:\n    pass\nexcept (DomainError, ValueError):\n    pass\n"
              "try:\n    pass\nexcept (KeyError, LookupError):\n    pass\n"
              "try:\n    pass\nexcept KppWavesError:\n    pass\n")
    assert redundant_handlers(source) == [
        "ConfigError under KppWavesError (line 3)", "DomainError under ValueError (line 11)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_redundant_handlers(path):
    assert redundant_handlers(path.read_text()) == []


def star_import_faults(source: str, package: str) -> list[str]:
    """Faults of the package ``__init__`` source's star imports from sibling
    modules: a module without ``__all__`` (its imports and helpers would leak
    into the package), and a name in the ``__all__`` of two of them (the later
    import would silently shadow the earlier one)."""
    found, owner = [], {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.names[0].name == "*":
            public = getattr(importlib.import_module(f"{package}.{node.module}"), "__all__", None)
            if public is None:
                found.append(f"{node.module} has no __all__")
                continue
            for name in public:
                if name in owner:
                    found.append(f"{name} in {owner[name]} and {node.module}")
                owner.setdefault(name, node.module)
    return found


@pytest.fixture
def star_package(tmp_path, monkeypatch):
    """A package ``starpkg``: module ``a`` lists f and g in ``__all__``,
    ``b`` lists g, and ``c`` has no ``__all__``."""
    package = tmp_path / "starpkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "a.py").write_text('__all__ = ["f", "g"]\nf = g = 1\n')
    (package / "b.py").write_text('__all__ = ["g"]\ng = 2\n')
    (package / "c.py").write_text("import os\nh = 3\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    yield package.name
    for name in [m for m in sys.modules if m.partition(".")[0] == package.name]:
        del sys.modules[name]


def test_reexport_check_flags_names_outside_all(star_package):
    source = "from .a import *\nfrom .c import *\n"
    assert star_import_faults(source, star_package) == ["c has no __all__"]


def test_reexport_check_flags_names_shadowed_by_a_later_import(star_package):
    source = "from .a import *\nfrom .b import *\n"
    assert star_import_faults(source, star_package) == ["g in a and b"]


def test_package_reexports_only_names_in_all():
    assert star_import_faults((PACKAGE / "__init__.py").read_text(), "kppwaves") == []


def test_cli_imports_no_scipy_subpackage():
    # the package reaches scipy's compiled routines through kppwaves._compiled,
    # which loads them without running their subpackages' __init__
    heavy = ["scipy.linalg", "scipy.integrate", "scipy.optimize", "scipy.special",
             "scipy.sparse"]
    code = ("import sys, kppwaves.cli\n"
            f"print(sorted(set({heavy!r}) & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "[]"


def test_cli_imports_no_process_pool():
    # only a sweep run on more than one worker needs the pool
    code = "import sys, kppwaves.cli\nprint('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "False"
