"""Static checks on the package sources."""
import ast
from pathlib import Path

import pytest

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


# __init__.py only re-exports, so its imports are referenced by no code
@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
