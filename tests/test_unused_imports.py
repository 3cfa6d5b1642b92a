"""Every name a module in ``src/`` or ``tests/`` imports is referenced in that module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a package's __init__ imports names to re-export them
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports in ``source`` that no expression reads; ``from __future__`` binds none."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(bound) - read)


def test_the_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom math import pi, tau\n"
    source += "np.sqrt(pi)\n"
    assert unused_imports(source) == ["os", "tau"]


def test_no_module_imports_a_name_it_never_uses():
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text()) for path in MODULES}
    assert {path: names for path, names in found.items() if names} == {}
