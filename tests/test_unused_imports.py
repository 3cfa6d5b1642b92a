"""Every name a module in ``src/`` or ``tests/`` imports is referenced in that module, and every module-level
UPPER_CASE constant in ``src/`` is read somewhere in ``src/``, ``tests/`` or ``perfbench/``."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a package's __init__ imports names to re-export them
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py")
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*\Z")


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


def unread_constants(defining: dict[str, str], readers: list[str]) -> list[str]:
    """``path:NAME`` of each UPPER_CASE name a module of ``defining`` assigns at its top level that no source of
    ``readers`` loads, bare or as an attribute; an import alone is not a read."""
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for path, source in defining.items():
        for node in ast.parse(source).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            unread += [f"{path}:{t.id}" for t in targets
                       if isinstance(t, ast.Name) and CONSTANT.match(t.id) and t.id not in read]
    return sorted(unread)


def test_the_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom math import pi, tau\n"
    source += "np.sqrt(pi)\n"
    assert unused_imports(source) == ["os", "tau"]


def test_the_scan_finds_an_unread_constant():
    defining = {
        "a.py": "LIMIT = 3\nLEFTOVER = 4\nTYPED: int = 5\nlower = 6\nclass K:\n    INNER = 7\n",
        "b.py": "from a import LEFTOVER\nMAX_2 = LIMIT * 2\n",
    }
    readers = [*defining.values(), "import a\nprint(a.TYPED)\n"]
    assert unread_constants(defining, readers) == ["a.py:LEFTOVER", "b.py:MAX_2"]


def test_no_module_imports_a_name_it_never_uses():
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text()) for path in MODULES}
    assert {path: names for path, names in found.items() if names} == {}


def test_every_constant_in_src_is_read():
    defining = {str(p.relative_to(ROOT)): p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}
    readers = [p.read_text() for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert unread_constants(defining, readers) == []
