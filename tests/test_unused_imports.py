"""Every name a module in ``src/`` or ``tests/`` imports is referenced in that module, every module-level
UPPER_CASE constant and every function, method and property in ``src/`` is read somewhere in ``src/``, ``tests/`` or
``perfbench/``, every exception class defined in ``src/`` is raised somewhere in ``src/``, only the two functions
that need the exact value read ``trace_distance`` in ``src/``, the local dimension is one constant of
``operator_core`` that nothing in ``src/`` sets, no name or string in ``src/`` speaks of a second entropy unit, the
CLI reads no ``load``, so ``MarginalReader`` is its one read
path for marginal files, and the third-party modules ``src/`` imports are exactly the dependencies ``pyproject.toml``
declares."""

import ast
import builtins
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# a package's __init__ imports names to re-export them
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py")
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*\Z")
DUNDER = re.compile(r"__\w+__\Z")


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


def unraised_exceptions(defining: dict[str, str]) -> list[str]:
    """``path:Class`` of each exception class the modules of ``defining`` define that none of them raises by name.

    A class is an exception class when a base is a builtin exception or, by name, another such class of
    ``defining``.
    """
    def name(node):
        return getattr(node, "id", getattr(node, "attr", None))

    trees = {path: ast.parse(source) for path, source in defining.items()}
    classes = [(path, node) for path, tree in trees.items()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    exceptions = {n for n, obj in vars(builtins).items() if isinstance(obj, type) and issubclass(obj, BaseException)}
    while True:
        found = {node.name for _, node in classes if any(name(base) in exceptions for base in node.bases)}
        if found <= exceptions:
            break
        exceptions |= found
    raised = {
        name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
    }
    return sorted(f"{path}:{node.name}" for path, node in classes if node.name in exceptions - raised)


def unreferenced_functions(defining: dict[str, str], readers: list[str]) -> list[str]:
    """``path:name`` of each function, method or property the modules of ``defining`` define that no source of
    ``readers`` names outside a definition of that name: as a bare name, an attribute or an imported name.

    The scan goes by name, so one reference covers every definition of that name.  Dunder methods are exempt; the
    language calls them.
    """
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    named = set()

    def visit(node, inside):
        if isinstance(node, funcs):
            inside = inside | {node.name}
        ref = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, ast.alias):
            ref = node.name.split(".")[-1]
        if ref and ref not in inside:
            named.add(ref)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for source in readers:
        visit(ast.parse(source), frozenset())
    return sorted(
        f"{path}:{node.name}"
        for path, source in defining.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, funcs) and not DUNDER.match(node.name) and node.name not in named
    )


def functions_reading(defining: dict[str, str], target: str) -> list[str]:
    """``path:function`` of each innermost function of ``defining`` that loads ``target`` as a bare name or an
    attribute; a load outside every function is ``path:<module>``.  An import alone is not a load."""
    found = set()

    def visit(node, path, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == target) or (
            isinstance(node, ast.Attribute) and node.attr == target
        ):
            found.add(f"{path}:{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, where)

    for path, source in defining.items():
        visit(ast.parse(source), path, "<module>")
    return sorted(found)


def local_dimension_settings(defining: dict[str, str], home: str) -> list[str]:
    """``path:name`` of each parameter of a function or lambda, and each annotated class field, of ``defining`` that
    is named ``local_dim`` or ``d``, and ``path:LOCAL_DIM`` of each assignment to ``LOCAL_DIM``, bare or as an
    attribute, in any module but ``home``."""
    names = {"local_dim", "d"}
    found = []
    for path, source in defining.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
                found += [f"{path}:{p.arg}" for p in params if p.arg in names]
            elif isinstance(node, ast.ClassDef):
                found += [f"{path}:{f.target.id}" for f in node.body
                          if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name) and f.target.id in names]
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and path != home:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [f"{path}:LOCAL_DIM" for t in targets
                          if getattr(t, "id", getattr(t, "attr", None)) == "LOCAL_DIM"]
    return sorted(found)


def unit_conversions(defining: dict[str, str]) -> list[str]:
    """``path:text`` of each identifier, parameter, attribute, keyword, imported name or string literal of ``defining``
    that contains ``log_base``, ``log-base`` or ``per_bit``."""
    pattern = re.compile(r"log_base|log-base|per_bit")
    found = []
    for path, source in defining.items():
        for node in ast.walk(ast.parse(source)):
            texts = [getattr(node, field, None) for field in ("id", "attr", "arg", "name", "asname")]
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                texts.append(node.value)
            found += [f"{path}:{text}" for text in texts if isinstance(text, str) and pattern.search(text)]
    return sorted(found)


def third_party_imports(sources: list[str], own: str) -> list[str]:
    """The top-level modules that ``sources`` import, at module or function level, outside the standard library and
    the package ``own``; a relative import is the package's own."""
    found = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return sorted(found - set(sys.stdlib_module_names) - {own})


def declared_modules(project: dict) -> list[str]:
    """The module name of each requirement in the ``dependencies`` of a parsed ``[project]`` table: its distribution
    name, lower-cased, with ``-`` as ``_``."""
    return sorted(re.match(r"[A-Za-z0-9._-]+", req).group().lower().replace("-", "_")
                  for req in project.get("dependencies", []))


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


def test_the_scan_finds_an_unraised_exception():
    defining = {
        "a.py": "class UsedError(ValueError):\n    pass\nclass ChildError(UsedError):\n    pass\n"
                "class Plain:\n    pass\nclass Leftover(Exception):\n    pass\n",
        "b.py": "import a\nclass Attr(a.UsedError):\n    pass\ntry:\n    raise a.UsedError('x')\n"
                "except ValueError as exc:\n    raise Attr from exc\nraise\n",
    }
    assert unraised_exceptions(defining) == ["a.py:ChildError", "a.py:Leftover"]


def test_the_scan_finds_an_unreferenced_function():
    defining = {
        "a.py": "def used():\n    pass\ndef leftover():\n    return leftover()\nclass K:\n    def __init__(self):\n"
                "        pass\n    @property\n    def prop(self):\n        return self.method\n"
                "    def method(self):\n        return self.method()\n    def orphan(self):\n        pass\n",
        "b.py": "from a import used as u\nu(K().prop)\n",
    }
    # K.prop names ``method`` outside its definition, so only orphan and the self-calling leftover are left
    assert unreferenced_functions(defining, list(defining.values())) == ["a.py:leftover", "a.py:orphan"]


def test_the_scan_finds_every_reader_of_a_name():
    defining = {
        "a.py": "from m import exact\ndef certified(x):\n    return exact(x)\ndef record(x):\n    return certified(x)\n",
        "b.py": "import m\ndef planted(x):\n    def inner():\n        return m.exact(x)\n    return inner\n"
                "alias = exact\ndef exact(x):\n    pass\n",
    }
    assert functions_reading(defining, "exact") == ["a.py:certified", "b.py:<module>", "b.py:inner"]


def test_the_scan_finds_every_setting_of_the_local_dimension():
    defining = {
        "core.py": "LOCAL_DIM = 2\ndef ok(dim, *, dims=LOCAL_DIM):\n    d = dim\n    return d\n",
        "a.py": "from dataclasses import dataclass\n@dataclass\nclass Op:\n    local_dim: int\n    dim: int = 2\n"
                "def f(x, d):\n    pass\nclass K:\n    def m(self, *, local_dim=2):\n        pass\n"
                "g = lambda d: d\n",
        "b.py": "import core\nLOCAL_DIM: int = 3\ncore.LOCAL_DIM = 3\ndef h(**d):\n    core.LOCAL_DIM += 1\n",
    }
    assert local_dimension_settings(defining, "core.py") == [
        "a.py:d", "a.py:d", "a.py:local_dim", "a.py:local_dim",
        "b.py:LOCAL_DIM", "b.py:LOCAL_DIM", "b.py:LOCAL_DIM", "b.py:d",
    ]


def test_the_scan_finds_every_second_entropy_unit():
    defining = {
        "a.py": "import math\ndef f(x, log_base=2.0):\n    per_bit = math.log(2.0) / math.log(log_base)\n"
                "    return x * per_bit\n",
        "b.py": "from m import scale_per_bit as s\nclass K:\n    log_base_e: float\ng = K().log_base_e\n"
                "h(x, log_base=2)\np.add_argument('--log-base')\nlogbase = 'bits'\n",
    }
    assert unit_conversions(defining) == [
        "a.py:log_base", "a.py:log_base", "a.py:per_bit", "a.py:per_bit",
        "b.py:--log-base", "b.py:log_base", "b.py:log_base_e", "b.py:log_base_e", "b.py:scale_per_bit",
    ]


def test_the_scan_compares_third_party_imports_with_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    sources = [
        "from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom . import lattice\n"
        "from .oracles import gen\nfrom pkg.cli import main\n",
        "def f():\n    from scipy.linalg import expm\n    import json\n    return expm\n",
    ]
    assert third_party_imports(sources, "pkg") == ["numpy", "scipy"]
    project = tomllib.loads('[project]\nname = "pkg"\ndependencies = ["numpy>=1.24", "SciPy >= 1.10", '
                            '"leftover-pkg>=3.0", "typing-extensions; python_version < \'3.11\'"]\n')["project"]
    # the lint asks for equality, so a declared dependency that nothing imports fails it, as an undeclared import does
    assert declared_modules(project) == ["leftover_pkg", "numpy", "scipy", "typing_extensions"]
    assert third_party_imports([*sources, "import leftover_pkg\n"], "pkg") == ["leftover_pkg", "numpy", "scipy"]


def test_src_imports_exactly_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    sources = [p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))]
    assert third_party_imports(sources, project["name"]) == declared_modules(project)


def test_no_module_imports_a_name_it_never_uses():
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text()) for path in MODULES}
    assert {path: names for path, names in found.items() if names} == {}


def test_every_constant_in_src_is_read():
    defining = {str(p.relative_to(ROOT)): p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}
    readers = [p.read_text() for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert unread_constants(defining, readers) == []


def test_every_exception_class_in_src_is_raised():
    defining = {str(p.relative_to(ROOT)): p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}
    assert unraised_exceptions(defining) == []


def test_every_function_in_src_is_referenced():
    defining = {str(p.relative_to(ROOT)): p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}
    # a re-export in a package's __init__ is not a use
    readers = [p.read_text() for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))
               if p.name != "__init__.py"]
    assert unreferenced_functions(defining, readers) == []


def test_only_two_functions_in_src_read_trace_distance():
    # every record that compares a trace distance with a tolerance goes through certified_trace_distance, whose
    # fallback is exact; is_markov_via_recovery's residual must be shown large, which no upper bound can
    defining = {str(p.relative_to(ROOT)): p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}
    assert functions_reading(defining, "trace_distance") == [
        "src/snakeweaver/merge.py:is_markov_via_recovery",
        "src/snakeweaver/operator_core.py:certified_trace_distance",
    ]


def test_the_cli_reads_marginal_files_only_through_the_reader():
    # every command checks a file in the one pass of MarginalReader.feed; a second read path through
    # MarginalSet.load would read and check it apart from that pass
    cli = "src/snakeweaver/cli.py"
    assert functions_reading({cli: (ROOT / cli).read_text()}, "load") == []


def test_the_local_dimension_is_one_constant_of_operator_core():
    # every site is a qubit; a parameter or field that could set another local dimension would reopen that choice
    defining = {str(p.relative_to(ROOT)): p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}
    assert local_dimension_settings(defining, "src/snakeweaver/operator_core.py") == []


def test_every_entropy_in_src_is_in_bits():
    # the library computes every entropy and CMI in bits and every report carries those values; a unit option or a
    # conversion factor would give one command two units again
    defining = {str(p.relative_to(ROOT)): p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}
    assert unit_conversions(defining) == []
