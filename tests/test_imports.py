"""Every name a module of the package imports is used in that module, and
every top-level function or constant is defined in one module only (a second
copy of a rule is imported, not restated).

The package's ``__init__.py`` is exempt: its imports are the public
re-exports. No linter ships with the project, so this walks the syntax trees
with ``ast`` alone.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "polynorm"


def _unused_imports(source: str) -> list:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_the_walk_finds_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau as t\nsys.exit(t)\n"
    assert _unused_imports(source) == ["os", "pi"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_no_unused_imports(module):
    assert _unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def _top_level_definitions(source: str) -> set:
    """Names of the functions and assigned constants at a module's top level."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_the_walk_finds_top_level_definitions():
    source = "import os\nA = 1\nB: int = 2\ndef f():\n    C = 3\nclass K:\n    D = 4\n"
    assert _top_level_definitions(source) == {"A", "B", "f"}


def test_each_definition_lives_in_one_module():
    seen = {}
    for path in sorted(SRC.glob("*.py")):
        for name in _top_level_definitions(path.read_text(encoding="utf-8")):
            seen.setdefault(name, []).append(path.name)
    assert {name: where for name, where in seen.items() if len(where) > 1} == {}
