"""Every name a ``sepfx`` module imports is used in that module, and every
module-level function and class is read somewhere in ``sepfx`` or exported."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "sepfx").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, where ``__all__`` entries
    count as reads; ``__future__`` imports and import statements whose
    first line carries ``# noqa: F401`` are skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        future = isinstance(node, ast.ImportFrom) and node.module == "__future__"
        if future or "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nfrom .learners import LearnerSpec, make_spec\n"
    assert unused_imports(source + "make_spec('glm')\n") == ["line 2: LearnerSpec"]
    assert unused_imports(source + "__all__ = ['LearnerSpec']\nmake_spec('glm')\n") == []


# Unread in src/sepfx, but the benchmark traces it and README documents it;
# ROADMAP item 2c removes it.
UNREAD_ALLOWED = {"fit_super_learner"}


def unread_definitions(sources: list[str], exported=()) -> list[str]:
    """Module-level functions and classes of ``sources`` that no source
    reads and ``exported`` does not name.  A read is an AST ``Name`` or
    ``Attribute`` of the name outside its own definition."""
    defined, read = [], set()
    for source in sources:
        for statement in ast.parse(source).body:
            own = None
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = statement.name
                defined.append(own)
            read |= {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(statement)
                if isinstance(node, (ast.Name, ast.Attribute))
            } - {own}
    return [name for name in defined if name not in read and name not in exported]


def test_every_definition_is_read_or_exported():
    import sepfx

    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert unread_definitions(sources, set(sepfx.__all__) | UNREAD_ALLOWED) == []


def test_an_unread_definition_is_found():
    source = "def helper():\n    return helper()\n\ndef used():\n    pass\n\nused()\n"
    assert unread_definitions([source]) == ["helper"]
    assert unread_definitions([source, "import m\nm.helper\n"]) == []
    assert unread_definitions([source], exported={"helper"}) == []
