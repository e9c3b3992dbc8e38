"""Every error type in ``sepfx.errors`` is raised by some other ``sepfx``
module, so no type stands for a condition that nothing reports."""

import ast
from pathlib import Path

from sepfx import errors

SOURCES = sorted((Path(__file__).parent.parent / "src" / "sepfx").glob("*.py"))


def raised_names(source: str) -> set[str]:
    """Names of the types that the ``raise`` statements of ``source`` name,
    called or not, bare or as a module attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_type_is_raised_outside_errors_py():
    error_types = [
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.SepfxError)
        and value is not errors.SepfxError
    ]
    raised = set().union(
        *(raised_names(path.read_text(encoding="utf-8")) for path in SOURCES
          if path.name != "errors.py")
    )
    assert [name for name in error_types if name not in raised] == []


def test_a_raised_type_is_found():
    source = (
        "try:\n    pass\nexcept KeyError as exc:\n    raise\n"
        "raise MissingCell('x') from None\nraise errors.TooFewRows\n"
    )
    assert raised_names(source) == {"MissingCell", "TooFewRows"}
