"""Layering: the command line sits on top, and nothing in ``repro`` imports it.

``repro.cli`` parses arguments and prints reports over every layer below
it.  A module under ``src/repro`` that imports it, at module level or
inside a function, turns the stack upside down; only
``repro/__main__.py``, which is ``python -m repro``, may.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent
MAIN = PACKAGE / "__main__.py"


def _imported(path, source=None):
    """``(line, module)`` for each import in ``path`` (or in ``source``
    read as that file), relative imports resolved; ``from a import b``
    also yields ``a.b``, which may be a module."""
    # The package a relative import starts from: a module's, and an
    # __init__.py's own.
    package = list(path.relative_to(PACKAGE.parent).parts[:-1])
    tree = ast.parse(path.read_text() if source is None else source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:
                base = package[: len(package) - node.level + 1]
                module = ".".join(base + ([module] if module else []))
            yield node.lineno, module
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


def _is_cli(module):
    return module == "repro.cli" or module.startswith("repro.cli.")


def test_relative_imports_resolve():
    fleet = PACKAGE / "dist" / "fleet.py"
    assert set(_imported(fleet, "from ..cli import main")) == {
        (1, "repro.cli"), (1, "repro.cli.main"),
    }
    assert (1, "repro.cli") in set(_imported(fleet, "from .. import cli"))
    init = PACKAGE / "dist" / "__init__.py"
    assert (1, "repro.dist.fleet") in set(_imported(init, "from .fleet import x"))
    inside = "def f():\n    import repro.cli\n"
    assert set(_imported(fleet, inside)) == {(2, "repro.cli")}


def test_no_module_but_main_imports_the_cli():
    offenders = [
        f"{path.relative_to(PACKAGE.parent)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != MAIN
        for line, module in _imported(path)
        if _is_cli(module)
    ]
    assert offenders == []
