"""Every module under ``src/repro`` is imported by something that runs.

A module that nothing in ``src/``, ``examples/`` or ``benchmarks/`` imports
is reached only by its own tests: code the program never runs.  Packages
(their ``__init__``) and the ``repro.cli`` entry point are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
IMPORTERS = ("src", "examples", "benchmarks")
ENTRY_POINTS = {"repro.cli"}


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _modules():
    return {
        _module_name(path)
        for path in SRC.glob("repro/**/*.py")
        if path.name != "__init__.py"
    }


def _imported(importer):
    """Every dotted name ``importer`` imports, with ``from X import y``
    also counted as ``X.y`` (``y`` may be a submodule)."""
    names = set()
    for node in ast.walk(ast.parse(importer.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names |= {f"{node.module}.{alias.name}" for alias in node.names}
    return names


def test_every_module_is_imported_by_the_program():
    imported = set()
    for tree in IMPORTERS:
        for path in (ROOT / tree).rglob("*.py"):
            imported |= _imported(path)
    unreached = sorted(_modules() - ENTRY_POINTS - imported)
    assert not unreached, (
        "imported by nothing in src/, examples/ or benchmarks/: "
        + ", ".join(unreached)
    )
