"""Package facades re-export only what is imported through them.

Every name a ``src/repro/**/__init__.py`` imports must be imported through
that package somewhere: in ``src/`` (other than a package ``__init__``),
``tests/``, ``benchmarks/ledger/``, ``examples/`` or a README's Python
code block.  A facade name nothing uses only makes ``import repro.X`` load
more — it is how ``repro scenarios list`` once paid for numpy and scipy —
so it goes.  Import such a name from the module that defines it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SEARCHED = ("src", "tests", "benchmarks/ledger", "examples")


def _facades():
    """``{package: names its __init__ binds by import}``."""
    facades = {}
    for init in sorted(SRC.glob("repro/**/__init__.py")):
        names = set()
        for node in ast.parse(init.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {alias.asname or alias.name for alias in node.names}
        facades[".".join(init.relative_to(SRC).parent.parts)] = names
    return facades


def _sources():
    readmes = [ROOT / "README.md"]
    for tree in SEARCHED:
        for path in sorted((ROOT / tree).rglob("*.py")):
            if not (path.name == "__init__.py" and SRC in path.parents):
                yield path.read_text()
        readmes += sorted((ROOT / tree).rglob("README.md"))
    for readme in readmes:
        yield from re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)


def _imported_through(packages):
    """``{package: names imported through it}``: ``from PKG import name``,
    or ``PKG.name`` where ``PKG`` is bound by ``import`` or ``from``."""
    used = {package: set() for package in packages}
    for text in _sources():
        tree = ast.parse(text)
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                if node.module in packages:
                    used[node.module] |= {alias.name for alias in node.names}
                for alias in node.names:
                    if f"{node.module}.{alias.name}" in packages:
                        bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname and alias.name in packages:
                        bound[alias.asname] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                owner = ast.unparse(node.value)
                package = bound.get(owner, owner)
                if package in packages:
                    used[package].add(node.attr)
    return used


def test_every_facade_name_is_imported_through_its_package():
    facades = _facades()
    used = _imported_through(facades)
    unused = {
        package: sorted(names - used[package])
        for package, names in facades.items()
        if names - used[package]
    }
    assert unused == {}
