"""Every name a ``covariants`` module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "covariants"

# bench/selftest.py checks that flags.rank is the traced linalg.rank, so
# flags keeps that binding although no code in flags calls it
EXEMPT = {("flags", "rank")}


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


# __init__ imports only to re-export
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    unused = [name for name in unused_imports(path) if (path.stem, name) not in EXEMPT]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_exemptions_are_still_unused_imports():
    for module, name in EXEMPT:
        assert name in unused_imports(SRC / f"{module}.py")
