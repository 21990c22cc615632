"""Every name a ``covariants`` module imports is used in that module, and
every module-level function and class is referenced by some module other
than ``__init__``: a definition that only ``__init__`` re-exports is a
second entry point no code takes."""

import ast
import importlib
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


# the public kernel annihilator, kept as the tests' reference for the
# Plücker relations that decide decomposability and nesting
EXEMPT_UNREFERENCED = {("flags", "annihilator")}


def references(stem: str, tree: ast.Module) -> set[tuple[str, str]]:
    """The (module, name) pairs that the code of module ``stem`` refers to.

    A reference is a ``Name``, resolved through the module's relative
    imports (else to ``stem`` itself), or a ``module.name`` attribute whose
    base is a package module bound by ``from . import module``.
    """
    origin, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    origin[alias.asname or alias.name] = (node.module, alias.name)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(origin.get(node.id, (stem, node.id)))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            out.add((modules[node.value.id], node.attr))
    return out


def unreferenced_definitions(trees: dict[str, ast.Module]) -> list[tuple[str, str]]:
    """Module-level functions and classes no module but ``__init__`` refers to."""
    referenced = set().union(*(references(stem, tree) for stem, tree in trees.items() if stem != "__init__"))
    defined = [
        (stem, node.name)
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    return sorted(d for d in defined if d not in referenced)


def package_trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}


def test_every_definition_is_referenced_outside_init():
    unreferenced = [d for d in unreferenced_definitions(package_trees()) if d not in EXEMPT_UNREFERENCED]
    assert not unreferenced, f"only __init__ refers to: {unreferenced}"


def test_the_exemptions_are_still_unreferenced():
    assert EXEMPT_UNREFERENCED <= set(unreferenced_definitions(package_trees()))


def test_unreferenced_definitions_on_a_snippet():
    trees = {
        "a": ast.parse("def used(): pass\ndef unused(): pass\nclass K: pass\ndef rec(): rec()\n"),
        # a local of the same name is not a reference to a.unused
        "b": ast.parse("from .a import used as u\nfrom . import a\nunused = u()\na.K\n"),
        "__init__": ast.parse("from .a import unused\n"),
    }
    assert unreferenced_definitions(trees) == [("a", "unused")]


def traced_layers() -> list[tuple[str, str]]:
    """The (module, attr) of every ``LAYERS`` entry of ``bench/layers.py``."""
    tree = ast.parse((SRC.parent.parent / "bench" / "layers.py").read_text())
    (layers,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]
    ]
    return [(call.args[0].value, call.args[1].value) for call in layers.elts]


def test_every_traced_layer_is_defined():
    # ``Layer.original`` looks the layer up with ``vars(owner)[name]``, so a
    # layer whose function is gone makes every traced run raise KeyError
    layers = traced_layers()
    assert layers
    for module, attr in layers:
        owner = importlib.import_module(f"covariants.{module}")
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert name in vars(owner), f"bench/layers.py traces {module}.{attr}, which is not defined"
