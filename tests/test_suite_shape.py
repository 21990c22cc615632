"""Every suite criterion has one shape: a grid run through ``_timed`` with a
module-level check, so no ``criterion_*`` function defines a function, and
a grid point's generators are built once for all its checks.  The checks
below the suite return (passed, witness) themselves, so no class outside
``suite`` has a ``passed`` property."""

import ast
from pathlib import Path

from covariants import suite

SUITE = Path(suite.__file__)
SRC = SUITE.parent


def criteria_with_nested_functions(source: str) -> list[str]:
    tree = ast.parse(source)
    return [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("criterion_")
        for inner in ast.walk(node)
        if inner is not node and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def test_no_criterion_defines_a_nested_function():
    nested = criteria_with_nested_functions(SUITE.read_text())
    assert not nested, f"move these criteria's check bodies to module-level checks: {sorted(set(nested))}"


def test_the_guard_sees_a_nested_check():
    source = "def criterion_0_example(cfg):\n    def run():\n        return True, None\n    return [run]\n"
    assert criteria_with_nested_functions(source) == ["criterion_0_example"]


def verdict_classes(source: str) -> list[str]:
    """Classes that define a ``passed`` property."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for f in node.body
        if isinstance(f, ast.FunctionDef) and f.name == "passed"
        and any(isinstance(d, ast.Name) and d.id == "property" for d in f.decorator_list)
    ]


def test_no_check_below_the_suite_returns_a_report_object():
    # only the suite's CheckResult and SuiteReport hold a verdict
    found = [
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        if path != SUITE
        for name in verdict_classes(path.read_text())
    ]
    assert not found, f"return (passed, witness) from the check instead of these reports: {found}"


def test_the_guard_sees_a_report_class():
    source = (
        "class Report:\n"
        "    @property\n"
        "    def passed(self):\n"
        "        return True\n"
        "    def witness(self):\n"
        "        return None\n"
        "class Spec:\n"
        "    passed: bool = True\n"
        "    def in_phi(self, point):\n"
        "        return True\n"
    )
    assert verdict_classes(source) == ["Report"]


def test_criteria_3_and_13_build_each_generator_set_once(monkeypatch):
    built = []
    build = suite.build_generators
    monkeypatch.setattr(suite, "build_generators", lambda s: built.append(s) or build(s))
    monkeypatch.setattr(suite, "_timed", lambda name, fn: suite.CheckResult(name, "pass"))
    cfg = suite.SuiteConfig()
    checks = suite.criterion_3_generation(cfg)
    assert built == suite.generation_grid(cfg.groups) and len(checks) == len(built) * (cfg.tmax + 1)
    built.clear()
    checks = suite.criterion_13_quadratic_closure(cfg)
    assert len(built) == len(set(built)) == 9 and len(checks) == 18
