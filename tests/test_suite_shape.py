"""Every suite criterion has one shape: a grid run through ``_timed`` with a
module-level check, so no ``criterion_*`` function defines a function, and
a grid point's generators are built once for all its checks."""

import ast
from pathlib import Path

from covariants import suite

SUITE = Path(suite.__file__)


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
