"""One admissible set and one certificate: only ``frictions`` and
``policy`` evaluate the margin's conjugate or its domain, and one
comparison in src/ widens the domain by its rounding slack."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jumpfolio"
CONJUGATE = {"effective_domain", "conjugate_gk"}
DOMAIN_SLACK = 1e-12


def _trees():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def _called(node):
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_only_frictions_and_policy_call_the_conjugate():
    callers = {
        module
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called(node) in CONJUGATE
    }
    assert callers <= {"frictions", "policy"}


def _widened(bound):
    """bound is `x - 1e-12` or `x + 1e-12`."""
    return (
        isinstance(bound, ast.BinOp)
        and isinstance(bound.op, (ast.Add, ast.Sub))
        and isinstance(bound.right, ast.Constant)
        and bound.right.value == DOMAIN_SLACK
    )


def test_one_domain_slack_comparison():
    """Every comparison with a bound widened by the slack, by module."""
    found = [
        module
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and any(map(_widened, [node.left, *node.comparators]))
    ]
    assert found == ["policy"]


def test_only_simulate_stores_the_sample():
    """verify and value sweep the sample as it is drawn: in src/, only the
    simulate command calls the sampler that stores every path."""
    callers = set()
    for module, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callers.update(
                    (module, fn.name)
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Call) and _called(node) == "simulate_ensemble"
                )
    assert callers == {("cli", "cmd_simulate")}
