"""Every package export has a caller in src/ or demos/ outside the module
that defines it, or a stated reason on the allowlist below; only types
and constants may stand there."""

import ast
import inspect
from pathlib import Path

import jumpfolio

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jumpfolio"

# export -> why it has no caller outside its module
CALLERLESS = {
    "WealthPath": "type returned by wealth_path",
    "RegimeOptimum": "type returned by policy.optimal_portfolio",
    "McEstimate": "type returned by verify.sweep_estimates",
}


def _exports():
    """export name -> defining module, from the package's relative imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def _names_used(path):
    """Identifiers a file reads, as names or attributes; strings, comments
    and import lines do not count."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_callerless_exports_are_the_allowlist():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    used = {p: _names_used(p) for p in files}
    callerless = {
        name
        for name, module in _exports().items()
        if not any(name in names for p, names in used.items() if p != PACKAGE / f"{module}.py")
    }
    assert callerless == set(CALLERLESS)
    assert "exact_value" in _exports()


def test_margin_variants_are_constructors():
    """The margin variants are named constructors of the one margin class,
    not classes of their own."""
    removed = {"MarginModel", "Frictionless", "DifferentialRates", "ShortRebate"}
    assert not removed & set(_exports())
    assert not any(hasattr(jumpfolio.frictions, name) for name in removed)
    for variant in ("frictionless", "differential_rates", "short_rebate"):
        assert callable(getattr(jumpfolio.PiecewiseLinearConcave, variant))


def test_allowlist_holds_only_types_and_constants():
    """A function without a caller leaves the package's exports and stays
    in its module; it is not allowlisted."""
    for name in CALLERLESS:
        obj = getattr(jumpfolio, name)
        assert inspect.isclass(obj) or not callable(obj), name
