"""Every package export has a caller in src/ or demos/ outside the module
that defines it, or a stated reason on the allowlist below."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jumpfolio"

# export -> why it has no caller outside its module
CALLERLESS = {
    "JumpfolioError": "base class of every package error, for a caller's except clause",
    "NO_BORROWING": "constraint constant for library users",
    "NO_SHORTING": "constraint constant for library users",
    "PiecewiseLinearConcave": "only tests build it: wire it into the config or remove it",
    "ProportionalConsumption": "type returned by log_optimal_consumption",
    "WealthPath": "type returned by wealth_path",
    "jump_transform": "the transform-name map behind MarketModel.f",
    "RegimeOptimum": "type returned by optimal_portfolio",
    "h_derivative": "h' for a root finder that would use it; tested against mpmath",
    "h_inverse": "root of h, called inside policy; tested against mpmath",
    "optimal_portfolio": "the per-regime solver, called inside policy",
    "McEstimate": "type returned by the Monte Carlo checks",
    "ensemble_functionals": "the column sweep over a stored ensemble; the benchmark traces it",
    "grid_search_constant_portfolio": "called by the benchmark, outside src/ and demos/",
    "parse_config": "load_config for a dict already in memory",
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
