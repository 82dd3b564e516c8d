"""One margin class, one admissible set and one certificate: every
margin is a ``PiecewiseLinearConcave``, only ``config`` pairs a margin
variant with its canonical constraint set, only ``frictions`` and
``policy`` evaluate the margin's conjugate or its domain, the solver
certifies each optimum once and the policy carries the certificate, and
one comparison in src/ widens the domain by its rounding slack.  One function
draws a sample's columns, and only the value stages and the one sampler
that stores the sample call it; one module draws random numbers, one
sweep makes every Monte Carlo estimate in one workspace per sweep, one
constant sizes the blocks a sample is drawn and swept in, one the chunks
of weight rows the exact value integrates at once, one expect integrates
against every mark law, the row engine serves only the stock and wealth
paths, one function forms the deflated wealth xi = x - kappa t, only the
market builds the regime chain, value and verify share one call of each
value stage, and no module does linear algebra at run time."""

import ast
import dataclasses
import inspect
from pathlib import Path

import numpy as np

from jumpfolio import policy, verify

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jumpfolio"
CONJUGATE = {"effective_domain", "conjugate_gk"}
DOMAIN_SLACK = 1e-12


def _trees():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def _called(node):
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _defines(cls, name):
    """Whether a class body defines name as a method or an attribute."""
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name == name:
            return True
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return True
    return False


def test_one_margin_class():
    """In src/, one class describes a margin (it defines g or its slopes),
    and no class derives from it."""
    classes = [
        (module, node)
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    ]
    margins = {
        (module, cls.name) for module, cls in classes if _defines(cls, "g") or _defines(cls, "slopes")
    }
    assert margins == {("frictions", "PiecewiseLinearConcave")}
    bases = {
        base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
        for _, cls in classes
        for base in cls.bases
    }
    assert "PiecewiseLinearConcave" not in bases


def test_one_expect_for_every_mark_law():
    """In src/, only JumpDistribution integrates against a mark law: it
    alone defines expect, and _mgf is defined there (expect of e^{sY}) and
    on the two exponential laws, whose closed forms h reads at pi in {0, 1}."""
    defining = lambda name: {
        (module, node.name)
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and _defines(node, name)
    }
    base = ("distributions", "JumpDistribution")
    assert defining("expect") == {base}
    assert defining("_mgf") == {
        base, ("distributions", "ExponentialPositive"), ("distributions", "ExponentialNegative")
    }


def test_only_the_market_builds_the_chain():
    """Every event is a jump of the chain, so the chain's rates are the
    regimes' intensities: in src/, only MarketModel constructs a
    GeneratorMatrix, once, from its regimes."""

    def builds(node):
        return sum(
            isinstance(sub, ast.Call) and _called(sub) == "GeneratorMatrix" for sub in ast.walk(node)
        )

    trees = _trees()
    market = next(
        node
        for node in ast.walk(trees["market"])
        if isinstance(node, ast.ClassDef) and node.name == "MarketModel"
    )
    assert builds(market) == 1
    assert sum(map(builds, trees.values())) == 1


def test_only_config_maps_a_margin_variant_to_its_constraint():
    """A margin carries no constraint set: in src/, only config reads the
    canonical sets NO_SHORTING and NO_BORROWING, and nothing defines or
    calls a canonical_constraint."""
    assert {module for module, _ in _loads({"NO_SHORTING", "NO_BORROWING"})} == {"config"}
    named = [
        module
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if getattr(node, "name", None) == "canonical_constraint"
        or getattr(node, "attr", None) == "canonical_constraint"
    ]
    assert named == []


def test_only_frictions_and_policy_call_the_conjugate():
    callers = {
        module
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called(node) in CONJUGATE
    }
    assert callers <= {"frictions", "policy"}


def test_the_solver_certifies_once():
    """In src/, only policy._package_optimum calls certify; a policy holds
    its certificates, not a dual variable of its own, and the dual density
    reads them from the policy, with no constraint set of its own."""
    assert _callers({"certify"}) == {("policy", "_package_optimum")}
    for cls in (policy.Policy, policy.RegimeOptimum):
        assert "zeta" not in {f.name for f in dataclasses.fields(cls)}
    assert list(inspect.signature(verify.state_price_spec).parameters) == ["market", "policy"]


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


def _call_sites(match):
    """(module, function) of every function in src/ with a call that match accepts."""
    sites = set()
    for module, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sites.update(
                    (module, fn.name)
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Call) and match(node)
                )
    return sites


def _callers(names):
    """(module, function) of every function in src/ that calls one of names."""
    return _call_sites(lambda node: _called(node) in names)


def test_only_simulate_stores_the_sample():
    """verify and value sweep the sample as it is drawn: in src/, only the
    simulate command calls the sampler that stores every path."""
    assert _callers({"simulate_ensemble"}) == {("cli", "cmd_simulate")}


def test_only_simulate_ensemble_stores_a_stream():
    """One store of a stream's rows: in src/, a PathEnsemble is built only
    by simulate_ensemble, from every row of the stream it draws, and by
    PathEnsemble.rows, as a block of rows already stored."""
    assert _callers({"PathEnsemble"}) == {("mpp", "simulate_ensemble"), ("mpp", "rows")}


def test_only_stock_and_wealth_paths_call_the_row_engine():
    """The row engine serves simulate alone: in src/, only wealth_path,
    which evaluates a path's stock and wealth on one grid, evaluates
    levels on ensemble rows and builds reporting grids."""
    assert _callers({"_path_log_level"}) == {("market", "wealth_path")}
    assert _callers({"report_grid"}) == {("market", "wealth_path")}


def test_one_owner_of_the_deflated_wealth():
    """Consumption is the scale kappa of c_t = kappa V_t^{1,pi,0}: in src/,
    only market._deflated_wealth forms xi_t = x - kappa t, for the path
    tables and for the Monte Carlo checks' xi_T alike."""
    assert _callers({"_deflated_wealth"}) == {
        ("market", "wealth_path"),
        ("verify", "budget_mc"),
        ("verify", "expected_utility_mc"),
    }


# a law's sampler and every drawing method of a numpy Generator
DRAWS = {"sample"} | {
    name for name in dir(np.random.Generator) if not name.startswith("_")
} - {"bit_generator", "spawn"}


def _is_draw(node):
    """A method call named like a draw, bar a class's own (``Utility.power``)."""
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in DRAWS
        and not (isinstance(func.value, ast.Name) and func.value.id[0].isupper())
    )


def test_only_mpp_draws():
    """One draw site: in src/, only mpp calls a law's sample or a
    generator's draw method, apart from a law's own sample, which draws
    its marks from the generator it is given."""
    sites = _call_sites(_is_draw)
    assert sites - {("distributions", "sample")} == {("mpp", "_draw_columns")}


def _attribute_readers(name):
    """(module, function) of every function in src/ that reads the attribute name."""
    return {
        (module, fn.name)
        for module, tree in _trees().items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr == name
    }


def _assignments(name):
    """(module, whether at module level, value) of every assignment to name in src/."""
    return [
        (module, node in tree.body, ast.unparse(node.value))
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for sub in ast.walk(target)
        if getattr(sub, "id", getattr(sub, "attr", None)) == name
    ]


def test_one_block_size():
    """Every sample is drawn and swept in blocks of one size, mpp.BLOCK_PATHS
    = 2^14 paths, that no option sets: in src/, mpp assigns it once, at
    module level, and only mpp._block_bounds reads it, for the sampler
    (jump_columns) alone."""
    from jumpfolio import mpp

    assert mpp.BLOCK_PATHS == 1 << 14
    assert _assignments("BLOCK_PATHS") == [("mpp", True, "1 << 14")]  # no option or variable
    assert _loads({"BLOCK_PATHS"}) == {("mpp", "_block_bounds")}
    assert _attribute_readers("BLOCK_PATHS") == set()
    assert _callers({"_block_bounds"}) == {("mpp", "jump_columns")}


def test_one_producer_of_drawn_columns():
    """One stream type and one producer: in src/, a ColumnStream is built
    only by mpp.jump_columns, and only the value stages, whose sweep makes
    every Monte Carlo estimate, and simulate_ensemble, which lays the
    stored ensemble out from the drawn columns, call it."""
    assert _callers({"ColumnStream"}) == {("mpp", "jump_columns")}
    assert _callers({"jump_columns"}) == {("cli", "_value_stages"), ("mpp", "simulate_ensemble")}


def test_one_quadrature_chunk_size():
    """The exact value integrates its weight rows in chunks of at most
    regime_value.EXPECT_CELLS = 2^14 (row x node) cells, a constant that no
    option sets: in src/, regime_value assigns it once, at module level,
    and only regime_value._growth_terms reads it."""
    from jumpfolio import regime_value

    assert regime_value.EXPECT_CELLS == 1 << 14
    assert _assignments("EXPECT_CELLS") == [("regime_value", True, "1 << 14")]
    assert _loads({"EXPECT_CELLS"}) == {("regime_value", "_growth_terms")}
    assert _attribute_readers("EXPECT_CELLS") == set()


ALLOCATORS = {"empty", "zeros", "ones", "full"}


def test_one_workspace_per_sweep():
    """Every block of a sweep is swept in one workspace: in verify,
    sweep_estimates allocates a 2-D array once, outside its loop over the
    blocks, and passes it to every column_functionals call, which makes
    its own only when called without one (tests)."""
    sites = []
    for fn in ast.walk(_trees()["verify"]):
        if not isinstance(fn, ast.FunctionDef):
            continue
        in_loop, unset = (
            {id(sub) for node in ast.walk(fn) if kind(node) for sub in ast.walk(node)}
            for kind in (
                lambda node: isinstance(node, ast.For),
                lambda node: isinstance(node, ast.If)
                and ast.unparse(node.test) == "workspace is None",
            )
        )
        sites += [
            (fn.name, id(node) in in_loop, id(node) in unset)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and _called(node) in ALLOCATORS
            and node.args
            and isinstance(node.args[0], ast.Tuple)
        ]
    assert sites == [("column_functionals", False, True), ("sweep_estimates", False, False)]
    sweep = next(
        fn
        for fn in ast.walk(_trees()["verify"])
        if isinstance(fn, ast.FunctionDef) and fn.name == "sweep_estimates"
    )
    calls = [
        node
        for node in ast.walk(sweep)
        if isinstance(node, ast.Call) and _called(node) == "column_functionals"
    ]
    assert [ast.unparse(call.args[-1]) for call in calls] == ["workspace"]


def test_one_way_to_an_estimate():
    """Every Monte Carlo estimate comes from one sweep: in src/, only
    sweep_estimates calls the column sweep or the estimator."""
    callers = _callers({"column_functionals", "_estimate"})
    assert callers == {("verify", "sweep_estimates")}


def test_value_and_verify_share_one_value_stage():
    """value and verify run the same value stages: in cli, one call each
    draws the sample, sweeps it, computes the exact value and evaluates
    the corollary, all in _value_stages."""
    stages = ("jump_columns", "sweep_estimates", "exact_value", "value_corollary")
    assert {
        name: [
            fn.name
            for fn in ast.walk(_trees()["cli"])
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and _called(node) == name
        ]
        for name in stages
    } == {name: ["_value_stages"] for name in stages}


def _loads(names):
    """(module, function or None) of every read of one of names in src/."""
    sites = set()
    for module, tree in _trees().items():
        for node in tree.body:
            fns = [node] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else []
            sites.update(
                (module, fns[0].name if fns else None)
                for sub in ast.walk(node)
                if isinstance(sub, ast.Name) and sub.id in names and isinstance(sub.ctx, ast.Load)
            )
    return sites


def test_path_cells_are_formatted_only_by_the_fallback():
    """One writer of path cells: in src/, the row format _CSV_ROW and the
    cell formats taken from it are read at market's module level and, in
    a function, only by market's fallback; no other code %-formats a
    string literal."""
    assert _loads({"_CSV_ROW", "_CELL_FORMATS"}) == {("market", None), ("market", "_fallback_cells")}
    literal_formats = [
        module
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mod)
        and isinstance(node.left, ast.Constant)
        and isinstance(node.left.value, str)
    ]
    assert literal_formats == []


def test_simulate_writes_path_csvs_only_through_export_path_csv():
    """cmd_simulate is the only caller of export_path_csv in src/, and it
    writes to no file itself."""
    assert _callers({"export_path_csv"}) == {("cli", "cmd_simulate")}
    cmd = next(
        node
        for node in ast.walk(_trees()["cli"])
        if isinstance(node, ast.FunctionDef) and node.name == "cmd_simulate"
    )
    writes = [
        node
        for node in ast.walk(cmd)
        if isinstance(node, ast.Call)
        and (_called(node) in {"write", "writelines"} or any(k.arg == "file" for k in node.keywords))
    ]
    assert writes == []


def _dotted_names(node):
    """The dotted names an import, attribute or name node reads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [f"{node.module}.{alias.name}" for alias in node.names]
    return [getattr(node, "attr", None) or getattr(node, "id", None) or ""]


def test_no_linear_algebra_at_run_time():
    """The runtime solves no eigenvalue problem or linear system: in src/,
    no module imports numpy.polynomial (whose leggauss calls LAPACK's
    eigvalsh) or reads linalg.  sys.modules cannot show this, since numpy
    imports numpy.linalg itself."""
    found = [
        (module, ast.unparse(node))
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom, ast.Attribute, ast.Name))
        and any(
            part in {"polynomial", "linalg"}
            for name in _dotted_names(node)
            for part in name.split(".")
        )
    ]
    assert found == []
