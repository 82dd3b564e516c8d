"""Command-line entry point.

Subcommands: optimize, value, simulate, figures, verify.  Each reads one
YAML config (schema documented in the config module), with selected
fields overridable by flags.  Exit codes: 0 success, 1 validation error,
2 infeasible model, 3 verification failure.  All CSV output carries a
provenance comment (config hash + seed) and 17-significant-digit
formatting.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import OUTPUT_DIR_ENV, RunConfig, config_hash, load_config
from .errors import (
    BankruptcyError,
    BracketLimitError,
    ConfigError,
    DomainError,
    InfeasiblePolicyError,
    ModelAssumptionError,
    QuadratureError,
    RangeError,
    RuinError,
)
from .market import DEFAULT_GRID_POINTS, export_path_csv, stock_path, wealth_path
from .mpp import simulate_ensemble
from .policy import (
    Policy,
    conjugacy_tolerance,
    h_value,
    log_optimal_policy,
    power_optimal_policy,
    verify_conjugacy,
)
from .regime_value import regime_inputs, value_corollary, value_semianalytic
from . import verify as verify_mod

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY_FAILED = 3

FIGURE_GAMMAS = (0.0, 0.25, 0.5, 0.75, 0.9)

# ensemble rows simulate evaluates at a time; a block's CSVs are written
# before the next block is evaluated, so memory holds the ensemble and
# one block of grids (16 rows keep `simulate --paths 1000` on
# bench/configs/paths_dense.yaml at the peak of evaluating one row at a
# time, 32 rows raise it by 2 MB)
SIMULATE_BLOCK_ROWS = 16


def _fmt(value):
    if value is None or (isinstance(value, float) and np.isnan(value)):
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path, header, rows, config, footnotes=()):
    with open(path, "w") as fh:
        fh.write(f"# config_hash={config_hash(config)} seed={config.seed}\n")
        for note in footnotes:
            fh.write(f"# {note}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def _solve_policy(config: RunConfig) -> Policy:
    if config.utility.is_log:
        return log_optimal_policy(config.market, config.initial_wealth, config.horizon)
    return power_optimal_policy(config.market, config.utility.gamma)


def cmd_optimize(config: RunConfig, args) -> int:
    policy = _solve_policy(config)
    kind = "log" if config.utility.is_log else f"power gamma={config.utility.gamma:g}"
    print(f"optimal policy ({kind} utility)")
    for i, params in enumerate(config.market.regimes):
        residual = verify_conjugacy(
            params.margin, config.market.constraint, policy.pi[i], policy.zeta[i]
        )
        print(
            f"  regime {i}: pi_hat={policy.pi[i]:.12g} case={policy.cases[i]} "
            f"zeta_hat={policy.zeta[i]:.12g} conjugacy_residual={residual:.3e}"
        )
    return EXIT_OK


def cmd_value(config: RunConfig, args) -> int:
    if not config.utility.is_log:
        raise ConfigError("the closed-form value is available for log utility only")
    x, T = config.initial_wealth, config.horizon
    policy = log_optimal_policy(config.market, x, T)
    inputs = regime_inputs(config.market, x, T, policy)
    i0 = config.initial_state
    semi = value_semianalytic(inputs, i0)
    coro = value_corollary(inputs, i0)
    market = config.market
    ens = simulate_ensemble(market.gen, i0, T, market.dists, config.n_paths, config.seed)
    est = verify_mod.mc_expected_utility(
        market, policy.pi, policy.consumption, config.utility, x, ens
    )
    print(f"optimal value, start regime {i0}:")
    print(f"  semianalytic  {semi:.12g}")
    print(f"  corollary     {coro:.12g}  (deviation {coro - semi:.6g})")
    print(f"  monte carlo   {est.mean:.12g} +- {est.stderr:.3g}  (N={est.n_paths})")
    return EXIT_OK


def cmd_simulate(config: RunConfig, args) -> int:
    if args.paths < 1:
        raise ConfigError(f"--paths must be positive, got {args.paths}")
    os.makedirs(config.output_dir, exist_ok=True)
    policy = _solve_policy(config)
    ens = simulate_ensemble(
        config.market.gen, config.initial_state, config.horizon,
        config.market.dists, args.paths, config.seed,
    )
    provenance = f"config_hash={config_hash(config)} seed={config.seed}"
    for lo in range(0, args.paths, SIMULATE_BLOCK_ROWS):
        rows = ens.rows(lo, lo + SIMULATE_BLOCK_ROWS)
        try:
            wp = wealth_path(
                config.initial_wealth, config.market, policy.pi, policy.consumption, rows
            )
            _, stock = stock_path(config.market, rows, s0=1.0)
        except DomainError as exc:  # its row counts from the block's first path
            raise DomainError(f"paths {lo} to {lo + rows.n_paths - 1}: {exc}") from exc
        for p, events in enumerate(rows.counts.tolist()):
            k = lo + p
            cells = DEFAULT_GRID_POINTS + 1 + events
            out = os.path.join(config.output_dir, f"path_{k:03d}.csv")
            with open(out, "w") as fh:
                export_path_csv(
                    wp.row(p, cells), stock[p, :cells], fh,
                    comment_lines=(f"{provenance} path={k}",),
                )
            print(f"wrote {out} ({events} events)")
    return EXIT_OK


def cmd_figures(config: RunConfig, args) -> int:
    os.makedirs(config.output_dir, exist_ok=True)
    fig = args.figure
    params = config.market.regimes[config.initial_state]
    out = os.path.join(config.output_dir, f"fig{fig}.csv")

    if fig in (1, 3):
        grid = np.linspace(0.0, 2.0, 201) if fig == 1 else np.linspace(-12.0, 1.0, 201)
        header = ["pi"] + [f"h_gamma{g:g}" for g in FIGURE_GAMMAS]
        rows = []
        footnotes = []
        for pi in grid:
            row = [float(pi)]
            for g in FIGURE_GAMMAS:
                try:
                    row.append(h_value(params, g, float(pi)))
                except (DomainError, QuadratureError, FloatingPointError):
                    row.append(None)
                    if not footnotes:
                        footnotes.append(
                            "empty cells: h undefined at this (pi, gamma)"
                        )
            rows.append(row)
        _write_csv(out, header, rows, config, footnotes)
    elif fig in (2, 4):
        gammas = np.linspace(0.0, 0.99, 200)
        header = ["gamma", "pi_hat", "case"]
        rows = []
        footnotes = []
        for g in gammas:
            try:
                pol = (
                    log_optimal_policy(config.market, config.initial_wealth, config.horizon)
                    if g == 0.0
                    else power_optimal_policy(config.market, float(g))
                )
                i = config.initial_state
                rows.append([float(g), pol.pi[i], pol.cases[i]])
            except (InfeasiblePolicyError, RangeError, ModelAssumptionError) as exc:
                rows.append([float(g), None, None])
                if isinstance(exc, BracketLimitError):
                    note = "empty cells: optimum beyond bracket at this gamma"
                else:
                    note = "empty cells: no admissible optimum at this gamma"
                if note not in footnotes:
                    footnotes.append(note)
        _write_csv(out, header, rows, config, footnotes)
    else:
        raise ConfigError("figure id must be 1, 2, 3 or 4")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_verify(config: RunConfig, args) -> int:
    os.makedirs(config.output_dir, exist_ok=True)
    market = config.market
    K = market.constraint
    x, T = config.initial_wealth, config.horizon
    i0 = config.initial_state
    n, seed = config.n_paths, config.seed
    policy = _solve_policy(config)
    # one sample serves every check (common random numbers); the pathwise
    # identity reads its first rows
    ens = simulate_ensemble(market.gen, i0, T, market.dists, n, seed)

    checks = []  # (name, passed or None if only reported, detail, estimate or None)

    for i, params in enumerate(market.regimes):
        pi, zeta = policy.pi[i], policy.zeta[i]
        residual = verify_conjugacy(params.margin, K, pi, zeta)
        passed = residual <= conjugacy_tolerance(params, pi, zeta)
        checks.append((f"conjugacy_regime{i}", passed, f"residual={residual:.3e}", None))

    est_m = verify_mod.martingale_factor_check(market, K, policy, ens)
    checks.append(
        (
            "state_price_martingale",
            abs(est_m.mean - 1.0) <= 3.0 * est_m.stderr,
            f"mean={est_m.mean:.8g} stderr={est_m.stderr:.3g}",
            est_m,
        )
    )

    est_b = verify_mod.budget_check(
        market, K, policy.pi, policy.consumption, policy, x, ens
    )
    checks.append(
        (
            "budget_equality_at_optimum",
            abs(est_b.mean) <= max(3.0 * est_b.stderr, 1e-10 * x),
            f"mean={est_b.mean:.3e} stderr={est_b.stderr:.3g}",
            est_b,
        )
    )

    if config.utility.is_log:
        dev_hv = verify_mod.state_price_wealth_identity(market, K, x, ens.rows(0, 200))
        checks.append(
            ("state_price_wealth_identity", dev_hv <= 1e-10, f"max_dev={dev_hv:.3e}", None)
        )
        inputs = regime_inputs(market, x, T, policy)
        semi = value_semianalytic(inputs, i0)
        est_v = verify_mod.mc_expected_utility(
            market, policy.pi, policy.consumption, config.utility, x, ens
        )
        checks.append(
            (
                "value_vs_monte_carlo",
                abs(est_v.mean - semi) <= 3.0 * est_v.stderr,
                f"semianalytic={semi:.8g} mc={est_v.mean:.8g} stderr={est_v.stderr:.3g}",
                est_v,
            )
        )
        coro = value_corollary(inputs, i0)
        checks.append(
            (
                "value_corollary_reported",
                None,  # reported, not asserted: the published display deviates
                f"corollary={coro:.8g} deviation={coro - semi:.6g}",
                None,
            )
        )

    rows = []
    all_passed = True
    for name, passed, detail, est in checks:
        if passed is None:
            status = "INFO"
        else:
            status = "PASS" if passed else "FAIL"
            all_passed &= passed
        print(f"{status} {name}: {detail}")
        rows.append(
            [
                name,
                status,
                est.mean if est else None,
                est.stderr if est else None,
                est.n_paths if est else None,
            ]
        )
    out = os.path.join(config.output_dir, "verify_report.csv")
    _write_csv(out, ["check", "status", "mean", "stderr", "n_paths"], rows, config)
    print(f"wrote {out}")
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpfolio",
        description="Optimal investment/consumption in pure-jump regime-switching markets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="YAML configuration file")
        p.add_argument("--gamma", type=float, help="override utility.gamma (implies power utility)")
        p.add_argument("--seed", type=int, help="override mc.seed")
        p.add_argument("--n-paths", type=int, help="override mc.n_paths")
        p.add_argument("--horizon", type=float, help="override horizon")
        p.add_argument("--wealth", type=float, help="override initial_wealth")
        p.add_argument(
            "--output-dir",
            help=f"override output_dir (default also honours ${OUTPUT_DIR_ENV})",
        )

    common(sub.add_parser("optimize", help="print the optimal policy per regime"))
    common(sub.add_parser("value", help="closed-form and Monte Carlo optimal value"))
    p_sim = sub.add_parser("simulate", help="write sample path CSVs under the optimal policy")
    common(p_sim)
    p_sim.add_argument("--paths", type=int, default=3, help="number of path CSVs")
    p_fig = sub.add_parser("figures", help="emit figure data as CSV")
    common(p_fig)
    p_fig.add_argument("--figure", type=int, required=True, choices=(1, 2, 3, 4))
    common(sub.add_parser("verify", help="run the optimality check suite"))
    return parser


def _overrides(args):
    out = {
        "mc.seed": args.seed,
        "mc.n_paths": args.n_paths,
        "horizon": args.horizon,
        "initial_wealth": args.wealth,
        "output_dir": args.output_dir,
    }
    if args.gamma is not None:
        out["utility.variant"] = "power" if args.gamma > 0 else "log"
        out["utility.gamma"] = args.gamma
    return out


COMMANDS = {
    "optimize": cmd_optimize,
    "value": cmd_value,
    "simulate": cmd_simulate,
    "figures": cmd_figures,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, _overrides(args))
        return COMMANDS[args.command](config, args)
    except (ConfigError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (
        ModelAssumptionError,
        InfeasiblePolicyError,
        DomainError,
        RangeError,
        BankruptcyError,
        RuinError,
        QuadratureError,
    ) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
