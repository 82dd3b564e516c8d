"""Command-line entry point.

Subcommands: optimize, value, simulate, figures, verify.  Each reads one
YAML config (schema documented in the config module), with selected
fields overridable by flags.  ``value`` prints, and ``verify`` checks,
one run of the value stages (``_value_stages``): the draw, one sweep of
the utility level and verify's checks, the exact J and the log corollary.
Exit codes: 0 success, 1 validation error,
2 infeasible model, 3 verification failure.  All CSV output carries a
provenance comment (config hash + seed) and 17-significant-digit
formatting.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .config import OUTPUT_DIR_ENV, RunConfig, config_hash, load_config
from .errors import (
    BracketLimitError,
    ConfigError,
    DomainError,
    InfeasiblePolicyError,
    JumpfolioError,
    ModelAssumptionError,
    QuadratureError,
    RangeError,
)
from .market import block_rows, export_path_csv, wealth_path
from .mpp import jump_columns, simulate_ensemble
from .policy import Policy, h_value, log_optimal_policy, optimal_portfolio, power_optimal_policy
from .regime_value import exact_value, mean_log_growth, value_corollary
from . import verify as verify_mod

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY_FAILED = 3

FIGURE_GAMMAS = (0.0, 0.25, 0.5, 0.75, 0.9)


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


def _within_noise(est, target) -> bool:
    """|mean - target| <= 3 stderr, the stderr floored at 1e-12 max(1, |target|):
    the rounding of a mean and a target that agree, so a constant sample
    (stderr 0 up to rounding) is judged by that rounding, not bit equality."""
    return abs(est.mean - target) <= 3.0 * max(est.stderr, 1e-12 * max(1.0, abs(target)))


def _myopic_label(config: RunConfig, where="") -> str | None:
    """The per-regime power weights are optimal only when the chain cannot
    change the market: their label where the regimes differ, else None."""
    if not config.utility.is_log and config.market.regimes[0] != config.market.regimes[1]:
        gamma = config.utility.gamma
        return (
            f"per-regime myopic policy (power gamma={gamma:g}){where}; "
            "not the optimal value, since the regimes differ"
        )


def _value_stages(config: RunConfig, policy: Policy, checks=()):
    """The value stages of value and verify: draw the sample; sweep the
    utility level with checks in one sweep (no estimate depends on the
    levels swept with it); the exact J from the start regime; for log
    utility the corollary.  Returns the checks' estimates, the level's
    estimate, J and the corollary (None for power and where undefined)."""
    market, utility = config.market, config.utility
    x, T, i0 = config.initial_wealth, config.horizon, config.initial_state
    blocks = jump_columns(market.gen, i0, T, market.dists, config.n_paths, config.seed)
    level = verify_mod.expected_utility_mc(market, policy.pi, policy.consumption, utility, x, T)
    *estimates, est = verify_mod.sweep_estimates(market, blocks, [*checks, level])
    exact = float(exact_value(market, utility, x, T, [policy.pi], i0)[0])
    if not math.isfinite(exact):  # a typed error, not a printed nan
        raise InfeasiblePolicyError(f"the solved weights have no finite value from regime {i0}")
    coro = None
    if utility.is_log:
        coro = value_corollary(market.gen, mean_log_growth(market, [policy.pi])[0], x, T, i0)
    return estimates, est, exact, coro


def cmd_optimize(config: RunConfig, args) -> int:
    policy = _solve_policy(config)
    label = _myopic_label(config)
    if label is None:
        kind = "log" if config.utility.is_log else f"power gamma={config.utility.gamma:g}"
        label = f"optimal policy ({kind} utility)"
    print(label)
    for i, cert in enumerate(policy.certs):
        print(
            f"  regime {i}: pi_hat={policy.pi[i]:.12g} case={policy.cases[i]} "
            f"zeta_hat={cert.zeta:.12g} conjugacy_residual={cert.residual:.3e}"
        )
    return EXIT_OK


def cmd_value(config: RunConfig, args) -> int:
    utility, i0 = config.utility, config.initial_state
    _, est, exact, coro = _value_stages(config, _solve_policy(config))
    if utility.is_log:
        print(f"optimal value, start regime {i0}:")
        print(f"  semianalytic  {exact:.12g}")
        if coro is None:
            print("  corollary     undefined at lambda0 + lambda1 = 0")
        else:
            print(f"  corollary     {coro:.12g}  (deviation {coro - exact:.6g})")
    else:
        myopic = _myopic_label(config, f", start regime {i0}")
        if myopic is None:
            print(f"optimal value (power gamma={utility.gamma:g}), start regime {i0}:")
        else:
            print(f"value of the {myopic}:")
        print(f"  exact         {exact:.12g}")
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
    # a block's CSVs are written, and its table dropped, before the next
    # block is evaluated
    step = block_rows(ens)
    for lo in range(0, args.paths, step):
        rows = ens.rows(lo, lo + step)
        try:
            wp = wealth_path(
                config.initial_wealth, config.market, policy.pi, policy.consumption, rows
            )
        except DomainError as exc:  # its row counts from the block's first path
            raise DomainError(f"paths {lo} to {lo + rows.n_paths - 1}: {exc}") from exc
        for p, events in enumerate(rows.counts.tolist()):
            k = lo + p
            out = os.path.join(config.output_dir, f"path_{k:03d}.csv")
            with open(out, "w") as fh:
                export_path_csv(wp.row(p), fh, comment_lines=(f"{provenance} path={k}",))
            print(f"wrote {out} ({events} events)")
        del wp
    return EXIT_OK


def cmd_figures(config: RunConfig, args) -> int:
    os.makedirs(config.output_dir, exist_ok=True)
    fig, i0 = args.figure, config.initial_state
    params, K = config.market.regimes[i0], config.market.constraint
    out = os.path.join(config.output_dir, f"fig{fig}.csv")
    rows, footnotes = [], []
    if fig in (1, 3):
        grid = np.linspace(0.0, 2.0, 201) if fig == 1 else np.linspace(-12.0, 1.0, 201)
        header = ["pi"] + [f"h_gamma{g:g}" for g in FIGURE_GAMMAS]
        for pi in grid:
            row = [float(pi)]
            for g in FIGURE_GAMMAS:
                try:
                    row.append(h_value(params, g, float(pi)))
                except (DomainError, QuadratureError, FloatingPointError):
                    row.append(None)
                    if not footnotes:
                        footnotes.append("empty cells: h undefined at this (pi, gamma)")
            rows.append(row)
    elif fig in (2, 4):
        header = ["gamma", "pi_hat", "case"]
        # only the printed regime is solved: the other cannot empty a row
        for g in np.linspace(0.0, 0.99, 200):
            try:
                opt = optimal_portfolio(params, K, float(g))
                rows.append([float(g), opt.pi, opt.case])
            except (InfeasiblePolicyError, RangeError, ModelAssumptionError) as exc:
                rows.append([float(g), None, None])
                if isinstance(exc, BracketLimitError):
                    note = "empty cells: optimum beyond bracket at this gamma"
                else:
                    note = "empty cells: no admissible optimum at this gamma"
                if note not in footnotes:
                    footnotes.append(note)
    else:
        raise ConfigError("figure id must be 1, 2, 3 or 4")
    _write_csv(out, header, rows, config, footnotes)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_verify(config: RunConfig, args) -> int:
    os.makedirs(config.output_dir, exist_ok=True)
    market = config.market
    x, T = config.initial_wealth, config.horizon
    policy = _solve_policy(config)

    checks = []  # (name, passed or None if only reported, detail, estimate or None)

    for i, cert in enumerate(policy.certs):
        checks.append(
            (f"conjugacy_regime{i}", cert.residual <= cert.bound, f"residual={cert.residual:.3e}", None)
        )

    # one dual density and one sweep of the sample (common random numbers)
    # serve every Monte Carlo check and the value
    spec = verify_mod.state_price_spec(market, policy)
    mc_checks = [verify_mod.martingale_mc(spec)]
    if not config.utility.is_log:
        mc_checks.append(verify_mod.budget_mc(market, spec, policy.pi, policy.consumption, x, T))
    (est_m, *budget), est_v, semi, coro = _value_stages(config, policy, mc_checks)
    checks.append(
        (
            "state_price_martingale",
            _within_noise(est_m, 1.0),
            f"mean={est_m.mean:.8g} stderr={est_m.stderr:.3g}",
            est_m,
        )
    )
    if config.utility.is_log:
        # the budget level log(H V) has no jump at the log optimum, so it is
        # bounded in closed form instead of sampled
        dev_hv = verify_mod.state_price_wealth_identity(market, spec, T)
        checks.append(
            ("state_price_wealth_identity", dev_hv <= 1e-10, f"max_dev={dev_hv:.3e}", None)
        )
    else:
        (est_b,) = budget
        checks.append(
            (
                "budget_equality_at_optimum",
                abs(est_b.mean) <= max(3.0 * est_b.stderr, 1e-10 * x),
                f"mean={est_b.mean:.3e} stderr={est_b.stderr:.3g}",
                est_b,
            )
        )
    checks.append(
        (
            "value_vs_monte_carlo",
            _within_noise(est_v, semi),
            f"semianalytic={semi:.8g} mc={est_v.mean:.8g} stderr={est_v.stderr:.3g}",
            est_v,
        )
    )
    if config.utility.is_log:
        checks.append(
            (
                "value_corollary_reported",
                None,  # reported, not asserted: the published display deviates
                "undefined at lambda0 + lambda1 = 0"
                if coro is None
                else f"corollary={coro:.8g} deviation={coro - semi:.6g}",
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
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except JumpfolioError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
