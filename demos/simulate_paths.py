"""Simulate wealth paths under the log-optimal policy in a two-regime market.

Builds a market whose regimes alternate between a borrowing-spread phase with
upward jumps and a short-rebate phase with downward jumps, solves for the
log-optimal weights, and simulates a handful of paths.  Each path is exported
as a CSV (time, regime, stock, gross wealth, consumption factor, wealth).
"""

import os

import numpy as np

from jumpfolio import (
    DifferentialRates,
    ExponentialNegative,
    ExponentialPositive,
    GeneratorMatrix,
    MarketModel,
    RegimeMarketParams,
    ShortRebate,
    export_path_csv,
    log_optimal_policy,
    simulate_paths,
    stock_path,
    wealth_path,
)

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "output")
os.makedirs(OUT, exist_ok=True)

X0, T, SEED, N_PATHS = 1.0, 1.0, 20260823, 5

market = MarketModel(
    gen=GeneratorMatrix(1.0, 2.0),
    regimes=(
        RegimeMarketParams(
            r=0.045, mu=-0.05, lam=1.0,
            dist=ExponentialPositive(10.0),
            margin=DifferentialRates(0.045, 0.05),
        ),
        RegimeMarketParams(
            r=0.03, mu=0.07, lam=2.0,
            dist=ExponentialNegative(10.0),
            margin=ShortRebate(0.03, 0.05),
        ),
    ),
)

policy = log_optimal_policy(market, X0, T)
print(f"log-optimal weights by regime: {policy.pi[0]:.6f}, {policy.pi[1]:.6f}")

paths = simulate_paths(market.gen, 0, T, market.dists, N_PATHS, SEED)
terminal = []
for k, path in enumerate(paths):
    wp = wealth_path(X0, market, policy.pi, policy.consumption, path)
    _, stock = stock_path(market, path, s0=1.0)
    out = os.path.join(OUT, f"path_{k:03d}.csv")
    with open(out, "w") as fh:
        export_path_csv(wp, stock, fh, comment_lines=(f"seed={SEED} path={k}",))
    terminal.append(wp.V[-1])
    print(
        f"path {k}: {path.marks.size} jumps, terminal wealth {wp.V[-1]:.6f} "
        f"-> {out}"
    )

print(f"mean terminal wealth over {N_PATHS} paths: {np.mean(terminal):.6f}")
