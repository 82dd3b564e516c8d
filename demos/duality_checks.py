"""Monte Carlo verification of the duality structure at the log optimum.

Checks, on a single-regime borrowing-spread market:
  * the state-price density times gross wealth is a martingale (mean 1),
  * the budget constraint is saturated at the optimal policy,
  * the dual functional evaluated at the optimal state price equals the
    primal expected utility,
and shows the budget slackening when the portfolio weight is perturbed.
"""

import numpy as np

from jumpfolio import (
    DifferentialRates,
    ExponentialPositive,
    GeneratorMatrix,
    MarketModel,
    RegimeMarketParams,
    Utility,
    budget_check,
    dual_functional_log,
    log_optimal_policy,
    martingale_factor_check,
    mc_expected_utility,
    simulate_ensemble,
)
from jumpfolio.verify import state_price_spec

X0, T, SEED, N_PATHS = 1.0, 1.0, 20260823, 50_000

params = RegimeMarketParams(
    r=0.045, mu=-0.05, lam=1.0,
    dist=ExponentialPositive(10.0),
    margin=DifferentialRates(0.045, 0.05),
)
market = MarketModel(
    gen=GeneratorMatrix(1.0, 1.0),
    regimes=(params, params),
    constraint=params.margin.canonical_constraint(),
)
K = market.constraint
policy = log_optimal_policy(market, X0, T)
print(f"log-optimal weight: {policy.pi[0]:.10f} (case {policy.cases[0]})")

# one shared ensemble so every estimate below sees the same randomness
ens = simulate_ensemble(market.gen, 0, T, market.dists, N_PATHS, SEED)
# the policy's dual density, shared by every check that reads it
spec = state_price_spec(market, K, policy)

mart = martingale_factor_check(market, spec, ens)
print(
    f"martingale factor:  E[H_T V^(1,pi,0)_T] = {mart.mean:.8f} "
    f"+/- {mart.stderr:.2e}  (target 1)"
)

budget = budget_check(market, spec, policy.pi, policy.consumption, X0, ens)
print(
    f"budget at optimum:  E[H_T V_T + int H c dt] - x = {budget.mean:.3e} "
    f"+/- {budget.stderr:.2e}  (target 0)"
)

primal = mc_expected_utility(market, policy.pi, policy.consumption, Utility.log(), X0, ens)
dual = dual_functional_log(market, spec, X0, ens)
print(f"primal utility:     {primal.mean:.8f} +/- {primal.stderr:.2e}")
print(f"dual functional:    {dual.mean:.8f} +/- {dual.stderr:.2e}")
print(f"duality gap:        {dual.mean - primal.mean:.3e}")

# a suboptimal weight leaves budget slack under the optimal state price
print("\nbudget slack for perturbed weights (negative = strictly feasible):")
for bump in (-0.3, -0.1, 0.1, 0.3):
    pi_sub = tuple(np.clip(p + bump, K.lower, K.upper) for p in policy.pi)
    sub = budget_check(market, spec, pi_sub, policy.consumption, X0, ens)
    print(f"  pi = {pi_sub[0]:.4f}: slack {sub.mean:+.6f} +/- {sub.stderr:.2e}")
