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
    NO_SHORTING,
    ExponentialPositive,
    MarketModel,
    PiecewiseLinearConcave,
    RegimeMarketParams,
    Utility,
    jump_columns,
    log_optimal_policy,
)
from jumpfolio.verify import (
    budget_mc,
    dual_log_mc,
    expected_utility_mc,
    martingale_mc,
    state_price_spec,
    sweep_estimates,
)

X0, T, SEED, N_PATHS = 1.0, 1.0, 20260823, 50_000

params = RegimeMarketParams(
    r=0.045, mu=-0.05, lam=1.0,
    dist=ExponentialPositive(10.0),
    margin=PiecewiseLinearConcave.differential_rates(0.045, 0.05),
)
market = MarketModel(regimes=(params, params), constraint=NO_SHORTING)
K = market.constraint
policy = log_optimal_policy(market, X0, T)
print(f"log-optimal weight: {policy.pi[0]:.10f} (case {policy.cases[0]})")


# one sample, drawn with the same seed for each sweep below, so every
# estimate sees the same randomness
def sample():
    return jump_columns(market.gen, 0, T, market.dists, N_PATHS, SEED)


# the policy's dual density, shared by every check that reads it
spec = state_price_spec(market, policy)

mart, budget, primal, dual = sweep_estimates(
    market,
    sample(),
    [
        martingale_mc(spec),
        budget_mc(market, spec, policy.pi, policy.consumption, X0, T),
        expected_utility_mc(market, policy.pi, policy.consumption, Utility.log(), X0, T),
        dual_log_mc(market, spec, X0, T),
    ],
)
print(
    f"martingale factor:  E[H_T V^(1,pi,0)_T] = {mart.mean:.8f} "
    f"+/- {mart.stderr:.2e}  (target 1)"
)
print(
    f"budget at optimum:  E[H_T V_T + int H c dt] - x = {budget.mean:.3e} "
    f"+/- {budget.stderr:.2e}  (target 0)"
)
print(f"primal utility:     {primal.mean:.8f} +/- {primal.stderr:.2e}")
print(f"dual functional:    {dual.mean:.8f} +/- {dual.stderr:.2e}")
print(f"duality gap:        {dual.mean - primal.mean:.3e}")

# a suboptimal weight leaves budget slack under the optimal state price;
# the perturbed pairs get their own sweep, which raises if any jump ruins one
print("\nbudget slack for perturbed weights (negative = strictly feasible):")
bumps = (-0.3, -0.1, 0.1, 0.3)
pairs = [tuple(np.clip(p + bump, K.lower, K.upper) for p in policy.pi) for bump in bumps]
slacks = sweep_estimates(
    market, sample(), [budget_mc(market, spec, pi, policy.consumption, X0, T) for pi in pairs]
)
for pi_sub, sub in zip(pairs, slacks):
    print(f"  pi = {pi_sub[0]:.4f}: slack {sub.mean:+.6f} +/- {sub.stderr:.2e}")
