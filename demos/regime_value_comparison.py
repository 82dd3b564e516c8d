"""Value of per-regime weights in a regime-switching market.

From each starting regime: the exact value of the log-optimal policy, the
published corollary display (which deviates from it), and the exact value
of the per-regime power weights at gamma = 0.5, each cross-checked against
Monte Carlo.
"""

from jumpfolio import (
    ExponentialNegative,
    ExponentialPositive,
    MarketModel,
    PiecewiseLinearConcave,
    RegimeMarketParams,
    Utility,
    exact_value,
    jump_columns,
    log_optimal_policy,
    mean_log_growth,
    power_optimal_policy,
    value_corollary,
)
from jumpfolio.verify import expected_utility_mc, sweep_estimates

X0, T, SEED, N_PATHS = 1.0, 1.0, 20260823, 100_000

market = MarketModel(
    regimes=(
        RegimeMarketParams(
            r=0.045, mu=-0.05, lam=1.0,
            dist=ExponentialPositive(10.0),
            margin=PiecewiseLinearConcave.differential_rates(0.045, 0.05),
        ),
        RegimeMarketParams(
            r=0.03, mu=0.07, lam=2.0,
            dist=ExponentialNegative(10.0),
            margin=PiecewiseLinearConcave.short_rebate(0.03, 0.05),
        ),
    ),
)

log_policy = log_optimal_policy(market, X0, T)
power_policy = power_optimal_policy(market, 0.5)
d_bar = mean_log_growth(market, [log_policy.pi])[0]
print(f"log-optimal weights by regime: {log_policy.pi[0]:.6f}, {log_policy.pi[1]:.6f}")
print(f"myopic power weights (gamma = 0.5): {power_policy.pi[0]:.6f}, {power_policy.pi[1]:.6f}")

values = (
    ("log optimal value", Utility.log(), log_policy),
    ("power value, myopic weights", Utility.power(0.5), power_policy),
)
for i0 in (0, 1):
    # both values are estimated from one sweep of one sample
    estimates = sweep_estimates(
        market,
        jump_columns(market.gen, i0, T, market.dists, N_PATHS, SEED),
        [expected_utility_mc(market, pol.pi, pol.consumption, u, X0, T) for _, u, pol in values],
    )
    print(f"\nstarting regime {i0}:")
    for (label, utility, policy), mc in zip(values, estimates):
        exact = exact_value(market, utility, X0, T, [policy.pi], i0)[0]
        z = (mc.mean - exact) / mc.stderr
        print(f"  {label}: exact {exact:.8f}, monte carlo {mc.mean:.8f} "
              f"+/- {mc.stderr:.2e} (z = {z:+.2f})")
        if utility.is_log:
            coro = value_corollary(market.gen, d_bar, X0, T, i0)
            print(f"  published corollary display: {coro:.8f} (deviation {coro - exact:+.3e})")
