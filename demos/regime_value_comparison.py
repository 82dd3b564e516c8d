"""Value of the log-investor's problem in a regime-switching market.

Computes the expected-utility value from both closed-form evaluations
(the semi-analytic chain-relaxation form and the shorter corollary-style
display) and cross-checks against Monte Carlo, from each starting regime.
"""

from jumpfolio import (
    DifferentialRates,
    ExponentialNegative,
    ExponentialPositive,
    GeneratorMatrix,
    MarketModel,
    RegimeMarketParams,
    ShortRebate,
    Utility,
    log_optimal_policy,
    mc_expected_utility,
    regime_inputs,
    simulate_ensemble,
)
from jumpfolio.regime_value import value_comparison

X0, T, SEED, N_PATHS = 1.0, 1.0, 20260823, 100_000

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
inputs = regime_inputs(market, X0, T, policy)
print(f"optimal weights by regime: {policy.pi[0]:.6f}, {policy.pi[1]:.6f}")

for i0 in (0, 1):
    comp = value_comparison(inputs, i0)
    ens = simulate_ensemble(market.gen, i0, T, market.dists, N_PATHS, SEED)
    mc = mc_expected_utility(market, policy.pi, policy.consumption, Utility.log(), X0, ens)
    semi, coro, dev = comp["semianalytic"], comp["corollary"], comp["deviation"]
    z = (mc.mean - semi) / mc.stderr
    print(f"\nstarting regime {i0}:")
    print(f"  semi-analytic value: {semi:.8f}")
    print(f"  corollary display:   {coro:.8f} (deviation {dev:+.3e})")
    print(f"  monte carlo:         {mc.mean:.8f} +/- {mc.stderr:.2e} "
          f"(z = {z:+.2f} vs semi-analytic)")
