"""Optimal investment and consumption in pure-jump regime-switching markets.

The market is driven by a marked point process whose events are the
jumps of a two-state Markov chain; wealth dynamics carry concave
piecewise-linear frictions (borrowing spreads, short rebates).  Optimal
policies come from convex duality in closed or semi-closed form, and the
verification layer checks them pathwise and by Monte Carlo.
"""

from .distributions import (
    ExponentialNegative,
    ExponentialPositive,
    JumpDistribution,
    Tabulated,
    TwoPoint,
)
from .errors import (
    BankruptcyError,
    BracketLimitError,
    ConfigError,
    DomainError,
    InfeasiblePolicyError,
    JumpfolioError,
    ModelAssumptionError,
    QuadratureError,
    RangeError,
    RuinError,
)
from .frictions import (
    NO_BORROWING,
    NO_SHORTING,
    ConstraintSet,
    DifferentialRates,
    Frictionless,
    MarginModel,
    PiecewiseLinearConcave,
    ShortRebate,
    conjugate_gk,
    effective_domain,
)
from .market import (
    ConsumptionRule,
    MarketModel,
    ProportionalConsumption,
    RegimeMarketParams,
    WealthPath,
    ZeroConsumption,
    export_path_csv,
    jump_transform,
    log_optimal_consumption,
    stock_path,
    wealth_path,
)
from .mpp import (
    GeneratorMatrix,
    PathEnsemble,
    simulate_ensemble,
)
from .policy import (
    Policy,
    RegimeOptimum,
    Utility,
    feasible_weight_interval,
    h_derivative,
    h_inverse,
    h_value,
    log_optimal_policy,
    optimal_portfolio,
    power_optimal_policy,
    verify_conjugacy,
)
from .regime_value import (
    regime_inputs,
    value_corollary,
    value_semianalytic,
)
from .verify import (
    McEstimate,
    budget_check,
    dual_functional_log,
    ensemble_functionals,
    grid_search_constant_portfolio,
    martingale_factor_check,
    mc_expected_utility,
    state_price_wealth_identity,
)
from .config import RunConfig, config_hash, load_config, parse_config

__version__ = "0.1.0"
