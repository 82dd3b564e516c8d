"""Optimal investment and consumption in pure-jump regime-switching markets.

The market is driven by a marked point process whose events are the
jumps of a two-state Markov chain; wealth dynamics carry concave
piecewise-linear frictions (borrowing spreads, short rebates).  Optimal
policies come from convex duality in closed or semi-closed form, and the
verification layer checks them in closed form and by Monte Carlo.
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
    PiecewiseLinearConcave,
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
    log_optimal_consumption,
    stock_path,
    wealth_path,
)
from .mpp import (
    ColumnStream,
    GeneratorMatrix,
    PathEnsemble,
    jump_columns,
    simulate_ensemble,
)
from .policy import (
    Policy,
    RegimeOptimum,
    Utility,
    feasible_weight_interval,
    h_value,
    log_optimal_policy,
    power_optimal_policy,
)
from .regime_value import (
    exact_value,
    mean_log_growth,
    value_corollary,
)
from .verify import (
    McEstimate,
    state_price_wealth_identity,
)
from .config import RunConfig, config_hash, load_config

__version__ = "0.1.0"
