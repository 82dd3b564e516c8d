"""Closed-form optimal value for the regime-switching log-utility model.

Two evaluations are provided side by side.  ``value_corollary`` is the
published two-regime display evaluated verbatim.  ``value_semianalytic``
integrates the mean log-wealth drift against the chain's transition
probabilities from scratch and is the independent oracle: the two
disagree in sign and in one coefficient (see the comparison helpers and
the Monte Carlo check in the verification layer, which arbitrates in
favour of the semi-analytic form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, InfeasiblePolicyError
from .frictions import effective_domain
from .market import MarketModel, _log_jump, _wealth_terms
from .mpp import GeneratorMatrix
from .policy import (
    Policy,
    conjugacy_tolerance,
    feasible_weight_interval,
    log_optimal_policy,
    verify_conjugacy,
)


@dataclass(frozen=True)
class RegimeValueInputs:
    """Per-regime log growth rates and chain mixing data for the value formulas."""

    lambda0: float
    lambda1: float
    d_bar: tuple  # per-regime mean log-wealth growth rate
    horizon: float
    initial_wealth: float

    def __post_init__(self):
        if self.lambda0 + self.lambda1 <= 0:
            raise ConfigError("degenerate generator: lambda0 + lambda1 must be positive")
        if self.horizon <= 0 or self.initial_wealth <= 0:
            raise ConfigError("horizon and wealth must be positive")


def regime_inputs(market: MarketModel, x: float, T: float, policy: Policy | None = None) -> RegimeValueInputs:
    """Assemble value-formula inputs, checking the three optimality conditions.

    Condition (i): eta finite; (ii): zeta in the conjugate domain;
    (iii): conjugacy holds within ``policy.conjugacy_tolerance``.
    """
    if market.transform != "exponential":
        raise ConfigError("regime value formulas assume the exponential jump transform")
    if policy is None:
        policy = log_optimal_policy(market, x, T)
    K = market.constraint
    drift, _ = _wealth_terms(market, policy.pi)
    d = []
    for i, params in enumerate(market.regimes):
        pi = policy.pi[i]
        lo, hi, lo_closed, hi_closed = feasible_weight_interval(params)
        inside = (lo < pi < hi) or (pi == lo and lo_closed) or (pi == hi and hi_closed)
        if not inside:
            y_lo, y_hi = params.dist.support()
            bad = y_lo if pi > 0 else y_hi
            raise InfeasiblePolicyError(
                f"regime {i}: 1 + pi*(e^y - 1) <= 0 near support point y = {bad:.6g}"
            )
        eta_i = params.dist.expect(_log_jump(market.transform, pi))
        if not math.isfinite(eta_i):
            raise InfeasiblePolicyError(f"regime {i}: eta integral diverges")
        zeta_i = policy.zeta[i]
        dom = effective_domain(params.margin, K)
        if not dom[0] - 1e-12 <= zeta_i <= dom[1] + 1e-12:
            raise InfeasiblePolicyError(
                f"regime {i}: zeta = {zeta_i:.6g} outside domain [{dom[0]:.6g}, {dom[1]:.6g}]"
            )
        residual = verify_conjugacy(params.margin, K, pi, zeta_i)
        bound = conjugacy_tolerance(params, pi, zeta_i)
        if residual > bound:
            raise InfeasiblePolicyError(
                f"regime {i}: conjugacy residual {residual:.3e} exceeds {bound:.3e}"
            )
        # mean log-growth rate of the gross wealth in regime i
        d.append(drift[i] + params.lam * eta_i)
    return RegimeValueInputs(
        lambda0=market.gen.lambda0,
        lambda1=market.gen.lambda1,
        d_bar=tuple(d),
        horizon=T,
        initial_wealth=x,
    )


def value_corollary(inputs: RegimeValueInputs, start_regime: int) -> float:
    """Published closed form for the optimal value, evaluated verbatim."""
    if start_regime not in (0, 1):
        raise ConfigError("start regime must be 0 or 1")
    T = inputs.horizon
    x = inputs.initial_wealth
    lam0, lam1 = inputs.lambda0, inputs.lambda1
    two_lam = lam0 + lam1
    d0, d1 = inputs.d_bar
    head = (T + 1.0) * math.log(x) - (T + 1.0) * math.log(T + 1.0)
    sym = (lam1 * d0 + lam0 * d1) * (T + T * T / 2.0)
    bracket = T + (1.0 - math.exp(-two_lam * T)) * (1.0 + 1.0 / two_lam)
    lam_i = lam0 if start_regime == 0 else lam1
    sign = 1.0 if start_regime == 0 else -1.0
    return head - (sym + sign * lam_i * (d0 - d1) / two_lam * bracket) / two_lam


def value_semianalytic(inputs: RegimeValueInputs, start_regime: int) -> float:
    """Independent value: integrate the mean log-wealth drift along the chain
    (``log_value``)."""
    if start_regime not in (0, 1):
        raise ConfigError("start regime must be 0 or 1")
    gen = GeneratorMatrix(inputs.lambda0, inputs.lambda1)
    x, T = inputs.initial_wealth, inputs.horizon
    return float(log_value(gen, inputs.d_bar, x, T, start_regime))


def log_value(gen: GeneratorMatrix, d_bar, x, T, start_regime):
    """J of per-regime constant weights under log utility with the
    log-optimal consumption rule: (T+1) log(x/(T+1)) + sum_i d_bar_i w_i.

    d_bar_i is the mean log-growth rate of gross wealth in regime i, and
    w_i the occupation of regime i weighted by 1 + T - s
    (``GeneratorMatrix.occupation``): the running-consumption term weights
    the growth up to s by the time left, and the terminal term by 1.  Each
    d_bar_i may be an array, one entry per weight.
    """
    _, w = gen.occupation(start_regime, T)
    return (T + 1.0) * math.log(x / (T + 1.0)) + d_bar[0] * w[0] + d_bar[1] * w[1]


def value_comparison(inputs: RegimeValueInputs, start_regime: int):
    """Both evaluations and their difference, for reporting."""
    a = value_corollary(inputs, start_regime)
    b = value_semianalytic(inputs, start_regime)
    return {"corollary": a, "semianalytic": b, "deviation": a - b}
