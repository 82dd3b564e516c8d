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
from .policy import (
    Policy,
    feasible_weight_interval,
    log_optimal_policy,
    verify_conjugacy,
)


@dataclass(frozen=True)
class RegimeValueInputs:
    """Per-regime log growth rates and chain mixing data for the value formulas."""

    lambda_bar: float  # (lambda0 + lambda1) / 2
    lambda0: float
    lambda1: float
    d_bar: tuple  # per-regime mean log-wealth growth rate
    eta_bar: tuple  # per-regime E[ln(1 + pi (e^Y - 1))]
    pi_bar: tuple
    zeta_bar: tuple
    horizon: float
    initial_wealth: float

    def __post_init__(self):
        if self.lambda_bar <= 0:
            raise ConfigError("degenerate generator: lambda_bar must be positive")
        if self.horizon <= 0 or self.initial_wealth <= 0:
            raise ConfigError("horizon and wealth must be positive")


def regime_inputs(market: MarketModel, x: float, T: float, policy: Policy | None = None) -> RegimeValueInputs:
    """Assemble value-formula inputs, checking the three optimality conditions.

    Condition (i): eta finite; (ii): zeta in the conjugate domain;
    (iii): conjugacy holds with residual <= 1e-9.
    """
    if market.transform != "exponential":
        raise ConfigError("regime value formulas assume the exponential jump transform")
    if policy is None:
        policy = log_optimal_policy(market, x, T)
    K = market.constraint
    drift, _ = _wealth_terms(market, policy.pi)
    eta = []
    d = []
    zeta = []
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
        if residual > 1e-9:
            raise InfeasiblePolicyError(
                f"regime {i}: conjugacy residual {residual:.3e} exceeds 1e-9"
            )
        # mean log-growth rate of the gross wealth in regime i
        d_i = drift[i] + params.lam * eta_i
        eta.append(eta_i)
        d.append(d_i)
        zeta.append(zeta_i)
    gen = market.gen
    return RegimeValueInputs(
        lambda_bar=gen.lambda_bar,
        lambda0=gen.lambda0,
        lambda1=gen.lambda1,
        d_bar=tuple(d),
        eta_bar=tuple(eta),
        pi_bar=tuple(policy.pi),
        zeta_bar=tuple(zeta),
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
    """Independent value: integrate the mean log-wealth drift along the chain.

    E[d(eps_s) | eps_0 = i] relaxes exponentially to the stationary mean
    at rate lambda0 + lambda1, so both the running-consumption and the
    terminal term integrate in closed form.
    """
    if start_regime not in (0, 1):
        raise ConfigError("start regime must be 0 or 1")
    T = inputs.horizon
    x = inputs.initial_wealth
    lam0, lam1 = inputs.lambda0, inputs.lambda1
    two_lam = lam0 + lam1
    d0, d1 = inputs.d_bar
    d_stat = (lam1 * d0 + lam0 * d1) / two_lam
    d_start = d0 if start_regime == 0 else d1
    dev = d_start - d_stat

    # D(t) = int_0^t E[d(eps_s)] ds
    decay_T = (1.0 - math.exp(-two_lam * T)) / two_lam
    D_T = d_stat * T + dev * decay_T
    int_D = d_stat * T * T / 2.0 + dev * (T - decay_T) / two_lam

    return (T + 1.0) * math.log(x / (T + 1.0)) + int_D + D_T


def value_comparison(inputs: RegimeValueInputs, start_regime: int):
    """Both evaluations and their difference, for reporting."""
    a = value_corollary(inputs, start_regime)
    b = value_semianalytic(inputs, start_regime)
    return {"corollary": a, "semianalytic": b, "deviation": a - b}
