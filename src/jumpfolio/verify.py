"""Monte Carlo and pathwise verification of the duality machinery.

Every level here is described the same way: a per-regime linear
log-drift plus a per-jump log factor.  On a path ensemble, gross wealth,
the state-price process and every mixed integral of the two are
accumulated column by column over the padded arrays
(``ensemble_functionals``); at reporting-grid times the market layer's
engine evaluates the same description on a block of ensemble rows, given
the state-price drift and jump logs of ``StatePriceSpec``.  Portfolio
weights are per-regime constants.

Every check is a function of the sample it is given: the Monte Carlo
checks take a ``PathEnsemble`` (horizon, start regime and seed included)
and the pathwise identity the rows to check (``PathEnsemble.rows``),
whose log levels it compares in one engine call per level.  A caller
draws a sample once and passes it to every check (common random
numbers).  Reductions run in fixed path order, so estimates are
bit-reproducible.
The grid search simulates nothing: for weights constant in each regime,
J is exact (``regime_value.exact_value``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, InfeasiblePolicyError
from .frictions import ConstraintSet
from .market import (
    ConsumptionRule,
    MarketModel,
    _path_log_level,
    _report_grid,
    _wealth_terms,
)
from .mpp import PathEnsemble
from .policy import Policy, Utility, certify, feasible_weight_interval, log_optimal_policy
from .regime_value import exact_value


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error; reproducible per seed."""

    mean: float
    stderr: float
    n_paths: int
    seed: object


def _estimate(samples, seed):
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < 2:
        raise ConfigError(f"a standard error needs two paths, got {n}")
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / math.sqrt(n))
    return McEstimate(mean=mean, stderr=stderr, n_paths=n, seed=seed)


# ---------------------------------------------------------------------------
# the column-sweep functional engine
# ---------------------------------------------------------------------------


def ensemble_functionals(
    ens: PathEnsemble,
    drift_by_state,
    jump_log_by_state,
    want_int_log=False,
    want_int_exp=False,
    exp_coeff=1.0,
):
    """Accumulate per-path log-level functionals over the padded ensemble.

    The log level starts at 0, grows linearly at drift_by_state[i] on
    each inter-jump segment and jumps by jump_log_by_state[i](mark).
    Returns final_log always; optionally int_0^T log dt and
    int_0^T exp(exp_coeff * log) dt, all exact per segment.
    """
    n, m = ens.times.shape
    T = ens.horizon
    drift = np.asarray(drift_by_state, dtype=float)

    level = np.zeros(n)
    t_prev = np.zeros(n)
    int_log = np.zeros(n) if want_int_log else None
    int_exp = np.zeros(n) if want_int_exp else None
    invalid = np.zeros(n, dtype=bool)

    for j in range(m + 1):
        state = ens.column_state(j)
        a = drift[state]
        if j < m:
            t_next = np.minimum(ens.times[:, j], T)
        else:
            t_next = np.full(n, T)
        dt = t_next - t_prev
        if want_int_log:
            int_log += level * dt + 0.5 * a * dt * dt
        if want_int_exp:
            c = exp_coeff
            ca = c * a
            if abs(ca) < 1e-14:
                seg = np.exp(c * level) * dt
            else:
                seg = np.exp(c * level) * np.expm1(ca * dt) / ca
            int_exp += seg
        level = level + a * dt
        if j < m:
            active = ens.times[:, j] <= T
            if np.any(active):
                with np.errstate(divide="ignore", invalid="ignore"):
                    jl = jump_log_by_state[state](ens.marks[:, j])
                jl = np.where(active, jl, 0.0)
                bad = active & ~np.isfinite(jl)
                invalid |= bad
                level = level + np.where(bad, 0.0, jl)
        t_prev = t_next

    out = {"final_log": level, "invalid": invalid}
    if want_int_log:
        out["int_log"] = int_log
    if want_int_exp:
        out["int_exp"] = int_exp
    return out


def _valid_functionals(ens, drift_by_state, jump_log_by_state, **kwargs):
    """ensemble_functionals, raising if a jump log is not finite on some path."""
    res = ensemble_functionals(ens, drift_by_state, jump_log_by_state, **kwargs)
    if np.any(res["invalid"]):
        raise InfeasiblePolicyError("a jump made 1 + pi*f nonpositive on some path")
    return res


# ---------------------------------------------------------------------------
# state-price process
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatePriceSpec:
    """Per-regime data of the dual density H: jump tilt phi, its dual
    variable zeta, compensator integral and conjugate value."""

    phi: tuple  # callables of the mark, per regime
    zeta: tuple
    compensator: tuple  # lam_i * int (phi_i - 1) F_i(dy)
    gk: tuple  # conjugate value at zeta_i

    def drift(self, market):
        return [
            -(market.regimes[i].r + self.gk[i] + self.compensator[i]) for i in (0, 1)
        ]

    def jump_logs(self):
        return [lambda y, f=self.phi[i]: np.log(f(y)) for i in (0, 1)]


def state_price_spec(market: MarketModel, K: ConstraintSet, policy: Policy) -> StatePriceSpec:
    """Build the candidate dual density from a policy:
    phi_i(y) = 1 / [1 + pi_i f(y)]^(1-gamma)."""
    f, gamma = market.f, policy.gamma
    phis, certs, comps = [], [], []
    for i, params in enumerate(market.regimes):
        pi = policy.pi[i]
        phi = lambda y, p=pi: 1.0 / (1.0 + p * f(y)) ** (1.0 - gamma)
        # h(pi) = mu + lam int f phi F(dy), so phi's dual variable is the
        # certificate's zeta = r - h(pi), and gk its conjugate value
        try:
            certs.append(certify(params, K, gamma, pi))
        except DomainError as exc:
            raise DomainError(f"regime {i}: {exc}") from exc
        phis.append(phi)
        comps.append(params.lam * params.dist.expect(lambda y: phi(y) - 1.0, tol=1e-13))
    return StatePriceSpec(
        phi=tuple(phis),
        zeta=tuple(c.zeta for c in certs),
        compensator=tuple(comps),
        gk=tuple(c.gk for c in certs),
    )


# ---------------------------------------------------------------------------
# Monte Carlo checks
# ---------------------------------------------------------------------------


def martingale_factor_check(market, K, policy, ens: PathEnsemble) -> McEstimate:
    """E[H_T * exp(int (r + gk))] for the policy's dual density; target 1."""
    spec = state_price_spec(market, K, policy)
    # drift reduces to minus the compensator once r + gk is added back
    res = _valid_functionals(
        ens,
        [-spec.compensator[0], -spec.compensator[1]],
        spec.jump_logs(),
    )
    return _estimate(np.exp(res["final_log"]), ens.seed)


def state_price_wealth_identity(market, K, x, ens: PathEnsemble) -> float:
    """max over the rows of ens and their reporting grids of
    |H^phi * V^{1,pi_hat,0} - 1| for the log-optimal pair, as
    |expm1(log H + log V)|."""
    policy = log_optimal_policy(market, x, ens.horizon)
    spec = state_price_spec(market, K, policy)
    grid = _report_grid(ens)
    log_v = _path_log_level(ens, grid, *_wealth_terms(market, policy.pi))
    log_h = _path_log_level(ens, grid, spec.drift(market), spec.jump_logs())
    return float(np.max(np.abs(np.expm1(log_h + log_v))))


def budget_check(
    market,
    K,
    pi_pair,
    consumption: ConsumptionRule,
    phi_policy: Policy,
    x,
    ens: PathEnsemble,
) -> McEstimate:
    """McEstimate of E[H_T V_T + int H_s c_s ds] - x against the dual density
    of phi_policy; nonpositive up to noise for admissible pairs, zero at the
    optimum."""
    T, kappa = ens.horizon, consumption.scale
    if kappa * T >= x:
        raise ConfigError("proportional consumption ruins the pair before T")
    spec = state_price_spec(market, K, phi_policy)
    h_drift = spec.drift(market)
    h_jumps = spec.jump_logs()
    v_drift, v_jumps = _wealth_terms(market, pi_pair)

    # combined log level of H * V^{1,pi,0}
    drift = [h_drift[i] + v_drift[i] for i in (0, 1)]
    jumps = [
        (lambda y, i=i: h_jumps[i](y) + v_jumps[i](y)) for i in (0, 1)
    ]
    res = _valid_functionals(ens, drift, jumps, want_int_exp=kappa != 0.0)
    xi_T = x - kappa * T
    total = xi_T * np.exp(res["final_log"])
    if kappa != 0.0:
        total = total + kappa * res["int_exp"]
    return _estimate(total - x, ens.seed)


def mc_expected_utility(
    market,
    pi_pair,
    consumption: ConsumptionRule,
    utility: Utility,
    x,
    ens: PathEnsemble,
) -> McEstimate:
    """Sample mean of int U1(t, c_t) dt + U2(V_T); inter-jump time integrals
    are closed-form (log and powers of piecewise exponentials)."""
    T, seed, kappa = ens.horizon, ens.seed, consumption.scale
    drift, jumps = _wealth_terms(market, pi_pair)

    if kappa == 0.0:
        if utility.is_log:
            raise ConfigError("zero consumption gives -inf log utility; use power or a positive rule")
        res = _valid_functionals(ens, drift, jumps)
        vals = (x**utility.gamma) * np.exp(utility.gamma * res["final_log"]) / utility.gamma
        return _estimate(vals, seed)

    if kappa < 0 or kappa * T >= x:
        raise ConfigError("proportional scale must lie in (0, x/T)")
    xi_T = x - kappa * T
    if utility.is_log:
        res = _valid_functionals(ens, drift, jumps, want_int_log=True)
        vals = (
            T * math.log(kappa)
            + res["int_log"]
            + math.log(xi_T)
            + res["final_log"]
        )
        return _estimate(vals, seed)
    g = utility.gamma
    res = _valid_functionals(ens, drift, jumps, want_int_exp=True, exp_coeff=g)
    vals = (kappa**g) * res["int_exp"] / g + (xi_T**g) * np.exp(g * res["final_log"]) / g
    return _estimate(vals, seed)


def dual_functional_log(market, K, phi_policy: Policy, x, ens: PathEnsemble) -> McEstimate:
    """MC estimate of the dual bound L(x; phi) for log utility."""
    T = ens.horizon
    spec = state_price_spec(market, K, phi_policy)
    res = _valid_functionals(
        ens, spec.drift(market), spec.jump_logs(), want_int_log=True
    )
    vals = (T + 1.0) * math.log(x / (T + 1.0)) - res["int_log"] - res["final_log"]
    return _estimate(vals, ens.seed)


def grid_search_constant_portfolio(
    market, utility: Utility, x, T, grid, n_paths=None, seed=None, i0=0
):
    """Exact J over constant portfolio weights pi = pi_0 = pi_1: the rows
    (pi, pi) of ``regime_value.exact_value`` (log utility with the
    proportional rule at scale x/(T+1), its optimal form; power without
    consumption), one quadrature per mark law for the whole grid.

    Nothing is simulated: ``n_paths`` and ``seed`` are unused, kept only
    for the positional call in ``bench/workloads.py``.
    Returns (pi_star, table) where table rows are (pi, J) with NaN J for
    infeasible weights and for weights whose drift or jump term is not
    finite.
    """
    grid = np.asarray(grid, dtype=float)
    inside = np.ones(grid.size, dtype=bool)
    for params in market.regimes:
        lo, hi, lo_closed, hi_closed = feasible_weight_interval(params)
        inside &= ((lo < grid) & (grid < hi)) | ((grid == lo) & lo_closed) | ((grid == hi) & hi_closed)
    J = np.full(grid.size, math.nan)
    J[inside] = exact_value(market, utility, x, T, np.repeat(grid[inside, None], 2, 1), i0)
    if not np.any(J > -math.inf):
        raise InfeasiblePolicyError("no feasible grid point")
    rows = [(float(p), float(j)) for p, j in zip(grid, J)]
    return float(grid[np.nanargmax(J)]), rows
