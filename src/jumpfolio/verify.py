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
numbers); only the grid search draws its own ensemble.
The grid search does not sweep per weight: with the mark integrals done
by quadrature, a path's sample depends only on four statistics of its
jump skeleton, built in one pass over the columns.  A log sample is
affine in them, so log utility needs only their moments; power samples
are formed for a block of weights at a time, by one matrix product.
Reductions run in fixed path order, so estimates are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, InfeasiblePolicyError
from .frictions import ConstraintSet, conjugate_gk, effective_domain
from .market import (
    ConsumptionRule,
    MarketModel,
    _log_jump,
    _path_log_level,
    _report_grid,
    _wealth_terms,
)
from .mpp import PathEnsemble, simulate_ensemble
from .policy import Policy, Utility, feasible_weight_interval, log_optimal_policy


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error; reproducible per seed."""

    mean: float
    stderr: float
    n_paths: int
    seed: object


def _check_paths(n):
    if n < 2:
        raise ConfigError(f"a standard error needs two paths, got {n}")


def _estimate(samples, seed):
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    _check_paths(n)
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
    f = market.f
    gamma = policy.gamma
    phis = []
    zetas = []
    comps = []
    gks = []
    for i, params in enumerate(market.regimes):
        pi = policy.pi[i]
        phi = lambda y, p=pi: 1.0 / (1.0 + p * f(y)) ** (1.0 - gamma)
        integral_fphi = params.dist.expect(lambda y: f(y) * phi(y), tol=1e-13)
        zeta = params.r - params.mu - params.lam * integral_fphi
        lo, hi = effective_domain(params.margin, K)
        if not lo - 1e-12 <= zeta <= hi + 1e-12:
            raise DomainError(
                f"regime {i}: zeta^phi = {zeta:.6g} leaves the conjugate domain "
                f"[{lo:.6g}, {hi:.6g}] as soon as the chain enters this regime"
            )
        comp = params.lam * params.dist.expect(lambda y: phi(y) - 1.0, tol=1e-13)
        gk = conjugate_gk(params.margin, K, min(max(zeta, lo), hi))
        phis.append(phi)
        zetas.append(zeta)
        comps.append(comp)
        gks.append(gk)
    return StatePriceSpec(
        phi=tuple(phis), zeta=tuple(zetas), compensator=tuple(comps), gk=tuple(gks)
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


def expected_jump_count(market, i0, T) -> float:
    """E[N_T | initial state i0]: the chain's mean event count on [0, T]."""
    lam0, lam1 = market.gen.lambda0, market.gen.lambda1
    total = lam0 + lam1
    if total == 0.0:
        return 0.0
    lam_stat = 2.0 * lam0 * lam1 / total
    lam_start = (lam0, lam1)[i0]
    return lam_stat * T + (lam_start - lam_stat) * (1.0 - math.exp(-total * T)) / total


# cells per block of the power grid search (weights x paths): a block of
# samples and its fitted values take about 8 MB whatever the path count,
# less than the ensemble freed before them at 1e5 paths, so the peak holds
_BLOCK_CELLS = 1 << 19


def _skeleton_statistics(ens: PathEnsemble, with_integrals):
    """Per-path statistics of the jump skeleton as a (4, n) array: for each
    state i, its occupation time on [0, T] (rows 0 and 1) and the number of
    jumps leaving it (rows 2 and 3).

    With integrals every row also adds its own integral over [0, T]: a
    state-i segment [t0, t1] adds dt*(T - t1) + dt^2/2 to int_0^T occ_i,
    and a jump at tau adds T - tau to int_0^T N_i.
    """
    n, m = ens.times.shape
    T = ens.horizon
    stats = np.zeros((4, n))
    t_prev = np.zeros(n)
    for j in range(m + 1):
        state = ens.column_state(j)
        t_next = np.minimum(ens.times[:, j], T) if j < m else np.full(n, T)
        dt = t_next - t_prev
        if with_integrals:
            stats[state] += dt * (1.0 + (T - t_next) + 0.5 * dt)
        else:
            stats[state] += dt
        if j < m:
            jump = ens.times[:, j] <= T
            stats[2 + state] += (1.0 + (T - t_next)) * jump if with_integrals else jump
        t_prev = t_next
    return stats


def _jump_coefficients(market, utility, weights):
    """Per regime, the conditional jump term at each weight: E[log(1 + pi f)]
    for log utility, log E[(1 + pi f)^gamma] for power.  One quadrature per
    mark law serves every weight; regimes sharing a law share it."""
    f, gamma = market.f, utility.gamma
    w = np.asarray(weights, dtype=float)[:, None]
    if utility.is_log:
        term = lambda dist: dist.expect(_log_jump(market.transform, w))
    else:
        term = lambda dist: np.log(dist.expect(lambda y: (1.0 + w * f(y)) ** gamma))
    by_law = {d: term(d) for d in dict.fromkeys(market.dists)}
    return [by_law[d] for d in market.dists]


def _log_moments(coef, stats, counts, excess, offset, T):
    """J and its standard error at each weight for log utility, from the
    first two moments of the skeleton statistics and the jump count.

    A log sample is offset + coef . stats, so the control-variate mean and
    variance are linear and quadratic forms in the means and the centred
    covariance of (stats, counts).  The occupation rows sum to
    T (1 + T/2), which makes that covariance singular: row 1 is dropped and
    its coefficient moved into the constant, so identical regimes lose no
    digits to cancellation.
    """
    n = counts.size
    z = np.vstack((stats[[0, 2, 3]], counts))
    means = z.mean(axis=1)
    z -= means[:, None]
    cov = z @ z.T / (n - 1)
    a = np.column_stack((coef[:, 0] - coef[:, 1], coef[:, 2:]))
    mean = offset + T * (1.0 + 0.5 * T) * coef[:, 1] + a @ means[:3]
    var = np.einsum("wi,ij,wj->w", a, cov[:3, :3], a)
    count_var = counts.var()
    if count_var > 0.0:
        cov_count = a @ cov[:3, 3]
        beta = cov_count / count_var
        mean -= beta * excess
        var += beta * (beta * cov[3, 3] - 2.0 * cov_count)
    return mean, np.sqrt(np.maximum(var, 0.0) / n)


def _power_moments(coef, stats, counts, excess):
    """Control-variate mean and standard error of exp(coef . stats) at
    each weight (a row of coef).

    Weights go in blocks of about ``_BLOCK_CELLS`` samples: a block's
    samples are one matrix product and one exp.  Two passes reduce them:
    the (pairwise) mean and the control-variate slope, then the centred
    residual after the control variate, built by one more product and
    reduced by a row-wise dot product.
    """
    n = counts.size
    count_var = counts.var()
    count_dev = counts - counts.mean()
    basis = np.vstack((np.ones(n), count_dev))
    block = max(1, _BLOCK_CELLS // n)
    samples = np.empty((block, n))
    fit = np.empty((block, n))
    mean = np.empty(coef.shape[0])
    var = np.empty(coef.shape[0])
    for b in range(0, coef.shape[0], block):
        c = coef[b : b + block]
        s = np.matmul(c, stats, out=samples[: c.shape[0]])
        np.exp(s, out=s)
        m = s.mean(axis=1)
        beta = s @ count_dev / (n - 1) / count_var if count_var > 0.0 else np.zeros_like(m)
        s -= np.matmul(np.column_stack((m, beta)), basis, out=fit[: c.shape[0]])
        mean[b : b + block] = m - beta * excess
        var[b : b + block] = np.einsum("ij,ij->i", s, s) / (n - 1)
    return mean, np.sqrt(var / n)


def grid_search_constant_portfolio(
    market,
    utility: Utility,
    x,
    T,
    grid,
    n_paths,
    seed,
    i0=0,
    consumption_scale=None,
):
    """Common-random-number sweep of J over constant portfolio weights.

    Log utility pairs every weight with the proportional rule at scale
    x/(T+1) (its optimal form); power utility runs without consumption.

    The estimator is conditional Monte Carlo: given each simulated jump
    skeleton the mark integrals are done by quadrature, and the residual
    skeleton noise is absorbed by a jump-count control variate (its mean
    is known from the chain alone).  Both reductions are unbiased and
    shared across the grid, so the empirical argmax localises the true
    maximiser to about one grid step at moderate path counts.

    Given the quadratures, a path's sample depends on its skeleton only
    through four statistics (``_skeleton_statistics``, one pass over the
    columns).  The log sample is affine in them, so J and its standard
    error at every weight follow from their moments with the jump count
    (``_log_moments``); the power sample is the exp of a linear form,
    reduced a block of weights at a time (``_power_moments``).
    Returns (pi_star, table) where table rows are (pi, J, stderr) with
    NaN J for infeasible weights and for weights whose jump term is not
    finite.
    """
    _check_paths(n_paths)
    grid = np.asarray(grid, dtype=float)
    if consumption_scale is None and utility.is_log:
        consumption_scale = x / (T + 1.0)
    gamma = utility.gamma

    lo0, hi0, lc0, hc0 = feasible_weight_interval(market.regimes[0])
    lo1, hi1, lc1, hc1 = feasible_weight_interval(market.regimes[1])
    lo, hi = max(lo0, lo1), min(hi0, hi1)
    # an end of the intersection is open when a regime whose end binds is
    lo_closed = (lc0 or lo0 < lo) and (lc1 or lo1 < lo)
    hi_closed = (hc0 or hi0 > hi) and (hc1 or hi1 > hi)
    inside = ((lo < grid) & (grid < hi)) | ((grid == lo) & lo_closed) | ((grid == hi) & hi_closed)
    weights = grid[inside]

    drift, _ = _wealth_terms(market, (weights, weights))
    coef = np.column_stack(drift + _jump_coefficients(market, utility, weights))
    if utility.is_log:
        offset = T * math.log(consumption_scale) + math.log(x - consumption_scale * T)
    else:
        coef[:, :2] *= gamma
    finite = np.all(np.isfinite(coef), axis=1)
    coef = coef[finite]
    rows_at = np.flatnonzero(inside)[finite]

    ens = simulate_ensemble(market.gen, i0, T, market.dists, n_paths, seed)
    stats = _skeleton_statistics(ens, utility.is_log)
    counts = ens.counts.astype(float)
    del ens
    excess = counts.mean() - expected_jump_count(market, i0, T)

    J = np.full(grid.size, math.nan)
    stderr = np.full(grid.size, math.nan)
    if utility.is_log:
        J[rows_at], stderr[rows_at] = _log_moments(coef, stats, counts, excess, offset, T)
    else:
        mean, se = _power_moments(coef, stats, counts, excess)
        J[rows_at], stderr[rows_at] = mean * (x**gamma / gamma), se * (x**gamma / gamma)
    if not np.any(J > -math.inf):
        raise InfeasiblePolicyError("no feasible grid point")
    rows = [(float(p), float(j), float(s)) for p, j, s in zip(grid, J, stderr)]
    return float(grid[np.nanargmax(J)]), rows

