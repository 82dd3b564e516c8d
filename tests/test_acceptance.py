"""Acceptance suite: nine end-to-end criteria, one printed pass/fail line each.

Each criterion states its tolerance inline.  Monte Carlo checks run at
N = 1e5 with fixed seeds and compare against independent closed forms
(the grid search of criterion 4 is exact and simulates nothing);
the regime-switching value check additionally reports the verbatim
published evaluation next to the re-derived one (reported, not asserted
-- see the decisions ledger outside the package).
"""

import math
import time

import numpy as np

from jumpfolio.config import parse_config
from jumpfolio.frictions import (
    NO_BORROWING,
    NO_SHORTING,
    PiecewiseLinearConcave,
    conjugate_gk,
    effective_domain,
)
from jumpfolio.policy import (
    Utility,
    h_value,
    log_optimal_policy,
    optimal_portfolio,
    power_optimal_policy,
    verify_conjugacy,
)
from jumpfolio.regime_value import exact_value, mean_log_growth, value_corollary
from jumpfolio.verify import (
    budget_mc,
    expected_utility_mc,
    grid_search_constant_portfolio,
    martingale_mc,
    state_price_spec,
    state_price_wealth_identity,
    sweep_estimates,
)
from jumpfolio.market import (
    DEFAULT_GRID_POINTS,
    wealth_path,
)
from jumpfolio.mpp import jump_columns, simulate_ensemble
from row_identity import pathwise_identity

SEED = 20260823
GAMMAS = (0.0, 0.25, 0.5, 0.75, 0.9)


def _config_up(utility=("power", 0.5), lam=1.0):
    data = {
        "model": {
            "initial_state": 0,
            "regimes": [
                {
                    "r": 0.045,
                    "mu": -0.05,
                    "lam": lam,
                    "margin": {"variant": "differential_rates", "R": 0.05},
                    "distribution": {"variant": "exponential_positive", "rate": 10.0},
                }
            ],
        },
        "utility": {"variant": utility[0], **({"gamma": utility[1]} if utility[0] == "power" else {})},
        "horizon": 1.0,
        "initial_wealth": 1.0,
        "mc": {"n_paths": 100_000, "seed": SEED},
    }
    return parse_config(data)


def _config_down(utility=("power", 0.5)):
    data = {
        "model": {
            "initial_state": 0,
            "regimes": [
                {
                    "r": 0.03,
                    "mu": 0.07,
                    "lam": 1.0,
                    "margin": {"variant": "short_rebate", "rL": 0.05},
                    "distribution": {"variant": "exponential_negative", "rate": 10.0},
                }
            ],
        },
        "utility": {"variant": utility[0], **({"gamma": utility[1]} if utility[0] == "power" else {})},
        "horizon": 1.0,
        "initial_wealth": 1.0,
        "mc": {"n_paths": 100_000, "seed": SEED},
    }
    return parse_config(data)


def _config_two_regimes():
    data = {
        "model": {
            "initial_state": 0,
            "regimes": [
                {
                    "r": 0.045,
                    "mu": -0.05,
                    "lam": 1.0,
                    "margin": {"variant": "differential_rates", "R": 0.05},
                    "distribution": {"variant": "exponential_positive", "rate": 10.0},
                },
                {
                    "r": 0.03,
                    "mu": 0.01,
                    "lam": 1.0,
                    "margin": {"variant": "differential_rates", "R": 0.05},
                    "distribution": {"variant": "exponential_positive", "rate": 10.0},
                },
            ],
        },
        "utility": {"variant": "log"},
        "horizon": 1.0,
        "initial_wealth": 1.0,
        "mc": {"n_paths": 100_000, "seed": SEED},
    }
    return parse_config(data)


def _report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {status} [{name}]: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_1_mgf_identities():
    """h(0), h(1) closed MGF forms vs quadrature, 1e-8, both markets."""
    t0 = time.time()
    worst = 0.0
    for cfg in (_config_up(), _config_down()):
        params = cfg.market.regimes[0]
        m = params.dist.mgf
        f = params.f
        for g in GAMMAS:
            closed0 = params.mu + params.lam * (m(1.0) - 1.0)
            quad0 = params.mu + params.lam * params.dist.expect(lambda y: f(y))
            closed1 = params.mu + params.lam * (m(g) - m(g - 1.0))
            # f/(1+f)^{1-g} = e^{gy} - e^{(g-1)y}
            quad1 = params.mu + params.lam * params.dist.expect(
                lambda y: np.exp(g * y) - np.exp((g - 1.0) * y)
            )
            worst = max(worst, abs(closed0 - quad0), abs(closed1 - quad1))
            worst = max(worst, abs(h_value(params, g, 0.0) - quad0))
            worst = max(worst, abs(h_value(params, g, 1.0) - quad1))
    dt = time.time() - t0
    _report(
        1, "mgf-identities", worst <= 1e-8 and dt < 1.0,
        f"max deviation {worst:.2e} (tol 1e-8), runtime {dt:.2f}s (<1s)",
    )


def test_criterion_2_h_monotone_and_anchor():
    """h strictly decreasing on the plotted ranges (500 points per gamma)
    and the borrowing-spread anchor h(0) = 0.0611111 to 1e-7."""
    t0 = time.time()
    monotone = True
    for cfg, lo, hi in ((_config_up(), 0.0, 2.0), (_config_down(), -12.0, 1.0)):
        params = cfg.market.regimes[0]
        grid = np.linspace(lo, hi, 500)
        for g in GAMMAS:
            vals = np.array([h_value(params, g, float(p)) for p in grid])
            monotone &= bool(np.all(np.diff(vals) < 0.0))
    anchor = h_value(_config_up().market.regimes[0], 0.5, 0.0)
    anchor_ok = abs(anchor - 0.0611111) <= 1e-7
    dt = time.time() - t0
    _report(
        2, "h-curve-reproduction", monotone and anchor_ok and dt < 5.0,
        f"monotone={monotone}, h(0)={anchor:.7f} (target 0.0611111 +- 1e-7), "
        f"runtime {dt:.2f}s (<5s)",
    )


def test_criterion_3_portfolio_sweeps():
    """pi_hat(gamma) sweeps: case coverage and conjugacy at every solved
    point (residual <= 1e-9, zeta inside the conjugate domain)."""
    t0 = time.time()
    gammas = np.linspace(0.0, 0.99, 200)

    def sweep(params, K):
        cases, unsolved, worst = set(), 0, 0.0
        domain_ok = True
        for g in gammas:
            try:
                opt = optimal_portfolio(params, K, float(g))
            except Exception:
                unsolved += 1
                continue
            cases.add(opt.case)
            lo, hi = effective_domain(params.margin, K)
            domain_ok &= lo - 1e-12 <= opt.cert.zeta <= hi + 1e-12
            residual = verify_conjugacy(params.margin, K, opt.pi, opt.cert.zeta)
            # residual is a difference of O(|pi*zeta|) terms; measure it
            # relative to that scale so double rounding is not miscounted
            worst = max(worst, residual / max(1.0, abs(opt.pi * opt.cert.zeta)))
        return cases, unsolved, worst, domain_ok

    up = _config_up().market.regimes[0]
    cases_up, unsolved_up, worst_up, dom_up = sweep(up, NO_SHORTING)
    down = _config_down().market.regimes[0]
    cases_down, unsolved_down, worst_down, dom_down = sweep(down, NO_BORROWING)
    dt = time.time() - t0
    ok = (
        {2, 3, 4} <= cases_up
        and cases_down == {1}
        and unsolved_up == 0
        and unsolved_down <= 1  # gamma=0.99 short optimum exceeds |pi|=1e15
        and worst_up <= 1e-9
        and worst_down <= 1e-9
        and dom_up
        and dom_down
        and dt < 10.0
    )
    _report(
        3, "case-sweeps", ok,
        f"borrow-spread cases {sorted(cases_up)}, short-rebate cases "
        f"{sorted(cases_down)} ({unsolved_down} unbounded point(s) skipped), "
        f"max residual {max(worst_up, worst_down):.2e} (tol 1e-9), runtime {dt:.1f}s (<10s)",
    )


def test_criterion_4_grid_search():
    """The exact J of constant weights over a 0.01-step grid in K cap
    [-2, 2] at T=1 puts its argmax within one grid step of the solved
    optimum (the short-rebate optimum lies outside the window, so its
    target is the window edge).  Nothing is simulated: the path count and
    seed passed are unused."""
    t0 = time.time()
    details, ok = [], True
    runs = (
        (_config_up(("log", None)), 0.0),
        (_config_up(("power", 0.5)), 0.5),
        (_config_down(("power", 0.5)), 0.5),
    )
    for cfg, gamma in runs:
        mkt = cfg.market
        K = mkt.constraint
        lo, hi = max(K.lower, -2.0), min(K.upper, 2.0)
        grid = np.round(np.arange(lo, hi + 1e-9, 0.01), 10)
        if gamma == 0.0:
            pol = log_optimal_policy(mkt, 1.0, 1.0)
        else:
            pol = power_optimal_policy(mkt, gamma)
        target = min(max(pol.pi[0], lo), hi)
        pi_star, _ = grid_search_constant_portfolio(
            mkt, Utility(gamma), 1.0, 1.0, grid, 100_000, SEED
        )
        dev = abs(pi_star - target)
        ok &= dev <= 0.01 + 1e-9
        details.append(f"gamma={gamma:g}: argmax {pi_star:g} vs {target:.4f} (|d|={dev:.4f})")
    dt = time.time() - t0
    ok &= dt < 300.0
    _report(4, "grid-search-optimality", ok, "; ".join(details) + f"; runtime {dt:.0f}s (<300s)")


def _scalar_wealth(x, mkt, pi, row, times):
    """Wealth of a one-row ensemble at the given times, one Python float at
    a time in linear space, from the wealth equation
    dV = V_- [b_i dt + pi_i f(y) dN] - c dt with c_t = V_t/(T+1-t): between
    events V_t = V_s e^{b_i (t-s)} (T+1-t)/(T+1-s), with the drift
    b_i = r_i + g_i(pi_i) + pi_i (mu_i - r_i), and an event in state i
    multiplies V by 1 + pi_i (e^y - 1)."""
    T = row.horizon
    b = [p.r + p.margin.g(w) + w * (p.mu - p.r) for p, w in zip(mkt.regimes, pi)]
    events = list(zip(row.times[0].tolist(), row.marks[0].tolist()))
    v, s, state, k, out = x, 0.0, row.initial_state, 0, []
    for t in times.tolist():
        while k < len(events) and events[k][0] <= t:
            tau, y = events[k]
            v *= math.exp(b[state] * (tau - s)) * (T + 1.0 - tau) / (T + 1.0 - s)
            v *= 1.0 + pi[state] * math.expm1(y)
            s, state, k = tau, 1 - state, k + 1
        v *= math.exp(b[state] * (t - s)) * (T + 1.0 - t) / (T + 1.0 - s)
        s = t
        out.append(v)
    return np.array(out)


def test_criterion_5_wealth_identity():
    """The log-optimal wealth V^{x,pi_hat,c_hat} that ``wealth_path``
    evaluates on a block of rows solves the wealth equation with
    c_t = V_t/(T+1-t): against a scalar linear-space recursion, to 1e-10
    relative at every grid point of 1e3 paths of the two-regime market."""
    t0 = time.time()
    cfg = _config_two_regimes()
    mkt, x, T = cfg.market, 1.0, 1.0
    pol = log_optimal_policy(mkt, x, T)
    ens = simulate_ensemble(mkt.gen, 0, T, mkt.dists, 1000, SEED)
    wp = wealth_path(x, mkt, pol.pi, pol.consumption, ens)
    dev = 0.0
    for k in range(ens.n_paths):
        cells = DEFAULT_GRID_POINTS + 1 + ens.counts[k]
        ref = _scalar_wealth(x, mkt, pol.pi, ens.rows(k, k + 1), wp.t[k, :cells])
        dev = max(dev, float(np.max(np.abs(wp.V[k, :cells] / ref - 1.0))))
    dt = time.time() - t0
    _report(
        5, "log-wealth-identity", dev <= 1e-10,
        f"max relative deviation {dev:.2e} (tol 1e-10) over 1000 paths, runtime {dt:.0f}s",
    )


def test_criterion_6_budget_inequality():
    """E[H_T V_T + int H_s c_s ds] = x at the optimum (3 stderr) and <= x
    for 20 randomized suboptimal admissible pairs at N=1e5."""
    t0 = time.time()
    cfg = _config_up(("log", None))
    mkt = cfg.market
    x, T = 1.0, 1.0
    pol = log_optimal_policy(mkt, x, T)
    spec = state_price_spec(mkt, pol)
    checks = [budget_mc(mkt, spec, pol.pi, pol.consumption, x, T)]
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        pi = float(rng.uniform(0.0, 2.0))
        if rng.random() < 0.5:
            cons = 0.0
        else:
            cons = float(rng.uniform(0.05, 0.9)) * x / T
        checks.append(budget_mc(mkt, spec, (pi, pi), cons, x, T))
    # the optimum and the suboptimal pairs share one sweep of the sample
    sample = jump_columns(mkt.gen, 0, T, mkt.dists, 100_000, SEED)
    opt, *suboptimal = sweep_estimates(mkt, sample, checks)
    equality_ok = abs(opt.mean) <= max(3.0 * opt.stderr, 1e-10 * x)
    violations = sum(est.mean > 3.0 * est.stderr for est in suboptimal)
    dt = time.time() - t0
    ok = equality_ok and violations == 0 and dt < 300.0
    _report(
        6, "budget-inequality", ok,
        f"optimum deviation {opt.mean:.2e} (3*stderr={3*opt.stderr:.2e}), "
        f"{violations}/20 suboptimal pairs violated <=, runtime {dt:.0f}s (<300s)",
    )


def test_criterion_7_regime_value():
    """MC value of the two-regime log optimum vs the re-derived closed
    form (3 stderr, both start states); the verbatim published form is
    reported with its deviation, not asserted."""
    t0 = time.time()
    cfg = _config_two_regimes()
    mkt = cfg.market
    x, T = 1.0, 1.0
    pol = log_optimal_policy(mkt, x, T)
    d_bar = mean_log_growth(mkt, [pol.pi])[0]
    details, ok = [], True
    for start in (0, 1):
        semi = exact_value(mkt, Utility.log(), x, T, [pol.pi], start)[0]
        coro = value_corollary(mkt.gen, d_bar, x, T, start)
        sample = jump_columns(mkt.gen, start, T, mkt.dists, 100_000, SEED)
        check = expected_utility_mc(mkt, pol.pi, pol.consumption, Utility.log(), x, T)
        (est,) = sweep_estimates(mkt, sample, [check])
        z = (est.mean - semi) / est.stderr
        ok &= abs(est.mean - semi) <= 3.0 * est.stderr
        details.append(
            f"start {start}: mc {est.mean:.5f}+-{est.stderr:.5f} vs semianalytic "
            f"{semi:.5f} (z={z:+.2f}); published form {coro:.5f} "
            f"(deviation {coro - semi:+.4f}, reported only)"
        )
    dt = time.time() - t0
    ok &= dt < 300.0
    _report(7, "regime-switching-value", ok, "; ".join(details) + f"; runtime {dt:.0f}s (<300s)")


def test_criterion_8_conjugate_correctness():
    """Closed-form conjugates vs dense grid maximisation (1e-9 at 100
    zeta points inside the domain) plus the Fenchel inequality on a
    100 x 100 (pi, zeta) grid."""
    worst = 0.0
    fenchel_ok = True
    setups = (
        (PiecewiseLinearConcave.differential_rates(0.045, 0.05), NO_SHORTING,
         np.linspace(-0.00499, 0.1, 100), np.linspace(0.0, 80.0, 80_001)),
        (PiecewiseLinearConcave.short_rebate(0.03, 0.05), NO_BORROWING,
         np.linspace(-0.1, 0.0199, 100), np.linspace(-80.0, 1.0, 80_001)),
    )
    for margin, K, zetas, pi_dense in setups:
        pi_dense = np.union1d(pi_dense, np.asarray(margin.breakpoints))
        g_dense = np.array([margin.g(p) for p in pi_dense])
        for zeta in zetas:
            exact = conjugate_gk(margin, K, float(zeta))
            dense = float(np.max(g_dense - pi_dense * zeta))
            worst = max(worst, abs(exact - dense))
        pis = np.linspace(max(K.lower, -5.0), min(K.upper, 5.0), 100)
        for zeta in zetas:
            conj = conjugate_gk(margin, K, float(zeta))
            for pi in pis:
                if margin.g(pi) - pi * zeta > conj + 1e-12:
                    fenchel_ok = False
    ok = worst <= 1e-9 and fenchel_ok
    _report(
        8, "conjugate-correctness", ok,
        f"max grid deviation {worst:.2e} (tol 1e-9), Fenchel inequality "
        f"{'holds' if fenchel_ok else 'violated'} on 100x100 grid",
    )


def test_criterion_9_state_price_martingale():
    """E[H_T exp(int r + conj(zeta))] = 1 within 3 stderr at N=1e5, and
    H = 1/V^{1,pi_hat,0} to 1e-10 for the log-optimal dual density, in
    closed form over every path and by the row engine on 1000 paths."""
    t0 = time.time()
    cfg = _config_two_regimes()
    mkt = cfg.market
    pol = log_optimal_policy(mkt, 1.0, 1.0)
    draw = (mkt.gen, 0, 1.0, mkt.dists, 100_000, SEED)
    ens = simulate_ensemble(*draw)
    spec = state_price_spec(mkt, pol)
    (est,) = sweep_estimates(mkt, jump_columns(*draw), [martingale_mc(spec)])
    mart_ok = abs(est.mean - 1.0) <= 3.0 * est.stderr
    closed = state_price_wealth_identity(mkt, spec, 1.0)
    dev = pathwise_identity(mkt, spec, ens.rows(0, 1000))
    dt = time.time() - t0
    ok = mart_ok and closed <= 1e-10 and dev <= 1e-10
    _report(
        9, "state-price-martingale", ok,
        f"martingale factor {est.mean:.6f}+-{est.stderr:.6f} (target 1, 3 stderr), "
        f"|H*V - 1| max {closed:.2e} in closed form and {dev:.2e} over 1000 paths "
        f"(tol 1e-10), runtime {dt:.0f}s",
    )
