import bisect
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from jumpfolio.distributions import ExponentialPositive, TwoPoint
from jumpfolio.config import load_config, parse_config
from jumpfolio.errors import ConfigError, DomainError, InfeasiblePolicyError
from jumpfolio.frictions import DifferentialRates, NO_SHORTING
from jumpfolio.market import (
    MarketModel,
    ProportionalConsumption,
    RegimeMarketParams,
    ZeroConsumption,
    log_optimal_consumption,
    stock_path,
    wealth_path,
    _path_log_level,
    _report_grid,
)
from jumpfolio.mpp import GeneratorMatrix, PathEnsemble, simulate_ensemble
from jumpfolio.policy import Policy, Utility, feasible_weight_interval, log_optimal_policy
from jumpfolio.verify import (
    budget_check,
    dual_functional_log,
    ensemble_functionals,
    expected_jump_count,
    grid_search_constant_portfolio,
    martingale_factor_check,
    mc_expected_utility,
    state_price_spec,
    state_price_wealth_identity,
    _skeleton_statistics,
    _wealth_terms,
)


ROOT = Path(__file__).resolve().parents[1]
FIG1 = ROOT / "demos" / "configs" / "fig1.yaml"
FIG3 = ROOT / "demos" / "configs" / "fig3.yaml"
REGIME_SWITCHING = ROOT / "demos" / "configs" / "regime_switching.yaml"
PATHS_DENSE = ROOT / "bench" / "configs" / "paths_dense.yaml"


def ensemble(mkt, T, n_paths, seed):
    """An ensemble of mkt started in regime 0."""
    return simulate_ensemble(mkt.gen, 0, T, mkt.dists, n_paths, seed)


def make_market(lam=1.0):
    dist = ExponentialPositive(10.0)
    params = RegimeMarketParams(
        r=0.045, mu=-0.05, lam=lam, dist=dist, margin=DifferentialRates(0.045, 0.05)
    )
    return MarketModel(
        gen=GeneratorMatrix(lam, lam), regimes=(params, params), constraint=NO_SHORTING
    )


class TestEnsembleFunctionals:
    """The column-sweep engine against brute-force per-path evaluation."""

    def _setup(self):
        mkt = make_market()
        ens = simulate_ensemble(mkt.gen, 0, 2.0, mkt.dists, 64, 123)
        pi = 0.7
        drift, jumps = _wealth_terms(mkt, (pi, pi))
        return mkt, ens, pi, drift, jumps

    @staticmethod
    def _level_terms(kind, mkt, pi):
        """Per-state drift and jump logs of one level, and its pathwise
        evaluation (ensemble rows -> level of each row on its grid)."""
        if kind == "wealth":
            drift, jumps = _wealth_terms(mkt, (pi, pi))
            return drift, jumps, lambda rows: wealth_path(
                1.0, mkt, pi, ZeroConsumption(), rows, n_grid=1
            ).v_gross
        if kind == "stock":
            drift = [p.mu for p in mkt.regimes]
            jumps = [lambda y: np.log1p(mkt.f(y))] * 2
            return drift, jumps, lambda rows: stock_path(mkt, rows, s0=1.0, n_grid=1)[1]
        spec = state_price_spec(mkt, NO_SHORTING, log_optimal_policy(mkt, 1.0, 2.0))
        drift, jumps = spec.drift(mkt), spec.jump_logs()
        return (
            drift,
            jumps,
            lambda rows: np.exp(_path_log_level(rows, _report_grid(rows, 1), drift, jumps)),
        )

    @pytest.mark.parametrize("kind", ["wealth", "stock", "state_price"])
    def test_final_log_matches_pathwise_wealth(self, kind):
        mkt, ens, pi, _, _ = self._setup()
        drift, jumps, level = self._level_terms(kind, mkt, pi)
        res = ensemble_functionals(ens, drift, jumps)
        # cells past a row's own repeat its level at T
        final = level(ens)[:, -1]
        for p in range(ens.n_paths):
            assert res["final_log"][p] == pytest.approx(math.log(final[p]), abs=1e-12)

    @staticmethod
    def _segment_trapezoid(mkt, pi, row, transform, n_grid):
        """Trapezoid of transform(log V) over a one-row ensemble, with
        jump-time right endpoints replaced by their left limits (log V is
        right-continuous)."""
        wp = wealth_path(1.0, mkt, pi, ZeroConsumption(), row, n_grid=n_grid)
        t, log_v = wp.t[0], np.log(wp.v_gross[0])
        f = mkt.f
        jump_log = {
            float(tau): math.log(1.0 + pi * float(f(y)))
            for tau, y in zip(row.times[0], row.marks[0])
        }
        total = 0.0
        for i in range(len(t) - 1):
            left = log_v[i]
            right = log_v[i + 1] - jump_log.get(float(t[i + 1]), 0.0)
            total += 0.5 * (transform(left) + transform(right)) * (t[i + 1] - t[i])
        return total

    def test_int_log_matches_quadrature(self):
        mkt, ens, pi, drift, jumps = self._setup()
        res = ensemble_functionals(ens, drift, jumps, want_int_log=True)
        for p in range(0, ens.n_paths, 7):
            # log V is piecewise linear, so the corrected trapezoid is exact
            brute = self._segment_trapezoid(mkt, pi, ens.rows(p, p + 1), lambda u: u, 64)
            assert res["int_log"][p] == pytest.approx(brute, abs=1e-10)

    def test_int_exp_matches_quadrature(self):
        mkt, ens, pi, drift, jumps = self._setup()
        gamma = 0.5
        res = ensemble_functionals(
            ens, drift, jumps, want_int_exp=True, exp_coeff=gamma
        )
        for p in range(0, ens.n_paths, 9):
            brute = self._segment_trapezoid(
                mkt, pi, ens.rows(p, p + 1), lambda u: math.exp(gamma * u), 8192
            )
            assert res["int_exp"][p] == pytest.approx(brute, rel=1e-6)

    def test_padding_columns_change_nothing(self):
        mkt, ens, pi, drift, jumps = self._setup()
        n = ens.n_paths
        wide = PathEnsemble(
            initial_state=ens.initial_state,
            horizon=ens.horizon,
            times=np.hstack([ens.times, np.full((n, 5), np.inf)]),
            marks=np.hstack([ens.marks, np.zeros((n, 5))]),
            counts=ens.counts,
            seed=ens.seed,
        )
        kwargs = dict(want_int_log=True, want_int_exp=True, exp_coeff=0.5)
        narrow = ensemble_functionals(ens, drift, jumps, **kwargs)
        padded = ensemble_functionals(wide, drift, jumps, **kwargs)
        assert narrow.keys() == padded.keys()
        for key in narrow:
            assert np.array_equal(narrow[key], padded[key]), key

    def test_memory_order_changes_nothing(self):
        mkt, ens, pi, drift, jumps = self._setup()
        assert ens.times.flags.f_contiguous and not ens.times.flags.c_contiguous
        c_ordered = dataclasses.replace(
            ens,
            times=np.ascontiguousarray(ens.times),
            marks=np.ascontiguousarray(ens.marks),
        )
        kwargs = dict(want_int_log=True, want_int_exp=True, exp_coeff=0.5)
        got = ensemble_functionals(ens, drift, jumps, **kwargs)
        ref = ensemble_functionals(c_ordered, drift, jumps, **kwargs)
        assert got.keys() == ref.keys()
        for key in got:
            assert np.array_equal(got[key], ref[key]), key
        for with_integrals in (False, True):
            assert np.array_equal(
                _skeleton_statistics(ens, with_integrals),
                _skeleton_statistics(c_ordered, with_integrals),
            )

    def test_invalid_jump_flagged(self):
        mkt, ens, pi, drift, _ = self._setup()
        bad = [lambda y: np.log(-np.ones_like(y))] * 2  # log of negative
        res = ensemble_functionals(ens, drift, bad)
        assert np.array_equal(res["invalid"], ens.counts > 0)


class TestInfeasiblePolicy:
    def test_every_sweep_rejects_a_nonpositive_jump_factor(self):
        """pi = 1.5 against a mark with e^y - 1 = e^-2 - 1 gives 1 + pi f < 0."""
        dist = TwoPoint(y_lo=-2.0, y_hi=0.5, p_hi=0.5)
        params = RegimeMarketParams(
            r=0.045, mu=-5.0, lam=1.0, dist=dist, margin=DifferentialRates(0.045, 0.05)
        )
        mkt = MarketModel(
            gen=GeneratorMatrix(1.0, 1.0), regimes=(params, params), constraint=NO_SHORTING
        )
        pol = Policy(
            pi=(1.5, 1.5), zeta=(0.0, 0.0), cases=(0, 0), gamma=0.0,
            consumption=log_optimal_consumption(1.0, 1.0),
        )
        ens = ensemble(mkt, 1.0, 2000, 3)
        with pytest.raises(InfeasiblePolicyError):
            martingale_factor_check(mkt, NO_SHORTING, pol, ens)
        with pytest.raises(InfeasiblePolicyError):
            dual_functional_log(mkt, NO_SHORTING, pol, 1.0, ens)
        with pytest.raises(InfeasiblePolicyError):
            budget_check(mkt, NO_SHORTING, pol.pi, pol.consumption, pol, 1.0, ens)


class TestStatePrice:
    def test_log_case_is_reciprocal_wealth(self):
        mkt = make_market()
        ens = ensemble(mkt, 2.0, 30, 5)
        dev = state_price_wealth_identity(mkt, NO_SHORTING, 1.0, ens)
        assert dev <= 1e-10

    def test_identities_hold_where_levels_leave_the_float_range(self):
        """lambda = 50 over T = 10 drives log V past 709 on every path, so the
        levels themselves overflow while the identity H V = 1 stays exact."""
        data = {
            "model": {
                "initial_state": 0,
                "regimes": [
                    {"r": 0.045, "mu": -0.05, "lam": 50.0,
                     "margin": {"variant": "differential_rates", "R": 0.05},
                     "distribution": {"variant": "exponential_positive", "rate": 10.0}},
                    {"r": 0.03, "mu": 0.01, "lam": 50.0,
                     "margin": {"variant": "differential_rates", "R": 0.05},
                     "distribution": {"variant": "exponential_positive", "rate": 10.0}},
                ],
            },
            "utility": {"variant": "log"},
            "horizon": 10.0,
            "initial_wealth": 1.0,
            "mc": {"n_paths": 5, "seed": 20260823},
        }
        mkt = parse_config(data).market
        ens = ensemble(mkt, 10.0, 5, 20260823)
        pol = log_optimal_policy(mkt, 1.0, 10.0)
        with pytest.raises(DomainError):
            wealth_path(1.0, mkt, pol.pi, pol.consumption, ens)
        assert state_price_wealth_identity(mkt, mkt.constraint, 1.0, ens) <= 1e-10

    def test_simulate_state_price_drift_segment(self):
        mkt = make_market()
        pol = log_optimal_policy(mkt, 1.0, 2.0)
        spec = state_price_spec(mkt, NO_SHORTING, pol)
        row = ensemble(mkt, 2.0, 1, 77)
        grid = _report_grid(row)
        log_h = _path_log_level(row, grid, spec.drift(mkt), spec.jump_logs())[0]
        t, H = grid[0][0], np.exp(log_h)
        assert t[0] == 0.0 and H[0] == 1.0
        assert np.all(H > 0)
        # up to the first jump, log H is the regime-0 drift times t
        before = t < row.times[0, 0]
        assert np.array_equal(log_h[before], spec.drift(mkt)[0] * t[before])

    def test_martingale_factor_near_one(self):
        mkt = make_market()
        pol = log_optimal_policy(mkt, 1.0, 1.0)
        est = martingale_factor_check(mkt, NO_SHORTING, pol, ensemble(mkt, 1.0, 20_000, 42))
        assert abs(est.mean - 1.0) <= 3.0 * est.stderr

    def test_estimates_deterministic_per_seed(self):
        mkt = make_market()
        pol = log_optimal_policy(mkt, 1.0, 1.0)
        a = martingale_factor_check(mkt, NO_SHORTING, pol, ensemble(mkt, 1.0, 2000, 9))
        b = martingale_factor_check(mkt, NO_SHORTING, pol, ensemble(mkt, 1.0, 2000, 9))
        assert a.mean == b.mean and a.stderr == b.stderr


class TestBudget:
    def test_pathwise_equality_at_log_optimum(self):
        mkt = make_market()
        x, T = 2.0, 1.5
        pol = log_optimal_policy(mkt, x, T)
        est = budget_check(
            mkt, NO_SHORTING, pol.pi, pol.consumption, pol, x, ensemble(mkt, T, 5000, 3)
        )
        assert abs(est.mean) <= 1e-12 * x
        assert est.stderr <= 1e-12 * x

    def test_suboptimal_pairs_nonpositive(self):
        mkt = make_market()
        x, T = 1.0, 1.0
        pol = log_optimal_policy(mkt, x, T)
        ens = ensemble(mkt, T, 30_000, 11)
        for pi, cons in (
            (0.3, ZeroConsumption()),
            (1.2, ProportionalConsumption(0.4)),
            (0.0, ProportionalConsumption(0.9)),
        ):
            est = budget_check(mkt, NO_SHORTING, (pi, pi), cons, pol, x, ens)
            assert est.mean <= 3.0 * est.stderr

    def test_over_consumption_rejected(self):
        mkt = make_market()
        pol = log_optimal_policy(mkt, 1.0, 1.0)
        with pytest.raises(ConfigError):
            budget_check(
                mkt, NO_SHORTING, pol.pi, ProportionalConsumption(2.0), pol,
                1.0, ensemble(mkt, 1.0, 100, 0),
            )


class TestExpectedUtility:
    def test_log_requires_consumption(self):
        mkt = make_market()
        with pytest.raises(ConfigError):
            mc_expected_utility(
                mkt, (0.5, 0.5), ZeroConsumption(), Utility.log(), 1.0,
                ensemble(mkt, 1.0, 100, 0),
            )

    def test_one_path_has_no_standard_error(self):
        """A single path would report stderr 0; every estimate refuses it."""
        mkt = make_market()
        with pytest.raises(ConfigError, match="two paths"):
            mc_expected_utility(
                mkt, (0.5, 0.5), log_optimal_consumption(1.0, 1.0), Utility.log(), 1.0,
                ensemble(mkt, 1.0, 1, 0),
            )

    def test_power_no_jump_oracle(self):
        """lam=0 gives a deterministic wealth: J = (x e^{bT})^g / g."""
        dist = ExponentialPositive(10.0)
        params = RegimeMarketParams(
            r=0.045, mu=0.06, lam=0.0, dist=dist, margin=DifferentialRates(0.045, 0.05)
        )
        mkt = MarketModel(
            gen=GeneratorMatrix(0.0, 0.0), regimes=(params, params),
            constraint=NO_SHORTING,
        )
        g, pi, x, T = 0.5, 0.8, 2.0, 1.5
        est = mc_expected_utility(
            mkt, (pi, pi), ZeroConsumption(), Utility.power(g), x, ensemble(mkt, T, 50, 1)
        )
        b = 0.045 + pi * (0.06 - 0.045)
        expected = (x * math.exp(b * T)) ** g / g
        assert est.mean == pytest.approx(expected, rel=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)

    def test_log_with_consumption_no_jump_oracle(self):
        dist = ExponentialPositive(10.0)
        params = RegimeMarketParams(
            r=0.03, mu=0.05, lam=0.0, dist=dist, margin=DifferentialRates(0.03, 0.05)
        )
        mkt = MarketModel(
            gen=GeneratorMatrix(0.0, 0.0), regimes=(params, params),
            constraint=NO_SHORTING,
        )
        pi, x, T, kappa = 0.5, 1.0, 2.0, 0.25
        est = mc_expected_utility(
            mkt, (pi, pi), ProportionalConsumption(kappa), Utility.log(), x,
            ensemble(mkt, T, 20, 1),
        )
        b = 0.03 + pi * (0.05 - 0.03)
        int_log, _ = integrate.quad(lambda t: b * t, 0.0, T)
        expected = T * math.log(kappa) + int_log + math.log(x - kappa * T) + b * T
        assert est.mean == pytest.approx(expected, rel=1e-12)

    def test_dual_equals_primal_for_log_optimum(self):
        """For the log optimum, L(x, phi_hat) coincides with J pathwise."""
        mkt = make_market()
        x, T = 1.0, 1.0
        pol = log_optimal_policy(mkt, x, T)
        ens = ensemble(mkt, T, 5000, 77)
        primal = mc_expected_utility(mkt, pol.pi, pol.consumption, Utility.log(), x, ens)
        dual = dual_functional_log(mkt, NO_SHORTING, pol, x, ens)
        assert dual.mean == pytest.approx(primal.mean, abs=1e-10)


def scalar_log_level(row, times, drift_by_state, jump_log_by_state):
    """The log level of a one-row ensemble at the given times, one Python
    float at a time: the per-row reference for the batched engine.  Its
    sums run in time order, as the engine's do."""
    i0, taus = row.initial_state, [float(t) for t in row.times[0]]
    drift = [float(drift_by_state[(i0 + k) % 2]) for k in range(len(taus) + 1)]
    starts = [0.0] + taus
    cum_drift, cum_jump = [0.0], [0.0]
    for k, mark in enumerate(row.marks[0]):
        cum_drift.append(cum_drift[-1] + drift[k] * (starts[k + 1] - starts[k]))
        jump_log = jump_log_by_state[(i0 + k) % 2](np.array([mark]))
        cum_jump.append(cum_jump[-1] + float(jump_log[0]))
    out = []
    for t in times:
        k = bisect.bisect_right(taus, t)
        out.append(cum_drift[k] + drift[k] * (t - starts[k]) + cum_jump[k])
    return np.array(out)


class TestBatchedIdentities:
    """The pathwise identity H V = 1 over a block of ensemble rows against
    one scalar evaluation per row on its own union1d grid, bit for bit."""

    @staticmethod
    def _reference(mkt, x, ens):
        T = ens.horizon
        policy = log_optimal_policy(mkt, x, T)
        spec = state_price_spec(mkt, mkt.constraint, policy)
        v_terms = _wealth_terms(mkt, policy.pi)
        dev_hv = []
        for p in range(ens.n_paths):
            row = ens.rows(p, p + 1)
            t = np.union1d(np.linspace(0.0, T, 257), row.times[0])
            log_v = scalar_log_level(row, t, *v_terms)
            log_h = scalar_log_level(row, t, spec.drift(mkt), spec.jump_logs())
            dev_hv.append(np.max(np.abs(np.expm1(log_h + log_v))))
        return max(dev_hv)

    @pytest.mark.parametrize("config, n_rows", [(REGIME_SWITCHING, 40), (PATHS_DENSE, 6)])
    def test_identities_match_per_row_reference(self, config, n_rows):
        cfg = load_config(config)
        mkt, T = cfg.market, cfg.horizon
        ens = simulate_ensemble(mkt.gen, 0, T, mkt.dists, 3 * n_rows, 20260823).rows(0, n_rows)
        counts = ens.counts
        assert len(set(counts.tolist())) > 1  # rows of different lengths
        if config == REGIME_SWITCHING:
            assert np.any(counts == 0) and np.any(counts >= 3)
        dev_hv = state_price_wealth_identity(mkt, mkt.constraint, 1.0, ens)
        assert dev_hv == self._reference(mkt, 1.0, ens)

    def test_engine_rows_match_per_row_reference(self):
        """Every row's level on its own grid, the cells past it repeating
        the level at T."""
        cfg = load_config(REGIME_SWITCHING)
        mkt, T = cfg.market, cfg.horizon
        ens = simulate_ensemble(mkt.gen, 1, T, mkt.dists, 30, 5)
        drift, jumps = _wealth_terms(mkt, (0.8, 1.3))
        grid = _report_grid(ens)
        level = _path_log_level(ens, grid, drift, jumps)
        for p in range(ens.n_paths):
            row = ens.rows(p, p + 1)
            t = np.union1d(np.linspace(0.0, T, 257), row.times[0])
            ref = scalar_log_level(row, t, drift, jumps)
            assert np.array_equal(grid[0][p, : t.size], t)
            assert np.array_equal(level[p, : t.size], ref)
            assert np.all(level[p, t.size :] == ref[-1])


class TestGridSearch:
    def test_expected_jump_count(self):
        mkt = make_market(lam=1.0)
        assert expected_jump_count(mkt, 0, 2.0) == pytest.approx(2.0)
        dist = ExponentialPositive(10.0)
        p0 = RegimeMarketParams(r=0.0, mu=0.0, lam=2.0, dist=dist)
        p1 = RegimeMarketParams(r=0.0, mu=0.0, lam=0.5, dist=dist)
        mkt2 = MarketModel(gen=GeneratorMatrix(2.0, 0.5), regimes=(p0, p1))
        ens = simulate_ensemble(mkt2.gen, 0, 3.0, mkt2.dists, 40_000, 19)
        mc = ens.counts.mean()
        stderr = ens.counts.std(ddof=1) / math.sqrt(ens.n_paths)
        assert abs(expected_jump_count(mkt2, 0, 3.0) - mc) < 4 * stderr

    def test_small_grid_finds_optimum(self):
        mkt = make_market()
        grid = np.round(np.arange(0.5, 1.01, 0.05), 10)
        pi_star, rows = grid_search_constant_portfolio(
            mkt, Utility.log(), 1.0, 1.0, grid, 20_000, 4
        )
        assert abs(pi_star - 0.7460618540) <= 0.05 + 1e-9
        assert len(rows) == len(grid)

    @pytest.mark.parametrize("utility", [Utility.log(), Utility.power(0.5)])
    def test_one_path_has_no_standard_error(self, utility):
        with pytest.raises(ConfigError, match="two paths"):
            grid_search_constant_portfolio(
                make_market(), utility, 1.0, 1.0, np.array([0.5, 1.0]), 1, 4
            )

    def test_infeasible_points_get_nan(self):
        mkt = make_market()
        grid = np.array([-0.5, 0.0, 0.5])  # -0.5 outside K cap via feasibility
        pi_star, rows = grid_search_constant_portfolio(
            mkt, Utility.power(0.5), 1.0, 1.0, grid, 2000, 4
        )
        assert math.isnan(rows[0][1])

    @staticmethod
    def _column_sweep(market, utility, x, T, grid, n_paths, seed, i0):
        """The grid search as one column sweep per weight: the reference
        for the estimator on skeleton statistics."""
        ens = simulate_ensemble(market.gen, i0, T, market.dists, n_paths, seed)
        f, gamma = market.f, utility.gamma
        kappa = x / (T + 1.0)
        lo0, hi0, lc0, hc0 = feasible_weight_interval(market.regimes[0])
        lo1, hi1, lc1, hc1 = feasible_weight_interval(market.regimes[1])
        lo, hi = max(lo0, lo1), min(hi0, hi1)
        counts = ens.counts.astype(float)
        mean_count = expected_jump_count(market, i0, T)
        rows = []
        for pi in grid:
            inside = (
                (lo < pi < hi)
                or (pi == lo and (lc0 or lo0 < lo) and (lc1 or lo1 < lo))
                or (pi == hi and (hc0 or hi0 > hi) and (hc1 or hi1 > hi))
            )
            if not inside:
                rows.append((float(pi), math.nan, math.nan))
                continue
            drift, _ = _wealth_terms(market, (pi, pi))
            if utility.is_log:
                etas = [p.dist.expect(lambda y: np.log1p(pi * f(y))) for p in market.regimes]
                jumps = [(lambda y, c=e: np.full(np.shape(y), c)) for e in etas]
                res = ensemble_functionals(ens, drift, jumps, want_int_log=True)
                samples = (
                    T * math.log(kappa) + res["int_log"] + math.log(x - kappa * T)
                    + res["final_log"]
                )
            else:
                ms = [
                    p.dist.expect(lambda y: (1.0 + pi * f(y)) ** gamma)
                    for p in market.regimes
                ]
                jumps = [(lambda y, c=math.log(m): np.full(np.shape(y), c)) for m in ms]
                res = ensemble_functionals(ens, [gamma * d for d in drift], jumps)
                samples = (x**gamma) * np.exp(res["final_log"]) / gamma
            beta = float(np.cov(samples, counts)[0, 1]) / float(counts.var())
            samples = samples - beta * (counts - mean_count)
            rows.append((float(pi), samples.mean(), samples.std(ddof=1) / math.sqrt(samples.size)))
        return rows

    @pytest.mark.parametrize("i0", [0, 1])
    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_matches_column_sweep(self, gamma, i0):
        """Distinct drifts, chain rates and mark laws, so a swapped state or
        a mark law shared by mistake changes the rows."""
        p0 = RegimeMarketParams(
            r=0.045, mu=-0.05, lam=2.0, dist=ExponentialPositive(10.0),
            margin=DifferentialRates(0.045, 0.05),
        )
        p1 = RegimeMarketParams(
            r=0.03, mu=0.02, lam=0.5, dist=TwoPoint(-0.05, 0.08, 0.6),
            margin=DifferentialRates(0.03, 0.05),
        )
        mkt = MarketModel(gen=GeneratorMatrix(2.0, 0.5), regimes=(p0, p1))
        grid = np.round(np.linspace(-0.5, 1.5, 21), 10)
        rows = self._assert_matches_column_sweep(mkt, Utility(gamma), grid, i0)
        assert all(math.isnan(r[1]) for r in rows[:5])  # negative weights

    @pytest.mark.parametrize("i0", [0, 1])
    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_matches_column_sweep_on_identical_regimes(self, gamma, i0):
        """fig1's identical regimes: the two occupation times sum to T on
        every path, so the covariance of the skeleton statistics is
        singular, and the weight 0 has a constant sample."""
        mkt = load_config(FIG1).market
        assert mkt.regimes[0] == mkt.regimes[1]
        grid = np.round(np.linspace(0.0, 2.0, 21), 10)
        self._assert_matches_column_sweep(mkt, Utility(gamma), grid, i0)

    def _assert_matches_column_sweep(self, mkt, utility, grid, i0):
        args = (mkt, utility, 1.0, 1.0, grid, 20_000, 31)
        pi_star, rows = grid_search_constant_portfolio(*args, i0=i0)
        ref = self._column_sweep(*args, i0)
        assert [math.isnan(r[1]) for r in rows] == [math.isnan(r[1]) for r in ref]
        for (pi, J, se), (_, J_ref, se_ref) in zip(rows, ref):
            if not math.isnan(J_ref):
                assert abs(J - J_ref) <= 1e-12 * max(1.0, abs(J_ref)), pi
                assert abs(se - se_ref) <= 1e-9 * se_ref + 1e-15, pi
        assert pi_star == grid[np.nanargmax([r[1] for r in ref])]
        return rows

    def test_closedness_comes_from_the_binding_end(self):
        """Regime 0's closed lower end 0 binds; regime 1's open end -12 lies
        below it, so the weight 0 is feasible in both and gets a row."""
        p0 = RegimeMarketParams(
            r=0.045, mu=-0.05, lam=2.0, dist=ExponentialPositive(10.0),
            margin=DifferentialRates(0.045, 0.05),
        )
        p1 = RegimeMarketParams(
            r=0.03, mu=0.02, lam=0.5, dist=TwoPoint(-0.05, 0.08, 0.6),
            margin=DifferentialRates(0.03, 0.05),
        )
        mkt = MarketModel(gen=GeneratorMatrix(2.0, 0.5), regimes=(p0, p1))
        _, rows = grid_search_constant_portfolio(
            mkt, Utility.log(), 1.0, 1.0, np.array([-0.1, 0.0]), 2000, 31
        )
        assert math.isnan(rows[0][1])
        assert math.isfinite(rows[1][1])

    def test_log_keeps_jumps_at_full_weight(self):
        """fig3's negative exponential marks at pi = 1: the jump factor is
        e^y, which stays positive where expm1(y) rounds to -1.  No jump may
        be dropped, so J(1) lies below the no-jump value and the argmax is
        the log optimum (-3.54) clipped to the grid edge."""
        mkt = load_config(FIG3).market
        grid = np.linspace(-1.0, 1.0, 201)
        pi_star, rows = grid_search_constant_portfolio(
            mkt, Utility.log(), 1.0, 1.0, grid, 100_000, 20260823
        )
        _, J1, se1 = rows[-1]
        assert pi_star == -1.0
        assert math.isfinite(J1) and se1 > 0.0
        assert abs(J1 - (-1.43127)) <= 3.0 * se1
