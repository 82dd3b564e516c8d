import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from jumpfolio.cli import main
from jumpfolio.config import load_config
from jumpfolio.distributions import ExponentialPositive
from jumpfolio.errors import ConfigError, InfeasiblePolicyError
from jumpfolio.frictions import NO_SHORTING, PiecewiseLinearConcave
from jumpfolio.market import MarketModel, RegimeMarketParams
from jumpfolio.mpp import jump_columns
from jumpfolio.policy import Utility, log_optimal_policy, power_optimal_policy
from jumpfolio.regime_value import (
    EXPECT_CELLS,
    exact_value,
    mean_log_growth,
    value_corollary,
)
from jumpfolio.verify import expected_utility_mc, grid_search_constant_portfolio, sweep_estimates

CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"
REGIME_SWITCHING = CONFIGS / "regime_switching.yaml"
FIG1 = CONFIGS / "fig1.yaml"
UTILITIES = (Utility.log(), Utility.power(0.5))


def two_regime_market(lam0=1.0, lam1=1.0, r1=0.03, mu1=0.01):
    dist = ExponentialPositive(10.0)
    p0 = RegimeMarketParams(
        r=0.045, mu=-0.05, lam=lam0, dist=dist,
        margin=PiecewiseLinearConcave.differential_rates(0.045, 0.05),
    )
    p1 = RegimeMarketParams(
        r=r1, mu=mu1, lam=lam1, dist=dist,
        margin=PiecewiseLinearConcave.differential_rates(r1, 0.05),
    )
    return MarketModel(regimes=(p0, p1), constraint=NO_SHORTING)


def symmetric_market():
    return two_regime_market(r1=0.045, mu1=-0.05)


def solved_policy(mkt, utility, x, T):
    if utility.is_log:
        return log_optimal_policy(mkt, x, T)
    return power_optimal_policy(mkt, utility.gamma)


def solved_value(mkt, utility, x, T, i0):
    """Exact J of the solved per-regime weights from regime i0."""
    pi = solved_policy(mkt, utility, x, T).pi
    return float(exact_value(mkt, utility, x, T, [pi], i0)[0])


class TestInputs:
    def test_condition_checks_and_drift(self):
        """d_bar of the solved log weights; the solver certifies them."""
        mkt = two_regime_market()
        pol = log_optimal_policy(mkt, 2.0, 3.0)
        d_bar = mean_log_growth(mkt, [pol.pi])[0]
        for i, params in enumerate(mkt.regimes):
            pi = pol.pi[i]
            d_manual = (
                params.r
                + params.margin.g(pi)
                + pi * (params.mu - params.r)
                + params.lam * params.dist.expect(lambda y: np.log1p(pi * np.expm1(y)))
            )
            assert d_bar[i] == pytest.approx(d_manual, abs=1e-14)

    def test_still_chain(self, tmp_path, capsys):
        """lambda0 = lambda1 = 0: the chain stays in its start regime, so
        J = (T+1) ln(x/(T+1)) + d_bar_i0 (T + T^2/2); `value` exits 0 and
        says the published display is undefined."""
        data = yaml.safe_load(REGIME_SWITCHING.read_text())
        for regime in data["model"]["regimes"]:
            regime["lam"] = 0.0
        path = tmp_path / "still.yaml"
        path.write_text(yaml.safe_dump(data))
        cfg = load_config(str(path))
        mkt, x, T = cfg.market, cfg.initial_wealth, cfg.horizon
        policy = log_optimal_policy(mkt, x, T)
        d_bar = mean_log_growth(mkt, [policy.pi])[0]
        for i0 in (0, 1):
            J = exact_value(mkt, Utility.log(), x, T, [policy.pi], i0)[0]
            expected = (T + 1.0) * math.log(x / (T + 1.0)) + d_bar[i0] * (T + T * T / 2.0)
            assert J == pytest.approx(expected, rel=1e-15)
            assert value_corollary(mkt.gen, d_bar, x, T, i0) is None
            if i0 == 0:
                assert J == pytest.approx(-1.3187943611198905, rel=1e-15)
        argv = ["value", str(path), "--n-paths", "1000", "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "  corollary     undefined at lambda0 + lambda1 = 0\n" in capsys.readouterr().out


class TestIdentityTransform:
    """The exact value does not assume the exponential transform."""

    @pytest.fixture
    def config_path(self, tmp_path):
        data = yaml.safe_load(REGIME_SWITCHING.read_text())
        for regime in data["model"]["regimes"]:
            regime["transform"] = "identity"
        path = tmp_path / "identity.yaml"
        path.write_text(yaml.safe_dump(data))
        return path

    @pytest.mark.parametrize("i0", [0, 1])
    @pytest.mark.parametrize("utility", UTILITIES, ids=["log", "power"])
    def test_exact_value_matches_monte_carlo(self, config_path, utility, i0):
        """Within 3 standard errors at 1e5 paths (z = +1.03 and +0.97 for
        log, +0.56 and +0.38 for power, from regimes 0 and 1)."""
        cfg = load_config(str(config_path))
        mkt, x, T = cfg.market, cfg.initial_wealth, cfg.horizon
        policy = solved_policy(mkt, utility, x, T)
        J = exact_value(mkt, utility, x, T, [policy.pi], i0)[0]
        sample = jump_columns(mkt.gen, i0, T, mkt.dists, cfg.n_paths, cfg.seed)
        check = expected_utility_mc(mkt, policy.pi, policy.consumption, utility, x, T)
        (est,) = sweep_estimates(mkt, sample, [check])
        assert abs(est.mean - J) <= 3.0 * est.stderr

    def test_value_and_verify_exit_0(self, config_path, tmp_path, capsys):
        for command in ("value", "verify"):
            assert main([command, str(config_path), "--output-dir", str(tmp_path)]) == 0
        assert "FAIL" not in capsys.readouterr().out


class TestSemianalytic:
    def test_single_regime_collapse(self):
        """Identical regimes: J = (T+1)ln(x/(T+1)) + d(T + T^2/2) for log and
        (x^g/g) exp(T(g d - lam + lam E[(1 + pi f)^g])) for power, with d
        the mean log-growth rate (log) or the drift (power)."""
        mkt = symmetric_market()
        params = mkt.regimes[0]
        x, T = 2.0, 3.0
        for utility in UTILITIES:
            pi = solved_policy(mkt, utility, x, T).pi[0]
            drift = params.r + params.margin.g(pi) + pi * (params.mu - params.r)
            g = utility.gamma
            if utility.is_log:
                eta = params.dist.expect(lambda y: np.log1p(pi * np.expm1(y)))
                d = drift + params.lam * eta
                expected = (T + 1.0) * math.log(x / (T + 1.0)) + d * (T + T * T / 2.0)
            else:
                moment = params.dist.expect(lambda y: (1.0 + pi * np.expm1(y)) ** g)
                expected = x**g / g * math.exp(T * (g * drift - params.lam + params.lam * moment))
            for i0 in (0, 1):
                assert solved_value(mkt, utility, x, T, i0) == pytest.approx(expected, abs=1e-12)

    def test_relabel_symmetry(self):
        """Swapping regime labels and the start state leaves J unchanged."""
        mkt_a = two_regime_market(lam0=0.8, lam1=1.4)
        dist = ExponentialPositive(10.0)
        p0 = RegimeMarketParams(
            r=0.03, mu=0.01, lam=1.4, dist=dist,
            margin=PiecewiseLinearConcave.differential_rates(0.03, 0.05),
        )
        p1 = RegimeMarketParams(
            r=0.045, mu=-0.05, lam=0.8, dist=dist,
            margin=PiecewiseLinearConcave.differential_rates(0.045, 0.05),
        )
        mkt_b = MarketModel(regimes=(p0, p1), constraint=NO_SHORTING)
        for utility in UTILITIES:
            for i0 in (0, 1):
                assert solved_value(mkt_a, utility, 1.0, 2.0, i0) == pytest.approx(
                    solved_value(mkt_b, utility, 1.0, 2.0, 1 - i0), abs=1e-12
                )

    def test_wealth_scaling_shift(self):
        """Scaling x by e shifts the log J by exactly (T+1) and scales the
        power J by e^gamma."""
        mkt = two_regime_market()
        T = 2.0
        for utility in UTILITIES:
            a = solved_value(mkt, utility, 1.0, T, 0)
            b = solved_value(mkt, utility, math.e, T, 0)
            if utility.is_log:
                assert b - a == pytest.approx(T + 1.0, abs=1e-10)
            else:
                assert b == pytest.approx(math.e**utility.gamma * a, rel=1e-12)

    @pytest.mark.parametrize("start", [0, 1])
    @pytest.mark.parametrize("lam", [1.0, 1e-3, 1e-6, 1e-9])
    def test_slow_chain_matches_mpmath(self, lam, start):
        """Rates (lam, 2 lam): J = (T+1)ln(x/(T+1))
        + sum_i d_i int_0^T P(eps_s = i)(1 + T - s) ds, by 40-digit
        quadrature.  (1 - e^{-qT})/q-style algebra loses the digits of
        qT, up to 6.5e-2 relative at lam = 1e-9."""
        import mpmath as mp

        mkt = two_regime_market(lam0=lam, lam1=2.0 * lam)
        weights, T, x = [(0.5, 0.2)], 1.0, 1.0
        d_bar = mean_log_growth(mkt, weights)[0]
        with mp.workdps(40):
            lam0, lam1 = mp.mpf(lam), mp.mpf(2.0 * lam)
            q = lam0 + lam1
            stat = (lam1 / q, lam0 / q)

            def weighted_law(i, s):
                return (stat[i] + mp.exp(-q * s) * ((i == start) - stat[i])) * (1 + T - s)

            ref = (T + 1) * mp.log(mp.mpf(x) / (T + 1)) + sum(
                float(d_bar[i]) * mp.quad(lambda s: weighted_law(i, s), [0, T]) for i in (0, 1)
            )
        J = exact_value(mkt, Utility.log(), x, T, weights, start)[0]
        assert abs(J - float(ref)) <= 1e-12 * abs(float(ref))

    def test_start_regime_matters_when_asymmetric(self):
        mkt = two_regime_market()
        for utility in UTILITIES:
            assert solved_value(mkt, utility, 1.0, 1.0, 0) != pytest.approx(
                solved_value(mkt, utility, 1.0, 1.0, 1), abs=1e-6
            )

    @pytest.mark.parametrize("i0", [0, 1])
    def test_power_value_matches_monte_carlo(self, i0):
        """The myopic power pair on regime_switching at gamma = 0.5: exact J
        within 3 standard errors of 1e5 paths."""
        cfg = load_config(str(REGIME_SWITCHING))
        mkt, x, T = cfg.market, cfg.initial_wealth, cfg.horizon
        utility = Utility.power(0.5)
        policy = power_optimal_policy(mkt, utility.gamma)
        assert policy.pi[0] != policy.pi[1]
        J = exact_value(mkt, utility, x, T, [policy.pi], i0)[0]
        sample = jump_columns(mkt.gen, i0, T, mkt.dists, 100_000, cfg.seed)
        check = expected_utility_mc(mkt, policy.pi, policy.consumption, utility, x, T)
        (est,) = sweep_estimates(mkt, sample, [check])
        assert abs(est.mean - J) <= 3.0 * est.stderr


def published_display(gen, d_bar, x, T, i0, corrected):
    """The published two-regime display at 50 digits, verbatim or with the
    erratum of the ``regime_value`` docstring: (a) both growth terms
    change sign and (b) the bracket's 1 + 1/q becomes 1 - 1/q.  In floats
    the display cancels as q -> 0."""
    import mpmath as mp

    with mp.workdps(50):
        lam0, lam1, x, T = (mp.mpf(v) for v in (gen.lambda0, gen.lambda1, x, T))
        d0, d1 = (mp.mpf(float(d)) for d in d_bar)
        q = lam0 + lam1
        head = (T + 1) * mp.log(x) - (T + 1) * mp.log(T + 1)
        sym = (lam1 * d0 + lam0 * d1) * (T + T * T / 2)
        bracket = T + (1 - mp.exp(-q * T)) * (1 + (-1 if corrected else 1) / q)
        lam_i, sign = (lam0, 1) if i0 == 0 else (lam1, -1)
        growth = (sym + sign * lam_i * (d0 - d1) / q * bracket) / q
        return float(head + growth if corrected else head - growth)


class TestCorollaryComparison:
    def test_comparison_reports_deviation(self):
        """The published display deviates from the exact value from both
        start regimes; the deviation is surfaced, not hidden."""
        mkt = two_regime_market()
        d_bar = mean_log_growth(mkt, [log_optimal_policy(mkt, 1.0, 1.0).pi])[0]
        for i0 in (0, 1):
            coro = value_corollary(mkt.gen, d_bar, 1.0, 1.0, i0)
            assert abs(coro - solved_value(mkt, Utility.log(), 1.0, 1.0, i0)) > 1e-3

    def test_erratum_matches_exact_value(self):
        """Over random markets, weights, T, x and start regimes, with
        lambda0 + lambda1 from 1 down to 1e-9, the corrected display equals
        the exact log value to 1e-12 relative; where floats do not cancel,
        the verbatim display is ``value_corollary``."""
        rng = np.random.default_rng(20)
        for q in np.logspace(0.0, -9.0, 40):
            u = rng.uniform(0.1, 0.9)
            lam = (q * u, q * (1.0 - u))
            regimes = []
            for i in (0, 1):
                r = rng.uniform(0.0, 0.05)
                regimes.append(
                    RegimeMarketParams(
                        r=r, mu=rng.uniform(-0.1, 0.1), lam=lam[i],
                        dist=ExponentialPositive(rng.uniform(5.0, 20.0)),
                        margin=PiecewiseLinearConcave.differential_rates(r, r + 0.02),
                    )
                )
            mkt = MarketModel(regimes=tuple(regimes))
            weights = [rng.uniform(0.0, 2.0, size=2)]
            x, T, i0 = rng.uniform(0.1, 0.5), rng.uniform(0.5, 3.0), int(rng.integers(2))
            d_bar = mean_log_growth(mkt, weights)[0]
            J = exact_value(mkt, Utility.log(), x, T, weights, i0)[0]
            corrected = published_display(mkt.gen, d_bar, x, T, i0, corrected=True)
            assert abs(corrected - J) <= 1e-12 * abs(J), q
            if q > 0.1:
                verbatim = published_display(mkt.gen, d_bar, x, T, i0, corrected=False)
                assert value_corollary(mkt.gen, d_bar, x, T, i0) == pytest.approx(verbatim, rel=1e-9)

    def test_start_state_validated(self):
        mkt = two_regime_market()
        d_bar = mean_log_growth(mkt, [log_optimal_policy(mkt, 1.0, 1.0).pi])[0]
        with pytest.raises(ConfigError):
            value_corollary(mkt.gen, d_bar, 1.0, 1.0, 2)
        with pytest.raises(ConfigError):
            exact_value(mkt, Utility.log(), 1.0, 1.0, [(0.5, 0.5)], -1)


def _fig1_grid(n):
    """The (pi, pi) weights of the grid search on n points of [0, 2]."""
    return np.round(np.linspace(0.0, 2.0, n), 10)


class TestRowChunks:
    """exact_value integrates at most EXPECT_CELLS (row x node) cells at a
    time; no row's J depends on the rows that share its quadrature."""

    @staticmethod
    def _rows(case):
        if case == "regime_switching":
            pi0, pi1 = np.meshgrid(np.linspace(0.0, 2.0, 9), np.linspace(0.0, 1.5, 7))
            return load_config(REGIME_SWITCHING).market, np.column_stack((pi0.ravel(), pi1.ravel()))
        grid = _fig1_grid(201)
        return load_config(FIG1).market, np.column_stack((grid, grid))

    @pytest.mark.parametrize("case", ["regime_switching", "fig1"])
    @pytest.mark.parametrize("utility", UTILITIES, ids=["log", "power"])
    def test_rows_are_each_row_alone(self, utility, case):
        """Bit for bit, on distinct (pi0, pi1) rows and on fig1's 201-point
        (pi, pi) grid, both ending in a partial chunk."""
        mkt, weights = self._rows(case)
        step = EXPECT_CELLS // mkt.dists[0].n_nodes
        assert step == 16 and len(weights) % step != 0
        for i0 in (0, 1):
            together = exact_value(mkt, utility, 1.0, 1.0, weights, i0)
            alone = [exact_value(mkt, utility, 1.0, 1.0, w[None], i0) for w in weights]
            assert np.all(np.isfinite(together))
            assert together.tobytes() == np.concatenate(alone).tobytes()

    @pytest.mark.parametrize("utility", UTILITIES, ids=["log", "power"])
    def test_no_rows(self, utility):
        mkt = load_config(REGIME_SWITCHING).market
        assert exact_value(mkt, utility, 1.0, 1.0, np.empty((0, 2)), 0).shape == (0,)
        with pytest.raises(InfeasiblePolicyError, match="no feasible grid point"):
            grid_search_constant_portfolio(mkt, utility, 1.0, 1.0, [-1.0, -0.5])

    def test_grid_memory_does_not_grow_with_the_rows(self):
        """The tracemalloc peak of the grid search on fig1, for log utility
        and gamma = 0.5: about 0.35 MB at 201 weights (3.8 MB when every
        row met every node in one array), and within 20 % of that at 2,001
        weights (17 % for both; 24 % at gamma = 0.5 while the power closed
        form ran on every row at once)."""
        mkt = load_config(FIG1).market

        def peak(utility, grid):
            tracemalloc.start()
            try:
                grid_search_constant_portfolio(mkt, utility, 1.0, 1.0, grid)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for utility in UTILITIES:
            peak(utility, _fig1_grid(11))  # warm up
            small, large = peak(utility, _fig1_grid(201)), peak(utility, _fig1_grid(2001))
            assert small < 600_000, utility
            assert large < 1.2 * small, utility
