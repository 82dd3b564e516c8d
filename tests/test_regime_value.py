import math

import numpy as np
import pytest

from jumpfolio.distributions import ExponentialPositive
from jumpfolio.errors import ConfigError
from jumpfolio.frictions import DifferentialRates, NO_SHORTING
from jumpfolio.market import MarketModel, RegimeMarketParams
from jumpfolio.mpp import GeneratorMatrix
from jumpfolio.policy import log_optimal_policy
from jumpfolio.regime_value import (
    RegimeValueInputs,
    regime_inputs,
    value_comparison,
    value_corollary,
    value_semianalytic,
)


def two_regime_market(lam0=1.0, lam1=1.0, r1=0.03, mu1=0.01):
    dist = ExponentialPositive(10.0)
    p0 = RegimeMarketParams(
        r=0.045, mu=-0.05, lam=lam0, dist=dist, margin=DifferentialRates(0.045, 0.05)
    )
    p1 = RegimeMarketParams(
        r=r1, mu=mu1, lam=lam1, dist=dist, margin=DifferentialRates(r1, 0.05)
    )
    return MarketModel(
        gen=GeneratorMatrix(lam0, lam1), regimes=(p0, p1), constraint=NO_SHORTING
    )


def symmetric_market():
    return two_regime_market(r1=0.045, mu1=-0.05)


class TestInputs:
    def test_condition_checks_and_drift(self):
        mkt = two_regime_market()
        inp = regime_inputs(mkt, x=2.0, T=3.0)
        pol = log_optimal_policy(mkt, 2.0, 3.0)
        for i, params in enumerate(mkt.regimes):
            pi = pol.pi[i]
            d_manual = (
                params.r
                + params.margin.g(pi)
                + pi * (params.mu - params.r)
                + params.lam * params.dist.expect(lambda y: np.log1p(pi * np.expm1(y)))
            )
            assert inp.d_bar[i] == pytest.approx(d_manual, abs=1e-14)

    def test_degenerate_generator_rejected(self):
        with pytest.raises(ConfigError):
            RegimeValueInputs(
                lambda0=0.0, lambda1=0.0, d_bar=(0.1, 0.1), horizon=1.0, initial_wealth=1.0,
            )


class TestSemianalytic:
    def test_single_regime_collapse(self):
        """Identical regimes: J = (T+1)ln(x/(T+1)) + d(T + T^2/2)."""
        mkt = symmetric_market()
        x, T = 2.0, 3.0
        inp = regime_inputs(mkt, x, T)
        d = inp.d_bar[0]
        expected = (T + 1.0) * math.log(x / (T + 1.0)) + d * (T + T * T / 2.0)
        assert value_semianalytic(inp, 0) == pytest.approx(expected, abs=1e-12)
        assert value_semianalytic(inp, 1) == pytest.approx(expected, abs=1e-12)

    def test_relabel_symmetry(self):
        """Swapping regime labels and the start state leaves J unchanged."""
        mkt_a = two_regime_market(lam0=0.8, lam1=1.4)
        inp_a = regime_inputs(mkt_a, 1.0, 2.0)
        dist = ExponentialPositive(10.0)
        p0 = RegimeMarketParams(
            r=0.03, mu=0.01, lam=1.4, dist=dist, margin=DifferentialRates(0.03, 0.05)
        )
        p1 = RegimeMarketParams(
            r=0.045, mu=-0.05, lam=0.8, dist=dist, margin=DifferentialRates(0.045, 0.05)
        )
        mkt_b = MarketModel(
            gen=GeneratorMatrix(1.4, 0.8), regimes=(p0, p1), constraint=NO_SHORTING
        )
        inp_b = regime_inputs(mkt_b, 1.0, 2.0)
        assert value_semianalytic(inp_a, 0) == pytest.approx(
            value_semianalytic(inp_b, 1), abs=1e-12
        )
        assert value_semianalytic(inp_a, 1) == pytest.approx(
            value_semianalytic(inp_b, 0), abs=1e-12
        )

    def test_wealth_scaling_shift(self):
        """Scaling x by e shifts J by exactly (T+1)."""
        mkt = two_regime_market()
        T = 2.0
        a = regime_inputs(mkt, 1.0, T)
        b = regime_inputs(mkt, math.e, T)
        assert value_semianalytic(b, 0) - value_semianalytic(a, 0) == pytest.approx(
            T + 1.0, abs=1e-10
        )

    def test_start_regime_matters_when_asymmetric(self):
        mkt = two_regime_market()
        inp = regime_inputs(mkt, 1.0, 1.0)
        assert value_semianalytic(inp, 0) != pytest.approx(
            value_semianalytic(inp, 1), abs=1e-6
        )


class TestCorollaryComparison:
    def test_comparison_reports_deviation(self):
        """The published display deviates from the independent derivation;
        the deviation is surfaced, not hidden."""
        mkt = two_regime_market()
        inp = regime_inputs(mkt, 1.0, 1.0)
        rep = value_comparison(inp, 0)
        assert rep["deviation"] == pytest.approx(
            rep["corollary"] - rep["semianalytic"], abs=1e-15
        )
        # both carry the same wealth/horizon head term
        assert abs(rep["deviation"]) < abs(rep["semianalytic"]) + abs(rep["corollary"])

    def test_start_state_validated(self):
        mkt = two_regime_market()
        inp = regime_inputs(mkt, 1.0, 1.0)
        with pytest.raises(ConfigError):
            value_corollary(inp, 2)
        with pytest.raises(ConfigError):
            value_semianalytic(inp, -1)
