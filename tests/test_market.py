import io
import math
from pathlib import Path

import numpy as np
import pytest

from jumpfolio.config import load_config
from jumpfolio.distributions import ExponentialPositive, TwoPoint
from jumpfolio.errors import BankruptcyError, ConfigError, DomainError, RuinError
from jumpfolio.frictions import DifferentialRates, NO_SHORTING
from jumpfolio.market import (
    MarketModel,
    ProportionalConsumption,
    RegimeMarketParams,
    ZeroConsumption,
    export_path_csv,
    gross_wealth_path,
    jump_transform,
    log_optimal_consumption,
    stock_path,
    wealth_path,
)
from jumpfolio.mpp import (
    GeneratorMatrix,
    MarkedPointPath,
    simulate_ensemble,
)

FIG3 = Path(__file__).resolve().parents[1] / "demos" / "configs" / "fig3.yaml"


def make_market(lam=1.0, r=0.045, mu=-0.05, R=0.05, rate=10.0):
    dist = ExponentialPositive(rate)
    params = RegimeMarketParams(
        r=r, mu=mu, lam=lam, dist=dist, margin=DifferentialRates(r, R)
    )
    return MarketModel(
        gen=GeneratorMatrix(lam, lam), regimes=(params, params), constraint=NO_SHORTING
    )


def fixed_path(times, marks, T=2.0, i0=0):
    return MarkedPointPath(
        initial_state=i0,
        jump_times=np.asarray(times, float),
        marks=np.asarray(marks, float),
        horizon=T,
    )


class TestModelValidation:
    def test_intensity_must_match_chain_rate(self):
        dist = ExponentialPositive(10.0)
        p0 = RegimeMarketParams(r=0.0, mu=0.0, lam=1.0, dist=dist)
        p1 = RegimeMarketParams(r=0.0, mu=0.0, lam=2.0, dist=dist)
        with pytest.raises(ConfigError):
            MarketModel(gen=GeneratorMatrix(1.0, 1.0), regimes=(p0, p1))

    def test_transform_names(self):
        f = jump_transform("exponential")
        assert f(0.0) == 0.0 and f(math.log(2.0)) == pytest.approx(1.0)
        g = jump_transform("identity")
        assert g(0.3) == pytest.approx(0.3)
        with pytest.raises(ConfigError):
            jump_transform("cubic")


class TestStockPath:
    def test_deterministic_segment_and_jump(self):
        mkt = make_market()
        path = fixed_path([1.0], [0.2], T=2.0)
        t, S = stock_path(mkt, path, s0=1.0)
        mu = -0.05
        # right before the jump: pure drift; at the jump: factor e^y
        i = np.searchsorted(t, 1.0)
        assert t[i] == 1.0
        assert S[i] == pytest.approx(math.exp(mu * 1.0) * math.exp(0.2), rel=1e-12)
        assert S[-1] == pytest.approx(math.exp(mu * 2.0) * math.exp(0.2), rel=1e-12)

    def test_compensated_mean(self):
        """E[S_T] = s0 exp((mu + lam(m(1)-1)) T) for a single regime."""
        mkt = make_market()
        T = 1.0
        ens = simulate_ensemble(mkt.gen, 0, T, mkt.dists, 40_000, 17)
        finals = []
        for p in range(ens.n_paths):
            path = ens.path(p)
            _, S = stock_path(mkt, path, s0=1.0, n_grid=1)
            finals.append(S[-1])
        finals = np.array(finals)
        m1 = mkt.dists[0].mgf(1.0)
        target = math.exp((-0.05 + 1.0 * (m1 - 1.0)) * T)
        stderr = finals.std(ddof=1) / math.sqrt(len(finals))
        assert abs(finals.mean() - target) < 4 * stderr


class TestGrossWealth:
    def test_manual_two_jump_path(self):
        mkt = make_market()
        pi = 0.5
        path = fixed_path([0.5, 1.5], [0.1, 0.3], T=2.0)
        t, V = gross_wealth_path(mkt, pi, path)
        r, mu = 0.045, -0.05
        b = r + 0.0 + pi * (mu - r)  # g(0.5) = 0
        jump1 = 1.0 + pi * (math.exp(0.1) - 1.0)
        jump2 = 1.0 + pi * (math.exp(0.3) - 1.0)
        expected_T = math.exp(b * 2.0) * jump1 * jump2
        assert V[-1] == pytest.approx(expected_T, rel=1e-12)

    def test_borrowing_margin_enters_drift(self):
        mkt = make_market()
        pi = 2.0  # borrowing: g(2) = -(R - r)
        path = fixed_path([], [], T=1.0)
        _, V = gross_wealth_path(mkt, pi, path)
        r, mu, R = 0.045, -0.05, 0.05
        b = r - (R - r) * (2.0 - 1.0) + pi * (mu - r)
        assert V[-1] == pytest.approx(math.exp(b), rel=1e-12)

    def test_bankruptcy_raises(self):
        dist = TwoPoint(y_lo=-2.0, y_hi=0.5, p_hi=0.5)
        params = RegimeMarketParams(r=0.0, mu=0.0, lam=1.0, dist=dist)
        mkt = MarketModel(gen=GeneratorMatrix(1.0, 1.0), regimes=(params, params))
        path = fixed_path([1.0], [-2.0], T=2.0)
        with pytest.raises(BankruptcyError) as exc:
            gross_wealth_path(mkt, 1.5, path)  # 1 + 1.5(e^-2 - 1) < 0
        assert exc.value.jump_time == pytest.approx(1.0)
        assert exc.value.mark == -2.0

    def test_full_weight_jump_below_expm1_range(self):
        """fig3's market, one jump with mark -40: expm1(-40) rounds to -1,
        but the factor at pi = 1 is e^-40 > 0, so both levels stay finite."""
        mkt = load_config(FIG3).market
        path = fixed_path([0.5], [-40.0], T=1.0)
        _, S = stock_path(mkt, path, s0=1.0)
        _, V = gross_wealth_path(mkt, 1.0, path)
        assert np.all(np.isfinite(S)) and np.all(np.isfinite(V))
        assert math.log(S[-1]) == pytest.approx(0.07 * 1.0 - 40.0, rel=1e-12)
        assert math.log(V[-1]) == pytest.approx(0.07 * 1.0 - 40.0, rel=1e-12)

    def test_overflow_raises(self):
        """At pi = 1 the log level is mu T = 1000, past the float range: raise, never inf."""
        mkt = make_market(mu=100.0)
        path = fixed_path([], [], T=10.0)
        with pytest.raises(DomainError, match="t="):
            gross_wealth_path(mkt, 1.0, path)


class TestWealthFactorisation:
    def test_factorisation_exact(self):
        """V = xi * V^{1,pi,0} holds to 1e-12 relative at every grid point."""
        mkt = make_market()
        x, T = 2.0, 2.0
        path = fixed_path([0.4, 1.1, 1.9], [0.05, 0.2, 0.01], T=T)
        wp = wealth_path(x, mkt, 0.7, log_optimal_consumption(x, T), path)
        assert np.allclose(wp.V, wp.xi * wp.v_gross, rtol=1e-12, atol=0.0)
        _, v_ref = gross_wealth_path(mkt, 0.7, path)
        assert np.allclose(wp.v_gross, v_ref, rtol=1e-12)

    def test_zero_consumption_keeps_xi_constant(self):
        mkt = make_market()
        path = fixed_path([0.5], [0.1], T=1.0)
        wp = wealth_path(3.0, mkt, 0.5, ZeroConsumption(), path)
        assert np.all(wp.xi == 3.0)

    def test_proportional_ruin_detected(self):
        mkt = make_market()
        path = fixed_path([], [], T=2.0)
        with pytest.raises(RuinError) as exc:
            wealth_path(1.0, mkt, 0.5, ProportionalConsumption(0.8), path)
        assert exc.value.ruin_time == pytest.approx(1.25)

    def test_log_optimal_wealth_identity_single_path(self):
        mkt = make_market()
        x, T = 1.0, 3.0
        path = fixed_path([0.7, 2.1], [0.15, 0.05], T=T)
        wp = wealth_path(x, mkt, 0.7, log_optimal_consumption(x, T), path)
        reference = x * wp.v_gross * (1.0 - wp.t / (T + 1.0))
        assert np.max(np.abs(wp.V - reference)) <= 1e-10 * np.max(x * wp.v_gross)


def reference_export_path_csv(path_obj, stock, fh, comment_lines=()):
    """Oracle: one f-string per value, one write per row."""
    header, rows = path_obj.to_csv_rows(stock)
    for line in comment_lines:
        fh.write(f"# {line}\n")
    fh.write(",".join(header) + "\n")
    for row in rows:
        fields = [f"{row[0]:.17g}", str(int(row[1]))] + [f"{v:.17g}" for v in row[2:]]
        fh.write(",".join(fields) + "\n")


class TestCsvExport:
    @pytest.mark.parametrize("with_stock", [True, False])
    def test_matches_per_row_writer(self, with_stock):
        mkt = make_market(lam=5.0)
        path = simulate_ensemble(mkt.gen, 1, 4.0, mkt.dists, 1, 31).path(0)
        assert path.n_jumps > 5
        wp = wealth_path(1.0, mkt, 0.5, ProportionalConsumption(0.05), path)
        stock = stock_path(mkt, path, s0=1.0)[1] if with_stock else None
        got, ref = io.StringIO(), io.StringIO()
        export_path_csv(wp, stock, got, comment_lines=("a", "b"))
        reference_export_path_csv(wp, stock, ref, comment_lines=("a", "b"))
        assert got.getvalue() == ref.getvalue()
        assert ("nan" in got.getvalue()) != with_stock

    def test_seventeen_digit_round_trip(self):
        mkt = make_market()
        x, T = 1.0, 1.0
        path = fixed_path([0.25], [0.1], T=T)
        wp = wealth_path(x, mkt, 0.5, ZeroConsumption(), path)
        _, S = stock_path(mkt, path, s0=1.0)
        buf = io.StringIO()
        export_path_csv(wp, S, buf, comment_lines=("probe",))
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# probe"
        assert lines[1].split(",") == ["t", "regime", "S", "V1pi0", "xi", "V"]
        # numeric fields round-trip exactly through the 17-digit format
        values = lines[2 + np.searchsorted(wp.t, 0.25)].split(",")
        assert float(values[3]) == wp.v_gross[np.searchsorted(wp.t, 0.25)]
