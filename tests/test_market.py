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
    DEFAULT_GRID_POINTS,
    MarketModel,
    ProportionalConsumption,
    RegimeMarketParams,
    ZeroConsumption,
    _checked_exp,
    export_path_csv,
    jump_transform,
    log_optimal_consumption,
    stock_path,
    wealth_path,
)
from jumpfolio.mpp import (
    GeneratorMatrix,
    PathEnsemble,
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
    """A hand-worked path: a one-row ensemble."""
    return PathEnsemble(
        initial_state=i0,
        horizon=T,
        times=np.asarray(times, float).reshape(1, -1),
        marks=np.asarray(marks, float).reshape(1, -1),
        counts=np.array([len(times)]),
    )


def gross_wealth(mkt, pi, path):
    """V^{1,pi,0} of a one-row ensemble on its grid: (t, V)."""
    wp = wealth_path(1.0, mkt, pi, ZeroConsumption(), path)
    return wp.t[0], wp.v_gross[0]


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
        t, S = (a[0] for a in stock_path(mkt, path, s0=1.0))
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
        _, S = stock_path(mkt, ens, s0=1.0, n_grid=1)
        finals = S[:, -1]
        m1 = mkt.dists[0].mgf(1.0)
        target = math.exp((-0.05 + 1.0 * (m1 - 1.0)) * T)
        stderr = finals.std(ddof=1) / math.sqrt(len(finals))
        assert abs(finals.mean() - target) < 4 * stderr

    def test_checked_exp_names_first_bad_row_and_time(self):
        """In a block, the first row whose level leaves the float range is
        named with its own time, not the block's flat position."""
        log_level = np.array([[0.0, 1.0, 2.0], [0.0, 800.0, 900.0], [0.0, 1000.0, 5.0]])
        times = np.array([[0.0, 0.5, 1.0], [0.0, 0.25, 1.0], [0.0, 0.1, 1.0]])
        with pytest.raises(DomainError, match=r"exp\(800\) of row 1 at t=0.25 "):
            _checked_exp(log_level, times)
        # two stock jumps of log size 400 take row 1 of a block past the
        # float range at its second jump
        block = PathEnsemble(
            initial_state=0,
            horizon=1.0,
            times=np.array([[0.5, np.inf], [0.25, 0.75]]),
            marks=np.array([[0.1, 0.0], [400.0, 400.0]]),
            counts=np.array([1, 2]),
        )
        with pytest.raises(DomainError, match=r"of row 1 at t=0.75 "):
            stock_path(make_market(), block, s0=1.0)


class TestGrossWealth:
    def test_manual_two_jump_path(self):
        mkt = make_market()
        pi = 0.5
        path = fixed_path([0.5, 1.5], [0.1, 0.3], T=2.0)
        t, V = gross_wealth(mkt, pi, path)
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
        _, V = gross_wealth(mkt, pi, path)
        r, mu, R = 0.045, -0.05, 0.05
        b = r - (R - r) * (2.0 - 1.0) + pi * (mu - r)
        assert V[-1] == pytest.approx(math.exp(b), rel=1e-12)

    def test_bankruptcy_raises(self):
        dist = TwoPoint(y_lo=-2.0, y_hi=0.5, p_hi=0.5)
        params = RegimeMarketParams(r=0.0, mu=0.0, lam=1.0, dist=dist)
        mkt = MarketModel(gen=GeneratorMatrix(1.0, 1.0), regimes=(params, params))
        path = fixed_path([1.0], [-2.0], T=2.0)
        with pytest.raises(BankruptcyError) as exc:
            gross_wealth(mkt, 1.5, path)  # 1 + 1.5(e^-2 - 1) < 0
        assert exc.value.jump_time == pytest.approx(1.0)
        assert exc.value.mark == -2.0

    def test_full_weight_jump_below_expm1_range(self):
        """fig3's market, one jump with mark -40: expm1(-40) rounds to -1,
        but the factor at pi = 1 is e^-40 > 0, so both levels stay finite."""
        mkt = load_config(FIG3).market
        path = fixed_path([0.5], [-40.0], T=1.0)
        _, S = (a[0] for a in stock_path(mkt, path, s0=1.0))
        _, V = gross_wealth(mkt, 1.0, path)
        assert np.all(np.isfinite(S)) and np.all(np.isfinite(V))
        assert math.log(S[-1]) == pytest.approx(0.07 * 1.0 - 40.0, rel=1e-12)
        assert math.log(V[-1]) == pytest.approx(0.07 * 1.0 - 40.0, rel=1e-12)

    def test_overflow_raises(self):
        """At pi = 1 the log level is mu T = 1000, past the float range: raise, never inf."""
        mkt = make_market(mu=100.0)
        path = fixed_path([], [], T=10.0)
        with pytest.raises(DomainError, match="t="):
            gross_wealth(mkt, 1.0, path)


class TestWealthFactorisation:
    def test_factorisation_exact(self):
        """V = xi * V^{1,pi,0} holds to 1e-12 relative at every grid point."""
        mkt = make_market()
        x, T = 2.0, 2.0
        path = fixed_path([0.4, 1.1, 1.9], [0.05, 0.2, 0.01], T=T)
        wp = wealth_path(x, mkt, 0.7, log_optimal_consumption(x, T), path)
        assert np.allclose(wp.V, wp.xi * wp.v_gross, rtol=1e-12, atol=0.0)
        _, v_ref = gross_wealth(mkt, 0.7, path)
        assert np.allclose(wp.v_gross[0], v_ref, rtol=1e-12)

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


class TestRowBlocks:
    def test_rows_match_one_row_evaluations(self):
        """A row's wealth and stock in a block are bit-identical to its
        one-row evaluation; its cells past its own repeat the point at T."""
        mkt = load_config(FIG3).market
        ens = simulate_ensemble(mkt.gen, 1, 3.0, mkt.dists, 40, 8)
        assert len(set(ens.counts.tolist())) > 3
        policy = (0.4, -2.0), log_optimal_consumption(1.0, 3.0)
        wp = wealth_path(1.0, mkt, *policy, ens)
        _, S = stock_path(mkt, ens, s0=2.0)
        for k in range(ens.n_paths):
            cells = DEFAULT_GRID_POINTS + 1 + ens.counts[k]
            row = ens.rows(k, k + 1)
            alone = wealth_path(1.0, mkt, *policy, row)
            for name in ("t", "regime", "v_gross", "xi", "V"):
                got = getattr(wp, name)[k]
                assert np.array_equal(got[:cells], getattr(alone, name)[0]), (k, name)
                assert np.all(got[cells:] == got[cells - 1]), (k, name)
            assert np.array_equal(S[k, :cells], stock_path(mkt, row, s0=2.0)[1][0])


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
        path = simulate_ensemble(mkt.gen, 1, 4.0, mkt.dists, 1, 31)
        assert path.counts[0] > 5
        cells = DEFAULT_GRID_POINTS + 1 + path.counts[0]
        wp = wealth_path(1.0, mkt, 0.5, ProportionalConsumption(0.05), path).row(0, cells)
        stock = stock_path(mkt, path, s0=1.0)[1][0] if with_stock else None
        got, ref = io.StringIO(), io.StringIO()
        export_path_csv(wp, stock, got, comment_lines=("a", "b"))
        reference_export_path_csv(wp, stock, ref, comment_lines=("a", "b"))
        assert got.getvalue() == ref.getvalue()
        assert ("nan" in got.getvalue()) != with_stock

    def test_seventeen_digit_round_trip(self):
        mkt = make_market()
        x, T = 1.0, 1.0
        path = fixed_path([0.25], [0.1], T=T)
        wp = wealth_path(x, mkt, 0.5, ZeroConsumption(), path).row(0, DEFAULT_GRID_POINTS + 2)
        _, S = (a[0] for a in stock_path(mkt, path, s0=1.0))
        buf = io.StringIO()
        export_path_csv(wp, S, buf, comment_lines=("probe",))
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# probe"
        assert lines[1].split(",") == ["t", "regime", "S", "V1pi0", "xi", "V"]
        # numeric fields round-trip exactly through the 17-digit format
        values = lines[2 + np.searchsorted(wp.t, 0.25)].split(",")
        assert float(values[3]) == wp.v_gross[np.searchsorted(wp.t, 0.25)]
