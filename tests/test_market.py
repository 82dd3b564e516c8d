import dataclasses
import io
import math
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jumpfolio import market as market_mod
from jumpfolio.config import load_config
from jumpfolio.distributions import ExponentialPositive, TwoPoint
from jumpfolio.errors import BankruptcyError, ConfigError, DomainError, RuinError
from jumpfolio.frictions import NO_SHORTING, PiecewiseLinearConcave
from jumpfolio.market import (
    DEFAULT_GRID_POINTS,
    MarketModel,
    ProportionalConsumption,
    RegimeMarketParams,
    ZeroConsumption,
    _CSV_ROW,
    _checked_exp,
    _csv_text,
    export_path_csv,
    jump_transform,
    log_optimal_consumption,
    report_grid,
    stock_path,
    wealth_path,
)
from jumpfolio.mpp import GeneratorMatrix, PathEnsemble, simulate_ensemble
from jumpfolio.policy import log_optimal_policy

ROOT = Path(__file__).resolve().parents[1]
FIG3 = ROOT / "demos" / "configs" / "fig3.yaml"
PATHS_DENSE = ROOT / "bench" / "configs" / "paths_dense.yaml"


def make_market(lam=1.0, r=0.045, mu=-0.05, R=0.05, rate=10.0):
    dist = ExponentialPositive(rate)
    params = RegimeMarketParams(
        r=r, mu=mu, lam=lam, dist=dist, margin=PiecewiseLinearConcave.differential_rates(r, R)
    )
    return MarketModel(regimes=(params, params), constraint=NO_SHORTING)


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
    def test_chain_is_derived_from_the_intensities(self):
        """Events are the chain's jumps: its exit rates are the regimes' lam,
        and no chain can be passed in."""
        dist = ExponentialPositive(10.0)
        p0 = RegimeMarketParams(r=0.0, mu=0.0, lam=1.0, dist=dist)
        p1 = RegimeMarketParams(r=0.0, mu=0.0, lam=2.0, dist=dist)
        mkt = MarketModel(regimes=(p0, p1))
        assert mkt.gen == GeneratorMatrix(1.0, 2.0)
        assert MarketModel(regimes=(p1, p0)).gen == GeneratorMatrix(2.0, 1.0)
        with pytest.raises(TypeError):
            MarketModel(gen=GeneratorMatrix(1.0, 2.0), regimes=(p0, p1))

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
        _, S = stock_path(mkt, ens, s0=1.0, grid=report_grid(ens, 1))
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
        mkt = MarketModel(regimes=(params, params))
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

    def test_one_format_call_matches_one_per_row(self):
        """The whole path gives the bytes of one % per row, non-finite
        cells included."""
        mkt = make_market(lam=5.0)
        path = simulate_ensemble(mkt.gen, 0, 4.0, mkt.dists, 1, 32)
        cells = DEFAULT_GRID_POINTS + 1 + path.counts[0]
        wp = wealth_path(1.0, mkt, 0.5, ProportionalConsumption(0.05), path).row(0, cells)
        V = wp.V.copy()
        V[3], V[7] = np.inf, -np.inf
        wp = dataclasses.replace(wp, V=V)
        got = io.StringIO()
        export_path_csv(wp, None, got)
        header, rows = wp.to_csv_rows()
        per_row = ",".join(header) + "\n" + "".join(_CSV_ROW % tuple(r) for r in rows.tolist())
        assert got.getvalue() == per_row
        assert ",inf\n" in per_row and ",-inf\n" in per_row and ",nan," in per_row

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


def per_row_csv(rows):
    """Oracle: _CSV_ROW applied to one row at a time."""
    return "".join(_CSV_ROW % tuple(row) for row in rows.tolist())


def cell_rows(values, regimes=(0.0, 1.0)):
    """values in the five float columns, row after row (the last row padded
    with 1), and regimes repeated down the regime column."""
    values = np.asarray(values, dtype=float).ravel()
    values = np.concatenate((values, np.ones(-values.size % 5)))
    rows = np.empty((values.size // 5, 6))
    rows[:, [0, 2, 3, 4, 5]] = values.reshape(-1, 5)
    rows[:, 1] = np.resize(np.asarray(regimes, dtype=float), len(rows))
    return rows


def assert_matches_per_row(rows):
    got, ref = _csv_text(rows).splitlines(), per_row_csv(rows).splitlines()
    assert len(got) == len(ref)
    bad = [k for k in range(len(ref)) if got[k] != ref[k]]
    assert not bad, (rows[bad[0]].tolist(), got[bad[0]], ref[bad[0]])


def adversarial_cells():
    """Powers of ten and 1 or 2 ulps either side, 9.99...e k that round to
    10**(k + 1), values at %g exponents -5, -4, 16 and 17, dyadic values,
    exact ties at the 17th digit and their neighbours, +-0, subnormals,
    inf and nan, each with both signs."""
    rng = np.random.default_rng(2026)
    powers = 10.0 ** np.arange(-8, 23)
    below = np.nextafter(powers, 0.0)
    above = np.nextafter(powers, np.inf)
    near = [powers, below, above, np.nextafter(below, 0.0), np.nextafter(above, np.inf)]
    carries = np.array([float(f"9.99999999999999999{d}e{e}") for e in range(-7, 20) for d in range(10)])
    at_edges = np.array([m * 10.0**e for m in (1.0, 1.2345678901234567, 9.87654321) for e in (-5, -4, 16, 17)])
    dyadic = rng.integers(1, 2**20, 2000) * 2.0 ** rng.integers(-40, 40, 2000)
    # odd m / 2**(17 - k) in [10**k, 10**(k + 1)) has 18 significant
    # digits, the last a 5: an exact tie at digit 17
    ties = []
    for k in range(-4, 16):
        lo = math.ceil(10.0**k * 2 ** (17 - k))
        m = 2 * rng.integers(lo // 2, min(10 * lo, 2**53) // 2, 50) + 1
        ties.append(m / 2.0 ** (17 - k))
        digits = Decimal(float(ties[-1][0])).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    special = [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
               np.inf, np.nan, 0.5, 1.5, 2.5, 0.1, 1 / 3, 0.0390625, 12345678.0]
    cells = np.concatenate(near + [carries, np.nextafter(carries, 0.0), np.nextafter(carries, np.inf),
                                   at_edges, dyadic, np.nextafter(dyadic, 0.0), np.nextafter(dyadic, np.inf),
                                   *ties, special])
    with np.errstate(over="ignore"):
        cells = np.concatenate((cells, np.nextafter(cells, 0.0), np.nextafter(cells, np.inf)))
    return np.concatenate((cells, -cells))


class TestCsvKernel:
    """_csv_text writes the bytes of _CSV_ROW % row, row by row."""

    def test_adversarial_cells(self):
        assert_matches_per_row(cell_rows(adversarial_cells()))

    def test_regimes_other_than_zero_and_one(self):
        regimes = [0.0, 1.0, -0.0, 2.0, 1.5, -3.0, 1e300, -1e-300]
        assert_matches_per_row(cell_rows(np.linspace(0.0, 10.0, 5 * 24), regimes))

    def test_nonfinite_regime_raises_as_the_row_format_does(self):
        rows = cell_rows(np.ones(10), [0.0, np.nan])
        with pytest.raises(ValueError):
            per_row_csv(rows)
        with pytest.raises(ValueError):
            _csv_text(rows)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(7).integers(0, 2**64, 2 * 10**5, dtype=np.uint64)
        assert_matches_per_row(cell_rows(bits.view(np.float64)))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(
                st.floats(allow_nan=True, allow_infinity=True),
                st.sampled_from([0.0, 1.0]),
                *[st.floats(allow_nan=True, allow_infinity=True)] * 4,
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_any_floats(self, rows):
        assert_matches_per_row(np.array(rows, dtype=float))

    def test_a_path_longer_than_a_call(self, monkeypatch):
        """A path longer than the rows formatted per call writes the same
        bytes as in one call."""
        mkt = make_market(lam=5.0)
        path = simulate_ensemble(mkt.gen, 1, 4.0, mkt.dists, 1, 33)
        cells = DEFAULT_GRID_POINTS + 1 + path.counts[0]
        wp = wealth_path(1.0, mkt, 0.5, ProportionalConsumption(0.05), path).row(0, cells)
        whole, blocks = io.StringIO(), io.StringIO()
        export_path_csv(wp, None, whole)
        monkeypatch.setattr(market_mod, "_CSV_BLOCK_ROWS", 7)
        export_path_csv(wp, None, blocks)
        assert blocks.getvalue() == whole.getvalue()


class _Sink:
    """A text file that keeps only the number of chars written."""

    chars = 0

    def write(self, text):
        self.chars += len(text)


@pytest.fixture(scope="module")
def paths_dense_sample():
    """The sample of simulate --paths 100 on paths_dense at its config seed,
    and a function that evaluates rows lo..hi of it as simulate does:
    (wealth, stock, cells per row)."""
    config = load_config(PATHS_DENSE)
    market, x, T = config.market, config.initial_wealth, config.horizon
    ens = simulate_ensemble(market.gen, config.initial_state, T, market.dists, 100, config.seed)
    policy = log_optimal_policy(market, x, T)

    def evaluate(lo, hi):
        rows = ens.rows(lo, hi)
        wp = wealth_path(x, market, policy.pi, policy.consumption, rows)
        stock = stock_path(market, rows, s0=1.0)[1]
        return wp, stock, DEFAULT_GRID_POINTS + 1 + rows.counts

    return ens, evaluate


class TestCsvOnPathsDense:
    def test_bytes_and_fast_path_coverage(self, paths_dense_sample, monkeypatch):
        """On simulate's first block of rows, each path's CSV is the
        reference writer's, byte for byte, and the digit kernel leaves to
        the fallback only the cells it cannot print: t = 0, and the few
        stock prices below 1e-4, which %g writes in scientific notation."""
        ens, evaluate = paths_dense_sample
        wp, stock, cells = evaluate(0, market_mod.block_rows(ens))
        sent = []
        fallback = market_mod._fallback_cells

        def spy(values, flat):
            sent.append(flat)
            return fallback(values, flat)

        monkeypatch.setattr(market_mod, "_fallback_cells", spy)
        scientific = 0
        for p, n in enumerate(cells.tolist()):
            got, ref = io.StringIO(), io.StringIO()
            export_path_csv(wp.row(p, n), stock[p, :n], got, comment_lines=("a",))
            reference_export_path_csv(wp.row(p, n), stock[p, :n], ref, comment_lines=("a",))
            assert got.getvalue() == ref.getvalue()
            _, rows = wp.row(p, n).to_csv_rows(stock[p, :n])
            not_fixed = [
                i
                for i, v in enumerate(rows.ravel().tolist())
                if i % 6 != 1 and (v == 0.0 or "e" in f"{v:.17g}")
            ]
            assert sent[p].tolist() == not_fixed
            assert not_fixed[0] == 0 and rows[0, 0] == 0.0  # t = 0
            assert all(i % 6 == 2 for i in not_fixed[1:])  # S only
            scientific += len(not_fixed) - 1
        assert len(sent) == len(cells)  # one call per path
        assert scientific < 1e-3 * 6 * cells.sum()

    def test_peak_memory_of_the_longest_row(self, paths_dense_sample):
        """Writing the sample's longest row allocates under 1 MB at peak."""
        ens, evaluate = paths_dense_sample
        k = int(np.argmax(ens.counts))
        wp, stock, cells = evaluate(k, k + 1)
        n = int(cells[0])
        assert n > 800
        path_obj, s = wp.row(0, n), stock[0, :n].copy()
        export_path_csv(path_obj, s, _Sink())  # warm up
        sink = _Sink()
        tracemalloc.start()
        try:
            export_path_csv(path_obj, s, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.chars > 70_000
        assert peak < 1_000_000
