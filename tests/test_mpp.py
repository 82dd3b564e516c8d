import inspect

import numpy as np
import pytest
from scipy import stats

import jumpfolio
from jumpfolio import market, mpp, verify
from jumpfolio.distributions import ExponentialNegative, ExponentialPositive
from jumpfolio.errors import ConfigError
from jumpfolio.market import MarketModel, RegimeMarketParams, ZeroConsumption, wealth_path
from jumpfolio.mpp import (
    GeneratorMatrix,
    PathEnsemble,
    seed_sequence,
    simulate_ensemble,
)

DISTS = (ExponentialPositive(10.0), ExponentialNegative(10.0))


def scalar_jump_times(gen, i0, T, n_paths, seed):
    """Oracle: the ensemble's jump times, one scalar exponential per jump.

    The chain stream fills the holding-time matrix row by row, so at a
    padding width w row p holds variates p*w .. p*w + w - 1; a width is
    kept once every row's last column lies past T (or never comes).
    """
    chain_ss = seed_sequence(seed).spawn(2)[0]
    width = 16
    while True:
        rng = np.random.default_rng(chain_ss)
        rows, resolved = [], True
        for _ in range(n_paths):
            t, times = 0.0, []
            for j in range(width):
                rate = gen.rates[(i0 + j) % 2]
                e = rng.standard_exponential()
                t += e * (1.0 / rate) if rate > 0 else np.inf
                times.append(t)
            resolved &= times[-1] > T
            rows.append([u for u in times if u <= T])
        if resolved:
            return rows
        width *= 2


def reference_ensemble(gen, i0, T, dists, n_paths, seed):
    """Oracle: every candidate width drawn on all rows."""
    root = seed_sequence(seed)
    chain_ss, mark_ss = root.spawn(2)
    rates = gen.rates

    width = 16
    while True:
        rng = np.random.default_rng(chain_ss)
        col_rates = rates[(i0 + np.arange(width)) % 2]
        with np.errstate(divide="ignore"):
            scales = np.where(col_rates > 0, 1.0 / col_rates, np.inf)
        hold = rng.exponential(size=(n_paths, width))
        hold *= scales
        hold[:, col_rates == 0] = np.inf
        times = np.cumsum(hold, axis=1)
        del hold
        if np.all(times[:, -1] > T) or np.all(np.isinf(times[:, -1])):
            break
        width *= 2
        if width > 1 << 20:
            raise RuntimeError("ensemble jump count exploded; check chain rates")

    in_horizon = times <= T
    counts = in_horizon.sum(axis=1)
    width = int(counts.max())
    in_horizon = in_horizon[:, :width]
    times = np.where(in_horizon, times[:, :width], np.inf)

    mark_rng = np.random.default_rng(mark_ss)
    marks = np.zeros_like(times)
    for j in range(width):
        state = (i0 + j) % 2
        col = dists[state].sample(n_paths, mark_rng)
        marks[:, j] = np.where(in_horizon[:, j], col, 0.0)

    return PathEnsemble(
        initial_state=i0, horizon=T, times=times, marks=marks, counts=counts, seed=seed
    )


class TestGeneratorMatrix:
    def test_rates_and_lambda_bar(self):
        gen = GeneratorMatrix(0.7, 1.3)
        assert np.array_equal(gen.rates, [0.7, 1.3])
        assert gen.lambda_bar == pytest.approx(1.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            GeneratorMatrix(-1.0, 1.0)


class TestRegimePath:
    """The regime column a row carries on its reporting grid."""

    def test_alternation(self):
        params = RegimeMarketParams(r=0.0, mu=0.0, lam=1.0, dist=DISTS[0])
        mkt = MarketModel(gen=GeneratorMatrix(1.0, 1.0), regimes=(params, params))
        row = PathEnsemble(
            initial_state=1,
            horizon=3.0,
            times=np.array([[0.5, 1.0, 2.0]]),
            marks=np.zeros((1, 3)),
            counts=np.array([3]),
        )
        wp = wealth_path(1.0, mkt, 0.5, ZeroConsumption(), row, n_grid=12)
        state_at = dict(zip(wp.t[0].tolist(), wp.regime[0].tolist()))
        assert state_at[0.0] == 1
        assert wp.regime[0, list(wp.t[0]).index(0.5)] == 0  # right-continuous
        assert [state_at[t] for t in (0.25, 0.75, 1.5, 2.5)] == [1, 0, 1, 0]


class TestChainSimulation:
    """Chain and mark laws of the ensemble's rows."""

    def test_deterministic_per_seed(self):
        gen = GeneratorMatrix(1.0, 2.0)
        a = simulate_ensemble(gen, 0, 10.0, DISTS, 8, 42)
        b = simulate_ensemble(gen, 0, 10.0, DISTS, 8, 42)
        c = simulate_ensemble(gen, 0, 10.0, DISTS, 8, 43)
        for p in range(8):
            row_a, row_b = a.rows(p, p + 1), b.rows(p, p + 1)
            assert np.array_equal(row_a.times, row_b.times)
            assert np.array_equal(row_a.marks, row_b.marks)
        assert not np.array_equal(a.times, c.times)

    def test_zero_rate_absorbing(self):
        """From state 1 a chain jumps once into the absorbing state 0."""
        gen = GeneratorMatrix(0.0, 5.0)
        ens = simulate_ensemble(gen, 1, 10.0, DISTS, 200, 0)
        assert set(ens.counts) == {1}
        assert ens.times.shape == (200, 1)

    @pytest.mark.parametrize("i0", [0, 1])
    @pytest.mark.parametrize(
        "rates, T",
        [((50.0, 50.0), 10.0), ((30.0, 80.0), 20.0), ((0.0, 3.0), 4.0), ((3.0, 0.0), 4.0)],
    )
    def test_matches_scalar_loop(self, rates, T, i0):
        gen = GeneratorMatrix(*rates)
        ens = simulate_ensemble(gen, i0, T, DISTS, 8, 2718)
        ref = scalar_jump_times(gen, i0, T, 8, 2718)
        for p in range(8):
            assert np.array_equal(ens.rows(p, p + 1).times[0], ref[p])
        if 0.0 not in rates:
            assert ens.counts.max() > 256  # rows of several hundred jumps
        else:
            assert ens.counts.max() <= 1

    def test_holding_time_distribution(self):
        """First holding time in state 0 is Exponential(lambda0)."""
        gen = GeneratorMatrix(2.0, 1.0)
        ens = simulate_ensemble(gen, 0, 50.0, DISTS, 4000, 7)
        first = ens.times[ens.counts > 0, 0]
        ks = stats.kstest(first, "expon", args=(0, 0.5))
        assert ks.pvalue > 1e-3

    def test_marks_drawn_from_pre_jump_state(self):
        gen = GeneratorMatrix(3.0, 3.0)
        ens = simulate_ensemble(gen, 0, 100.0, DISTS, 20, 11)
        jumps = np.isfinite(ens.times)
        states = ens.column_state(np.arange(ens.times.shape[1]))
        # regime 0 marks are positive (Exp+), regime 1 marks negative (Exp-)
        assert np.all(ens.marks[jumps & (states == 0)] > 0)
        assert np.all(ens.marks[jumps & (states == 1)] < 0)
        assert (jumps & (states == 1)).sum() > 1000


class TestEnsemble:
    def test_padding_invariants(self):
        gen = GeneratorMatrix(1.0, 1.0)
        ens = simulate_ensemble(gen, 0, 2.0, (DISTS[0], DISTS[0]), 500, 5)
        n, m = ens.times.shape
        for p in range(0, n, 50):
            c = ens.counts[p]
            assert np.all(np.isfinite(ens.times[p, :c]))
            assert np.all(np.isinf(ens.times[p, c:]))
            assert np.all(ens.marks[p, c:] == 0.0)
            assert np.all(np.diff(ens.times[p, :c]) > 0)

    @pytest.mark.parametrize("n_paths", [0, -3])
    def test_needs_a_path(self, n_paths):
        with pytest.raises(ConfigError, match="at least one path"):
            simulate_ensemble(GeneratorMatrix(1.0, 1.0), 0, 1.0, DISTS, n_paths, 5)

    def test_column_state_alternates(self):
        gen = GeneratorMatrix(1.0, 1.0)
        ens = simulate_ensemble(gen, 1, 1.0, (DISTS[0], DISTS[0]), 10, 5)
        assert [ens.column_state(j) for j in range(4)] == [1, 0, 1, 0]

    def test_mean_jump_count_single_regime(self):
        """With equal rates the count is Poisson(lam * T)."""
        gen = GeneratorMatrix(1.0, 1.0)
        ens = simulate_ensemble(gen, 0, 5.0, (DISTS[0], DISTS[0]), 40_000, 9)
        assert ens.counts.mean() == pytest.approx(5.0, abs=0.05)
        assert ens.counts.var() == pytest.approx(5.0, rel=0.03)

    def test_path_extraction_matches_arrays(self):
        gen = GeneratorMatrix(1.5, 0.5)
        ens = simulate_ensemble(gen, 0, 3.0, DISTS, 50, 21)
        row = ens.rows(7, 8)
        c = ens.counts[7]
        assert row.counts.tolist() == [c]
        assert np.array_equal(row.times, ens.times[7:8, :c])
        assert np.array_equal(row.marks, ens.marks[7:8, :c])

    def test_head_keeps_rows_and_cuts_padding(self):
        gen = GeneratorMatrix(1.5, 0.5)
        ens = simulate_ensemble(gen, 0, 3.0, DISTS, 50, 21)
        for lo, hi in ((0, 5), (3, 8), (45, 60)):
            block = ens.rows(lo, hi)
            width = ens.counts[lo:hi].max()
            assert block.times.shape == block.marks.shape == (min(hi, 50) - lo, width)
            assert (block.initial_state, block.horizon, block.seed) == (0, 3.0, 21)
            assert np.array_equal(block.counts, ens.counts[lo:hi])
            assert np.array_equal(block.times, ens.times[lo:hi, :width])
            assert np.array_equal(block.marks, ens.marks[lo:hi, :width])

    def test_deterministic_per_seed(self):
        gen = GeneratorMatrix(1.0, 2.0)
        a = simulate_ensemble(gen, 0, 2.0, DISTS, 64, 33)
        b = simulate_ensemble(gen, 0, 2.0, DISTS, 64, 33)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.marks, b.marks)

    def test_zero_rate_state(self):
        gen = GeneratorMatrix(0.0, 2.0)
        ens = simulate_ensemble(gen, 0, 5.0, DISTS, 100, 1)
        assert np.all(ens.counts == 0)

    def test_width_is_longest_path(self):
        gen = GeneratorMatrix(1.5, 0.5)
        ens = simulate_ensemble(gen, 0, 3.0, DISTS, 500, 21)
        assert ens.times.shape[1] == ens.marks.shape[1] == ens.counts.max()
        assert ens.times.flags.owndata and ens.marks.flags.owndata
        assert ens.times.flags.f_contiguous and ens.marks.flags.f_contiguous
        # a zero-rate start state never jumps: no columns at all
        idle = simulate_ensemble(GeneratorMatrix(0.0, 2.0), 0, 5.0, DISTS, 100, 1)
        assert idle.times.shape == idle.marks.shape == (100, 0)


class TestEnsembleParity:
    @pytest.mark.parametrize(
        "rates, i0, T, n_paths, seed",
        [
            ((50.0, 50.0), 0, 10.0, 2000, 20260823),
            ((0.0, 2.0), 1, 5.0, 300, 4),  # jumps once into the absorbing state
            ((0.0, 2.0), 0, 5.0, 300, 4),  # never leaves it
            ((1.5, 0.5), 1, 3.0, 500, 21),
            ((1.0, 1.0), 0, 5.0, 40, 8),  # fewer paths than probe rows
            ((50.0, 50.0), 0, 10.0, 10_000, 20260823),  # width 1024: 256-row blocks
            ((2.0, 1.0), 0, 3.0, 50_001, 6),  # width 16: a short last block
            ((30.0, 60.0), 1, 4.0, 3001, 13),  # from state 1, width 256
        ],
    )
    def test_matches_doubling_loop(self, rates, i0, T, n_paths, seed):
        gen = GeneratorMatrix(*rates)
        got = simulate_ensemble(gen, i0, T, DISTS, n_paths, seed)
        ref = reference_ensemble(gen, i0, T, DISTS, n_paths, seed)
        assert np.array_equal(got.times, ref.times)
        assert np.array_equal(got.marks, ref.marks)
        assert np.array_equal(got.counts, ref.counts)

    def test_probe_resolves_where_full_draw_does_not(self):
        gen = GeneratorMatrix(1.0, 1.0)
        got = simulate_ensemble(gen, 0, 5.0, DISTS, 40_000, 17)
        # width 16 holds every probe row but not every path
        assert got.counts[: mpp._PROBE_ROWS].max() < 16 <= got.counts.max()
        ref = reference_ensemble(gen, 0, 5.0, DISTS, 40_000, 17)
        assert np.array_equal(got.times, ref.times)
        assert np.array_equal(got.marks, ref.marks)
        assert np.array_equal(got.counts, ref.counts)

    def test_rejected_widths_drawn_on_probe_rows_only(self, monkeypatch):
        n_paths, seed = 2000, 20260823
        chain_ss = np.random.SeedSequence(seed).spawn(2)[0]
        drawn = []
        real_default_rng = np.random.default_rng

        class CountingRng:
            def __init__(self, rng):
                self._rng = rng

            def __getattr__(self, name):
                method = getattr(self._rng, name)

                def draw(*args, **kwargs):
                    result = method(*args, **kwargs)
                    drawn.append(np.size(result))
                    return result

                return draw if "exponential" in name else method

        def spy(seed_arg=None):
            rng = real_default_rng(seed_arg)
            chain = (
                isinstance(seed_arg, np.random.SeedSequence)
                and seed_arg.entropy == chain_ss.entropy
                and seed_arg.spawn_key == chain_ss.spawn_key
            )
            return CountingRng(rng) if chain else rng

        monkeypatch.setattr(np.random, "default_rng", spy)
        simulate_ensemble(GeneratorMatrix(50.0, 50.0), 0, 10.0, DISTS, n_paths, seed)
        monkeypatch.undo()

        ref = reference_ensemble(GeneratorMatrix(50.0, 50.0), 0, 10.0, DISTS, n_paths, seed)
        w_final = 16
        while w_final < ref.counts.max() + 1:
            w_final *= 2
        rejected = sum(16 << k for k in range((w_final // 16).bit_length() - 1))
        assert w_final == 1024
        assert sum(drawn) <= n_paths * w_final + mpp._PROBE_ROWS * rejected
        # the doubling loop draws every width on every row
        assert sum(drawn) < n_paths * (w_final + rejected)

    def test_width_cap_is_a_config_error(self):
        gen = GeneratorMatrix(2e6, 2e6)
        with pytest.raises(ConfigError, match=r"rates \(2e\+06, 2e\+06\).*T=1"):
            simulate_ensemble(gen, 0, 1.0, DISTS, 1, 3)


def test_simulate_ensemble_is_the_only_sampler():
    samplers = [
        name
        for name, obj in vars(mpp).items()
        if inspect.isfunction(obj)
        and obj.__module__ == mpp.__name__
        and name.lstrip("_").startswith("simulate")
    ]
    assert samplers == ["simulate_ensemble"]
    retired = {
        "MarkedPointPath",
        "gross_wealth_path",
        "wealth_identity_check",
        "RegimePath",
        "simulate_regime_chain",
        "simulate_marks",
        "simulate_path",
        "simulate_paths",
        "state_price_spec",
        "StatePriceSpec",
        "simulate_state_price",
        "RegimeValueInputs",
        "value_comparison",
    }
    assert not retired & set(vars(jumpfolio))
    # the one path type is an ensemble row: no single-path class or
    # single-path level, and the wealth identity that could not fail
    gone = {
        "MarkedPointPath",
        "gross_wealth_path",
        "simulate_state_price",
        "wealth_identity_check",
        "_single_path_log_level",
    }
    for module in (mpp, market, verify):
        assert not gone & set(vars(module)), module.__name__
