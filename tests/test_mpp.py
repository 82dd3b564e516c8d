import inspect
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import jumpfolio
from jumpfolio import market, mpp, verify
from jumpfolio.config import load_config
from jumpfolio.distributions import ExponentialNegative, ExponentialPositive
from jumpfolio.errors import ConfigError
from jumpfolio.market import (
    MarketModel,
    RegimeMarketParams,
    ZeroConsumption,
    report_grid,
    wealth_path,
)
from jumpfolio.mpp import (
    GeneratorMatrix,
    PathEnsemble,
    jump_columns,
    simulate_ensemble,
)

DISTS = (ExponentialPositive(10.0), ExponentialNegative(10.0))
REGIME_SWITCHING = (
    Path(__file__).resolve().parents[1] / "demos" / "configs" / "regime_switching.yaml"
)


def scalar_column_loop(gen, i0, T, dists, n_paths, seed):
    """Oracle: the ensemble's jumps and marks, one scalar draw per cell.

    Column j takes one holding time from the chain stream, at the rate of
    state (i0 + j) % 2 (a zero rate never ends), for each path still
    inside [0, T], in path order, then one mark from the mark stream for
    each path whose new time is inside; it stops at the first column with
    no path inside [0, T].
    """
    chain_ss, mark_ss = np.random.SeedSequence(seed).spawn(2)
    chain_rng = np.random.default_rng(chain_ss)
    mark_rng = np.random.default_rng(mark_ss)
    t = [0.0] * n_paths
    inside = list(range(n_paths))
    times = [[] for _ in range(n_paths)]
    marks = [[] for _ in range(n_paths)]
    for j in itertools.count():
        state = (i0 + j) % 2
        rate = gen.rates[state]
        for p in inside:
            e = chain_rng.standard_exponential()
            t[p] += e / rate if rate > 0 else math.inf
        inside = [p for p in inside if t[p] <= T]
        if not inside:
            return times, marks
        for p in inside:
            times[p].append(t[p])
            marks[p].append(dists[state].sample(1, mark_rng)[0])


def expand(columns, n_paths):
    """The padded (paths x columns) times and marks of compacted columns."""
    times = np.full((n_paths, len(columns)), np.inf)
    marks = np.zeros((n_paths, len(columns)))
    rows = np.arange(n_paths)
    for j, (t, m, keep) in enumerate(columns):
        if keep is not None:
            rows = rows[keep]
        times[rows, j], marks[rows, j] = t, m
    return times, marks


class CountingGenerator:
    """A numpy Generator that counts the numbers it draws."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, 0

    def __getattr__(self, name):
        draw = getattr(self.rng, name)

        def counted(*args, **kwargs):
            out = draw(*args, **kwargs)
            self.drawn += np.size(out)
            return out

        return counted


class TestGeneratorMatrix:
    def test_rates_and_mean_jump_count(self):
        gen = GeneratorMatrix(0.7, 1.3)
        assert np.array_equal(gen.rates, [0.7, 1.3])
        assert GeneratorMatrix(1.5, 1.5).mean_jump_count(1, 2.0) == pytest.approx(3.0)
        # one jump at most, into the absorbing state
        assert GeneratorMatrix(0.0, 3.0).mean_jump_count(1, 2.0) == pytest.approx(
            1.0 - math.exp(-6.0)
        )
        assert GeneratorMatrix(0.0, 3.0).mean_jump_count(0, 2.0) == 0.0
        assert GeneratorMatrix(0.0, 0.0).mean_jump_count(0, 2.0) == 0.0

    def test_negative_rate_rejected(self):
        for rates in ((-1.0, 1.0), (1.0, math.nan)):
            with pytest.raises(ConfigError, match="nonnegative"):
                GeneratorMatrix(*rates)


def expm_ones(diag, off, T):
    """e^{TM} 1 by mpmath's matrix exponential at 40 digits.  (scipy's
    Pade expm is off from it by up to 1.1e-12 relative on the random
    matrices below at T = 3, and 1.7e-12 at lam = 500, T = 10, so it is
    too coarse an oracle for a 1e-12 bound.)"""
    import mpmath as mp

    with mp.workdps(40):
        E = mp.expm(mp.matrix([[diag[0], off[0]], [off[1], diag[1]]]) * T)
        return np.array([float(E[0, 0] + E[0, 1]), float(E[1, 0] + E[1, 1])])


class TestExponentialFunctional:
    def assert_close(self, got, ref):
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref)), (got, ref)

    @pytest.mark.parametrize("T", [0.5, 1.0, 3.0])
    def test_random_matrices_match_mpmath(self, T):
        rng = np.random.default_rng(41)
        diag = rng.uniform(-5.0, 2.0, size=(100, 2))
        off = rng.uniform(0.0, 5.0, size=(100, 2))
        got = mpp.exponential_functional(diag, off, T)
        assert got.shape == (100, 2)
        for k in range(100):
            self.assert_close(got[k], expm_ones(diag[k], off[k], T))

    @pytest.mark.parametrize(
        "diag, off",
        [
            ((-1.0, -1.0), (2.0, 2.0)),  # identical regimes: h = 0
            ((0.3, 0.3), (1.5, 0.0)),  # confluent: a Jordan block
            ((0.3, 0.3), (0.0, 0.0)),  # confluent and diagonal
            ((0.2, -1.0), (0.0, 1.0)),  # zero rate out of state 0
            ((0.2, -1.0), (1.0, 0.0)),  # zero rate out of state 1
            ((0.1, -0.3), (0.0, 0.0)),
            # delta - |h| = M_01 M_10 / (delta + |h|) is 1e-7 of delta: by
            # subtraction it would lose about seven digits
            ((4.0, -4.0), (5.0, 1e-6)),
            ((-4.0, 4.0), (1e-6, 5.0)),
        ],
    )
    def test_special_cases_match_mpmath(self, diag, off):
        got = mpp.exponential_functional(np.array([diag]), np.array([off]), 2.0)[0]
        self.assert_close(got, expm_ones(diag, off, 2.0))

    @pytest.mark.parametrize("lam", [50.0, 500.0])
    def test_large_rates_stay_finite_and_accurate(self, lam):
        """M_ii = gamma drift_i - lam, M_ij = lam m_i at T = 10, as in a
        dense-event market.  (e^{TM} 1)_i spans many decades, but the
        factored form never forms cosh(delta T) ~ e^{5000}."""
        gamma, T = 0.5, 10.0
        for drift, m in [
            ((0.03, -0.01), (1.0, 1.0)),
            ((0.05, 0.02), (1.004, 0.998)),
            ((-0.1, 0.1), (0.95, 1.05)),
        ]:
            diag = (gamma * drift[0] - lam, gamma * drift[1] - lam)
            off = (lam * m[0], lam * m[1])
            got = mpp.exponential_functional(np.array([diag]), np.array([off]), T)[0]
            assert np.all(np.isfinite(got))
            self.assert_close(got, expm_ones(diag, off, T))


class TestRegimePath:
    """The regime column a row carries on its reporting grid."""

    def test_alternation(self):
        params = RegimeMarketParams(r=0.0, mu=0.0, lam=1.0, dist=DISTS[0])
        mkt = MarketModel(regimes=(params, params))
        row = PathEnsemble(
            initial_state=1,
            horizon=3.0,
            times=np.array([[0.5, 1.0, 2.0]]),
            marks=np.zeros((1, 3)),
            counts=np.array([3]),
        )
        wp = wealth_path(1.0, mkt, 0.5, ZeroConsumption(), row, grid=report_grid(row, 12))
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
        times, marks = scalar_column_loop(gen, i0, T, DISTS, 8, 2718)
        assert ens.counts.tolist() == [len(row) for row in times]
        assert ens.times.shape == ens.marks.shape == (8, ens.counts.max())
        for p, c in enumerate(ens.counts):
            assert np.array_equal(ens.times[p, :c], times[p])
            assert np.array_equal(ens.marks[p, :c], marks[p])
            assert np.all(np.isinf(ens.times[p, c:])) and np.all(ens.marks[p, c:] == 0.0)
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

    @pytest.mark.parametrize("i0", [0, 1])
    def test_marks_drawn_from_pre_jump_state(self, i0):
        """Column j's marks follow the law of the alternating state (i0 + j) % 2."""
        gen = GeneratorMatrix(3.0, 3.0)
        ens = simulate_ensemble(gen, i0, 100.0, DISTS, 20, 11)
        jumps = np.isfinite(ens.times)
        states = (i0 + np.arange(ens.times.shape[1])) % 2
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

    @staticmethod
    def _peak_per_laid_out_byte(gen, i0, T, dists, n_paths, seed):
        """The tracemalloc peak of simulate_ensemble, after a warm-up, over
        the bytes of the times, marks and counts it lays out."""
        simulate_ensemble(gen, i0, min(T, 1.0), dists, 10, seed)  # warm up
        tracemalloc.start()
        try:
            ens = simulate_ensemble(gen, i0, T, dists, n_paths, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.times.shape == (n_paths, ens.counts.max())
        return peak / (ens.times.nbytes + ens.marks.nbytes + ens.counts.nbytes)

    def test_memory_is_the_drawn_sample(self):
        """The sample is held once: over 40,000 paths of regime_switching.yaml
        (8 columns, 5.1 MB of times and marks) the traced peak stays below
        1.25 times the laid-out bytes (1.12 times; 1.20 while the drawn
        columns were kept beside the layout)."""
        cfg = load_config(REGIME_SWITCHING)
        mkt = cfg.market
        ratio = self._peak_per_laid_out_byte(
            mkt.gen, cfg.initial_state, cfg.horizon, mkt.dists, 40_000, cfg.seed
        )
        assert ratio < 1.25

    def test_memory_is_the_dense_sample(self):
        """On a dense sample, 100 paths at rate 50 in both regimes over
        T = 10 (about 550 columns), the traced peak stays below 1.25 times
        the laid-out bytes (1.01 times; 2.1 times while the drawn columns
        were kept beside the layout)."""
        ratio = self._peak_per_laid_out_byte(GeneratorMatrix(50.0, 50.0), 0, 10.0, DISTS, 100, 3)
        assert ratio < 1.25

    def test_column_cap_reached_in_the_pass(self, monkeypatch):
        monkeypatch.setattr(GeneratorMatrix, "mean_jump_count", lambda self, i0, T: 0.0)
        monkeypatch.setattr(mpp, "_MAX_WIDTH", 64)
        with pytest.raises(ConfigError, match="more than 64 jump columns"):
            simulate_ensemble(GeneratorMatrix(50.0, 50.0), 0, 10.0, DISTS, 10, 3)

    def test_width_is_longest_path(self):
        gen = GeneratorMatrix(1.5, 0.5)
        ens = simulate_ensemble(gen, 0, 3.0, DISTS, 500, 21)
        assert ens.times.shape[1] == ens.marks.shape[1] == ens.counts.max()
        assert ens.times.flags.owndata and ens.marks.flags.owndata
        assert ens.times.flags.f_contiguous and ens.marks.flags.f_contiguous
        # a zero-rate start state never jumps: no columns at all
        idle = simulate_ensemble(GeneratorMatrix(0.0, 2.0), 0, 5.0, DISTS, 100, 1)
        assert idle.times.shape == idle.marks.shape == (100, 0)


class TestColumnStream:
    """The column sampler and the stored ensemble's columns."""

    @pytest.mark.parametrize("T, n_paths", [(0.0, 10), (-1.0, 10), (1.0, 0), (1.0, -3)])
    def test_checks_arguments_at_the_call(self, T, n_paths):
        """A generator would defer its checks to the first read; the
        sampler checks at the call, so no sweep starts on bad arguments,
        and simulate_ensemble checks them before it allocates anything."""
        for sampler in (jump_columns, simulate_ensemble):
            with pytest.raises(ConfigError):
                sampler(GeneratorMatrix(1.0, 1.0), 0, T, DISTS, n_paths, 5)

    @pytest.mark.parametrize("seed", [None, -1, 2.5, np.random.SeedSequence(5)])
    def test_checks_the_seed_at_the_call(self, seed):
        """A sample is reproducible only from a nonnegative integer seed:
        fresh entropy (None) would let simulate_ensemble's two passes draw
        different samples, so both samplers refuse it at the call."""
        for sampler in (jump_columns, simulate_ensemble):
            with pytest.raises(ConfigError):
                sampler(GeneratorMatrix(1.0, 1.0), 0, 1.0, DISTS, 10, seed)

    @pytest.mark.parametrize("rates, i0", [((30.0, 80.0), 1), ((1.5, 0.5), 0), ((0.0, 3.0), 1)])
    def test_times_only_draws_the_same_times(self, rates, i0):
        """Without mark laws the sampler draws no mark, and its times and
        keeps are those of the marked sample at the same seed."""
        gen = GeneratorMatrix(*rates)
        marked = jump_columns(gen, i0, 4.0, DISTS, 300, 7).columns
        times_only = jump_columns(gen, i0, 4.0, None, 300, 7).columns
        for (t, _, keep), (u, m, kept) in itertools.zip_longest(marked, times_only):
            assert m is None
            assert np.array_equal(t, u)
            assert (keep is None and kept is None) or np.array_equal(keep, kept)

    @pytest.mark.parametrize("rates, i0", [((30.0, 80.0), 1), ((1.5, 0.5), 0), ((0.0, 3.0), 1)])
    def test_stream_is_the_stored_columns(self, rates, i0):
        gen = GeneratorMatrix(*rates)
        ens = simulate_ensemble(gen, i0, 4.0, DISTS, 40, 19)
        stream = jump_columns(gen, i0, 4.0, DISTS, 40, 19)
        stored = ens.columns()
        assert (stream.initial_state, stream.horizon, stream.n_paths, stream.seed) == (
            stored.initial_state, stored.horizon, stored.n_paths, stored.seed
        )
        drawn, read = list(stream.columns), list(stored.columns)
        assert len(drawn) == len(read) == ens.times.shape[1]
        for (t, m, keep), (t_ref, m_ref, keep_ref) in zip(drawn, read):
            assert np.array_equal(t, t_ref) and np.array_equal(m, m_ref)
            assert (keep is None) == (keep_ref is None)
            if keep is not None:
                assert keep.dtype.kind == "i" and np.array_equal(keep, keep_ref)
        times, marks = expand(drawn, 40)
        assert np.array_equal(times, ens.times) and np.array_equal(marks, ens.marks)

    @pytest.mark.parametrize("rates, i0", [((30.0, 80.0), 1), ((1.5, 0.5), 0)])
    def test_columns_hold_only_the_paths_inside(self, rates, i0):
        """Column j holds the paths with a j-th jump in [0, T], in path
        order, and keep places them among column j - 1's paths."""
        gen = GeneratorMatrix(*rates)
        ens = simulate_ensemble(gen, i0, 4.0, DISTS, 300, 7)
        rows = np.arange(300)
        compacted = 0
        stream = jump_columns(gen, i0, 4.0, DISTS, 300, 7)
        for j, (times, marks, keep) in enumerate(stream.columns):
            if keep is not None:
                assert keep.size < rows.size and np.all(np.diff(keep) > 0)
                rows = rows[keep]
                compacted += 1
            assert np.array_equal(rows, np.flatnonzero(ens.counts > j))
            assert times.size == marks.size == rows.size > 0
            assert np.all(times <= 4.0)
        assert compacted > 1

    def test_draws_only_for_the_paths_inside(self, monkeypatch):
        """A column draws one holding time for each path of the last
        column (every path at column 0) and one mark for each of its own
        paths: n plus the survivor counts, and the survivor counts."""
        generators = []
        real = np.random.default_rng

        def counting(*args, **kwargs):
            generators.append(CountingGenerator(real(*args, **kwargs)))
            return generators[-1]

        monkeypatch.setattr(np.random, "default_rng", counting)
        gen, n = GeneratorMatrix(1.5, 0.5), 1000
        survivors = [t.size for t, _, _ in jump_columns(gen, 0, 3.0, DISTS, n, 5).columns]
        chain, mark = generators
        assert len(survivors) > 5
        assert chain.drawn == n + sum(survivors)
        assert mark.drawn == sum(survivors)
        # an absorbing state draws nothing: one column of holding times
        generators.clear()
        stream = jump_columns(GeneratorMatrix(0.0, 3.0), 1, 3.0, DISTS, n, 5)
        survivors = [t.size for t, _, _ in stream.columns]
        chain, mark = generators
        assert chain.drawn == n and mark.drawn == sum(survivors) > 0

    def test_yielded_columns_are_never_written(self):
        gen = GeneratorMatrix(30.0, 80.0)
        seen = []
        for column in jump_columns(gen, 0, 2.0, DISTS, 200, 3).columns:
            seen.append((column, [None if a is None else a.copy() for a in column]))
        assert len(seen) > 100
        for column, copies in seen:
            for a, b in zip(column, copies):
                assert (a is None and b is None) or np.array_equal(a, b)


class TestEnsembleParity:
    """The ensemble's jump counts against the chain's exact law."""

    def test_jump_count_law_single_regime(self):
        """With equal rates N_T is Poisson(lam * T): mean and variance lam * T."""
        gen, T, n = GeneratorMatrix(2.0, 2.0), 4.0, 20_000
        counts = simulate_ensemble(gen, 0, T, DISTS, n, 31).counts
        lam_t = 8.0
        # a Poisson sample variance has variance (lam_t + 2 lam_t^2) / n
        assert abs(counts.mean() - lam_t) < 3 * math.sqrt(lam_t / n)
        assert abs(counts.var(ddof=1) - lam_t) < 3 * math.sqrt((lam_t + 2 * lam_t**2) / n)

    @pytest.mark.parametrize("i0", [0, 1])
    def test_mean_jump_count_two_regimes(self, i0):
        gen, T = GeneratorMatrix(2.0, 0.5), 3.0
        counts = simulate_ensemble(gen, i0, T, DISTS, 20_000, 37).counts
        stderr = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(counts.mean() - gen.mean_jump_count(i0, T)) < 3 * stderr

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
        "value_semianalytic",
        "log_value",
        "regime_inputs",
    }
    assert not retired & set(vars(jumpfolio))
    # the one path type is an ensemble row: no single-path class or
    # single-path level, no store of a stream's first rows, and the wealth
    # identity that could not fail
    gone = {
        "KeptRows",
        "MarkedPointPath",
        "gross_wealth_path",
        "simulate_state_price",
        "wealth_identity_check",
        "_single_path_log_level",
    }
    for module in (mpp, market, verify):
        assert not gone & set(vars(module)), module.__name__
