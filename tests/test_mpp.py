import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from jumpfolio.distributions import ExponentialNegative, ExponentialPositive
from jumpfolio.errors import ConfigError
from jumpfolio.mpp import (
    GeneratorMatrix,
    RegimePath,
    simulate_ensemble,
    simulate_marks,
    simulate_path,
    simulate_paths,
    simulate_regime_chain,
)

DISTS = (ExponentialPositive(10.0), ExponentialNegative(10.0))


class TestGeneratorMatrix:
    def test_matrix_rows_sum_to_zero(self):
        gen = GeneratorMatrix(0.7, 1.3)
        assert np.allclose(gen.matrix.sum(axis=1), 0.0)
        assert gen.lambda_bar == pytest.approx(1.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            GeneratorMatrix(-1.0, 1.0)


class TestRegimePath:
    def test_alternation(self):
        path = RegimePath(initial_state=1, jump_times=np.array([0.5, 1.0, 2.0]), horizon=3.0)
        assert list(path.pre_jump_states) == [1, 0, 1]
        assert path.state_at(0.0) == 1
        assert path.state_at(0.5) == 0  # right-continuous
        assert list(path.state_at(np.array([0.25, 0.75, 1.5, 2.5]))) == [1, 0, 1, 0]

    def test_validation(self):
        with pytest.raises(ConfigError):
            RegimePath(initial_state=0, jump_times=np.array([2.0, 1.0]), horizon=3.0)
        with pytest.raises(ConfigError):
            RegimePath(initial_state=0, jump_times=np.array([4.0]), horizon=3.0)


class TestChainSimulation:
    def test_deterministic_per_seed(self):
        gen = GeneratorMatrix(1.0, 2.0)
        a = simulate_regime_chain(gen, 0, 10.0, 42)
        b = simulate_regime_chain(gen, 0, 10.0, 42)
        assert np.array_equal(a.jump_times, b.jump_times)

    def test_zero_rate_absorbing(self):
        gen = GeneratorMatrix(0.0, 5.0)
        path = simulate_regime_chain(gen, 0, 10.0, 0)
        assert path.n_jumps == 0

    def test_holding_time_distribution(self):
        """First holding time in state 0 is Exponential(lambda0)."""
        gen = GeneratorMatrix(2.0, 1.0)
        first = []
        root = np.random.SeedSequence(7)
        for child in root.spawn(4000):
            p = simulate_regime_chain(gen, 0, 50.0, child)
            if p.n_jumps:
                first.append(p.jump_times[0])
        ks = stats.kstest(first, "expon", args=(0, 0.5))
        assert ks.pvalue > 1e-3

    def test_marks_drawn_from_pre_jump_state(self):
        gen = GeneratorMatrix(3.0, 3.0)
        chain = simulate_regime_chain(gen, 0, 100.0, 11)
        mp = simulate_marks(chain, DISTS, 12)
        states = mp.pre_jump_states
        # regime 0 marks are positive (Exp+), regime 1 marks negative (Exp-)
        assert np.all(mp.marks[states == 0] >= 0)
        assert np.all(mp.marks[states == 1] <= 0)


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
        p = ens.path(7)
        c = ens.counts[7]
        assert np.array_equal(p.jump_times, ens.times[7, :c])
        assert np.array_equal(p.marks, ens.marks[7, :c])

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
        # a zero-rate start state never jumps: no columns at all
        idle = simulate_ensemble(GeneratorMatrix(0.0, 2.0), 0, 5.0, DISTS, 100, 1)
        assert idle.times.shape == idle.marks.shape == (100, 0)


def test_simulate_paths_spawns_one_child_per_path():
    gen = GeneratorMatrix(2.0, 1.0)
    paths = simulate_paths(gen, 1, 4.0, DISTS, 5, 11)
    children = np.random.SeedSequence(11).spawn(5)
    assert len(paths) == 5
    for path, child in zip(paths, children):
        ref = simulate_path(gen, 1, 4.0, DISTS, child)
        assert np.array_equal(path.jump_times, ref.jump_times)
        assert np.array_equal(path.marks, ref.marks)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    i0=st.integers(min_value=0, max_value=1),
)
def test_simulate_path_reproducible(seed, i0):
    gen = GeneratorMatrix(2.0, 1.0)
    a = simulate_path(gen, i0, 4.0, DISTS, seed)
    b = simulate_path(gen, i0, 4.0, DISTS, seed)
    assert np.array_equal(a.jump_times, b.jump_times)
    assert np.array_equal(a.marks, b.marks)
    assert a.regime.initial_state == i0
