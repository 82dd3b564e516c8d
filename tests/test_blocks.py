"""A sample is drawn and swept in blocks of ``mpp.BLOCK_PATHS`` paths.

A sample of at most one block draws exactly the streams it drew before
samples had blocks, so its outputs are pinned here as exact strings; a
larger sample starts with the one-block sample, streams and stores the
same blocks, and its sweep holds one block's accumulators whatever the
path count.
"""

import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from jumpfolio import verify
from jumpfolio.cli import main
from jumpfolio.config import load_config
from jumpfolio.market import _log_jump
from jumpfolio.mpp import BLOCK_PATHS, jump_columns, simulate_ensemble
from jumpfolio.policy import Utility, log_optimal_policy, power_optimal_policy
from stored_columns import expand
from jumpfolio.verify import (
    budget_mc,
    column_functionals,
    dual_log_mc,
    expected_utility_mc,
    martingale_mc,
    state_price_spec,
    sweep_estimates,
)

ROOT = Path(__file__).resolve().parents[1]
REGIME_SWITCHING = ROOT / "demos" / "configs" / "regime_switching.yaml"
PATHS_DENSE = ROOT / "bench" / "configs" / "paths_dense.yaml"

# two full blocks and a short one
N_BLOCKS_PATHS = 2 * BLOCK_PATHS + 37


def _checks(market, gamma, x, T):
    """The verify checks and the utility level of the optimal policy."""
    if gamma == 0.0:
        policy = log_optimal_policy(market, x, T)
    else:
        policy = power_optimal_policy(market, gamma)
    spec = state_price_spec(market, policy)
    checks = [
        martingale_mc(spec),
        budget_mc(market, spec, policy.pi, policy.consumption, x, T),
        expected_utility_mc(market, policy.pi, policy.consumption, Utility(gamma), x, T),
    ]
    if gamma == 0.0:
        checks.append(dual_log_mc(market, spec, x, T))
    return checks


class TestOneBlockIsUnchanged:
    """Outputs of samples of at most one block, as the sampler drew them
    before it drew in blocks."""

    @pytest.mark.parametrize(
        "config, n_paths, line",
        [
            pytest.param(
                PATHS_DENSE, None, "  monte carlo   -20.9291693079 +- 0.0692  (N=10000)",
                id="paths_dense",
            ),
            pytest.param(
                REGIME_SWITCHING, BLOCK_PATHS,
                "  monte carlo   -1.21991283999 +- 0.00479  (N=16384)",
                id="regime_switching-one-block",
            ),
        ],
    )
    def test_value_line(self, tmp_path, capsys, config, n_paths, line):
        argv = ["value", str(config), "--output-dir", str(tmp_path)]
        if n_paths is not None:
            argv += ["--n-paths", str(n_paths)]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1] == line

    def test_simulate_csv(self, tmp_path, capsys):
        """Every byte of the first path's CSV below its provenance line (which
        holds the config hash, and so the output directory)."""
        argv = ["simulate", str(REGIME_SWITCHING), "--paths", "5", "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        events = [line.rsplit(" ", 2)[-2][1:] for line in capsys.readouterr().out.splitlines()]
        assert events == ["1", "1", "0", "1", "0"]
        comment, body = (tmp_path / "path_000.csv").read_text().split("\n", 1)
        assert comment.endswith("seed=20260823 path=0")
        rows = body.splitlines()
        assert len(rows) == 259
        assert rows[240] == (
            "0.93208078210677991,1,1.1272250523136884,1.1079906042309202,"
            "0.5339596089466101,0.59162222975166034"
        )
        assert rows[-1] == "1,1,1.1279909148075833,1.0800247143316222,0.5,0.54001235716581109"
        assert hashlib.sha256(body.encode()).hexdigest() == (
            "d6eb6d49cb143a130ff5aca596972235139e99cee32a764202e60d770b2c2348"
        )


class TestBlocks:
    def test_a_larger_sample_starts_with_the_one_block_sample(self):
        mkt = load_config(REGIME_SWITCHING).market
        draw = (mkt.gen, 0, 1.0, mkt.dists)
        small = simulate_ensemble(*draw, BLOCK_PATHS, 11)
        large = simulate_ensemble(*draw, N_BLOCKS_PATHS, 11).rows(0, BLOCK_PATHS)
        assert np.array_equal(large.counts, small.counts)
        assert np.array_equal(large.times, small.times)
        assert np.array_equal(large.marks, small.marks)

    def test_blocks_are_consecutive_paths(self):
        mkt = load_config(REGIME_SWITCHING).market
        blocks = jump_columns(mkt.gen, 0, 1.0, mkt.dists, N_BLOCKS_PATHS, 11)
        assert [b.n_paths for b in blocks] == [BLOCK_PATHS, BLOCK_PATHS, 37]

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_streamed_is_stored(self, gamma):
        """Per block, the stored rows are the drawn columns bit for bit,
        where the blocks end at different columns: the short block's paths
        all leave before the full blocks' do; and a sample drawn again at
        the same seed sweeps to the same estimates."""
        cfg = load_config(REGIME_SWITCHING)
        mkt, x, T = cfg.market, cfg.initial_wealth, cfg.horizon
        draw = (mkt.gen, 0, T, mkt.dists, N_BLOCKS_PATHS, cfg.seed)
        ens = simulate_ensemble(*draw)
        starts = (0, BLOCK_PATHS, 2 * BLOCK_PATHS)
        widths = [int(ens.counts[lo : lo + BLOCK_PATHS].max()) for lo in starts]
        assert widths[2] < min(widths[:2])
        for lo, block in zip(starts, jump_columns(*draw), strict=True):
            rows = ens.rows(lo, lo + block.n_paths)
            times, marks = expand(list(block.columns), block.n_paths)
            assert np.array_equal(times, rows.times) and np.array_equal(marks, rows.marks)
        checks = _checks(mkt, gamma, x, T)
        assert sweep_estimates(mkt, jump_columns(*draw), checks) == sweep_estimates(
            mkt, jump_columns(*draw), checks
        )

    def test_merged_moments_are_the_whole_sample_moments(self):
        """The blocks' merged estimate against numpy's mean and std(ddof=1)
        over every path at once, within rounding."""
        cfg = load_config(REGIME_SWITCHING)
        mkt, x, T = cfg.market, cfg.initial_wealth, cfg.horizon
        draw = (mkt.gen, 0, T, mkt.dists, N_BLOCKS_PATHS, cfg.seed)
        checks = _checks(mkt, 0.5, x, T)
        levels = [c.level for c in checks]
        bases = {pi: [_log_jump(mkt.transform, p) for p in pi] for lv in levels for pi in lv.jumps}
        swept = [column_functionals(b, bases, levels)[1] for b in jump_columns(*draw)]
        got = sweep_estimates(mkt, jump_columns(*draw), checks)
        for k, (check, est) in enumerate(zip(checks, got)):
            samples = np.concatenate([check.reduce(results[k]) for results in swept])
            assert est.n_paths == samples.size == N_BLOCKS_PATHS
            scale = max(abs(samples.mean()), samples.std())
            assert abs(est.mean - samples.mean()) <= 1e-12 * scale
            stderr = samples.std(ddof=1) / math.sqrt(samples.size)
            assert abs(est.stderr - stderr) <= 1e-12 * stderr

    def test_one_block_estimate_is_numpy_bit_for_bit(self):
        samples = np.random.default_rng(3).standard_normal(BLOCK_PATHS) * 0.3 + 2.0
        est = verify._estimate(verify._moments(samples))
        assert est.mean == float(samples.mean())
        assert est.stderr == float(samples.std(ddof=1) / math.sqrt(samples.size))

    def test_sweep_memory_does_not_grow_with_the_path_count(self):
        """The tracemalloc peak of verify's sweep on regime_switching: about
        1.9 MB at 2^17 paths (13 MB when the sweep held every path at once,
        2.4 MB when it held one block's results into the next block's sweep;
        the workspace's row of previous jump times adds 0.13 MB), and within
        20 % of that at 2^20 paths."""
        cfg = load_config(REGIME_SWITCHING)
        mkt, x, T = cfg.market, cfg.initial_wealth, cfg.horizon
        checks = _checks(mkt, 0.0, x, T)[:3]

        def peak(n_paths):
            tracemalloc.start()
            try:
                sweep_estimates(mkt, jump_columns(mkt.gen, 0, T, mkt.dists, n_paths, 3), checks)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1000)  # warm up
        small, large = peak(1 << 17), peak(1 << 20)
        assert small < 2_100_000
        assert large < 1.2 * small
