import bisect
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy import integrate

from jumpfolio import mpp, verify
from jumpfolio.distributions import ExponentialNegative, ExponentialPositive, TwoPoint
from jumpfolio.config import load_config, parse_config
from jumpfolio.errors import ConfigError, DomainError, InfeasiblePolicyError
from jumpfolio.frictions import NO_SHORTING, PiecewiseLinearConcave
from jumpfolio.market import (
    MarketModel,
    ProportionalConsumption,
    RegimeMarketParams,
    ZeroConsumption,
    log_optimal_consumption,
    stock_path,
    wealth_path,
    _log_jump,
    _path_log_level,
    report_grid,
)
from jumpfolio.mpp import PathEnsemble, jump_columns, simulate_ensemble
from jumpfolio.policy import (
    Utility,
    certify,
    feasible_weight_interval,
    log_optimal_policy,
    power_optimal_policy,
)
from jumpfolio.regime_value import mean_log_growth
from row_identity import h_jump_logs, pathwise_identity
from stored_columns import expand, stored_blocks
from jumpfolio.verify import (
    Level,
    budget_mc,
    column_functionals,
    dual_log_mc,
    expected_utility_mc,
    grid_search_constant_portfolio,
    martingale_mc,
    state_price_spec,
    state_price_wealth_identity,
    sweep_estimates,
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


def columns(mkt, T, n_paths, seed):
    """The sample of ``ensemble(mkt, T, n_paths, seed)``, drawn as it is swept."""
    return jump_columns(mkt.gen, 0, T, mkt.dists, n_paths, seed)


def sweep(blocks, drift, jumps, **level):
    """One level swept alone over a sample's blocks, its jump log the only
    basis: its functionals and the invalid flags, block by block, joined
    in path order."""
    level = Level(drift, {"w": 1.0}, **level)
    swept = [column_functionals(block, {"w": jumps}, [level]) for block in blocks]
    res = {key: np.concatenate([r[key] for _, (r,) in swept]) for key in swept[0][1][0]}
    return {**res, "invalid": np.concatenate([invalid for invalid, _ in swept])}


def make_market(lam=1.0):
    dist = ExponentialPositive(10.0)
    params = RegimeMarketParams(
        r=0.045, mu=-0.05, lam=lam, dist=dist,
        margin=PiecewiseLinearConcave.differential_rates(0.045, 0.05),
    )
    return MarketModel(regimes=(params, params), constraint=NO_SHORTING)


class TestEnsembleFunctionals:
    """The column-sweep engine against brute-force per-path evaluation."""

    DRAW = (2.0, 64, 123)  # T, n_paths, seed

    def _setup(self):
        mkt = make_market()
        ens = ensemble(mkt, *self.DRAW)
        pi = 0.7
        drift, jumps = _wealth_terms(mkt, (pi, pi))
        return mkt, ens, pi, drift, jumps

    def _sample(self, mkt):
        """The sample of ``_setup``'s ensemble, drawn as it is swept."""
        return columns(mkt, *self.DRAW)

    @staticmethod
    def _level_terms(kind, mkt, pi):
        """Per-state drift and jump logs of one level, and its pathwise
        evaluation (ensemble rows -> level of each row on its grid)."""
        if kind == "wealth":
            drift, jumps = _wealth_terms(mkt, (pi, pi))
            return drift, jumps, lambda rows: wealth_path(
                1.0, mkt, pi, ZeroConsumption(), rows, grid=report_grid(rows, 1)
            ).v_gross
        if kind == "stock":
            drift = [p.mu for p in mkt.regimes]
            jumps = [lambda y: np.log1p(mkt.f(y))] * 2
            return drift, jumps, lambda rows: stock_path(
                mkt, rows, s0=1.0, grid=report_grid(rows, 1)
            )[1]
        spec = state_price_spec(mkt, log_optimal_policy(mkt, 1.0, 2.0))
        drift, jumps = spec.drift(mkt), h_jump_logs(mkt, spec)
        return (
            drift,
            jumps,
            lambda rows: np.exp(_path_log_level(rows, report_grid(rows, 1), drift, jumps)),
        )

    @pytest.mark.parametrize("kind", ["wealth", "stock", "state_price"])
    def test_final_log_matches_pathwise_wealth(self, kind):
        mkt, ens, pi, _, _ = self._setup()
        drift, jumps, level = self._level_terms(kind, mkt, pi)
        res = sweep(self._sample(mkt), drift, jumps)
        # cells past a row's own repeat its level at T
        final = level(ens)[:, -1]
        for p in range(ens.n_paths):
            assert res["final_log"][p] == pytest.approx(math.log(final[p]), abs=1e-12)

    @staticmethod
    def _segment_trapezoid(mkt, pi, row, transform, n_grid):
        """Trapezoid of transform(log V) over a one-row ensemble, with
        jump-time right endpoints replaced by their left limits (log V is
        right-continuous)."""
        wp = wealth_path(1.0, mkt, pi, ZeroConsumption(), row, grid=report_grid(row, n_grid))
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
        res = sweep(self._sample(mkt), drift, jumps, int_log=True)
        for p in range(0, ens.n_paths, 7):
            # log V is piecewise linear, so the corrected trapezoid is exact
            brute = self._segment_trapezoid(mkt, pi, ens.rows(p, p + 1), lambda u: u, 64)
            assert res["int_log"][p] == pytest.approx(brute, abs=1e-10)

    def test_int_exp_matches_quadrature(self):
        mkt, ens, pi, drift, jumps = self._setup()
        gamma = 0.5
        res = sweep(self._sample(mkt), drift, jumps, exp_coeff=gamma)
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
        )
        kwargs = dict(int_log=True, exp_coeff=0.5)
        narrow = sweep(self._sample(mkt), drift, jumps, **kwargs)
        padded = sweep(stored_blocks(wide), drift, jumps, **kwargs)
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
        kwargs = dict(int_log=True, exp_coeff=0.5)
        got = sweep(self._sample(mkt), drift, jumps, **kwargs)
        ref = sweep(stored_blocks(c_ordered), drift, jumps, **kwargs)
        assert got.keys() == ref.keys()
        for key in got:
            assert np.array_equal(got[key], ref[key]), key

    def test_invalid_jump_flagged(self):
        mkt, ens, pi, drift, _ = self._setup()
        bad = [lambda y: np.log(-np.ones_like(y))] * 2  # log of negative
        res = sweep(self._sample(mkt), drift, bad)
        assert np.array_equal(res["invalid"], ens.counts > 0)

    def test_invalid_jump_flags_its_own_row_after_compactions(self):
        """Paths leave at columns 0, 1, 2 and 3, so the sweep has compacted
        its accumulators four times when row 5's fourth mark makes the
        basis not finite: row 5 is flagged, and every other row's
        functionals are those of a sweep without the bad mark."""
        counts = np.array([3, 1, 4, 0, 2, 4, 3])
        times = np.where(np.arange(4) < counts[:, None], 0.2 * np.arange(1, 5), np.inf)
        marks = np.where(np.isfinite(times), 0.1 * np.arange(1, 29).reshape(7, 4), 0.0)
        ens = PathEnsemble(0, 1.0, times, marks, counts)
        (block,) = stored_blocks(ens)
        assert [keep is not None for *_, keep in block.columns] == [True] * 4
        bad = marks.copy()
        bad[5, 3] = -2.0
        basis = [np.log1p] * 2
        kwargs = dict(int_log=True, exp_coeff=0.5)
        bad_ens = dataclasses.replace(ens, marks=bad)
        got = sweep(stored_blocks(bad_ens), (0.1, -0.2), basis, **kwargs)
        ref = sweep(stored_blocks(ens), (0.1, -0.2), basis, **kwargs)
        assert np.flatnonzero(got.pop("invalid")).tolist() == [5]
        assert not np.any(ref.pop("invalid"))
        rows = np.arange(7) != 5
        for key in ref:
            assert np.array_equal(got[key][rows], ref[key][rows]), key


def one_level_sweep(ens, drift_by_state, jump_log_by_state, exp_coeff=1.0):
    """One level per sweep, its jump log one callable per state, as each
    check swept before the checks shared one pass: the reference for the
    shared pass.  Returns final_log, int_log and int_exp."""
    n, m = ens.times.shape
    T = ens.horizon
    drift = np.asarray(drift_by_state, dtype=float)
    level, t_prev = np.zeros(n), np.zeros(n)
    int_log, int_exp = np.zeros(n), np.zeros(n)
    for j in range(m + 1):
        state = (ens.initial_state + j) % 2
        a = drift[state]
        t_next = np.minimum(ens.times[:, j], T) if j < m else np.full(n, T)
        dt = t_next - t_prev
        int_log += level * dt + 0.5 * a * dt * dt
        c = exp_coeff
        ca = c * a
        if abs(ca) < 1e-14:
            int_exp += np.exp(c * level) * dt
        else:
            int_exp += np.exp(c * level) * np.expm1(ca * dt) / ca
        level = level + a * dt
        if j < m:
            active = ens.times[:, j] <= T
            with np.errstate(divide="ignore", invalid="ignore"):
                jl = np.where(active, jump_log_by_state[state](ens.marks[:, j]), 0.0)
            assert np.all(np.isfinite(jl))
            level = level + jl
        t_prev = t_next
    return level, int_log, int_exp


def per_check_estimates(mkt, K, policy, pair, cons, utility, x, ens):
    """The martingale, budget, expected-utility and (log) dual estimates,
    one sweep each, with H's tilt phi = 1/(1 + pi f)^(1 - gamma) written
    out in its jump log and compensator."""
    T, f, gamma = ens.horizon, mkt.f, policy.gamma
    comps, h_drift, h_jumps = [], [], []
    for params, pi in zip(mkt.regimes, policy.pi):
        phi = lambda y, p=pi: 1.0 / (1.0 + p * f(y)) ** (1.0 - gamma)
        comp = params.lam * params.dist.expect(lambda y: phi(y) - 1.0, tol=1e-13)
        comps.append(comp)
        h_drift.append(-(params.r + certify(params, K, gamma, pi).gk + comp))
        h_jumps.append(lambda y, phi=phi: np.log(phi(y)))
    v_drift, v_jumps = _wealth_terms(mkt, pair)
    kappa, xi_T = cons.scale, x - cons.scale * T

    final, _, _ = one_level_sweep(ens, [-c for c in comps], h_jumps)
    samples = [np.exp(final)]
    final, _, int_exp = one_level_sweep(
        ens,
        [h_drift[i] + v_drift[i] for i in (0, 1)],
        [lambda y, i=i: h_jumps[i](y) + v_jumps[i](y) for i in (0, 1)],
    )
    samples.append(xi_T * np.exp(final) + kappa * int_exp - x)
    g = utility.gamma
    final, int_log, int_exp = one_level_sweep(ens, v_drift, v_jumps, exp_coeff=g)
    if utility.is_log:
        samples.append(T * math.log(kappa) + int_log + math.log(xi_T) + final)
        final, int_log, _ = one_level_sweep(ens, h_drift, h_jumps)
        samples.append((T + 1.0) * math.log(x / (T + 1.0)) - int_log - final)
    else:
        samples.append((kappa**g) * int_exp / g + (xi_T**g) * np.exp(g * final) / g)
    return [verify._estimate(verify._moments(s)) for s in samples]


class TestOnePass:
    """The Monte Carlo checks as levels of one shared sweep."""

    @staticmethod
    def _checks(mkt, policy, pair, cons, utility, x, T):
        spec = state_price_spec(mkt, policy)
        checks = [
            martingale_mc(spec),
            budget_mc(mkt, spec, pair, cons, x, T),
            expected_utility_mc(mkt, pair, cons, utility, x, T),
        ]
        if utility.is_log:
            checks.append(dual_log_mc(mkt, spec, x, T))
        return checks

    def test_level_swept_with_others_is_bit_identical(self):
        """Levels of one and two jump bases, with int_log and int_exp, each
        swept alone and all together."""
        cfg = load_config(REGIME_SWITCHING)
        mkt, T = cfg.market, cfg.horizon
        sample = lambda: jump_columns(mkt.gen, 0, T, mkt.dists, 3000, 8)
        pol = log_optimal_policy(mkt, 1.0, T)
        checks = self._checks(
            mkt, pol, (0.5, 2.0), ProportionalConsumption(0.3), Utility.power(0.5), 1.0, T
        ) + self._checks(mkt, pol, pol.pi, pol.consumption, Utility.log(), 1.0, T)
        levels = [c.level for c in checks]
        bases = {
            pi: [_log_jump(mkt.transform, p) for p in pi] for lv in levels for pi in lv.jumps
        }
        assert len(bases) == 2
        (block,) = sample()
        invalid, together = column_functionals(block, bases, levels)
        assert not np.any(invalid)
        for lv, res in zip(levels, together):
            (block,) = sample()
            _, (alone,) = column_functionals(block, {k: bases[k] for k in lv.jumps}, [lv])
            assert res.keys() == alone.keys()
            for key in res:
                assert np.array_equal(res[key], alone[key]), key
        assert sweep_estimates(mkt, sample(), checks) == [
            sweep_estimates(mkt, sample(), [c])[0] for c in checks
        ]

    @pytest.mark.parametrize(
        "config, gamma, n_paths, pair, cons",
        [
            (REGIME_SWITCHING, 0.0, 4000, None, None),
            (REGIME_SWITCHING, 0.5, 4000, None, None),
            (PATHS_DENSE, 0.0, 300, None, None),
            (FIG3, 0.5, 4000, None, None),
            (REGIME_SWITCHING, 0.0, 4000, (0.5, 2.0), ProportionalConsumption(0.3)),
            (REGIME_SWITCHING, 0.5, 4000, (0.5, 2.0), ProportionalConsumption(0.3)),
        ],
    )
    def test_matches_per_check_sweeps(self, config, gamma, n_paths, pair, cons):
        """Within 1e-12 of the estimate's size (of x for the budget, a
        difference from x), against one sweep per check; pair None checks
        the policy's own pair, else a sub-optimal pair (two jump bases)."""
        cfg = load_config(config)
        mkt, K, x, T = cfg.market, cfg.market.constraint, cfg.initial_wealth, cfg.horizon
        utility = Utility(gamma)
        pol = log_optimal_policy(mkt, x, T) if gamma == 0.0 else power_optimal_policy(mkt, gamma)
        pair = pol.pi if pair is None else pair
        cons = pol.consumption if cons is None else cons
        draw = (mkt.gen, cfg.initial_state, T, mkt.dists, n_paths, cfg.seed)
        ens = simulate_ensemble(*draw)
        got = sweep_estimates(
            mkt, jump_columns(*draw), self._checks(mkt, pol, pair, cons, utility, x, T)
        )
        ref = per_check_estimates(mkt, K, pol, pair, cons, utility, x, ens)
        assert len(got) == len(ref) == (4 if utility.is_log else 3)
        for k, (a, b) in enumerate(zip(got, ref)):
            scale = max(abs(b.mean), x if k == 1 else 0.0)
            assert abs(a.mean - b.mean) <= 1e-12 * scale, k
            assert abs(a.stderr - b.stderr) <= 1e-12 * scale, k


def _regime_switching(lam=(1.0, 1.0), horizon=None):
    """regime_switching.yaml with the given chain rates (and horizon)."""
    data = yaml.safe_load(REGIME_SWITCHING.read_text())
    for regime, rate in zip(data["model"]["regimes"], lam):
        regime["lam"] = rate
    if horizon is not None:
        data["horizon"] = horizon
    return parse_config(data)


class TestStreamedSweep:
    """Checks swept as the sample is drawn, against the arrays of the same
    sample stored: the stored arrays are the drawn columns bit for bit, and
    the estimates are the per-check sweeps of those arrays."""

    @pytest.mark.parametrize(
        "case, gamma, n_paths",
        [
            ("regime_switching", 0.0, 3000),
            ("regime_switching", 0.5, 3000),
            ("paths_dense", 0.0, 300),
            ("fig3", 0.5, 3000),
            ("still", 0.0, 500),
            ("absorbing", 0.0, 500),
            ("regime_switching", 0.0, 1),
            ("regime_switching", 0.5, 2),
            ("short", 0.0, 500),
            ("short", 0.5, 500),
        ],
    )
    def test_bit_identical_to_the_stored_sample(self, case, gamma, n_paths):
        cfg = {
            "regime_switching": lambda: _regime_switching(),
            "paths_dense": lambda: load_config(PATHS_DENSE),
            "fig3": lambda: load_config(FIG3),
            "still": lambda: _regime_switching((0.0, 0.0)),
            "absorbing": lambda: _regime_switching((2.0, 0.0)),
            # every path leaves at column 0
            "short": lambda: _regime_switching(horizon=1e-6),
        }[case]()
        mkt, K, x, T, i0 = (
            cfg.market, cfg.market.constraint, cfg.initial_wealth, cfg.horizon, cfg.initial_state
        )
        pol = log_optimal_policy(mkt, x, T) if gamma == 0.0 else power_optimal_policy(mkt, gamma)
        checks = TestOnePass._checks(mkt, pol, pol.pi, pol.consumption, Utility(gamma), x, T)
        draw = (mkt.gen, i0, T, mkt.dists, n_paths, cfg.seed)
        ens = simulate_ensemble(*draw)
        if case in ("still", "short"):
            assert ens.times.shape[1] == 0
        if case == "absorbing":
            assert ens.times.shape[1] == 1
        (block,) = jump_columns(*draw)
        times, marks = expand(list(block.columns), n_paths)
        assert np.array_equal(times, ens.times) and np.array_equal(marks, ens.marks)
        if n_paths > 1:
            got = sweep_estimates(mkt, jump_columns(*draw), checks)
            ref = per_check_estimates(
                mkt, K, pol, pol.pi, pol.consumption, Utility(gamma), x, ens
            )
            for k, (a, b) in enumerate(zip(got, ref, strict=True)):
                scale = max(abs(b.mean), x if k == 1 else 0.0)
                assert abs(a.mean - b.mean) <= 1e-12 * scale, k
                assert abs(a.stderr - b.stderr) <= 1e-12 * scale, k


class TestInfeasiblePolicy:
    def test_every_sweep_rejects_a_nonpositive_jump_factor(self):
        """pi = 1.5 against a mark with e^y - 1 = e^-2 - 1 gives 1 + pi f < 0."""
        dist = TwoPoint(y_lo=-2.0, y_hi=0.5, p_hi=0.5)
        params = RegimeMarketParams(
            r=0.045, mu=-5.0, lam=1.0, dist=dist,
            margin=PiecewiseLinearConcave.differential_rates(0.045, 0.05),
        )
        mkt = MarketModel(regimes=(params, params), constraint=NO_SHORTING)
        pol = dataclasses.replace(log_optimal_policy(mkt, 1.0, 1.0), pi=(1.5, 1.5))
        sample = lambda: columns(mkt, 1.0, 2000, 3)
        with pytest.raises(InfeasiblePolicyError):
            spec = state_price_spec(mkt, pol)
            sweep_estimates(mkt, sample(), [martingale_mc(spec)])
        with pytest.raises(InfeasiblePolicyError):
            spec = state_price_spec(mkt, pol)
            sweep_estimates(mkt, sample(), [dual_log_mc(mkt, spec, 1.0, 1.0)])
        with pytest.raises(InfeasiblePolicyError):
            spec = state_price_spec(mkt, pol)
            check = budget_mc(mkt, spec, pol.pi, pol.consumption, 1.0, 1.0)
            sweep_estimates(mkt, sample(), [check])

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_dual_density_rejects_a_weight_outside_the_feasible_set(self, gamma):
        """Marks unbounded below admit weights up to 1 only: at pi = 1.5 the
        factor 1 + 1.5 (e^y - 1) is negative for y < -log 3, and the dual
        density refuses the weight as it does on the two-point law."""
        params = RegimeMarketParams(
            r=0.045, mu=0.06, lam=1.0, dist=ExponentialNegative(10.0),
            margin=PiecewiseLinearConcave.differential_rates(0.045, 0.05),
        )
        assert feasible_weight_interval(params) == (-math.inf, 1.0, False, True)
        mkt = MarketModel(regimes=(params, params), constraint=NO_SHORTING)
        solved = (
            log_optimal_policy(mkt, 1.0, 1.0) if gamma == 0.0 else power_optimal_policy(mkt, gamma)
        )
        pol = dataclasses.replace(solved, pi=(1.5, 1.5))
        with pytest.raises(InfeasiblePolicyError, match="regime 0"):
            state_price_spec(mkt, pol)

    def test_sweep_rejects_a_pair_the_dual_density_allows(self):
        """A feasible dual density, so the rejection comes from the sweep:
        the budget pair's factor 1 + 1.5 (e^-2 - 1) < 0 at the low mark."""
        dist = TwoPoint(y_lo=-2.0, y_hi=0.5, p_hi=0.5)
        params = RegimeMarketParams(
            r=0.045, mu=0.06, lam=1.0, dist=dist,
            margin=PiecewiseLinearConcave.differential_rates(0.045, 0.05),
        )
        mkt = MarketModel(regimes=(params, params), constraint=NO_SHORTING)
        pol = log_optimal_policy(mkt, 1.0, 1.0)
        spec = state_price_spec(mkt, pol)
        budget = lambda pair: budget_mc(mkt, spec, pair, pol.consumption, 1.0, 1.0)
        sweep_estimates(mkt, columns(mkt, 1.0, 2000, 3), [budget(pol.pi)])
        with pytest.raises(InfeasiblePolicyError, match="on some path"):
            sweep_estimates(mkt, columns(mkt, 1.0, 2000, 3), [budget((1.5, 1.5))])


class TestStatePrice:
    def test_log_case_is_reciprocal_wealth(self):
        mkt = make_market()
        spec = state_price_spec(mkt, log_optimal_policy(mkt, 1.0, 2.0))
        assert state_price_wealth_identity(mkt, spec, 2.0) <= 1e-10
        # a drift that takes H V past the float range reads inf, not an error
        far = dataclasses.replace(spec, compensator=(-1e3, -1e3))
        assert state_price_wealth_identity(mkt, far, 2.0) == math.inf

    def test_identity_has_no_bound_where_h_v_jumps(self):
        """Off the log optimum H V jumps by gamma log(1 + pi f): the closed
        form does not hold, and the identity says so with inf."""
        mkt = make_market()
        spec = state_price_spec(mkt, power_optimal_policy(mkt, 0.5))
        assert state_price_wealth_identity(mkt, spec, 2.0) == math.inf

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
        spec = state_price_spec(mkt, pol)
        assert state_price_wealth_identity(mkt, spec, 10.0) <= 1e-10
        assert pathwise_identity(mkt, spec, ens) <= 1e-10

    def test_simulate_state_price_drift_segment(self):
        mkt = make_market()
        pol = log_optimal_policy(mkt, 1.0, 2.0)
        spec = state_price_spec(mkt, pol)
        row = ensemble(mkt, 2.0, 1, 77)
        grid = report_grid(row)
        log_h = _path_log_level(row, grid, spec.drift(mkt), h_jump_logs(mkt, spec))[0]
        t, H = grid[0][0], np.exp(log_h)
        assert t[0] == 0.0 and H[0] == 1.0
        assert np.all(H > 0)
        # up to the first jump, log H is the regime-0 drift times t
        before = t < row.times[0, 0]
        assert np.array_equal(log_h[before], spec.drift(mkt)[0] * t[before])

    def test_jump_log_finite_at_unit_weight(self):
        """At pi = 1 the factor 1 + (e^y - 1) = e^y is positive, yet
        1 + expm1(y) rounds to 0 below y = -37: H's jump log reads the
        wealth's log(1 + pi f), which is y there, not the log of 1/0."""
        data = {
            "model": {
                "initial_state": 0,
                "regimes": [
                    {"r": 0.03, "mu": 1.0, "lam": 1.0, "transform": "exponential",
                     "margin": {"variant": "short_rebate", "rL": 0.05},
                     "distribution": {"variant": "exponential_negative", "rate": 10.0}},
                ],
            },
            "utility": {"variant": "log"},
            "horizon": 1.0,
            "initial_wealth": 1.0,
            "mc": {"n_paths": 2, "seed": 1},
        }
        mkt = parse_config(data).market
        pol = log_optimal_policy(mkt, 1.0, 1.0)
        assert pol.pi == (1.0, 1.0)  # the no-borrowing bound binds
        spec = state_price_spec(mkt, pol)
        rows = PathEnsemble(
            initial_state=0,
            horizon=1.0,
            times=np.full((2, 1), 0.5),
            marks=np.full((2, 1), -40.0),
            counts=np.array([1, 1]),
        )
        log_h = _path_log_level(rows, report_grid(rows), spec.drift(mkt), h_jump_logs(mkt, spec))
        assert np.all(np.isfinite(log_h))
        assert log_h[0, -1] == pytest.approx(spec.drift(mkt)[0] * 1.0 + 40.0, rel=1e-12)
        # no InfeasiblePolicyError
        (est,) = sweep_estimates(mkt, stored_blocks(rows), [martingale_mc(spec)])
        assert math.isfinite(est.mean)

    def test_martingale_factor_near_one(self):
        mkt = make_market()
        pol = log_optimal_policy(mkt, 1.0, 1.0)
        spec = state_price_spec(mkt, pol)
        (est,) = sweep_estimates(mkt, columns(mkt, 1.0, 20_000, 42), [martingale_mc(spec)])
        assert abs(est.mean - 1.0) <= 3.0 * est.stderr

    def test_estimates_deterministic_per_seed(self):
        mkt = make_market()
        pol = log_optimal_policy(mkt, 1.0, 1.0)
        spec = state_price_spec(mkt, pol)
        (a,) = sweep_estimates(mkt, columns(mkt, 1.0, 2000, 9), [martingale_mc(spec)])
        (b,) = sweep_estimates(mkt, columns(mkt, 1.0, 2000, 9), [martingale_mc(spec)])
        assert a.mean == b.mean and a.stderr == b.stderr


class TestBudget:
    def test_pathwise_equality_at_log_optimum(self):
        mkt = make_market()
        x, T = 2.0, 1.5
        pol = log_optimal_policy(mkt, x, T)
        spec = state_price_spec(mkt, pol)
        check = budget_mc(mkt, spec, pol.pi, pol.consumption, x, T)
        (est,) = sweep_estimates(mkt, columns(mkt, T, 5000, 3), [check])
        assert abs(est.mean) <= 1e-12 * x
        assert est.stderr <= 1e-12 * x

    def test_suboptimal_pairs_nonpositive(self):
        mkt = make_market()
        x, T = 1.0, 1.0
        pol = log_optimal_policy(mkt, x, T)
        spec = state_price_spec(mkt, pol)
        checks = [
            budget_mc(mkt, spec, (pi, pi), cons, x, T)
            for pi, cons in (
                (0.3, ZeroConsumption()),
                (1.2, ProportionalConsumption(0.4)),
                (0.0, ProportionalConsumption(0.9)),
            )
        ]
        for est in sweep_estimates(mkt, columns(mkt, T, 30_000, 11), checks):
            assert est.mean <= 3.0 * est.stderr

    def test_over_consumption_rejected(self):
        mkt = make_market()
        pol = log_optimal_policy(mkt, 1.0, 1.0)
        with pytest.raises(ConfigError):
            budget_mc(
                mkt, state_price_spec(mkt, pol), pol.pi,
                ProportionalConsumption(2.0), 1.0, 1.0,
            )


class TestExpectedUtility:
    def test_log_requires_consumption(self):
        mkt = make_market()
        with pytest.raises(ConfigError):
            expected_utility_mc(mkt, (0.5, 0.5), ZeroConsumption(), Utility.log(), 1.0, 1.0)

    def test_one_path_has_no_standard_error(self):
        """A single path would report stderr 0; every estimate refuses it."""
        mkt = make_market()
        check = expected_utility_mc(
            mkt, (0.5, 0.5), log_optimal_consumption(1.0, 1.0), Utility.log(), 1.0, 1.0
        )
        with pytest.raises(ConfigError, match="two paths"):
            sweep_estimates(mkt, columns(mkt, 1.0, 1, 0), [check])

    def test_power_no_jump_oracle(self):
        """lam=0 gives a deterministic wealth: J = (x e^{bT})^g / g."""
        dist = ExponentialPositive(10.0)
        params = RegimeMarketParams(
            r=0.045, mu=0.06, lam=0.0, dist=dist,
            margin=PiecewiseLinearConcave.differential_rates(0.045, 0.05),
        )
        mkt = MarketModel(
            regimes=(params, params),
            constraint=NO_SHORTING,
        )
        g, pi, x, T = 0.5, 0.8, 2.0, 1.5
        check = expected_utility_mc(mkt, (pi, pi), ZeroConsumption(), Utility.power(g), x, T)
        (est,) = sweep_estimates(mkt, columns(mkt, T, 50, 1), [check])
        b = 0.045 + pi * (0.06 - 0.045)
        expected = (x * math.exp(b * T)) ** g / g
        assert est.mean == pytest.approx(expected, rel=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)

    def test_log_with_consumption_no_jump_oracle(self):
        dist = ExponentialPositive(10.0)
        params = RegimeMarketParams(
            r=0.03, mu=0.05, lam=0.0, dist=dist,
            margin=PiecewiseLinearConcave.differential_rates(0.03, 0.05),
        )
        mkt = MarketModel(
            regimes=(params, params),
            constraint=NO_SHORTING,
        )
        pi, x, T, kappa = 0.5, 1.0, 2.0, 0.25
        check = expected_utility_mc(
            mkt, (pi, pi), ProportionalConsumption(kappa), Utility.log(), x, T
        )
        (est,) = sweep_estimates(mkt, columns(mkt, T, 20, 1), [check])
        b = 0.03 + pi * (0.05 - 0.03)
        int_log, _ = integrate.quad(lambda t: b * t, 0.0, T)
        expected = T * math.log(kappa) + int_log + math.log(x - kappa * T) + b * T
        assert est.mean == pytest.approx(expected, rel=1e-12)

    def test_dual_equals_primal_for_log_optimum(self):
        """For the log optimum, L(x, phi_hat) coincides with J pathwise."""
        mkt = make_market()
        x, T = 1.0, 1.0
        pol = log_optimal_policy(mkt, x, T)
        primal, dual = sweep_estimates(
            mkt,
            columns(mkt, T, 5000, 77),
            [
                expected_utility_mc(mkt, pol.pi, pol.consumption, Utility.log(), x, T),
                dual_log_mc(mkt, state_price_spec(mkt, pol), x, T),
            ],
        )
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
    """The row engine's H V = 1 over a block of ensemble rows against one
    scalar evaluation per row on its own union1d grid, bit for bit."""

    @staticmethod
    def _reference(mkt, x, ens):
        T = ens.horizon
        policy = log_optimal_policy(mkt, x, T)
        spec = state_price_spec(mkt, policy)
        v_terms = _wealth_terms(mkt, policy.pi)
        dev_hv = []
        for p in range(ens.n_paths):
            row = ens.rows(p, p + 1)
            t = np.union1d(np.linspace(0.0, T, 257), row.times[0])
            log_v = scalar_log_level(row, t, *v_terms)
            log_h = scalar_log_level(row, t, spec.drift(mkt), h_jump_logs(mkt, spec))
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
        spec = state_price_spec(mkt, log_optimal_policy(mkt, 1.0, T))
        assert pathwise_identity(mkt, spec, ens) == self._reference(mkt, 1.0, ens)

    def test_engine_rows_match_per_row_reference(self):
        """Every row's level on its own grid, the cells past it repeating
        the level at T."""
        cfg = load_config(REGIME_SWITCHING)
        mkt, T = cfg.market, cfg.horizon
        ens = simulate_ensemble(mkt.gen, 1, T, mkt.dists, 30, 5)
        drift, jumps = _wealth_terms(mkt, (0.8, 1.3))
        grid = report_grid(ens)
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
        assert mkt.gen.mean_jump_count(0, 2.0) == pytest.approx(2.0)
        dist = ExponentialPositive(10.0)
        p0 = RegimeMarketParams(r=0.0, mu=0.0, lam=2.0, dist=dist)
        p1 = RegimeMarketParams(r=0.0, mu=0.0, lam=0.5, dist=dist)
        mkt2 = MarketModel(regimes=(p0, p1))
        ens = simulate_ensemble(mkt2.gen, 0, 3.0, mkt2.dists, 40_000, 19)
        mc = ens.counts.mean()
        stderr = ens.counts.std(ddof=1) / math.sqrt(ens.n_paths)
        assert abs(mkt2.gen.mean_jump_count(0, 3.0) - mc) < 4 * stderr

    def test_small_grid_finds_optimum(self):
        mkt = make_market()
        grid = np.round(np.arange(0.5, 1.01, 0.05), 10)
        pi_star, rows = grid_search_constant_portfolio(
            mkt, Utility.log(), 1.0, 1.0, grid, 20_000, 4
        )
        assert abs(pi_star - 0.7460618540) <= 0.05 + 1e-9
        assert len(rows) == len(grid)

    def test_infeasible_points_get_nan(self):
        mkt = make_market()
        grid = np.array([-0.5, 0.0, 0.5])  # -0.5 outside K cap via feasibility
        pi_star, rows = grid_search_constant_portfolio(
            mkt, Utility.power(0.5), 1.0, 1.0, grid, 2000, 4
        )
        assert math.isnan(rows[0][1])

    @pytest.mark.parametrize("utility", [Utility.log(), Utility.power(0.5)])
    def test_an_infinite_weight_gets_nan(self, utility):
        """A negative mark law leaves the weights unbounded below, by an
        open end: the weight -inf itself is infeasible and gets a NaN row,
        and the finite weights keep their exact J."""
        params = RegimeMarketParams(
            r=0.045, mu=-0.05, lam=1.0, dist=ExponentialNegative(10.0),
            margin=PiecewiseLinearConcave.differential_rates(0.045, 0.05),
        )
        mkt = MarketModel(regimes=(params, params))
        assert feasible_weight_interval(params)[0::2] == (-math.inf, False)
        pi_star, rows = grid_search_constant_portfolio(
            mkt, utility, 1.0, 1.0, [-math.inf, 0.0, 0.5]
        )
        assert math.isnan(rows[0][1])
        _, finite = grid_search_constant_portfolio(mkt, utility, 1.0, 1.0, [0.0, 0.5])
        assert rows[1:] == finite
        assert pi_star == max(finite, key=lambda row: row[1])[0]

    @staticmethod
    def _column_sweep(market, utility, x, T, grid, n_paths, seed, i0):
        """J by conditional Monte Carlo, one column sweep per weight, with
        a jump-count control variate: the reference for the exact J."""
        draw = (market.gen, i0, T, market.dists, n_paths, seed)
        ens = simulate_ensemble(*draw)
        f, gamma = market.f, utility.gamma
        kappa = x / (T + 1.0)
        lo0, hi0, lc0, hc0 = feasible_weight_interval(market.regimes[0])
        lo1, hi1, lc1, hc1 = feasible_weight_interval(market.regimes[1])
        lo, hi = max(lo0, lo1), min(hi0, hi1)
        counts = ens.counts.astype(float)
        mean_count = market.gen.mean_jump_count(i0, T)
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
                res = sweep(jump_columns(*draw), drift, jumps, int_log=True)
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
                res = sweep(jump_columns(*draw), [gamma * d for d in drift], jumps)
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
            margin=PiecewiseLinearConcave.differential_rates(0.045, 0.05),
        )
        p1 = RegimeMarketParams(
            r=0.03, mu=0.02, lam=0.5, dist=TwoPoint(-0.05, 0.08, 0.6),
            margin=PiecewiseLinearConcave.differential_rates(0.03, 0.05),
        )
        mkt = MarketModel(regimes=(p0, p1))
        grid = np.round(np.linspace(-0.5, 1.5, 21), 10)
        rows = self._assert_matches_column_sweep(mkt, Utility(gamma), grid, i0)
        assert all(math.isnan(r[1]) for r in rows[:5])  # negative weights

    @pytest.mark.parametrize("i0", [0, 1])
    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_matches_column_sweep_on_identical_regimes(self, gamma, i0):
        """fig1's identical regimes, where the weight 0 has a constant
        sample and the two regimes' terms coincide."""
        mkt = load_config(FIG1).market
        assert mkt.regimes[0] == mkt.regimes[1]
        grid = np.round(np.linspace(0.0, 2.0, 21), 10)
        self._assert_matches_column_sweep(mkt, Utility(gamma), grid, i0)
        if gamma == 0.0:  # at the log-optimal weight J is the optimal value
            policy = log_optimal_policy(mkt, 1.0, 1.0)
            _, ((_, J),) = grid_search_constant_portfolio(
                mkt, Utility.log(), 1.0, 1.0, [policy.pi[0]], i0=i0
            )
            d_bar = mean_log_growth(mkt, [policy.pi])[0][i0]
            semi = 2.0 * math.log(0.5) + d_bar * 1.5  # (T+1) ln(x/(T+1)) + d (T + T^2/2)
            assert abs(J - semi) <= 1e-13 * abs(semi)

    def _assert_matches_column_sweep(self, mkt, utility, grid, i0):
        """Exact J within 3 standard errors of the column sweep's estimate
        at every feasible weight (the sample is constant at the weight 0 on
        identical regimes, hence the rounding term)."""
        args = (mkt, utility, 1.0, 1.0, grid, 20_000, 31)
        pi_star, rows = grid_search_constant_portfolio(*args, i0=i0)
        ref = self._column_sweep(*args, i0)
        assert [math.isnan(r[1]) for r in rows] == [math.isnan(r[1]) for r in ref]
        for (pi, J), (_, J_ref, se_ref) in zip(rows, ref):
            if not math.isnan(J_ref):
                assert abs(J - J_ref) <= 3.0 * se_ref + 1e-12 * max(1.0, abs(J_ref)), pi
        assert pi_star == grid[np.nanargmax([r[1] for r in rows])]
        return rows

    def test_closedness_comes_from_the_binding_end(self):
        """Regime 0's closed lower end 0 binds; regime 1's open end -12 lies
        below it, so the weight 0 is feasible in both and gets a row."""
        p0 = RegimeMarketParams(
            r=0.045, mu=-0.05, lam=2.0, dist=ExponentialPositive(10.0),
            margin=PiecewiseLinearConcave.differential_rates(0.045, 0.05),
        )
        p1 = RegimeMarketParams(
            r=0.03, mu=0.02, lam=0.5, dist=TwoPoint(-0.05, 0.08, 0.6),
            margin=PiecewiseLinearConcave.differential_rates(0.03, 0.05),
        )
        mkt = MarketModel(regimes=(p0, p1))
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
        _, J1 = rows[-1]
        assert pi_star == -1.0
        assert J1 == pytest.approx(-1.4312943611, rel=1e-9)

    def test_draws_no_ensemble(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the grid search drew an ensemble")

        monkeypatch.setattr(mpp, "simulate_ensemble", refuse)
        monkeypatch.setattr(verify, "simulate_ensemble", refuse, raising=False)
        grid = np.array([0.5, 1.0])
        for utility in (Utility.log(), Utility.power(0.5)):
            _, rows = grid_search_constant_portfolio(
                make_market(), utility, 1.0, 1.0, grid, 2000, 4
            )
            assert all(math.isfinite(J) for _, J in rows)
