import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jumpfolio.config import load_config
from jumpfolio.distributions import ExponentialNegative, ExponentialPositive, TwoPoint
from jumpfolio.errors import (
    BracketLimitError,
    ConfigError,
    DomainError,
    InfeasiblePolicyError,
    JumpfolioError,
    ModelAssumptionError,
    RangeError,
)
from jumpfolio.frictions import (
    ConstraintSet,
    NO_BORROWING,
    NO_SHORTING,
    PiecewiseLinearConcave,
)
from jumpfolio.market import MarketModel, RegimeMarketParams
from jumpfolio.policy import (
    PI_TOL,
    Utility,
    _brent,
    certify,
    conjugacy_tolerance,
    feasible_weight_interval,
    h_derivative,
    h_inverse,
    h_value,
    log_optimal_policy,
    optimal_portfolio,
    power_optimal_policy,
    verify_conjugacy,
)

from mpmath_oracle import mpmath_h

CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"

# borrowing-spread market with positive exponential jumps
PARAMS_UP = RegimeMarketParams(
    r=0.045, mu=-0.05, lam=1.0, dist=ExponentialPositive(10.0),
    margin=PiecewiseLinearConcave.differential_rates(0.045, 0.05),
)
# short-rebate market with negative exponential jumps
PARAMS_DOWN = RegimeMarketParams(
    r=0.03, mu=0.07, lam=1.0, dist=ExponentialNegative(10.0),
    margin=PiecewiseLinearConcave.short_rebate(0.03, 0.05),
)


# The closed four-case selections for the two canonical margins, kept as
# the oracle that optimal_portfolio must reproduce on their canonical sets.
@dataclasses.dataclass(frozen=True)
class ReferenceOptimum:
    pi: float
    zeta: float
    case: int
    h_at_pi: float


def reference_diffrates(params: RegimeMarketParams, gamma: float, R: float) -> ReferenceOptimum:
    """Four-case optimal weight under differential borrowing/lending rates, K = [0, inf)."""
    if params.margin != PiecewiseLinearConcave.differential_rates(params.r, R):
        raise ConfigError("differential-rates solver needs the differential_rates(r, R) margin")
    r = params.r
    if not R > params.mu:
        raise ModelAssumptionError(
            f"borrowing rate R = {R:.6g} must exceed drift mu = {params.mu:.6g}"
        )
    h0 = h_value(params, gamma, 0.0)
    h1 = h_value(params, gamma, 1.0)
    if h0 < r:
        pi, case = 0.0, 1
    elif r < h1:
        if h1 <= R:
            pi, case = 1.0, 3
        else:
            pi, case = h_inverse(params, gamma, R, K=NO_SHORTING), 4
    else:  # h1 <= r <= h0
        pi, case = h_inverse(params, gamma, r, K=NO_SHORTING), 2
    h_pi = h_value(params, gamma, pi)
    return ReferenceOptimum(pi=pi, zeta=r - h_pi, case=case, h_at_pi=h_pi)


def reference_short(params: RegimeMarketParams, gamma: float, rL: float) -> ReferenceOptimum:
    """Four-case optimal weight under short rebates, K = (-inf, 1]."""
    if params.margin != PiecewiseLinearConcave.short_rebate(params.r, rL):
        raise ConfigError("short-rebate solver needs the short_rebate(r, rL) margin")
    r = params.r
    lower = 2.0 * r - rL
    if not params.mu > lower:
        raise ModelAssumptionError(
            f"drift mu = {params.mu:.6g} must exceed 2r - rL = {lower:.6g}"
        )
    K = NO_BORROWING
    h0 = h_value(params, gamma, 0.0)
    h1 = h_value(params, gamma, 1.0)
    if h0 < lower:
        pi, case = h_inverse(params, gamma, lower, K=K), 1
    elif r <= h1:
        pi, case = 1.0, 4
    elif r <= h0:
        pi, case = h_inverse(params, gamma, r, K=K), 3
    else:  # lower <= h0 < r
        pi, case = 0.0, 2
    h_pi = h_value(params, gamma, pi)
    return ReferenceOptimum(pi=pi, zeta=r - h_pi, case=case, h_at_pi=h_pi)


def _outcome(solve, *args):
    """(optimum, None) or (None, error type) of one solve."""
    try:
        return solve(*args), None
    except JumpfolioError as exc:
        return None, type(exc)


# margin variant -> its rate key, canonical constraint set and four-case oracle
ORACLES = {
    "differential_rates": ("R", NO_SHORTING, reference_diffrates),
    "short_rebate": ("rL", NO_BORROWING, reference_short),
}


def _assert_matches_reference(params, gamma, variant, rate, rel=0.0):
    """optimal_portfolio on the margin's canonical set against the four-case
    oracle of the margin variant with that rate: the same error type, or
    the same case and pi within rel."""
    _, K, reference = ORACLES[variant]
    got, got_error = _outcome(optimal_portfolio, params, K, gamma)
    ref, ref_error = _outcome(reference, params, gamma, rate)
    if got_error is InfeasiblePolicyError and ref is not None:
        # the oracle returns its weight uncertified; the solver refuses one
        # whose conjugacy residual exceeds its scale-aware bound
        residual = verify_conjugacy(params.margin, K, ref.pi, ref.zeta)
        assert residual > 1e-9 * max(1.0, abs(ref.pi * ref.zeta)), (gamma, ref)
        return
    assert got_error is ref_error, (gamma, got_error, ref_error)
    if ref is not None:
        assert got.case == ref.case, (gamma, got, ref)
        assert abs(got.pi - ref.pi) <= rel * abs(ref.pi), (gamma, got, ref)


class TestUtility:
    def test_gamma_range(self):
        with pytest.raises(ConfigError):
            Utility(1.0)
        with pytest.raises(ConfigError):
            Utility.power(0.0)
        assert Utility.log().is_log


class TestHFunction:
    def test_anchor_values(self):
        """Spot values of h at 0 and 1 for the borrowing-spread market."""
        assert h_value(PARAMS_UP, 0.5, 0.0) == pytest.approx(0.0611111, abs=1e-7)
        assert h_value(PARAMS_UP, 0.5, 1.0) == pytest.approx(0.0502506, abs=1e-7)
        assert h_value(PARAMS_UP, 0.0, 1.0) == pytest.approx(0.0409091, abs=1e-7)

    def test_mgf_identities(self):
        """h(0) = mu + lam(m(1)-1); h(1) = mu + lam(m(g)-m(g-1)) vs quadrature."""
        for params in (PARAMS_UP, PARAMS_DOWN):
            f = params.f
            m = params.dist.mgf
            for g in (0.0, 0.25, 0.5, 0.75, 0.9):
                direct0 = params.mu + params.lam * params.dist.expect(lambda y: f(y))
                assert h_value(params, g, 0.0) == pytest.approx(direct0, abs=1e-8)
                # f/(1+f)^{1-g} = e^{gy} - e^{(g-1)y}, stable for y << 0
                direct1 = params.mu + params.lam * params.dist.expect(
                    lambda y: np.exp(g * y) - np.exp((g - 1.0) * y)
                )
                closed = params.mu + params.lam * (m(g) - m(g - 1.0))
                assert h_value(params, g, 1.0) == pytest.approx(direct1, abs=1e-8)
                assert closed == pytest.approx(direct1, abs=1e-8)

    def test_strictly_decreasing(self):
        for g in (0.0, 0.5, 0.9):
            grid = np.linspace(0.0, 2.0, 60)
            vals = [h_value(PARAMS_UP, g, p) for p in grid]
            assert np.all(np.diff(vals) < 0)

    def test_derivative_sign_and_magnitude(self):
        d = h_derivative(PARAMS_UP, 0.5, 0.5)
        assert d < 0
        eps = 1e-6
        fd = (h_value(PARAMS_UP, 0.5, 0.5 + eps) - h_value(PARAMS_UP, 0.5, 0.5 - eps)) / (2 * eps)
        assert d == pytest.approx(fd, rel=1e-5)

    def test_zero_intensity_collapses_to_drift(self):
        p = RegimeMarketParams(r=0.0, mu=0.03, lam=0.0, dist=ExponentialPositive(10.0))
        assert h_value(p, 0.5, 0.7) == 0.03


class TestHInverse:
    def test_residual_tolerance(self):
        for target in (0.052, 0.055, 0.06):
            pi = h_inverse(PARAMS_UP, 0.5, target, K=NO_SHORTING)
            assert abs(h_value(PARAMS_UP, 0.5, pi) - target) <= 1e-12

    def test_unreachable_target(self):
        with pytest.raises(RangeError) as info:
            h_inverse(PARAMS_UP, 0.5, 10.0, K=NO_SHORTING)
        assert not isinstance(info.value, BracketLimitError)

    def test_root_beyond_bracket_limit(self):
        """On the short-rebate market at gamma = 0.99 the root of h = 2r - rL
        lies below -BRACKET_LIMIT, inside the feasible set."""
        with pytest.raises(BracketLimitError, match="beyond the bracket limit"):
            optimal_portfolio(PARAMS_DOWN, NO_BORROWING, 0.99)


class TestFeasibleInterval:
    def test_positive_jumps(self):
        lo, hi, lc, hc = feasible_weight_interval(PARAMS_UP)
        assert (lo, hi) == (0.0, math.inf) and lc

    def test_negative_jumps_cap_at_one(self):
        lo, hi, lc, hc = feasible_weight_interval(PARAMS_DOWN)
        assert hi == 1.0 and hc
        assert lo == -math.inf


class TestFourCaseSolvers:
    def test_diffrates_case_selection(self):
        # gamma = 0.5: h(1) = 0.05025 > R -> case 4
        opt = optimal_portfolio(PARAMS_UP, NO_SHORTING, 0.5)
        assert opt.case == 4
        assert opt.pi == pytest.approx(1.0288992667, abs=1e-8)
        assert opt.cert.zeta == pytest.approx(0.045 - 0.05, abs=1e-10)
        # gamma = 0: r < h(1) = 0.0409.. is false -> interior case 2
        opt0 = optimal_portfolio(PARAMS_UP, NO_SHORTING, 0.0)
        assert opt0.case == 2
        assert opt0.pi == pytest.approx(0.7460618540, abs=1e-8)
        assert abs(opt0.cert.zeta) <= 1e-12

    def test_diffrates_all_cases_reachable(self):
        cases = {
            optimal_portfolio(PARAMS_UP, NO_SHORTING, g).case for g in np.linspace(0, 0.98, 120)
        }
        assert {2, 3, 4} <= cases
        # a market with h(0) < r sits in case 1
        p = RegimeMarketParams(
            r=0.07, mu=-0.05, lam=1.0, dist=ExponentialPositive(10.0),
            margin=PiecewiseLinearConcave.differential_rates(0.07, 0.08),
        )
        assert optimal_portfolio(p, NO_SHORTING, 0.5).case == 1
        assert optimal_portfolio(p, NO_SHORTING, 0.5).pi == 0.0

    def test_diffrates_model_assumption(self):
        p = RegimeMarketParams(
            r=0.01, mu=0.05, lam=1.0, dist=ExponentialPositive(10.0),
            margin=PiecewiseLinearConcave.differential_rates(0.01, 0.02),
        )
        with pytest.raises(ModelAssumptionError):
            optimal_portfolio(p, NO_SHORTING, 0.5)  # R = 0.02 < mu

    def test_short_case_selection(self):
        # h(0) = -0.0209 < 2r - rL = 0.01 -> case 1 (short position)
        opt = optimal_portfolio(PARAMS_DOWN, NO_BORROWING, 0.5)
        assert opt.case == 1
        assert opt.pi == pytest.approx(-9.2293544664, abs=1e-7)
        assert opt.cert.zeta == pytest.approx(0.03 - 0.01, abs=1e-10)
        assert opt.pi < 0

    def test_short_model_assumption(self):
        p = RegimeMarketParams(
            r=0.03, mu=0.005, lam=1.0, dist=ExponentialNegative(10.0),
            margin=PiecewiseLinearConcave.short_rebate(0.03, 0.05),
        )
        with pytest.raises(ModelAssumptionError):
            optimal_portfolio(p, NO_BORROWING, 0.5)  # mu <= 2r - rL

    def test_conjugacy_at_optimum(self):
        for params, K, g in (
            (PARAMS_UP, NO_SHORTING, 0.5),
            (PARAMS_UP, NO_SHORTING, 0.0),
            (PARAMS_DOWN, NO_BORROWING, 0.5),
        ):
            opt = optimal_portfolio(params, K, g)
            assert verify_conjugacy(params.margin, K, opt.pi, opt.cert.zeta) <= 1e-9


class TestGenericSolver:
    def test_matches_named_diffrates(self):
        for g in (0.0, 0.3, 0.5, 0.8):
            named = reference_diffrates(PARAMS_UP, g, 0.05)
            generic = optimal_portfolio(PARAMS_UP, NO_SHORTING, g)
            assert generic.pi == pytest.approx(named.pi, abs=1e-9)

    def test_matches_named_short(self):
        for g in (0.0, 0.3, 0.5):
            named = reference_short(PARAMS_DOWN, g, 0.05)
            generic = optimal_portfolio(PARAMS_DOWN, NO_BORROWING, g)
            assert generic.pi == pytest.approx(named.pi, rel=1e-7)

    def test_bounded_constraint_clamps(self):
        K = ConstraintSet(0.0, 0.5)
        opt = optimal_portfolio(PARAMS_UP, K, 0.0)
        # unconstrained optimum 0.746 > 0.5 -> endpoint optimum
        assert opt.pi == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize(
        "name, regime", [("fig1", 0), ("fig3", 0), ("regime_switching", 0), ("regime_switching", 1)]
    )
    def test_matches_reference_on_figure_sweeps(self, name, regime):
        """The 200 gammas of figures 2 and 4: bit-equal weights and cases."""
        config = load_config(CONFIGS / f"{name}.yaml")
        params = config.market.regimes[regime]
        margin = config.raw["model"]["regimes"][regime]["margin"]
        variant = margin["variant"]
        rate = float(margin[ORACLES[variant][0]])
        for g in np.linspace(0.0, 0.99, 200):
            _assert_matches_reference(params, float(g), variant, rate)

    def test_open_end_holds_no_case(self):
        """Two-point marks bound the short side at the open end -19.5, which
        holds no weight: a short optimum keeps the paper's case 1."""
        params = RegimeMarketParams(
            r=0.03, mu=0.03, lam=1.0, dist=TwoPoint(-0.2, 0.05, 0.5),
            margin=PiecewiseLinearConcave.short_rebate(0.03, 0.05),
        )
        for g in (0.0, 0.5, 0.9):
            _assert_matches_reference(params, g, "short_rebate", 0.05, rel=1e-12)
        opt = optimal_portfolio(params, NO_BORROWING, 0.5)
        assert opt.case == 1 and -19.5 < opt.pi < 0.0

    @pytest.mark.parametrize("mu", [0.03, 0.05])
    def test_unbounded_above_needs_drift_below_rate(self, mu):
        """h tends to mu as pi -> inf, so with no friction an optimum over
        [0, inf) needs mu < r."""
        params = RegimeMarketParams(
            r=0.03, mu=mu, lam=1.0, dist=ExponentialPositive(10.0),
            margin=PiecewiseLinearConcave.frictionless(),
        )
        with pytest.raises(ModelAssumptionError, match="unbounded above"):
            optimal_portfolio(params, ConstraintSet(), 0.5)

    def test_root_beyond_bracket_limit_propagates(self):
        """The root of h = 2r - rL lies below -BRACKET_LIMIT; a bounded upper
        end must not turn that into 'no admissible weight'."""
        with pytest.raises(BracketLimitError):
            optimal_portfolio(PARAMS_DOWN, ConstraintSet(-math.inf, 0.5), 0.99)

    @pytest.mark.parametrize(
        "r, R, mu, pi",
        [
            pytest.param(0.033, 0.0756, -0.0341, -12.006645889822478, id="0.033-0.0756--0.0341"),
            pytest.param(0.0025, 0.0321, -0.0822, -12.006663286475545, id="0.0025-0.0321--0.0822"),
        ],
    )
    def test_root_at_open_end_is_certified(self, r, R, mu, pi):
        """The root hugs the open lower end pi = -12.0067 of the jump-feasible
        weights, where zeta (about 1e-9) lies outside the domain of the
        conjugate over K alone; over the closed admissible weights it is
        inside, and the open piece left of the kink is case 1."""
        params = RegimeMarketParams(
            r=r, mu=mu, lam=0.5, dist=TwoPoint(-0.05, 0.08, 0.5),
            margin=PiecewiseLinearConcave.differential_rates(r, R),
        )
        K = ConstraintSet()
        opt = optimal_portfolio(params, K, 0.9)
        assert (opt.pi, opt.case) == (pi, 1)
        assert 0.0 < opt.cert.zeta < 1e-9
        lo, _, lo_closed, _ = feasible_weight_interval(params, K)
        assert lo < opt.pi < lo + 1e-4 and not lo_closed
        with pytest.raises(DomainError):
            verify_conjugacy(params.margin, K, opt.pi, opt.cert.zeta)
        cert = certify(params, K, 0.9, opt.pi)
        assert cert.zeta == opt.cert.zeta and cert.residual <= cert.bound

    def test_zero_optimal_zeta_at_a_huge_weight_is_certified(self):
        """With zero spread the root of h = r lies at pi = -9.97e11, where
        zeta = r - h(pi) is 0 up to the rounding of mu + lam*int: the
        residual |pi*zeta| (1.4e-5) is that rounding, not a failed optimum,
        and the solver returns the four-case oracle's weight."""
        params = RegimeMarketParams(
            r=0.0, mu=0.0625, lam=1.0, dist=ExponentialNegative(2.0),
            margin=PiecewiseLinearConcave.short_rebate(0.0, 0.0),
        )
        got = optimal_portfolio(params, NO_BORROWING, 0.9375)
        ref = reference_short(params, 0.9375, 0.0)
        assert (got.case, got.pi) == (ref.case, ref.pi)
        assert got.pi < -1e11
        assert verify_conjugacy(params.margin, NO_BORROWING, got.pi, got.cert.zeta) > 1e-9

    def test_one_conjugacy_bound_certifies_the_zero_spread_optimum(self):
        """The solver and ``verify`` certify with one bound: the zero-spread
        optimum's residual (1.384e-05) meets it, and fails the absolute
        1e-9 that ``verify`` applied before."""
        params = RegimeMarketParams(
            r=0.0, mu=0.0625, lam=1.0, dist=ExponentialNegative(2.0),
            margin=PiecewiseLinearConcave.short_rebate(0.0, 0.0),
        )
        got = optimal_portfolio(params, NO_BORROWING, 0.9375)
        assert got.pi == pytest.approx(-9.97e11, rel=1e-3)
        residual = verify_conjugacy(params.margin, NO_BORROWING, got.pi, got.cert.zeta)
        assert residual == pytest.approx(1.384e-05, rel=1e-3)
        assert 1e-9 < residual <= conjugacy_tolerance(params, got.pi, got.cert.zeta)


class TestTwoKinkMargin:
    """Both frictions at once: g(pi) = -(R - r)(pi - 1)^+ - (rL - r)pi^-
    over all weights, on one-regime markets with two-point marks, so the
    admissible weights are a bounded open interval around [0, 1].  The
    walk's five cells are: short at the fee, at 0, long unlevered, at the
    kink pi = 1, and levered."""

    r, rL, R = 0.03, 0.06, 0.05
    DIST = TwoPoint(-0.1, 0.1, 0.5)
    MARGIN = PiecewiseLinearConcave((0.0, 1.0), (rL - r, 0.0, -(R - r)))

    def _params(self, mu):
        return RegimeMarketParams(r=self.r, mu=mu, lam=1.0, dist=self.DIST, margin=self.MARGIN)

    def _drift_for(self, case, gamma):
        """A drift whose optimum lies in the cell: h is mu plus a term that
        does not depend on mu, so each cell's band on h(0) or h(1) is a
        band on mu."""
        r, rL, R = self.r, self.rL, self.R
        c0, c1 = (h_value(self._params(0.0), gamma, p) for p in (0.0, 1.0))
        return {
            1: (2.0 * r - rL) - 0.01 - c0,  # h(0) < 2r - rL
            2: 0.5 * ((2.0 * r - rL) + r) - c0,  # 2r - rL <= h(0) <= r
            3: r - 0.5 * (c0 + c1),  # h(1) < r < h(0)
            4: 0.5 * (r + R) - c1,  # r <= h(1) <= R
            5: R + 0.01 - c1,  # h(1) > R
        }[case]

    def _objective(self, params, gamma, pi):
        """The concave one-regime objective whose first-order condition is
        r - h(pi) in the superdifferential of g: the growth rate of
        V^{1,pi,0} for log utility, its power analogue otherwise."""
        f = np.expm1(np.array([self.DIST.y_lo, self.DIST.y_hi]))
        factor = 1.0 + np.multiply.outer(pi, f)
        psi = np.log(factor) if gamma == 0.0 else (factor**gamma - 1.0) / gamma
        jump = psi @ np.array([1.0 - self.DIST.p_hi, self.DIST.p_hi])
        return params.r + self.MARGIN.g(pi) + pi * (params.mu - params.r) + params.lam * jump

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize("case", [1, 2, 3, 4, 5])
    def test_an_optimum_in_each_cell(self, case, gamma):
        params = self._params(self._drift_for(case, gamma))
        K = ConstraintSet()
        lo, hi, lo_closed, hi_closed = feasible_weight_interval(params, K)
        assert lo < 0.0 < 1.0 < hi and not (lo_closed or hi_closed)
        opt = optimal_portfolio(params, K, gamma)
        assert opt.case == case
        in_cell = {
            1: opt.pi < 0.0,
            2: opt.pi == 0.0,
            3: 0.0 < opt.pi < 1.0,
            4: opt.pi == 1.0,
            5: opt.pi > 1.0,
        }
        assert in_cell[case], opt
        cert = certify(params, K, gamma, opt.pi)
        assert cert.residual <= cert.bound
        # the objective is strictly concave, so on a grid its maximum lies
        # at a neighbour of the optimum
        grid, step = np.linspace(lo, hi, 200_001)[1:-1], (hi - lo) / 200_000
        values = self._objective(params, gamma, grid)
        best = self._objective(params, gamma, opt.pi)
        assert best >= values.max() - 1e-15
        assert abs(grid[np.argmax(values)] - opt.pi) <= step


class TestPolicyBuilders:
    def _market(self, params, K):
        return MarketModel(
            regimes=(params, params),
            constraint=K,
        )

    def test_log_policy_consumption_scale(self):
        mkt = self._market(PARAMS_UP, NO_SHORTING)
        pol = log_optimal_policy(mkt, x=2.0, T=3.0)
        assert pol.consumption.scale == pytest.approx(0.5)
        assert pol.gamma == 0.0

    def test_power_policy_zero_consumption(self):
        mkt = self._market(PARAMS_UP, NO_SHORTING)
        pol = power_optimal_policy(mkt, 0.5)
        assert pol.pi[0] == pytest.approx(1.0288992667, abs=1e-8)

    @pytest.mark.parametrize("mu1, solves", [(PARAMS_UP.mu, 1), (-0.04, 2)])
    def test_identical_regimes_solved_once(self, monkeypatch, mu1, solves):
        import jumpfolio.policy as policy_mod

        solved = []
        solve = policy_mod.optimal_portfolio
        monkeypatch.setattr(
            policy_mod,
            "optimal_portfolio",
            lambda params, K, gamma: solved.append(params) or solve(params, K, gamma),
        )
        # an equal copy, not the same object, as a config file gives
        second = dataclasses.replace(PARAMS_UP, mu=mu1)
        mkt = MarketModel(regimes=(PARAMS_UP, second), constraint=NO_SHORTING)
        pol = power_optimal_policy(mkt, 0.5)
        assert len(solved) == solves
        assert pol.pi[1] == solve(second, NO_SHORTING, 0.5).pi


@pytest.mark.parametrize(
    "fn, a, b",
    [
        (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: math.expm1(-1e4 * x) + 0.5, 0.0, 1.0),  # steep near the left end
        (lambda x: 1e-3 - 1.0 / x, 1.0, 1e15),  # wide bracket, root at 1000
    ],
)
def test_brent_matches_scipy(fn, a, b):
    """The root finder against scipy.optimize.brentq (test oracle) under the
    stop rule h_inverse uses."""
    from scipy.optimize import brentq

    xtol, rtol = PI_TOL, max(PI_TOL, 4e-16)
    root = _brent(fn, a, b, fn(a), fn(b), xtol=xtol, rtol=rtol)
    ref = brentq(fn, a, b, xtol=xtol, rtol=rtol)
    assert abs(root - ref) <= 2.0 * (xtol + rtol * abs(ref))


MPMATH_GRID = {
    # config: weights (including each law's extreme figure optimum)
    "fig1": (1e-3, 0.3, 1.0289, 1.7, 41.0, 6361.18),
    "fig3": (-81006.49, -9.23, -1.0, 0.3, 0.9),
}


@pytest.mark.parametrize("config", sorted(MPMATH_GRID))
def test_h_and_derivative_match_mpmath(config):
    """h and h' within 1e-12 (relative above 1) of mpmath on the fig1 law
    (Exponential(10) jumps up) and the fig3 law (Exponential(10) down), at
    gamma in {0, 0.5, 0.9}."""
    params = load_config(CONFIGS / f"{config}.yaml").market.regimes[0]
    for gamma in (0.0, 0.5, 0.9):
        for pi in MPMATH_GRID[config]:
            for fn, derivative in ((h_value, False), (h_derivative, True)):
                exact = mpmath_h(params, gamma, pi, derivative)
                got = fn(params, gamma, pi)
                assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact)), (gamma, pi, fn, got, exact)


@pytest.mark.parametrize(
    "config, gamma, slope, reference, corrected",
    [
        ("fig1", 0.98502512562814071, -1, 6361.1798629074792, 6361.1797688820752),
        ("fig3", 0.95517587939698489, 0, -81006.483824490017, -81006.486736858787),
    ],
)
def test_figure_reference_errata(config, gamma, slope, reference, corrected):
    """Two rows of bench/reference/fig2.csv and fig4.csv, written by a
    quadrature with a 1e-7 relative error escape: the solver's weight solves
    h = r - slope to mpmath precision, the reference weight misses by 2e-11
    and 1e-10, which the flat h turns into 1.5e-8 and 3.6e-8 relative in the
    weight.  The values to write when the references are regenerated."""
    market = load_config(CONFIGS / f"{config}.yaml").market
    params = market.regimes[0]
    target = params.r - params.margin.slopes[slope]
    assert abs(mpmath_h(params, gamma, corrected) - target) < 1e-15
    assert abs(mpmath_h(params, gamma, reference) - target) > 1e-11
    got = optimal_portfolio(params, market.constraint, gamma).pi
    assert got == pytest.approx(corrected, rel=1e-12)


@pytest.mark.parametrize("rate", [1.05, 1.5, 2.0, 2.5])
def test_h_near_one_on_a_slowly_decaying_negative_law(rate):
    """Just below the closed end pi = 1 of a slowly decaying downward law,
    1 + pi f(y) tends to 1 - pi where the density still matters; h and h'
    hold to mpmath there (the factor is summed as (1 - pi) + pi e^y), and
    the root finder's probes near the end return values.  At rates 2 and
    2.5 the integrand of h' stays near its scale out to |y| ~ 28, where the
    factor turns over."""
    params = RegimeMarketParams(r=0.0, mu=0.05, lam=1.0, dist=ExponentialNegative(rate))
    pi = 1.0 - 1e-12
    for gamma in (0.0, 0.5, 0.9):
        for fn, derivative in ((h_value, False), (h_derivative, True)):
            exact = mpmath_h(params, gamma, pi, derivative)
            got = fn(params, gamma, pi)
            assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact)), (gamma, fn, got, exact)


def test_h_near_zero_on_a_slowly_decaying_law():
    """Mark rate 1.05, gamma = 0.95: h(0) = mu + lam (M(1) - 1) = 20.05 in
    closed form, and h(1e-12) is 17.3914692306497551 by mpmath.  The gap is
    real: h(pi) - h(0) falls like pi^0.05 (the factor turns over at
    y = log(1/pi), where the density has not yet killed f), so the two may
    not agree; each must match its own exact value."""
    params = RegimeMarketParams(r=0.0, mu=0.05, lam=1.0, dist=ExponentialPositive(1.05))
    assert h_value(params, 0.95, 0.0) == pytest.approx(20.05, rel=1e-14)
    exact = mpmath_h(params, 0.95, 1e-12)
    assert exact == pytest.approx(17.3914692306497551, rel=1e-15)
    assert h_value(params, 0.95, 1e-12) == pytest.approx(exact, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    gamma=st.floats(min_value=0.0, max_value=0.9),
    rate=st.floats(min_value=5.0, max_value=20.0),
)
def test_optimum_satisfies_first_order_band(gamma, rate):
    """zeta_hat = r - h(pi_hat) always lies in the conjugate's domain and
    the conjugacy residual vanishes."""
    params = RegimeMarketParams(
        r=0.045, mu=-0.05, lam=1.0, dist=ExponentialPositive(rate),
        margin=PiecewiseLinearConcave.differential_rates(0.045, 0.05),
    )
    opt = optimal_portfolio(params, NO_SHORTING, gamma)
    assert -0.005 - 1e-12 <= opt.cert.zeta
    assert verify_conjugacy(params.margin, NO_SHORTING, opt.pi, opt.cert.zeta) <= 1e-9


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    r=st.floats(min_value=0.0, max_value=0.1),
    mu=st.floats(min_value=-0.2, max_value=0.2),
    # lam > 0 keeps h strictly decreasing; with h flat (lam ~ 0) a whole
    # piece can be optimal and the two solvers may pick different weights
    lam=st.floats(min_value=0.01, max_value=5.0),
    rate=st.floats(min_value=1.5, max_value=30.0),
    spread=st.floats(min_value=0.0, max_value=0.1),
    gamma=st.floats(min_value=0.0, max_value=0.99),
)
def test_matches_reference_on_random_markets(r, mu, lam, rate, spread, gamma):
    """Both canonical margins: the same error type, or the same case and
    pi within 1e-12 relative (the target r - slope may differ from R or
    2r - rL in the last bit)."""
    for dist, variant in (
        (ExponentialPositive(rate), "differential_rates"),
        (ExponentialNegative(rate), "short_rebate"),
    ):
        margin = getattr(PiecewiseLinearConcave, variant)(r, r + spread)
        params = RegimeMarketParams(r=r, mu=mu, lam=lam, dist=dist, margin=margin)
        _assert_matches_reference(params, gamma, variant, r + spread, rel=1e-12)
