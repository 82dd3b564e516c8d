"""Optimal portfolio and consumption policies for log and power utility.

The central object is the strictly decreasing map

    h(pi) = mu + lam * int f(y) / [1 + pi f(y)]^(1-gamma) F(dy),

whose level sets against the rate band determine the optimal weight.
Log utility is the gamma = 0 member of the family, so one code path
serves both utility classes.  The named four-case solvers implement the
piecewise selections for the two canonical friction models; a generic
solver handles arbitrary concave piecewise-linear margins by matching
r - h(pi) against the margin's superdifferential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .errors import (
    BracketLimitError,
    ConfigError,
    DomainError,
    InfeasiblePolicyError,
    ModelAssumptionError,
    RangeError,
)
from .frictions import (
    ConstraintSet,
    DifferentialRates,
    MarginModel,
    ShortRebate,
    conjugate_gk,
    effective_domain,
)
from .market import (
    ConsumptionRule,
    MarketModel,
    RegimeMarketParams,
    ZeroConsumption,
    log_optimal_consumption,
    transform_range,
)

H_QUAD_TOL = 1e-13
PI_TOL = 1e-12
BRACKET_LIMIT = 1e15


@dataclass(frozen=True)
class Utility:
    """CRRA utility; gamma = 0 denotes the logarithmic member."""

    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError("risk-aversion exponent must lie in [0, 1)", field="gamma")

    @classmethod
    def log(cls):
        return cls(0.0)

    @classmethod
    def power(cls, gamma):
        if not 0.0 < gamma < 1.0:
            raise ConfigError("power utility requires gamma in (0, 1)", field="gamma")
        return cls(gamma)

    @property
    def is_log(self):
        return self.gamma == 0.0

    def terminal(self, v):
        return np.log(v) if self.is_log else np.power(v, self.gamma) / self.gamma


@dataclass(frozen=True)
class RegimeOptimum:
    """Per-regime solver output: weight, dual variable, case label."""

    pi: float
    zeta: float
    case: int
    h_at_pi: float


@dataclass(frozen=True)
class Policy:
    """Per-regime portfolio weights plus the consumption rule used with them."""

    pi: tuple
    zeta: tuple
    cases: tuple
    gamma: float
    consumption: ConsumptionRule

    def weight(self, t, regime):
        return self.pi[regime]


def feasible_weight_interval(params: RegimeMarketParams):
    """Interval of pi with 1 + pi f(y) > 0 on the mark support.

    Returns (lo, hi, lo_closed, hi_closed).  The exponential transform on
    a support unbounded below gives ess inf f = -1 without attaining it,
    which closes the pi = 1 endpoint.
    """
    f_lo, f_hi = transform_range(params.dist, params.transform)
    y_lo, _ = params.dist.support()
    if f_lo >= 0.0:
        hi, hi_closed = math.inf, True
    elif params.transform == "exponential" and math.isinf(y_lo):
        hi, hi_closed = 1.0, True
    else:
        hi, hi_closed = 1.0 / (-f_lo), False
    if f_hi <= 0.0:
        lo, lo_closed = -math.inf, True
    elif math.isinf(f_hi):
        lo, lo_closed = 0.0, True
    else:
        lo, lo_closed = -1.0 / f_hi, False
    return lo, hi, lo_closed, hi_closed


def h_value(params: RegimeMarketParams, gamma: float, pi: float) -> float:
    """h(pi); closed MGF form at pi in {0, 1} for the exponential transform."""
    if params.lam == 0.0:
        return params.mu
    if params.transform == "exponential":
        if pi == 0.0:
            return params.mu + params.lam * (params.dist.mgf(1.0) - 1.0)
        if pi == 1.0:
            m = params.dist.mgf
            return params.mu + params.lam * (m(gamma) - m(gamma - 1.0))
    f = params.f
    integral = params.dist.expect(
        lambda y: f(y) / (1.0 + pi * f(y)) ** (1.0 - gamma), tol=H_QUAD_TOL
    )
    return params.mu + params.lam * integral


def h_derivative(params: RegimeMarketParams, gamma: float, pi: float) -> float:
    """h'(pi) = lam (gamma - 1) int f^2 / [1 + pi f]^(2-gamma) F(dy) < 0."""
    if params.lam == 0.0:
        return 0.0
    f = params.f
    integral = params.dist.expect(
        lambda y: f(y) ** 2 / (1.0 + pi * f(y)) ** (2.0 - gamma), tol=H_QUAD_TOL
    )
    return params.lam * (gamma - 1.0) * integral


def h_inverse(params, gamma, target, K: ConstraintSet | None = None, bracket=None):
    """Solve h(pi) = target on the feasible part of K by bracketed root finding.

    The bracket is grown geometrically until the strictly decreasing h
    changes side, then Brent's method finishes; a RangeError reports the
    attained h-range when the target is unreachable, and a
    BracketLimitError when the bracket stops at BRACKET_LIMIT short of the
    feasible end.
    """
    lo, hi, lo_closed, hi_closed = feasible_weight_interval(params)
    if K is not None:
        if K.lower > lo:
            lo, lo_closed = K.lower, True
        if K.upper < hi:
            hi, hi_closed = K.upper, True
    shrink = 1e-9
    lo_b = lo if lo_closed else lo + shrink * max(1.0, abs(lo))
    hi_b = hi if hi_closed else hi - shrink * max(1.0, abs(hi))
    if bracket is not None:
        lo_b = max(lo_b, bracket[0])
        hi_b = min(hi_b, bracket[1])
    if lo_b > hi_b:
        raise RangeError("empty feasible bracket for h inversion")

    h = lambda p: h_value(params, gamma, p)

    a = max(lo_b, min(0.0, hi_b)) if math.isinf(lo_b) else lo_b
    b = min(hi_b, max(1.0, lo_b)) if math.isinf(hi_b) else hi_b

    step, hb = 1.0, h(b)
    while hb > target:
        if b >= hi_b:
            raise RangeError(
                f"target {target:.6g} below attainable h-range; h({b:.6g}) = {hb:.6g}"
            )
        if b >= BRACKET_LIMIT:
            raise BracketLimitError(
                f"root of h = {target:.6g} lies beyond the bracket limit; "
                f"h({b:.6g}) = {hb:.6g}"
            )
        b = min(b + step, hi_b, BRACKET_LIMIT)
        step *= 4.0
        hb = h(b)
    step, ha = 1.0, h(a)
    while ha < target:
        if a <= lo_b:
            raise RangeError(
                f"target {target:.6g} above attainable h-range; h({a:.6g}) = {ha:.6g}"
            )
        if a <= -BRACKET_LIMIT:
            raise BracketLimitError(
                f"root of h = {target:.6g} lies beyond the bracket limit; "
                f"h({a:.6g}) = {ha:.6g}"
            )
        a = max(a - step, lo_b, -BRACKET_LIMIT)
        step *= 4.0
        ha = h(a)

    # h(a) >= target >= h(b); Brent on the strictly decreasing map, with a
    # relative stop so extreme-weight roots terminate at IEEE resolution
    if ha == target:
        return a
    if hb == target:
        return b
    return float(
        scipy.optimize.brentq(
            lambda p: h(p) - target, a, b, xtol=PI_TOL, rtol=max(PI_TOL, 4e-16)
        )
    )


def verify_conjugacy(margin: MarginModel, K: ConstraintSet, pi_hat, zeta_hat) -> float:
    """|g(pi) - pi*zeta - conj(zeta)|; DomainError if zeta leaves the domain."""
    lo, hi = effective_domain(margin, K)
    if not (lo - 1e-12 <= zeta_hat <= hi + 1e-12):
        raise DomainError(
            f"zeta = {zeta_hat:.6g} outside effective domain [{lo:.6g}, {hi:.6g}]"
        )
    zeta_c = min(max(zeta_hat, lo), hi)
    return abs(margin.g(pi_hat) - pi_hat * zeta_hat - conjugate_gk(margin, K, zeta_c))


def optimal_portfolio_diffrates(params: RegimeMarketParams, gamma: float) -> RegimeOptimum:
    """Four-case optimal weight under differential borrowing/lending rates, K = [0, inf)."""
    margin = params.margin
    if not isinstance(margin, DifferentialRates):
        raise ConfigError("differential-rates solver needs a DifferentialRates margin")
    r, R = params.r, margin.R
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
            pi, case = h_inverse(params, gamma, R, K=margin.canonical_constraint()), 4
    else:  # h1 <= r <= h0
        pi, case = h_inverse(params, gamma, r, K=margin.canonical_constraint()), 2
    h_pi = h_value(params, gamma, pi)
    return RegimeOptimum(pi=pi, zeta=r - h_pi, case=case, h_at_pi=h_pi)


def optimal_portfolio_short(params: RegimeMarketParams, gamma: float) -> RegimeOptimum:
    """Four-case optimal weight under short rebates, K = (-inf, 1]."""
    margin = params.margin
    if not isinstance(margin, ShortRebate):
        raise ConfigError("short-rebate solver needs a ShortRebate margin")
    r, rL = params.r, margin.rL
    lower = 2.0 * r - rL
    if not params.mu > lower:
        raise ModelAssumptionError(
            f"drift mu = {params.mu:.6g} must exceed 2r - rL = {lower:.6g}"
        )
    K = margin.canonical_constraint()
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
    return RegimeOptimum(pi=pi, zeta=r - h_pi, case=case, h_at_pi=h_pi)


def optimal_portfolio(params: RegimeMarketParams, K: ConstraintSet, gamma: float) -> RegimeOptimum:
    """Generic solver for any concave piecewise-linear margin over interval K.

    The optimality condition pairs pi with zeta = r - h(pi) attaining the
    conjugate, i.e. zeta lies in the superdifferential of g at pi
    (one-sided at the constraint endpoints).  r - h is strictly
    increasing and the margin slopes are nonincreasing, so it suffices to
    test the kinks/endpoints and solve h(pi) = r - slope on each piece.
    """
    margin = params.margin
    lo_f, hi_f, _, _ = feasible_weight_interval(params)
    lo = max(K.lower, lo_f)
    hi = min(K.upper, hi_f)
    if lo > hi:
        raise InfeasiblePolicyError("constraint set and jump feasibility do not meet")

    def slope_left(p):
        if p <= lo:
            return math.inf
        idx = int(np.searchsorted(margin.breakpoints, p, side="left"))
        return margin.slopes[idx]

    def slope_right(p):
        if p >= hi:
            return -math.inf
        idx = int(np.searchsorted(margin.breakpoints, p, side="right"))
        return margin.slopes[idx]

    tol = 1e-11
    points = sorted({b for b in margin.breakpoints if lo <= b <= hi})
    if math.isfinite(lo):
        points = sorted(set(points) | {lo})
    if math.isfinite(hi):
        points = sorted(set(points) | {hi})

    for p in points:
        psi = params.r - h_value(params, gamma, p)
        if slope_right(p) - tol <= psi <= slope_left(p) + tol:
            return _package_optimum(params, K, gamma, p)

    # interior roots piece by piece
    edges = [-math.inf] + points + [math.inf] if points else [lo, hi]
    if points:
        edges[0] = lo
        edges[-1] = hi
    for a, b in zip(edges[:-1], edges[1:]):
        if a >= b:
            continue
        mid = 0.5 * (a + b) if math.isfinite(a) and math.isfinite(b) else (
            a + 1.0 if math.isfinite(a) else (b - 1.0 if math.isfinite(b) else 0.0)
        )
        s = margin.slopes[int(np.searchsorted(margin.breakpoints, mid, side="right"))]
        try:
            pi = h_inverse(params, gamma, params.r - s, K=K, bracket=(a, b))
        except RangeError:
            continue
        if a - tol <= pi <= b + tol:
            return _package_optimum(params, K, gamma, pi)

    h_lo = h_value(params, gamma, max(lo, -BRACKET_LIMIT) if math.isinf(lo) else lo)
    h_hi = h_value(params, gamma, min(hi, BRACKET_LIMIT) if math.isinf(hi) else hi)
    raise InfeasiblePolicyError(
        "no admissible weight satisfies the conjugacy condition: "
        f"h-range over K is [{h_hi:.6g}, {h_lo:.6g}] against r = {params.r:.6g} "
        f"and margin slopes {margin.slopes}"
    )


def _package_optimum(params, K, gamma, pi):
    h_pi = h_value(params, gamma, pi)
    zeta = params.r - h_pi
    residual = verify_conjugacy(params.margin, K, pi, zeta)
    # scale-aware: the difference of two O(|pi*zeta|) terms cannot beat
    # absolute 1e-9 once the weight is astronomically large
    if residual > 1e-9 * max(1.0, abs(pi * zeta)):
        raise InfeasiblePolicyError(
            f"candidate pi = {pi:.9g} fails conjugacy with residual {residual:.3e}"
        )
    return RegimeOptimum(pi=pi, zeta=zeta, case=0, h_at_pi=h_pi)


def _optimal_policy(market: MarketModel, gamma: float, consumption: ConsumptionRule) -> Policy:
    """Solve each regime, with the named four-case solver where the
    constraint set is its margin's canonical one and the generic solver
    otherwise; identical regimes are solved once."""

    def solve(params):
        canonical = market.constraint == params.margin.canonical_constraint()
        if isinstance(params.margin, DifferentialRates) and canonical:
            return optimal_portfolio_diffrates(params, gamma)
        if isinstance(params.margin, ShortRebate) and canonical:
            return optimal_portfolio_short(params, gamma)
        return optimal_portfolio(params, market.constraint, gamma)

    first, second = market.regimes
    optima = (solve(first),)
    optima += optima if second == first else (solve(second),)
    return Policy(
        pi=tuple(o.pi for o in optima),
        zeta=tuple(o.zeta for o in optima),
        cases=tuple(o.case for o in optima),
        gamma=gamma,
        consumption=consumption,
    )


def log_optimal_policy(market: MarketModel, x: float, T: float) -> Policy:
    """Per-regime log-optimal weights plus the proportional consumption rule."""
    if x <= 0 or T <= 0:
        raise ConfigError("initial wealth and horizon must be positive")
    return _optimal_policy(market, 0.0, log_optimal_consumption(x, T))


def power_optimal_policy(market: MarketModel, gamma: float) -> Policy:
    """Per-regime power-utility weights; consumption stays off (zero rule)."""
    return _optimal_policy(market, Utility.power(gamma).gamma, ZeroConsumption())
