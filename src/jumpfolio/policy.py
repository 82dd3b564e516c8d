"""Optimal portfolio and consumption policies for log and power utility.

The central object is the strictly decreasing map

    h(pi) = mu + lam * int f(y) / [1 + pi f(y)]^(1-gamma) F(dy),

whose level sets against the rate band determine the optimal weight.
Log utility is the gamma = 0 member of the family, so one code path
serves both utility classes.  One solver serves every concave
piecewise-linear margin: it matches r - h(pi) against the margin's
superdifferential in one left-to-right walk over the kinks and ends of
the admissible weights.  The paper's four cases, for differential rates
and for short rebates alike, are the cells of that domain (its closed
finite ends, its kinks and the open pieces between them), numbered from
the left.  The solver certifies each optimum once (``certify``), and
the policy carries the certificates to every reader.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketLimitError,
    ConfigError,
    DomainError,
    InfeasiblePolicyError,
    ModelAssumptionError,
    RangeError,
)
from .frictions import ConstraintSet, PiecewiseLinearConcave, conjugate_gk, effective_domain
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
EPS = np.finfo(float).eps


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


@dataclass(frozen=True)
class Certificate:
    """Duality certificate of a weight pi in one regime."""

    zeta: float  # r - h(pi), the dual variable
    gk: float  # the margin's conjugate at zeta
    residual: float  # |g(pi) - pi*zeta - gk|
    bound: float  # conjugacy_tolerance(params, pi, zeta)


@dataclass(frozen=True)
class RegimeOptimum:
    """Per-regime solver output: weight, case label, duality certificate."""

    pi: float
    case: int
    cert: Certificate


@dataclass(frozen=True)
class Policy:
    """Per-regime portfolio weights, case labels and duality certificates,
    plus the consumption rule used with them."""

    pi: tuple
    cases: tuple
    certs: tuple
    gamma: float
    consumption: ConsumptionRule


def feasible_weight_interval(params: RegimeMarketParams, K: ConstraintSet | None = None):
    """Admissible weights: K intersected with {pi : 1 + pi f(y) > 0 on the
    mark support}, or the jump-feasible weights alone when K is None.

    Returns (lo, hi, lo_closed, hi_closed); an end of K that binds is
    closed, and an infinite end is open.  The exponential transform on a
    support unbounded below gives ess inf f = -1 without attaining it,
    which closes the pi = 1 endpoint.
    Both sets hold 0, so the interval is never empty.
    """
    f_lo, f_hi = transform_range(params.dist, params.transform)
    y_lo, _ = params.dist.support()
    if f_lo >= 0.0:
        hi, hi_closed = math.inf, False
    elif params.transform == "exponential" and math.isinf(y_lo):
        hi, hi_closed = 1.0, True
    else:
        hi, hi_closed = 1.0 / (-f_lo), False
    if f_hi <= 0.0:
        lo, lo_closed = -math.inf, False
    elif math.isinf(f_hi):
        lo, lo_closed = 0.0, True
    else:
        lo, lo_closed = -1.0 / f_hi, False
    if K is not None:
        if K.lower > lo:
            lo, lo_closed = K.lower, True
        if K.upper < hi:
            hi, hi_closed = K.upper, True
    return lo, hi, lo_closed, hi_closed


def in_interval(pi, interval):
    """Whether pi (a float, or an array elementwise) lies in an interval
    (lo, hi, lo_closed, hi_closed) of ``feasible_weight_interval``."""
    lo, hi, lo_closed, hi_closed = interval
    return ((lo < pi) & (pi < hi)) | ((pi == lo) & lo_closed) | ((pi == hi) & hi_closed)


def _jump_factor(params: RegimeMarketParams, pi: float):
    """y -> 1 + pi f(y).  Under the exponential transform a weight in [0, 1]
    gives (1 - pi) + pi e^y, a sum of nonnegative terms, where
    1 + pi expm1(y) cancels as pi -> 1 and y -> -inf."""
    if params.transform == "exponential" and 0.0 <= pi <= 1.0:
        return lambda y: (1.0 - pi) + pi * np.exp(y)
    f = params.f
    return lambda y: 1.0 + pi * f(y)


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
    f, factor = params.f, _jump_factor(params, pi)
    integral = params.dist.expect(
        lambda y: f(y) / factor(y) ** (1.0 - gamma), tol=H_QUAD_TOL
    )
    return params.mu + params.lam * integral


def h_derivative(params: RegimeMarketParams, gamma: float, pi: float) -> float:
    """h'(pi) = lam (gamma - 1) int f^2 / [1 + pi f]^(2-gamma) F(dy) < 0."""
    if params.lam == 0.0:
        return 0.0
    f, factor = params.f, _jump_factor(params, pi)

    def integrand(y):
        # (f / factor)^2 factor^gamma: f^2 alone overflows where the integral
        # is finite (rates below 2 at pi > 0)
        fac = factor(y)
        ratio = f(y) / fac
        return ratio * ratio * fac**gamma

    integral = params.dist.expect(integrand, tol=H_QUAD_TOL)
    return params.lam * (gamma - 1.0) * integral


def h_inverse(params, gamma, target, K: ConstraintSet | None = None):
    """Solve h(pi) = target on the feasible part of K by bracketed root finding.

    The bracket is grown geometrically until the strictly decreasing h
    changes side, then Brent's method finishes; a RangeError reports the
    attained h-range when the target is unreachable, and a
    BracketLimitError when the bracket stops at BRACKET_LIMIT short of the
    feasible end.
    """
    lo, hi, lo_closed, hi_closed = feasible_weight_interval(params, K)
    # an open finite end moves inside by a relative 1e-9; an infinite one stays
    shrink = 1e-9
    lo_b = lo if lo_closed or math.isinf(lo) else lo + shrink * max(1.0, abs(lo))
    hi_b = hi if hi_closed or math.isinf(hi) else hi - shrink * max(1.0, abs(hi))
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
    return _brent(
        lambda p: h(p) - target, a, b, ha - target, hb - target,
        xtol=PI_TOL, rtol=max(PI_TOL, 4e-16),
    )


def _brent(fn, a, b, fa, fb, xtol, rtol, maxiter=100):
    """Root of fn in [a, b], where fa = fn(a) and fb = fn(b) differ in sign.

    Brent's method (inverse quadratic interpolation, secant and bisection
    steps) as in Brent (1973), ch. 4; it stops once the bracket is
    narrower than xtol + rtol * |x|.
    """
    x_pre, x_cur, f_pre, f_cur = a, b, fa, fb
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(maxiter):
        if f_pre != 0.0 and f_cur != 0.0 and (f_pre < 0.0) != (f_cur < 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 0.5 * (xtol + rtol * abs(x_cur))
        s_bis = 0.5 * (x_blk - x_cur)
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (
                    d_blk * d_pre * (f_blk - f_pre)
                )
            if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else (delta if s_bis > 0.0 else -delta)
        f_cur = fn(x_cur)
    raise RangeError(f"root finder did not converge in {maxiter} steps near {x_cur:.9g}")


def _conjugate(margin: PiecewiseLinearConcave, K: ConstraintSet, zeta) -> float:
    """The margin's conjugate over K at zeta; DomainError if zeta leaves the
    effective domain.  zeta = r - h(pi) carries the rounding of h, so a
    zeta within 1e-12 of the domain is clamped into it."""
    lo, hi = effective_domain(margin, K)
    if not lo - 1e-12 <= zeta <= hi + 1e-12:
        raise DomainError(f"zeta = {zeta:.6g} outside effective domain [{lo:.6g}, {hi:.6g}]")
    return conjugate_gk(margin, K, min(max(zeta, lo), hi))


def verify_conjugacy(margin: PiecewiseLinearConcave, K: ConstraintSet, pi_hat, zeta_hat) -> float:
    """|g(pi) - pi*zeta - conj(zeta)| over K; DomainError if zeta leaves the domain."""
    return abs(margin.g(pi_hat) - pi_hat * zeta_hat - _conjugate(margin, K, zeta_hat))


def conjugacy_tolerance(params: RegimeMarketParams, pi, zeta) -> float:
    """The bound a conjugacy residual at (pi, zeta = r - h(pi)) must meet.

    Scale-aware: the difference of two O(|pi*zeta|) terms cannot beat
    absolute 1e-9 once the weight is astronomically large; and the
    residual carries |pi| times the rounding of zeta = r - (mu + lam*int),
    sized from the magnitudes of those terms, which is all of it when the
    optimal zeta is 0.
    """
    h = params.r - zeta
    zeta_rounding = 2.0 * EPS * (abs(params.r) + abs(params.mu) + abs(h - params.mu))
    return 1e-9 * max(1.0, abs(pi * zeta)) + abs(pi) * zeta_rounding


def optimal_portfolio(params: RegimeMarketParams, K: ConstraintSet, gamma: float) -> RegimeOptimum:
    """Optimal weight for a concave piecewise-linear margin over interval K.

    The optimality condition pairs pi with zeta = r - h(pi) in the
    superdifferential of g at pi (one-sided at the ends of the domain, the
    admissible weights ``feasible_weight_interval(params, K)``).  r - h
    increases and the margin slopes do not, so one left-to-right walk over
    the domain's points (finite ends and kinks) stops at the first point
    whose superdifferential reaches r - h, or solves h = r - slope on the
    piece before it.  The case label numbers the cells of the domain from the
    left: the lower end when it is a finite, closed end, then open pieces
    and kinks in turn.
    """
    margin = params.margin
    slopes, kinks = margin.slopes, margin.breakpoints
    r, mu = params.r, params.mu
    lo, hi, lo_closed, hi_closed = feasible_weight_interval(params, K)
    # h tends to mu at an unbounded end: the optimum exists only if r - mu
    # lies strictly inside the outermost slope there
    if math.isinf(hi) and not mu < r - slopes[-1]:
        raise ModelAssumptionError(
            f"drift mu = {mu:.6g} must lie below r - slope = {r - slopes[-1]:.6g} "
            "where weights are unbounded above"
        )
    if math.isinf(lo) and not mu > r - slopes[0]:
        raise ModelAssumptionError(
            f"drift mu = {mu:.6g} must exceed r - slope = {r - slopes[0]:.6g} "
            "where weights are unbounded below"
        )

    # an open end holds no weight: the piece next to it runs up to it
    points = [lo] if lo_closed else []
    first_case = 1 if points else 2
    points += [b for b in kinks if lo < b < hi]
    if hi_closed:
        points.append(hi)
    tol = 1e-11
    for j, p in enumerate(points):
        psi = r - h_value(params, gamma, p)
        right = -math.inf if p == hi else slopes[bisect.bisect_right(kinks, p)]
        if psi < right - tol:
            continue
        left = math.inf if p == lo else slopes[bisect.bisect_left(kinks, p)]
        if psi <= left + tol:
            return _package_optimum(params, K, gamma, p, first_case + 2 * j)
        pi = h_inverse(params, gamma, r - left, K=K)
        return _package_optimum(params, K, gamma, pi, first_case + 2 * j - 1)
    pi = h_inverse(params, gamma, r - slopes[-1], K=K)
    return _package_optimum(params, K, gamma, pi, first_case + 2 * len(points) - 1)


def certify(params: RegimeMarketParams, K: ConstraintSet, gamma: float, pi) -> Certificate:
    """The one certificate of pi: zeta = r - h(pi), the conjugate taken
    over the closed admissible weights (``feasible_weight_interval(params,
    K)``), the conjugacy residual and its bound.

    Positive wealth across every jump constrains pi as K does, so the
    conjugate's set is K intersected with the jump-feasible weights
    (Cvitanic and Karatzas 1992); an optimum at a binding feasible end
    has a zeta outside the domain of the conjugate over K alone.
    DomainError if zeta leaves the effective domain.
    """
    lo, hi, _, _ = feasible_weight_interval(params, K)
    zeta = params.r - h_value(params, gamma, pi)
    gk = _conjugate(params.margin, ConstraintSet(lo, hi), zeta)
    residual = abs(params.margin.g(pi) - pi * zeta - gk)
    return Certificate(zeta, gk, residual, conjugacy_tolerance(params, pi, zeta))


def _package_optimum(params, K, gamma, pi, case):
    try:
        cert = certify(params, K, gamma, pi)
    except DomainError as exc:  # a root off by more than the domain slack
        raise InfeasiblePolicyError(f"candidate pi = {pi:.9g} fails conjugacy: {exc}") from exc
    if cert.residual > cert.bound:
        raise InfeasiblePolicyError(
            f"candidate pi = {pi:.9g} fails conjugacy with residual {cert.residual:.3e}"
        )
    return RegimeOptimum(pi=pi, case=case, cert=cert)


def _optimal_policy(market: MarketModel, gamma: float, consumption: ConsumptionRule) -> Policy:
    """Solve each regime; identical regimes are solved once."""
    K = market.constraint
    first, second = market.regimes
    optima = (optimal_portfolio(first, K, gamma),)
    optima += optima if second == first else (optimal_portfolio(second, K, gamma),)
    return Policy(
        pi=tuple(o.pi for o in optima),
        cases=tuple(o.case for o in optima),
        certs=tuple(o.cert for o in optima),
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
