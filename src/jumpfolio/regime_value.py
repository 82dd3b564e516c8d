"""Exact value of per-regime constant weights, and the published display.

``exact_value`` is the one evaluation of J for weights held constant in
each regime: the chain's weighted occupation for log utility and a 2x2
matrix exponential for power utility, both closed forms in ``mpp``.
``value``, ``verify`` and the grid search all call it.

``value_corollary`` is the published two-regime display evaluated
verbatim.  It differs from the exact log value, and two edits make the
two agree for every input (tested to 1e-12 relative):
(a) flip the sign of both growth terms, the stationary term
    (lambda1 d0 + lambda0 d1)(T + T^2/2) and the start-regime term;
(b) in the bracket, replace (1 + 1/q) by (1 - 1/q), q = lambda0 + lambda1.
Edit (b) follows from int_0^T (1 - e^{-qt})/q dt whatever the sign
convention for d_bar.  Edit (a) may be a convention instead, such as d_bar
read as a decay rate; without the paper's text both readings stand.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .market import MarketModel, _log_jump, _wealth_terms
from .mpp import GeneratorMatrix, exponential_functional
from .policy import Utility

# (weight row x quadrature node) cells one expect call holds: 16 rows of
# the exponential rule, so J's working set does not grow with the rows
EXPECT_CELLS = 1 << 14

# weight rows one power closed form takes at a time: its temporaries hold
# about 190 bytes a row, so J's working set does not grow with the rows
_FUNCTIONAL_ROWS = 128


def _growth_terms(market: MarketModel, utility: Utility, weights):
    """Per-regime drift and jump term of J at rows of weights (k, 2).

    The drift is that of gross wealth, r_i + g_i(pi_i) + pi_i (mu_i - r_i);
    the jump term is E_i[log(1 + pi_i f)] for log utility and
    E_i[(1 + pi_i f)^gamma] for power.  There is one quadrature per (mark
    law, weight column), so rows (w, w) on a shared law cost one, and it
    runs on at most ``EXPECT_CELLS`` (row x node) cells at a time; each
    row's integral is the same whatever rows share its call.
    """
    f, gamma = market.f, utility.gamma
    if utility.is_log:
        term = lambda w: _log_jump(market.transform, w)
    else:
        term = lambda w: lambda y: (1.0 + w * f(y)) ** gamma
    done, jump = {}, []
    for dist, w in zip(market.dists, weights.T):
        key = (dist, w.tobytes())
        if key not in done:
            step = max(1, EXPECT_CELLS // dist.n_nodes)
            done[key] = np.empty(w.size)
            for lo in range(0, w.size, step):
                done[key][lo : lo + step] = dist.expect(term(w[lo : lo + step, None]))
        jump.append(done[key])
    drift, _ = _wealth_terms(market, weights.T)
    return np.column_stack(drift), np.column_stack(jump)


def mean_log_growth(market: MarketModel, weights):
    """d_bar_i = drift_i + lambda_i E_i[log(1 + pi_i f)], the mean log-growth
    rate of gross wealth in regime i, at rows of weights (k, 2)."""
    drift, jump = _growth_terms(market, Utility.log(), np.asarray(weights, dtype=float))
    return drift + market.gen.rates * jump


def exact_value(market: MarketModel, utility: Utility, x, T, weights, i0):
    """J from regime i0 of each row of per-regime constant weights (k, 2).

    Log utility pairs the weights with the log-optimal consumption scale
    x/(T+1):
    J = (T+1) log(x/(T+1)) + sum_i d_bar_i w_i (``mean_log_growth``), with
    w_i the occupation of regime i weighted by 1 + T - s
    (``GeneratorMatrix.occupation``): running consumption weights the
    growth up to s by the time left, the terminal term by 1.  Power utility
    runs without consumption: J = (x^gamma/gamma) (e^{TM} 1)_{i0}
    (``mpp.exponential_functional``), with M_ii = gamma drift_i - lambda_i
    and M_ij = lambda_i E_i[(1 + pi_i f)^gamma], ``_FUNCTIONAL_ROWS`` rows at
    a time.

    Returns J (k,), NaN in rows whose drift is not finite.  A jump term
    that is not finite, as at a weight outside the jump-feasible set, raises
    QuadratureError for every mark law (``JumpDistribution.expect``).
    """
    if i0 not in (0, 1):
        raise ConfigError("start regime must be 0 or 1")
    drift, jump = _growth_terms(market, utility, np.asarray(weights, dtype=float))
    finite = np.all(np.isfinite(drift) & np.isfinite(jump), axis=1)
    drift, jump = drift[finite], jump[finite]
    lam = market.gen.rates
    if utility.is_log:
        d_bar = drift + lam * jump
        _, w = market.gen.occupation(i0, T)
        values = (T + 1.0) * math.log(x / (T + 1.0)) + d_bar[:, 0] * w[0] + d_bar[:, 1] * w[1]
    else:
        gamma = utility.gamma
        values = np.empty(len(drift))
        for lo in range(0, len(drift), _FUNCTIONAL_ROWS):
            rows = slice(lo, lo + _FUNCTIONAL_ROWS)
            growth = exponential_functional(gamma * drift[rows] - lam, lam * jump[rows], T)
            values[rows] = (x**gamma / gamma) * growth[:, i0]
    J = np.full(finite.size, math.nan)
    J[finite] = values
    return J


def value_corollary(gen: GeneratorMatrix, d_bar, x, T, start_regime: int):
    """Published closed form for the optimal log value, evaluated verbatim;
    None on a still chain (lambda0 + lambda1 = 0), where it is undefined."""
    if start_regime not in (0, 1):
        raise ConfigError("start regime must be 0 or 1")
    lam0, lam1 = gen.lambda0, gen.lambda1
    two_lam = lam0 + lam1
    if two_lam == 0.0:
        return None
    d0, d1 = d_bar
    head = (T + 1.0) * math.log(x) - (T + 1.0) * math.log(T + 1.0)
    sym = (lam1 * d0 + lam0 * d1) * (T + T * T / 2.0)
    bracket = T + (1.0 - math.exp(-two_lam * T)) * (1.0 + 1.0 / two_lam)
    lam_i = lam0 if start_regime == 0 else lam1
    sign = 1.0 if start_regime == 0 else -1.0
    return head - (sym + sign * lam_i * (d0 - d1) / two_lam * bracket) / two_lam
