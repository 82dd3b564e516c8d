"""The dual density's jump log and the identity H V^{1,pi,0} = 1 evaluated
on ensemble rows by the market's row engine: the pathwise reference for
the closed-form ``verify.state_price_wealth_identity``."""

import numpy as np

from jumpfolio.market import _log_jump, _path_log_level, report_grid, _wealth_terms


def h_jump_logs(mkt, spec):
    """Per regime, y -> log phi_i(y) = jump_coeff * log(1 + pi_i f(y))."""
    c = spec.jump_coeff
    return [lambda y, ell=_log_jump(mkt.transform, p): c * ell(y) for p in spec.pi]


def pathwise_identity(mkt, spec, rows):
    """max over the rows and their reporting grids of |H V^{1,pi,0} - 1|,
    as |expm1(log H + log V)|, pi the weights spec was built from."""
    grid = report_grid(rows)
    log_h = _path_log_level(rows, grid, spec.drift(mkt), h_jump_logs(mkt, spec))
    log_v = _path_log_level(rows, grid, *_wealth_terms(mkt, spec.pi))
    return float(np.max(np.abs(np.expm1(log_h + log_v))))
