"""Exact pathwise construction of stock and wealth processes.

All dynamics are piecewise closed-form: between event times the state
variables are exponentials of linear drifts, and each event multiplies
them by a jump factor.  One engine, ``_path_log_level``, evaluates the
log of such a level from a per-regime drift and a per-regime jump log on
a block of ensemble rows, each on its own reporting grid.  The stock and
the wealth exponentiate it through ``_checked_exp`` and return one row
per path.
Portfolio weights are per-regime constants.  Nothing is
Euler-discretised; the reporting grid only chooses where the closed
forms are evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distributions import JumpDistribution
from .errors import BankruptcyError, ConfigError, DomainError, RuinError
from .frictions import ConstraintSet, Frictionless, MarginModel
from .mpp import GeneratorMatrix, PathEnsemble

DEFAULT_GRID_POINTS = 256


def jump_transform(transform: str) -> Callable:
    """Map name -> f(y); stock jump factor is 1 + f(y)."""
    if transform == "exponential":
        return lambda y: np.expm1(y)
    if transform == "identity":
        return lambda y: np.asarray(y, dtype=float)
    raise ConfigError(f"unknown jump transform {transform!r}", field="transform")


def transform_range(dist: JumpDistribution, transform: str):
    """Range of f over the essential support of the mark law."""
    f = jump_transform(transform)
    y_lo, y_hi = dist.support()
    lo = -1.0 if (transform == "exponential" and math.isinf(y_lo)) else float(f(y_lo))
    hi = math.inf if math.isinf(y_hi) else float(f(y_hi))
    return lo, hi


@dataclass(frozen=True)
class RegimeMarketParams:
    """Single-regime market coefficients: rates, drift, event law, frictions."""

    r: float
    mu: float
    lam: float
    dist: JumpDistribution
    transform: str = "exponential"
    margin: MarginModel = field(default_factory=Frictionless)

    def __post_init__(self):
        if self.lam < 0:
            raise ConfigError("event intensity must be nonnegative", field="lam")
        lo, _ = transform_range(self.dist, self.transform)
        if lo <= -1.0 and self.transform == "identity":
            raise ConfigError(
                "identity transform requires marks > -1 on the support",
                field="transform",
            )

    @property
    def f(self):
        return jump_transform(self.transform)


@dataclass(frozen=True)
class MarketModel:
    """Two-regime market: chain generator plus per-regime coefficients."""

    gen: GeneratorMatrix
    regimes: tuple  # (RegimeMarketParams, RegimeMarketParams)
    constraint: ConstraintSet = field(default_factory=ConstraintSet)

    def __post_init__(self):
        if len(self.regimes) != 2:
            raise ConfigError("exactly two regimes are supported")
        t0 = self.regimes[0].transform
        if self.regimes[1].transform != t0:
            raise ConfigError("both regimes must share the jump transform")
        # events are the chain's own jumps, so the per-regime event
        # intensity must equal the chain's exit rate from that regime
        for i, rate in enumerate((self.gen.lambda0, self.gen.lambda1)):
            if self.regimes[i].lam != rate:
                raise ConfigError(
                    f"regime {i} event intensity {self.regimes[i].lam} does not "
                    f"match the chain rate {rate}",
                    field=f"regimes[{i}].lam",
                )

    @property
    def dists(self):
        return (self.regimes[0].dist, self.regimes[1].dist)

    @property
    def transform(self):
        return self.regimes[0].transform

    @property
    def f(self):
        return jump_transform(self.transform)


# ---------------------------------------------------------------------------
# consumption rules
# ---------------------------------------------------------------------------


class ConsumptionRule:
    """Consumption rate c_t = scale * V_t^{1,pi,0}, so the deflated integral
    xi_t = x - int_0^t c_s / V_s^{1,pi,0} ds = x - scale * t is closed-form."""

    scale: float


@dataclass(frozen=True)
class ZeroConsumption(ConsumptionRule):
    scale = 0.0


@dataclass(frozen=True)
class ProportionalConsumption(ConsumptionRule):
    """c_t = scale * V_t^{1,pi,0}; the log-optimal rule is scale = x/(T+1)."""

    scale: float


def log_optimal_consumption(x: float, T: float) -> ProportionalConsumption:
    return ProportionalConsumption(scale=x / (T + 1.0))


# ---------------------------------------------------------------------------
# the log-level engine over ensemble rows
# ---------------------------------------------------------------------------

# grid cells (rows x (grid points + jumps)) the engine is given at a time
# by a caller that walks a whole sample (simulate's CSVs): memory holds
# one block of grids, not one per row, and the fixed cost of a block is
# paid once per budget, not once per few narrow rows (about 9 rows of
# bench/configs/paths_dense.yaml, 31 of regime_switching.yaml)
BLOCK_CELLS = 1 << 13


def block_rows(ens: PathEnsemble) -> int:
    """How many rows of ens make one block: as many as ``BLOCK_CELLS``
    holds at the reporting-grid width of the longest row, and at least one."""
    return max(1, BLOCK_CELLS // (DEFAULT_GRID_POINTS + 1 + int(ens.counts.max())))


def _report_grid(ens: PathEnsemble, n_grid=DEFAULT_GRID_POINTS):
    """Each row's reporting grid: n_grid + 1 even points on [0, T] merged
    with the row's own jump times, in time order.

    Returns (times, segment), both of shape (rows, n_grid + 1 + width);
    segment counts the row's jumps at or before each time, so a time at a
    jump lies on the segment after it.  A row with fewer jumps than the
    width repeats its point at T in the cells left over.
    """
    rows, width = ens.times.shape
    even = np.broadcast_to(np.linspace(0.0, ens.horizon, n_grid + 1), (rows, n_grid + 1))
    merged = np.concatenate((ens.times, even), axis=1)
    # a stable sort puts each jump before a grid point at the same time
    order = np.argsort(merged, axis=1, kind="stable")
    segment = np.cumsum(order < width, axis=1)
    times = np.take_along_axis(merged, order, axis=1)
    # padding jumps lie past T and sort last
    times[times > ens.horizon] = ens.horizon
    np.minimum(segment, ens.counts[:, None], out=segment)
    return times, segment


def _path_log_level(ens: PathEnsemble, grid, drift_by_state, jump_log_by_state):
    """A piecewise-linear log level of every row on its grid (``_report_grid``).

    The log level starts at 0, grows at drift_by_state[i] while the chain
    is in state i and jumps by jump_log_by_state[i](mark) at each event
    whose pre-jump state is i; it is right-continuous.  This is the level
    ``verify.column_functionals`` sweeps to T, there with the jump log
    written as coefficients of shared jump bases.  Sums run along
    each row in time order, and padding never enters a row's own cells,
    so a row's level does not depend on the rows evaluated with it.

    Raises BankruptcyError when a jump factor is nonpositive (its log is
    NaN or -inf).
    """
    times, segment = grid
    rows, width = ens.times.shape
    live = np.arange(width) < ens.counts[:, None]
    # column j is segment j's regime and the pre-jump state of jump j
    state = (ens.initial_state + np.arange(width + 1)) % 2
    jump_logs = np.zeros((rows, width))
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in (0, 1):
            sel = live & (state[:-1] == i)
            jump_logs[sel] = jump_log_by_state[i](ens.marks[sel])
    bad = live & (np.isnan(jump_logs) | (jump_logs == -np.inf))
    if np.any(bad):
        p, j = np.argwhere(bad)[0]
        tau, mark = float(ens.times[p, j]), float(ens.marks[p, j])
        raise BankruptcyError(
            f"jump at t={tau:.6g} with mark {mark:.6g} has a nonpositive factor",
            jump_time=tau,
            mark=mark,
        )

    # segment k starts at starts[:, k]
    starts = np.concatenate((np.zeros((rows, 1)), np.where(live, ens.times, ens.horizon)), axis=1)
    drift = np.asarray(drift_by_state, dtype=float)[state]
    zero = np.zeros((rows, 1))
    cum_drift = np.concatenate((zero, np.cumsum(drift[:-1] * np.diff(starts, axis=1), axis=1)), axis=1)
    cum_jump = np.concatenate((zero, np.cumsum(jump_logs, axis=1)), axis=1)
    # flat index of each grid time's segment in the (rows, width + 1) arrays
    flat = segment + (width + 1) * np.arange(rows)[:, None]
    at = lambda a: a.ravel()[flat]
    return at(cum_drift) + drift[segment] * (times - at(starts)) + at(cum_jump)


def _checked_exp(log_level, times):
    """exp of the log level of a block of rows; raises DomainError naming
    the first row and time where the level is not a finite positive
    float, which includes a +inf jump log."""
    with np.errstate(over="ignore", invalid="ignore"):
        level = np.exp(log_level)
    bad = ~(np.isfinite(level) & (level > 0.0))
    if np.any(bad):
        p, n = np.argwhere(bad)[0]
        raise DomainError(
            f"path level exp({log_level[p, n]:.6g}) of row {p} at t={times[p, n]:.6g} "
            "is not a finite positive float"
        )
    return level


def _log_jump(transform, pi):
    """y -> log(1 + pi f(y)), finite wherever the factor is positive: under
    the exponential transform the factor at pi = 1 is e^y, while
    log1p(expm1(y)) is log(0) once expm1 rounds to -1 (y < -37).  An array
    of weights (broadcast against the marks) takes y where it holds 1."""
    f = jump_transform(transform)
    if transform != "exponential" or not np.any(pi == 1.0):
        return lambda y: np.log1p(pi * f(y))

    def log_jump(y):
        with np.errstate(divide="ignore"):
            return np.where(pi == 1.0, y, np.log1p(pi * f(y)))

    return log_jump


def _wealth_terms(market: MarketModel, pi_pair):
    """Per-state drift and jump-log callables for log V^{1,pi,0}."""
    drift = []
    jump_logs = []
    for params, pi in zip(market.regimes, pi_pair):
        drift.append(params.r + params.margin.g(pi) + pi * (params.mu - params.r))
        jump_logs.append(_log_jump(market.transform, pi))
    return drift, jump_logs


def stock_path(market: MarketModel, rows: PathEnsemble, s0: float, n_grid=DEFAULT_GRID_POINTS):
    """Stock price of each row at its reporting grid: exact piecewise
    exponential times jump factors.

    Returns (t, S) arrays, one row per path (see ``_report_grid``).
    """
    if s0 <= 0:
        raise ConfigError("initial price must be positive", field="s0")
    drift = [p.mu for p in market.regimes]
    jump_logs = [_log_jump(market.transform, 1.0)] * 2
    grid = _report_grid(rows, n_grid)
    times = grid[0]
    return times, s0 * _checked_exp(_path_log_level(rows, grid, drift, jump_logs), times)


def _deflated_wealth(x, consumption: ConsumptionRule, times):
    """xi_t = x - scale * t at the given times; raises RuinError with the
    crossing time if it turns negative by the last (of each row)."""
    xi = x - consumption.scale * times
    if np.any(xi[..., -1] < 0):
        t_ruin = x / consumption.scale
        raise RuinError(
            f"proportional consumption ruins the path at t={t_ruin:.6g}",
            ruin_time=t_ruin,
        )
    return xi


@dataclass(frozen=True)
class WealthPath:
    """Wealth trajectories and their consumption factorisation
    V = xi * V^{1,pi,0}: one path per row of each array, or one path."""

    t: np.ndarray
    regime: np.ndarray
    v_gross: np.ndarray  # V^{1,pi,0}
    xi: np.ndarray
    V: np.ndarray

    def to_csv_rows(self, stock=None):
        header = ["t", "regime", "S", "V1pi0", "xi", "V"]
        s = stock if stock is not None else np.full_like(self.t, np.nan)
        rows = np.column_stack([self.t, self.regime, s, self.v_gross, self.xi, self.V])
        return header, rows

    def row(self, k, cells):
        """Path k of a block: the first ``cells`` cells of its row."""
        return WealthPath(
            *(a[k, :cells] for a in (self.t, self.regime, self.v_gross, self.xi, self.V))
        )


def wealth_path(
    x: float,
    market: MarketModel,
    pi,
    consumption: ConsumptionRule,
    rows: PathEnsemble,
    n_grid=DEFAULT_GRID_POINTS,
) -> WealthPath:
    """Wealth under (pi, c) of each row at its reporting grid, via the
    factorisation V_t = xi_t * V_t^{1,pi,0}; V^{1,pi,0} is exact between
    jumps.  Row k's own cells are its first n_grid + 1 + counts[k] (see
    ``_report_grid``).

    pi is a scalar or a per-regime pair.  Raises RuinError with the
    crossing time if consumption exhausts wealth strictly before the
    horizon.
    """
    if x <= 0:
        raise ConfigError("initial wealth must be positive", field="x")
    pi_pair = (pi, pi) if np.isscalar(pi) else pi
    grid = _report_grid(rows, n_grid)
    times, segment = grid
    log_v = _path_log_level(rows, grid, *_wealth_terms(market, pi_pair))
    v_gross = _checked_exp(log_v, times)
    xi = _deflated_wealth(x, consumption, times)
    regime = (rows.initial_state + segment) % 2
    return WealthPath(t=times, regime=regime, v_gross=v_gross, xi=xi, V=xi * v_gross)


_CSV_ROW = "%.17g,%d,%.17g,%.17g,%.17g,%.17g\n"


def export_path_csv(path_obj: WealthPath, stock, fh, comment_lines=()):
    """Write one path's columns t, regime, S, V1pi0, xi, V with
    17-significant-digit formatting."""
    header, rows = path_obj.to_csv_rows(stock)
    for line in comment_lines:
        fh.write(f"# {line}\n")
    fh.write(",".join(header) + "\n")
    # one format call for the whole path: byte-identical to one per row
    fh.write((_CSV_ROW * len(rows)) % tuple(rows.ravel().tolist()))
