"""Exact pathwise construction of stock and wealth processes.

All dynamics are piecewise closed-form: between event times the state
variables are exponentials of linear drifts, and each event multiplies
them by a jump factor.  One engine, ``_path_log_level``, evaluates the
log of such a level from a per-regime drift and a per-regime jump log on
a block of ensemble rows, each on its own reporting grid.
``wealth_path`` exponentiates it through ``_checked_exp`` for the wealth
and the stock, and returns one ``WealthPath`` table: every column of a
path CSV, one row per path.
Portfolio weights are per-regime constants.  Nothing is
Euler-discretised; the reporting grid only chooses where the closed
forms are evaluated.

``export_path_csv`` writes one path as CSV rows t, regime, S, V1pi0, xi,
V in the bytes of ``_CSV_ROW % row``: 17 significant digits per float
cell under the %g rules (fixed notation for exponents -4 to 16, otherwise
scientific).  A numpy kernel makes them, exact by construction
(``_csv_text``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distributions import JumpDistribution
from .errors import BankruptcyError, ConfigError, DomainError, RuinError
from .frictions import ConstraintSet, PiecewiseLinearConcave
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
    margin: PiecewiseLinearConcave = field(default_factory=PiecewiseLinearConcave.frictionless)

    def __post_init__(self):
        for name, value in (("r", self.r), ("mu", self.mu)):
            if not math.isfinite(value):
                raise ConfigError(f"{name} = {value} must be finite", field=name)
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError(
                f"event intensity lam = {self.lam} must be finite and nonnegative", field="lam"
            )
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
    """Two-regime market: per-regime coefficients and the chain they imply.

    Every event is a jump of the chain, so the chain's exit rate from
    regime i is regime i's event intensity: ``gen`` is derived from the
    regimes' ``lam``, never given.
    """

    regimes: tuple  # (RegimeMarketParams, RegimeMarketParams)
    constraint: ConstraintSet = field(default_factory=ConstraintSet)
    gen: GeneratorMatrix = field(init=False, compare=False)

    def __post_init__(self):
        if len(self.regimes) != 2:
            raise ConfigError("exactly two regimes are supported")
        t0 = self.regimes[0].transform
        if self.regimes[1].transform != t0:
            raise ConfigError("both regimes must share the jump transform")
        object.__setattr__(self, "gen", GeneratorMatrix(self.regimes[0].lam, self.regimes[1].lam))

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


def report_grid(ens: PathEnsemble, n_grid=DEFAULT_GRID_POINTS):
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
    """A piecewise-linear log level of every row on its grid (``report_grid``).

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


def _deflated_wealth(x, kappa, times):
    """xi_t = x - kappa t at the given times, a float or an array, under
    the consumption rate c_t = kappa V_t^{1,pi,0}; raises RuinError with
    the crossing time if it turns negative at one of them."""
    xi = x - kappa * times
    if np.any(xi < 0):
        t_ruin = x / kappa
        raise RuinError(
            f"proportional consumption ruins the path at t={t_ruin:.6g}",
            ruin_time=t_ruin,
        )
    return xi


@dataclass(frozen=True)
class WealthPath:
    """The columns of a path CSV: the stock S (S_0 = 1), and the wealth
    with its consumption factorisation V = xi * V^{1,pi,0}; one path per
    row of each array, or one path.  ``cells`` counts each row's own
    cells (see ``report_grid``)."""

    t: np.ndarray
    regime: np.ndarray
    S: np.ndarray
    v_gross: np.ndarray  # V^{1,pi,0}
    xi: np.ndarray
    V: np.ndarray
    cells: np.ndarray

    def to_csv_rows(self):
        header = ["t", "regime", "S", "V1pi0", "xi", "V"]
        rows = np.column_stack([self.t, self.regime, self.S, self.v_gross, self.xi, self.V])
        return header, rows

    def row(self, k):
        """Path k of a block: its own cells."""
        n = int(self.cells[k])
        columns = (self.t, self.regime, self.S, self.v_gross, self.xi, self.V)
        return WealthPath(*(a[k, :n] for a in columns), cells=n)


def wealth_path(
    x: float,
    market: MarketModel,
    pi,
    consumption: float,
    rows: PathEnsemble,
    grid=None,
) -> WealthPath:
    """The stock and the wealth under (pi, c) of each row at its reporting
    grid ``grid``, by default ``report_grid(rows)``: exact piecewise
    exponentials times jump factors, the wealth via the factorisation
    V_t = xi_t * V_t^{1,pi,0}, with c_t = consumption * V_t^{1,pi,0}.

    pi is a scalar or a per-regime pair.  Raises RuinError with the
    crossing time if consumption exhausts wealth strictly before the
    horizon.  The wealth is evaluated and checked before the stock, so
    its errors come first.
    """
    if x <= 0:
        raise ConfigError("initial wealth must be positive", field="x")
    pi_pair = (pi, pi) if np.isscalar(pi) else pi
    grid = report_grid(rows) if grid is None else grid
    times, segment = grid
    # each log level is dropped once exponentiated: one is held at a time
    v_gross = _checked_exp(_path_log_level(rows, grid, *_wealth_terms(market, pi_pair)), times)
    xi = _deflated_wealth(x, consumption, times)
    stock_terms = [p.mu for p in market.regimes], [_log_jump(market.transform, 1.0)] * 2
    S = _checked_exp(_path_log_level(rows, grid, *stock_terms), times)
    regime = (rows.initial_state + segment) % 2
    cells = times.shape[1] - rows.times.shape[1] + rows.counts
    return WealthPath(times, regime, S, v_gross, xi, xi * v_gross, cells)


# ---------------------------------------------------------------------------
# CSV export: the bytes of _CSV_ROW, made in numpy
# ---------------------------------------------------------------------------

_CSV_ROW = "%.17g,%d,%.17g,%.17g,%.17g,%.17g\n"
_CELL_FORMATS = _CSV_ROW[:-1].split(",")
_COLUMNS = len(_CELL_FORMATS)
_REGIME_COLUMN = _CELL_FORMATS.index("%d")
_SEPARATORS = np.frombuffer(b"," * (_COLUMNS - 1) + b"\n", dtype=np.uint8)
# rows formatted per call, which bounds the kernel's arrays on a long path
_CSV_BLOCK_ROWS = 1024

# a cell in fixed notation (%g exponent x in [-4, 16], sign s) is in group
# x + 4 + 21 s; regime cells of 0 or 1 and fallback cells come after
_REGIME_GROUP = 42
_FALLBACK_GROUP = 43
# chars in a group's text: sign, 17 digits, the point, and the "0.000" of x < 0
_GROUP_WIDTH = [s + 18 - min(x, 0) - (x == 16) for s in (0, 1) for x in range(-4, 17)]

_VELTKAMP = 134217729.0  # 2**27 + 1


def _halves(a):
    """Veltkamp's split: a = hi + lo exactly, each with at most 26 bits."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


# 10**p for p = 0..20, exact doubles, and their halves
_POW10 = 10.0 ** np.arange(21)
_POW10_HI, _POW10_LO = _halves(_POW10)


def _chunk_table():
    """The 4-digit chunks 0000..9999 as ASCII, one uint32 each, with
    trailing zeros blanked to NUL; then the same chunks in full (index +
    10000).  Built by copies alone: arithmetic here raised the peak memory
    of commands that never write a CSV."""
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    text = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)  # chunk digits, then char
    text[..., 0] = digits[:, None, None, None]
    text[..., 1] = digits[:, None, None]
    text[..., 2] = digits[:, None]
    text[..., 3] = digits
    blanked = text.copy()
    blanked[..., 0, 3] = 0
    blanked[..., 0, 0, 2] = 0
    blanked[:, 0, 0, 0, 1] = 0
    blanked[0, 0, 0, 0, 0] = 0
    return np.concatenate((blanked, text)).view(np.uint32).ravel()


_CHUNKS = _chunk_table()


def _round_scaled(a, x):
    """a * 10**(16 - x) rounded half to even, for a > 0 and x in [-4, 16].
    Dekker's two-product gives a * 10**p = hi + lo exactly (Numer. Math.
    18, 1971).  A result of 10**16 or more has hi >= 2**53, an even
    integer, so rounding lo half to even rounds hi + lo half to even, and
    the result is exact; a smaller one may be off, but stays below 10**16."""
    p = 16 - x
    hi = a * _POW10[p]
    a_hi, a_lo = _halves(a)
    b_hi, b_lo = _POW10_HI[p], _POW10_LO[p]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _fixed_notation(values):
    """(group, D) of each float cell: its 17 significant digits D, and
    group x + 4 + 21 s if it prints in fixed notation (%g exponent x, sign
    s), else _FALLBACK_GROUP.  D is rounded at x = floor(log10|v|), and x
    steps once where D is not in [10**16, 10**17) (log10 off by one next
    to a power of ten, or a rounding carry); a cell is fixed only where D
    is then in that range, and so exact, at an x in [-4, 16]."""
    a = np.abs(values)
    fixed = (a >= 1e-5) & (a < 1e18)  # never inf, nan, 0 or a subnormal
    a[~fixed] = 1.0
    x = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    D = _round_scaled(a, x)
    off = fixed & ((D < 10**16) | (D >= 10**17))
    if off.any():
        i = np.flatnonzero(off)
        x_i = x[i] + np.where(D[i] < 10**16, -1, 1)
        inside = (x_i >= -4) & (x_i <= 16)
        np.clip(x_i, -4, 16, out=x_i)
        D_i = _round_scaled(a[i], x_i)
        fixed[i] = inside & (D_i >= 10**16) & (D_i < 10**17)
        x[i], D[i] = x_i, D_i
    group = x + 4 + 21 * (values < 0)
    group[~fixed] = _FALLBACK_GROUP
    return group, D


def _digit_rows(D):
    """The 17 digits of each D in [10**16, 10**17) as ASCII, one row each,
    with the trailing zeros blanked to NUL."""
    # D in chunks of 1, 4, 4, 4 and 4 digits, one contiguous row per chunk
    chunks = np.empty((5, D.size), dtype=np.intp)
    high = D // 10**8
    low = D - 10**8 * high
    np.floor_divide(high, 10**8, out=chunks[0])
    high -= 10**8 * chunks[0]
    np.floor_divide(high, 10**4, out=chunks[1])
    np.subtract(high, 10**4 * chunks[1], out=chunks[2])
    np.floor_divide(low, 10**4, out=chunks[3])
    np.subtract(low, 10**4 * chunks[3], out=chunks[4])
    # a chunk keeps its trailing zeros where a later chunk is not zero
    later = chunks[1:] != 0
    for j in (2, 1, 0):
        later[j] |= later[j + 1]
    np.add(chunks[:4], 10000, out=chunks[:4], where=later)
    text = np.empty((D.size, 5), dtype=np.uint32)
    for j, row in enumerate(_CHUNKS.take(chunks)):
        text[:, j] = row
    return text.view(np.uint8)[:, 3:]  # the first chunk has one digit


def _fallback_cells(values, cells):
    """The cells of values at the flat indices cells in _CSV_ROW's own
    formats: the cells the digit kernel leaves out (0, -0, scientific
    notation, inf, nan, subnormals, and regimes other than 0 or 1)."""
    formats = [_CELL_FORMATS[i % _COLUMNS] for i in cells.tolist()]
    return [f % x for f, x in zip(formats, values[cells].tolist())]


def _csv_text(rows):
    """``(_CSV_ROW * len(rows)) % tuple(rows.ravel().tolist())``, byte for
    byte, for rows of shape (n, 6).  A float cell in fixed notation prints
    the digits ``_fixed_notation`` gives it, with the point after digit x
    and trailing fraction zeros dropped; a regime of 0 or 1 prints as one
    digit; ``_fallback_cells`` prints the rest.  Cells are rows of one
    char matrix, padded with NUL and sorted by group, so that each group's
    layout is a few slices."""
    values = rows.ravel()
    n = values.size
    group, D = _fixed_notation(values)
    regime = values[_REGIME_COLUMN::_COLUMNS]
    group[_REGIME_COLUMN::_COLUMNS] = np.where(
        (regime == 0.0) | (regime == 1.0), _REGIME_GROUP, _FALLBACK_GROUP
    )
    group = group.astype(np.uint8)
    order = np.argsort(group, kind="stable")
    start = [0] + np.cumsum(np.bincount(group, minlength=_FALLBACK_GROUP + 1)).tolist()
    groups = [g for g in range(_REGIME_GROUP) if start[g + 1] > start[g]]

    fallback = _fallback_cells(values, order[start[_FALLBACK_GROUP] :])
    width = 1 + max([1] + [_GROUP_WIDTH[g] for g in groups] + [len(t) for t in fallback])
    text = np.zeros((n, width), dtype=np.uint8)
    digits = _digit_rows(D[order[: start[_REGIME_GROUP]]])
    for g in groups:
        x, s = g % 21 - 4, g // 21
        t = text[start[g] : start[g + 1]]
        d = digits[start[g] : start[g + 1]]
        if s:
            t[:, 0] = ord("-")
        if x >= 0:
            np.maximum(d[:, : x + 1], ord("0"), out=t[:, s : s + x + 1])
            if x < 16:  # a point only where a fraction digit follows
                np.minimum(d[:, x + 1], ord("."), out=t[:, s + x + 1])
                t[:, s + x + 2 : s + 18] = d[:, x + 1 :]
        else:
            t[:, s : s + 1 - x] = ord("0")
            t[:, s + 1] = ord(".")
            t[:, s + 1 - x : s + 18 - x] = d
    lo, hi = start[_REGIME_GROUP], start[_FALLBACK_GROUP]
    text[lo:hi, 0] = values[order[lo:hi]] + ord("0")
    if fallback:
        padded = "".join(t.ljust(width, "\0") for t in fallback).encode("ascii")
        text[hi:] = np.frombuffer(padded, dtype=np.uint8).reshape(-1, width)

    unsort = np.empty_like(order)
    unsort[order] = np.arange(n)
    text = text.take(unsort, axis=0)
    text.reshape(-1, _COLUMNS, width)[:, :, -1] = _SEPARATORS
    return text.tobytes().translate(None, b"\0").decode("ascii")


def export_path_csv(path_obj: WealthPath, fh, comment_lines=()):
    """Write one path's columns t, regime, S, V1pi0, xi, V: each row the
    bytes of ``_CSV_ROW``, made by ``_csv_text``."""
    header, rows = path_obj.to_csv_rows()
    for line in comment_lines:
        fh.write(f"# {line}\n")
    fh.write(",".join(header) + "\n")
    for lo in range(0, len(rows), _CSV_BLOCK_ROWS):
        fh.write(_csv_text(rows[lo : lo + _CSV_BLOCK_ROWS]))
