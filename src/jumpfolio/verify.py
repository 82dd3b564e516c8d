"""Monte Carlo and pathwise verification of the duality machinery.

Every level here is described the same way: a per-regime linear
log-drift plus a per-jump log factor.  Each factor is a multiple of one
jump basis per weight pair, l_i(y) = log(1 + pi_i f(y)): wealth V jumps
by l, the state-price process H by -(1-gamma) l and H V by gamma l.

``column_functionals`` accumulates any number of levels (final log and,
per level, int log or int exp) in one pass over the jump columns of a
sample, evaluating each basis once per column; it reads a
``ColumnStream``, so a sample swept as it is drawn (``mpp.jump_columns``)
is never stored, and a stored one is swept through
``PathEnsemble.columns``.  A Monte Carlo check is a ``McCheck``: its
level and the reduction of that level's functionals to one sample per
path.  Every estimate comes from ``sweep_estimates``, which sweeps the
levels of any number of checks at once.  The checks that read the dual
density H take its ``StatePriceSpec``, built once per policy by
``state_price_spec``.  At reporting-grid times the market layer's engine
evaluates the same description on a block of ensemble rows, given the
state-price drift and jump logs of ``StatePriceSpec``.  Portfolio
weights are per-regime constants.

Every check is a function of the sample it is given: a Monte Carlo
check a column stream (horizon, start regime and seed included), and
the pathwise identity the rows to check, whose log levels it compares
one block of rows at a time.  A caller draws a sample once and passes
it to every check (common random numbers); ``verify`` keeps the
identity's rows (``mpp.KeptRows``) as its sweep passes them.
Reductions run in fixed path order, so estimates are bit-reproducible,
streamed or stored, and a level's functionals do not depend on the
levels swept with it.
The grid search simulates nothing: for weights constant in each regime,
J is exact (``regime_value.exact_value``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainError, InfeasiblePolicyError
from .frictions import ConstraintSet
from .market import (
    BLOCK_ROWS,
    ConsumptionRule,
    MarketModel,
    _log_jump,
    _path_log_level,
    _report_grid,
    _wealth_terms,
)
from .mpp import ColumnStream, PathEnsemble
from .policy import Policy, Utility, certify, feasible_weight_interval
from .regime_value import exact_value


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error; reproducible per seed."""

    mean: float
    stderr: float
    n_paths: int
    seed: object


def _estimate(samples, seed):
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < 2:
        raise ConfigError(f"a standard error needs two paths, got {n}")
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / math.sqrt(n))
    return McEstimate(mean=mean, stderr=stderr, n_paths=n, seed=seed)


# ---------------------------------------------------------------------------
# the column-sweep functional engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Level:
    """A per-path log level: 0 at t = 0, growing at drift[i] while the chain
    is in state i and jumping at each event by sum_b jumps[b] * basis_b(mark)
    over the sweep's jump bases.  int_log asks for int_0^T log dt, and
    exp_coeff, when set, for int_0^T exp(exp_coeff * log) dt."""

    drift: Sequence  # per state
    jumps: dict  # jump-basis key -> coefficient
    int_log: bool = False
    exp_coeff: float | None = None


def column_functionals(stream: ColumnStream, jump_bases, levels):
    """Accumulate every level's functionals in one pass over the columns
    of a sample, each read once as the stream passes it on.

    jump_bases maps a key to a per-state pair of callables of the mark;
    each basis is evaluated once per column holding an event in [0, T],
    however many levels read it.  Returns (invalid, results): invalid
    flags the paths on which some basis is not finite at one of their
    events, and results[k] holds final_log of levels[k] and, as asked,
    int_log or int_exp, all exact per segment.  Each level's arithmetic is
    the same whatever levels are swept with it.
    """
    n, T = stream.n_paths, stream.horizon
    drifts = [np.asarray(lv.drift, dtype=float) for lv in levels]
    results = []
    for lv in levels:
        res = {"final_log": np.zeros(n)}
        if lv.int_log:
            res["int_log"] = np.zeros(n)
        if lv.exp_coeff is not None:
            res["int_exp"] = np.zeros(n)
        results.append(res)
    # per basis, the (log level, coefficient) pairs that read it
    readers = {
        key: [(res["final_log"], lv.jumps[key]) for lv, res in zip(levels, results) if lv.jumps.get(key)]
        for key in jump_bases
    }
    invalid = np.zeros(n, dtype=bool)
    t_prev = np.zeros(n)

    def advance(t_next, state):
        """Every level over the segment from t_prev to t_next in state."""
        nonlocal t_prev
        dt = t_next - t_prev
        t_prev = t_next  # frees the old times before the levels' temporaries
        for lv, drift, res in zip(levels, drifts, results):
            level, a = res["final_log"], drift[state]
            if lv.int_log:
                res["int_log"] += level * dt + 0.5 * a * dt * dt
            if lv.exp_coeff is not None:
                c = lv.exp_coeff
                ca = c * a
                if abs(ca) < 1e-14:
                    seg = np.exp(c * level) * dt
                else:
                    seg = np.exp(c * level) * np.expm1(ca * dt) / ca
                res["int_exp"] += seg
            level += a * dt

    state = stream.initial_state
    for times, active, marks in stream.columns:
        advance(np.minimum(times, T), state)
        if np.any(active):
            for key, basis in jump_bases.items():
                with np.errstate(divide="ignore", invalid="ignore"):
                    jl = np.where(active, basis[state](marks), 0.0)
                finite = np.isfinite(jl)
                if not finite.all():
                    invalid |= ~finite
                    jl[~finite] = 0.0
                for level, c in readers[key]:
                    level += c * jl
        state = 1 - state
    advance(np.full(n, T), state)
    return invalid, results


# ---------------------------------------------------------------------------
# state-price process
# ---------------------------------------------------------------------------


def _weights(pi_pair):
    """A per-regime weight pair as the key of its jump basis log(1 + pi_i f)."""
    return tuple(float(p) for p in pi_pair)


@dataclass(frozen=True)
class StatePriceSpec:
    """Per-regime data of the dual density H: its jump log
    jump_coeff * log(1 + pi_i f(y)) = log phi_i(y), the dual variable zeta
    of the tilt phi, its compensator integral and conjugate value."""

    pi: tuple
    jump_coeff: float  # -(1 - gamma)
    log_jump: tuple  # y -> log(1 + pi_i f(y)), per regime
    zeta: tuple
    compensator: tuple  # lam_i * int (phi_i - 1) F_i(dy)
    gk: tuple  # conjugate value at zeta_i

    def drift(self, market):
        return [
            -(market.regimes[i].r + self.gk[i] + self.compensator[i]) for i in (0, 1)
        ]

    def jump_logs(self):
        c = self.jump_coeff
        return [lambda y, ell=ell: c * ell(y) for ell in self.log_jump]

    def jumps(self):
        """H's jump as a level's {basis key: coefficient}."""
        return {_weights(self.pi): self.jump_coeff}


def state_price_spec(market: MarketModel, K: ConstraintSet, policy: Policy) -> StatePriceSpec:
    """Build the candidate dual density from a policy:
    phi_i(y) = 1 / [1 + pi_i f(y)]^(1-gamma), whose log is read from the
    wealth's jump log, so it is finite wherever 1 + pi_i f(y) > 0.
    Raises InfeasiblePolicyError where the compensator is not finite, as
    when 1 + pi_i f is not positive on the mark support."""
    coeff = -(1.0 - policy.gamma)
    ells, certs, comps = [], [], []
    for i, params in enumerate(market.regimes):
        ell = _log_jump(market.transform, policy.pi[i])
        # h(pi) = mu + lam int f phi F(dy), so phi's dual variable is the
        # certificate's zeta = r - h(pi), and gk its conjugate value
        try:
            certs.append(certify(params, K, policy.gamma, policy.pi[i]))
        except DomainError as exc:
            raise DomainError(f"regime {i}: {exc}") from exc
        with np.errstate(invalid="ignore"):
            comp = params.lam * params.dist.expect(lambda y: np.expm1(coeff * ell(y)), tol=1e-13)
        if not math.isfinite(comp):
            raise InfeasiblePolicyError(f"regime {i}: 1 + pi*f is not positive on the mark support")
        ells.append(ell)
        comps.append(comp)
    return StatePriceSpec(
        pi=tuple(policy.pi),
        jump_coeff=coeff,
        log_jump=tuple(ells),
        zeta=tuple(c.zeta for c in certs),
        compensator=tuple(comps),
        gk=tuple(c.gk for c in certs),
    )


# ---------------------------------------------------------------------------
# Monte Carlo checks: a level, its reduction to samples, one shared sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McCheck:
    """A Monte Carlo check: the level it sweeps and the reduction of that
    level's functionals (``column_functionals``) to one sample per path."""

    level: Level
    reduce: Callable


def sweep_estimates(market, stream: ColumnStream, checks) -> list:
    """The McEstimate of each check, from one sweep of the sample over all
    their levels: the one way to a Monte Carlo estimate.  stream is a
    sample drawn as it is swept (``mpp.jump_columns``) or a stored one
    (``PathEnsemble.columns``); both give the same bits, and so does a
    check swept alone or with others.  A jump key is a per-regime weight
    pair, and its basis log(1 + pi_i f) is evaluated once per column for
    every level that reads it.  Raises InfeasiblePolicyError, for every
    check, if a jump factor of any of them is nonpositive on some path."""
    levels = [check.level for check in checks]
    keys = dict.fromkeys(key for lv in levels for key in lv.jumps)
    bases = {pi: [_log_jump(market.transform, p) for p in pi] for pi in keys}
    invalid, results = column_functionals(stream, bases, levels)
    if np.any(invalid):
        raise InfeasiblePolicyError("a jump made 1 + pi*f nonpositive on some path")
    return [_estimate(check.reduce(res), stream.seed) for check, res in zip(checks, results)]


def martingale_mc(spec: StatePriceSpec) -> McCheck:
    """H_T * exp(int (r + gk)) for the dual density spec; target 1."""
    # drift reduces to minus the compensator once r + gk is added back
    level = Level((-spec.compensator[0], -spec.compensator[1]), spec.jumps())
    return McCheck(level, lambda res: np.exp(res["final_log"]))


def state_price_wealth_identity(market, spec: StatePriceSpec, ens: PathEnsemble) -> float:
    """max over the rows of ens and their reporting grids of
    |H^phi * V^{1,pi,0} - 1|, as |expm1(log H + log V)|, where spec is the
    dual density of the log-optimal policy and pi its weights.  Rows are
    evaluated ``BLOCK_ROWS`` at a time; a row's levels do not depend on
    its block."""
    v_terms = _wealth_terms(market, spec.pi)
    h_terms = spec.drift(market), spec.jump_logs()
    dev = 0.0
    for lo in range(0, ens.n_paths, BLOCK_ROWS):
        rows = ens.rows(lo, lo + BLOCK_ROWS)
        grid = _report_grid(rows)
        log_hv = _path_log_level(rows, grid, *h_terms) + _path_log_level(rows, grid, *v_terms)
        dev = max(dev, float(np.max(np.abs(np.expm1(log_hv)))))
    return dev


def budget_mc(
    market, spec: StatePriceSpec, pi_pair, consumption: ConsumptionRule, x, T
) -> McCheck:
    """H_T V_T + int H_s c_s ds - x against the dual density spec;
    nonpositive in mean up to noise for admissible pairs, zero at the
    optimum.  The level log(H V^{1,pi,0}) reads two jump bases, one where
    pi_pair is the weights spec was built from."""
    kappa = consumption.scale
    if kappa * T >= x:
        raise ConfigError("proportional consumption ruins the pair before T")
    h_drift = spec.drift(market)
    v_drift, _ = _wealth_terms(market, pi_pair)
    jumps = spec.jumps()
    key = _weights(pi_pair)
    jumps[key] = jumps.get(key, 0.0) + 1.0
    drift = [h_drift[i] + v_drift[i] for i in (0, 1)]
    level = Level(drift, jumps, exp_coeff=1.0 if kappa != 0.0 else None)
    xi_T = x - kappa * T

    def reduce(res):
        total = xi_T * np.exp(res["final_log"])
        if kappa != 0.0:
            total = total + kappa * res["int_exp"]
        return total - x

    return McCheck(level, reduce)


def expected_utility_mc(
    market, pi_pair, consumption: ConsumptionRule, utility: Utility, x, T
) -> McCheck:
    """int U1(t, c_t) dt + U2(V_T); inter-jump time integrals are
    closed-form (log and powers of piecewise exponentials)."""
    kappa = consumption.scale
    drift, _ = _wealth_terms(market, pi_pair)
    jumps = {_weights(pi_pair): 1.0}
    g = utility.gamma

    if kappa == 0.0:
        if utility.is_log:
            raise ConfigError("zero consumption gives -inf log utility; use power or a positive rule")
        return McCheck(
            Level(drift, jumps), lambda res: (x**g) * np.exp(g * res["final_log"]) / g
        )

    if kappa < 0 or kappa * T >= x:
        raise ConfigError("proportional scale must lie in (0, x/T)")
    xi_T = x - kappa * T
    if utility.is_log:
        return McCheck(
            Level(drift, jumps, int_log=True),
            lambda res: T * math.log(kappa) + res["int_log"] + math.log(xi_T) + res["final_log"],
        )
    return McCheck(
        Level(drift, jumps, exp_coeff=g),
        lambda res: (kappa**g) * res["int_exp"] / g + (xi_T**g) * np.exp(g * res["final_log"]) / g,
    )


def dual_log_mc(market, spec: StatePriceSpec, x, T) -> McCheck:
    """The dual bound L(x; phi) for log utility at the dual density spec:
    (T+1) log(x/(T+1)) - int_0^T log H dt - log H_T."""
    level = Level(spec.drift(market), spec.jumps(), int_log=True)
    c = (T + 1.0) * math.log(x / (T + 1.0))
    return McCheck(level, lambda res: c - res["int_log"] - res["final_log"])


def grid_search_constant_portfolio(
    market, utility: Utility, x, T, grid, n_paths=None, seed=None, i0=0
):
    """Exact J over constant portfolio weights pi = pi_0 = pi_1: the rows
    (pi, pi) of ``regime_value.exact_value`` (log utility with the
    proportional rule at scale x/(T+1), its optimal form; power without
    consumption), one quadrature per mark law for the whole grid.

    Nothing is simulated: ``n_paths`` and ``seed`` are unused, kept only
    for the positional call in ``bench/workloads.py``.
    Returns (pi_star, table) where table rows are (pi, J) with NaN J for
    infeasible weights and for weights whose drift or jump term is not
    finite.
    """
    grid = np.asarray(grid, dtype=float)
    inside = np.ones(grid.size, dtype=bool)
    for params in market.regimes:
        lo, hi, lo_closed, hi_closed = feasible_weight_interval(params)
        inside &= ((lo < grid) & (grid < hi)) | ((grid == lo) & lo_closed) | ((grid == hi) & hi_closed)
    J = np.full(grid.size, math.nan)
    J[inside] = exact_value(market, utility, x, T, np.repeat(grid[inside, None], 2, 1), i0)
    if not np.any(J > -math.inf):
        raise InfeasiblePolicyError("no feasible grid point")
    rows = [(float(p), float(j)) for p, j in zip(grid, J)]
    return float(grid[np.nanargmax(J)]), rows
