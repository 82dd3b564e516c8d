"""Monte Carlo and closed-form verification of the duality machinery.

Every level here is described the same way: a per-regime linear
log-drift plus a per-jump log factor.  Each factor is a multiple of one
jump basis per weight pair, l_i(y) = log(1 + pi_i f(y)): wealth V jumps
by l, the state-price process H by -(1-gamma) l and H V by gamma l.

``column_functionals`` accumulates any number of levels (final log and,
per level, int log or int exp) in one pass over the jump columns of a
block of paths, evaluating each basis once per column; it reads a
``ColumnStream``, a block of a sample as ``mpp.jump_columns`` draws it,
so a swept sample is never stored.  A Monte Carlo check is a
``McCheck``: its level and the reduction of that level's functionals to
one sample per path.  Every estimate comes from ``sweep_estimates``,
which sweeps the levels of any number of checks at once, a block at a
time, and merges each block's sample moments in block order.  The checks that read the
dual density H take its ``StatePriceSpec``, built once per policy by
``state_price_spec`` from the weights and the duality certificates the
policy carries.  Portfolio weights are per-regime constants.

Every Monte Carlo check is a function of the blocks it is given
(horizon and start regime included).  A caller draws a sample once and
passes it to every check (common random numbers).  Reductions run in
fixed path and block order, so estimates are bit-reproducible per seed,
and a level's functionals do not depend on the levels swept with it.
The identity H V = 1 at the log optimum needs no sample: its level has
no jump and a per-regime drift, so it is checked in closed form.
The grid search simulates nothing: for weights constant in each regime,
J is exact (``regime_value.exact_value``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, InfeasiblePolicyError
from .market import MarketModel, _deflated_wealth, _log_jump, _wealth_terms
from .mpp import ColumnStream
from .policy import Policy, Utility, feasible_weight_interval, in_interval
from .regime_value import exact_value


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error over n_paths paths."""

    mean: float
    stderr: float
    n_paths: int


def _moments(samples):
    """(count, mean, sum of squared deviations) of one block's samples,
    each as numpy's mean and std compute it."""
    samples = np.asarray(samples, dtype=float)
    mean = samples.mean()
    dev = samples - mean
    dev *= dev
    return samples.size, mean, dev.sum()


def _merge(a, b):
    """The moments of two blocks' samples together, from theirs: the
    pairwise update of Chan, Golub & LeVeque (1983)."""
    if a is None:
        return b
    (na, mean_a, m2_a), (nb, mean_b, m2_b) = a, b
    n = na + nb
    delta = mean_b - mean_a
    return n, mean_a + delta * (nb / n), m2_a + m2_b + delta * delta * (na * nb / n)


def _estimate(moments):
    """The McEstimate of a sample from its moments (``_moments``); of one
    block, numpy's mean and std(ddof=1) / sqrt(n) bit for bit."""
    n, mean, m2 = moments
    if n < 2:
        raise ConfigError(f"a standard error needs two paths, got {n}")
    stderr = float(np.sqrt(m2 / (n - 1)) / math.sqrt(n))
    return McEstimate(mean=float(mean), stderr=stderr, n_paths=n)


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


def _accumulators(level: Level):
    """The names of a level's accumulators, in the order they take rows of
    a sweep's workspace."""
    return (
        ("final_log",)
        + ("int_log",) * level.int_log
        + ("int_exp",) * (level.exp_coeff is not None)
    )


def _workspace_rows(levels):
    """The rows of a sweep of levels: the previous jump times, then the
    accumulators of each level in level order."""
    return 1 + sum(len(_accumulators(lv)) for lv in levels)


def column_functionals(stream: ColumnStream, jump_bases, levels, workspace=None):
    """Accumulate every level's functionals in one pass over the columns
    of a block of a sample, each read once as the stream passes it on.

    jump_bases maps a key to a per-state pair of callables of the mark;
    each basis is evaluated once per column, on the column's events,
    however many levels read it.  The sweep works only on the paths still
    inside [0, T]: a path that leaves is advanced to T in the column where
    it leaves and set aside, and the set-aside values are put back in path
    order once, at the end.  Returns (invalid, results): invalid
    flags the paths on which some basis is not finite at one of their
    events, and results[k] holds final_log of levels[k] and, as asked,
    int_log or int_exp, all exact per segment.  Each level's arithmetic is
    the same whatever levels are swept with it.

    workspace is a 2-D array of ``_workspace_rows(levels)`` rows at least
    n_paths wide (``sweep_estimates`` makes one per sweep; without one the
    call makes its own); it is zeroed and swept in, and the results are
    views of it, valid until the next block is swept in it.
    """
    n, T = stream.n_paths, stream.horizon
    drifts = [np.asarray(lv.drift, dtype=float) for lv in levels]
    if workspace is None:
        workspace = np.empty((_workspace_rows(levels), n))
    buffers = workspace[:, :n]
    buffers.fill(0.0)
    t_prev, *accumulators = buffers
    slots = iter(accumulators)
    results = [dict(zip(_accumulators(lv), slots)) for lv in levels]
    # per basis, the (level index, coefficient) pairs that read it
    readers = {
        key: [(k, lv.jumps[key]) for k, lv in enumerate(levels) if lv.jumps.get(key)]
        for key in jump_bases
    }
    invalid = np.zeros(n, dtype=bool)
    # the accumulators hold the m paths still inside first, in path order,
    # and the paths that left after them; rows[i] is the sample row of slot i
    m, rows = n, np.arange(n)

    def advance(dt, state):
        """Every level over a segment of length dt in state, on the paths inside."""
        for lv, drift, res in zip(levels, drifts, results):
            level, a = res["final_log"][:m], drift[state]
            if lv.int_log:
                res["int_log"][:m] += level * dt + 0.5 * a * dt * dt
            if lv.exp_coeff is not None:
                c = lv.exp_coeff
                ca = c * a
                if abs(ca) < 1e-14:
                    seg = np.exp(c * level) * dt
                else:
                    seg = np.exp(c * level) * np.expm1(ca * dt) / ca
                res["int_exp"][:m] += seg
            level += a * dt

    state = stream.initial_state
    for times, marks, keep in stream.columns:
        if keep is None:
            dt = times - t_prev[:m]
        else:
            # the paths left out of this column end in this state at T
            dt = np.full(m, T)
            dt[keep] = times
            dt -= t_prev[:m]
        t_prev[: times.size] = times  # the slots of the paths kept, in their order
        advance(dt, state)
        if keep is not None:
            # in place: the accumulators keep their size, so the sweep
            # holds no second copy of them and no run of ever smaller ones
            gone = np.ones(m, dtype=bool)
            gone[keep] = False
            order = np.concatenate((keep, np.flatnonzero(gone)))
            for acc in (rows, *accumulators):
                acc[:m] = acc[:m][order]
            m = keep.size
        for key, basis in jump_bases.items():
            with np.errstate(divide="ignore", invalid="ignore"):
                jl = basis[state](marks)
            finite = np.isfinite(jl)
            if not finite.all():
                invalid[rows[:m][~finite]] = True
                jl = np.where(finite, jl, 0.0)
            for k, c in readers[key]:
                results[k]["final_log"][:m] += c * jl
        state = 1 - state
    advance(T - t_prev[:m], state)
    for acc in accumulators:  # back to path order
        acc[rows] = acc.copy()
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
    jump_coeff * log(1 + pi_i f(y)) = log phi_i(y), its compensator
    integral and conjugate value."""

    pi: tuple
    jump_coeff: float  # -(1 - gamma)
    compensator: tuple  # lam_i * int (phi_i - 1) F_i(dy)
    gk: tuple  # conjugate value at zeta_i

    def drift(self, market):
        return [
            -(market.regimes[i].r + self.gk[i] + self.compensator[i]) for i in (0, 1)
        ]

    def jumps(self):
        """H's jump as a level's {basis key: coefficient}."""
        return {_weights(self.pi): self.jump_coeff}


def state_price_spec(market: MarketModel, policy: Policy) -> StatePriceSpec:
    """Build the candidate dual density from a policy:
    phi_i(y) = 1 / [1 + pi_i f(y)]^(1-gamma), whose log is read from the
    wealth's jump log, so it is finite wherever 1 + pi_i f(y) > 0.
    h(pi) = mu + lam int f phi F(dy), so phi's dual variable is zeta =
    r - h(pi), and its conjugate value is the gk of the policy's certificate.
    Raises InfeasiblePolicyError where 1 + pi_i f is not positive on the
    mark support (``feasible_weight_interval(params)``), for every mark law."""
    coeff = -(1.0 - policy.gamma)
    comps = []
    for i, params in enumerate(market.regimes):
        if not in_interval(policy.pi[i], feasible_weight_interval(params)):
            raise InfeasiblePolicyError(f"regime {i}: 1 + pi*f is not positive on the mark support")
        ell = _log_jump(market.transform, policy.pi[i])
        comps.append(params.lam * params.dist.expect(lambda y: np.expm1(coeff * ell(y)), tol=1e-13))
    gks = tuple(cert.gk for cert in policy.certs)
    return StatePriceSpec(pi=tuple(policy.pi), jump_coeff=coeff, compensator=tuple(comps), gk=gks)


# ---------------------------------------------------------------------------
# Monte Carlo checks: a level, its reduction to samples, one shared sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McCheck:
    """A Monte Carlo check: the level it sweeps and the reduction of that
    level's functionals (``column_functionals``) to one sample per path."""

    level: Level
    reduce: Callable


def sweep_estimates(market, blocks, checks) -> list:
    """The McEstimate of each check, from one sweep of the sample over all
    their levels: the one way to a Monte Carlo estimate.  blocks are the
    ``ColumnStream`` blocks of a sample drawn as it is swept
    (``mpp.jump_columns``); a check swept alone or with others gives the
    same bits.  The sample is swept a block at a time, and each check's
    samples of a block are reduced to their moments, merged in block
    order, so the sweep holds one block's accumulators at most, all in
    one workspace that every block is swept in.  A jump key is a
    per-regime weight pair, and its basis log(1 + pi_i f) is evaluated
    once per column for every level that reads it.  Raises
    InfeasiblePolicyError, for every check, if a jump factor of any of
    them is nonpositive on some path."""
    levels = [check.level for check in checks]
    keys = dict.fromkeys(key for lv in levels for key in lv.jumps)
    bases = {pi: [_log_jump(market.transform, p) for p in pi] for pi in keys}
    width = max(block.n_paths for block in blocks)
    workspace = np.empty((_workspace_rows(levels), width))
    moments = [None] * len(checks)
    for block in blocks:
        invalid, results = column_functionals(block, bases, levels, workspace)
        if np.any(invalid):
            raise InfeasiblePolicyError("a jump made 1 + pi*f nonpositive on some path")
        moments = [
            _merge(acc, _moments(check.reduce(res)))
            for acc, check, res in zip(moments, checks, results)
        ]
        del invalid, results  # freed before the next block is swept
    return [_estimate(m) for m in moments]


def martingale_mc(spec: StatePriceSpec) -> McCheck:
    """H_T * exp(int (r + gk)) for the dual density spec; target 1."""
    # drift reduces to minus the compensator once r + gk is added back
    level = Level((-spec.compensator[0], -spec.compensator[1]), spec.jumps())
    return McCheck(level, lambda res: np.exp(res["final_log"]))


def _state_price_wealth_level(market, spec: StatePriceSpec, pi_pair, exp_coeff=None) -> Level:
    """The level log(H V^{1,pi,0}) for the dual density spec: H's drift
    plus the wealth's, and H's jump coefficient plus 1 on the basis of
    pi_pair (one basis when pi_pair is the weights spec was built from)."""
    h_drift = spec.drift(market)
    v_drift, _ = _wealth_terms(market, pi_pair)
    jumps = spec.jumps()
    key = _weights(pi_pair)
    jumps[key] = jumps.get(key, 0.0) + 1.0
    return Level([h_drift[i] + v_drift[i] for i in (0, 1)], jumps, exp_coeff=exp_coeff)


def state_price_wealth_identity(market, spec: StatePriceSpec, T) -> float:
    """sup over every path and every t in [0, T] of |H_t V_t^{1,pi,0} - 1|,
    pi the weights spec was built from, in closed form.  The level
    log(H V), the one ``budget_mc`` sweeps, grows at d_i in regime i; when
    its jump coefficients are 0, as at the log optimum, log(H_t V_t) =
    sum_i d_i occ_i(t) lies between T min(0, d_0, d_1) and
    T max(0, d_0, d_1), so the supremum is max_i |expm1(T d_i)|.  Returns
    inf when a jump coefficient is not 0."""
    level = _state_price_wealth_level(market, spec, spec.pi)
    if any(level.jumps.values()):
        return math.inf
    with np.errstate(over="ignore"):  # a drift past the float range reads inf
        return float(np.max(np.abs(np.expm1(T * np.asarray(level.drift)))))


def budget_mc(market, spec: StatePriceSpec, pi_pair, kappa: float, x, T) -> McCheck:
    """H_T V_T + int H_s c_s ds - x against the dual density spec, under
    the consumption rate c_t = kappa V_t^{1,pi,0}; nonpositive in mean up
    to noise for admissible pairs, zero at the optimum.  The level
    log(H V^{1,pi,0}) reads two jump bases, one where pi_pair is the
    weights spec was built from."""
    if kappa * T >= x:
        raise ConfigError("proportional consumption ruins the pair before T")
    level = _state_price_wealth_level(
        market, spec, pi_pair, exp_coeff=1.0 if kappa != 0.0 else None
    )
    xi_T = _deflated_wealth(x, kappa, T)

    def reduce(res):
        total = xi_T * np.exp(res["final_log"])
        if kappa != 0.0:
            total = total + kappa * res["int_exp"]
        return total - x

    return McCheck(level, reduce)


def expected_utility_mc(market, pi_pair, kappa: float, utility: Utility, x, T) -> McCheck:
    """int U1(t, c_t) dt + U2(V_T) under the consumption rate
    c_t = kappa V_t^{1,pi,0}; inter-jump time integrals are closed-form
    (log and powers of piecewise exponentials)."""
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
    xi_T = _deflated_wealth(x, kappa, T)
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
    consumption scale x/(T+1), its optimal form; power without
    consumption), one quadrature per mark law for the whole grid.

    Nothing is simulated: ``n_paths`` and ``seed`` are unused, kept only
    for the positional call in ``bench/workloads.py``.
    Returns (pi_star, table) where table rows are (pi, J) with NaN J for
    weights outside the jump-feasible set (``feasible_weight_interval``)
    and for weights whose drift is not finite.
    """
    grid = np.asarray(grid, dtype=float)
    inside = np.ones(grid.size, dtype=bool)
    for params in market.regimes:
        inside &= in_interval(grid, feasible_weight_interval(params))
    values = exact_value(market, utility, x, T, np.repeat(grid[inside, None], 2, 1), i0)
    J = np.full(grid.size, math.nan)  # after the quadrature, so not in its peak
    J[inside] = values
    if not np.any(J > -math.inf):
        raise InfeasiblePolicyError("no feasible grid point")
    rows = [(float(p), float(j)) for p, j in zip(grid, J)]
    return float(grid[np.nanargmax(J)]), rows
