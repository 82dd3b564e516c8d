"""Markov-modulated marked point process.

A two-state continuous-time Markov chain generates the event times; the
mark of each event is drawn from the distribution attached to the
pre-jump state.  The chain alternates, so jump column j of every path
has the rate of state (i0 + j) % 2, and a sample is drawn in one forward
pass, column by column, until no path is left inside the horizon.
``jump_columns`` is that pass: it yields each column as it is drawn (a
``ColumnStream``), so a reader that needs only per-path accumulators,
such as the verification layer's sweep, never holds more than a column.
``simulate_ensemble`` stores every column of the same pass in a
``PathEnsemble``, the one stored path type: column-major rectangular
arrays padded only to the longest path; a path is a row of it (a block
of rows is ``PathEnsemble.rows``), and ``PathEnsemble.columns`` streams
the stored columns again, the one way a stored sample is swept.
``KeptRows`` stores the first rows of a stream as it passes.

Random-number contract: a sample takes an integer seed and is
bit-reproducible, streamed or stored.  The seed is split with
``numpy.random.SeedSequence`` into one chain stream and one mark stream,
so chain and mark draws never interleave.  Each stream is drawn one
column of all paths at a time, so path k of a sample depends on its path
count as well as on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .errors import ConfigError

# the most jump columns an ensemble may take
_MAX_WIDTH = 1 << 20


def seed_sequence(seed) -> np.random.SeedSequence:
    """Wrap an integer seed, passing SeedSequence children through untouched."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


@dataclass(frozen=True)
class GeneratorMatrix:
    """Intensity matrix of the two-state chain, parameterised by its off-diagonal rates."""

    lambda0: float
    lambda1: float

    def __post_init__(self):
        if self.lambda0 < 0 or self.lambda1 < 0:
            raise ConfigError("chain rates must be nonnegative")

    @property
    def rates(self):
        return np.array([self.lambda0, self.lambda1])

    def occupation(self, i0, T):
        """Expected occupation of each state on [0, T], from state i0.

        Returns (occ, weighted), arrays over the states: occ[i] is
        E[occ_i(T)] = int_0^T P(eps_s = i) ds, and weighted[i] is
        E[occ_i(T) + int_0^T occ_i(t) dt] = int_0^T P(eps_s = i)(1 + T - s) ds.
        With q = lambda0 + lambda1 and p the stationary law,
        P(eps_s = i) = p_i + e^{-qs} (1{i = i0} - p_i), so both integrals
        need only int_0^T e^{-qs} ds = T phi1(qT) and
        int_0^T e^{-qs} (T - s) ds = T^2 phi2(qT), which stay accurate as
        qT -> 0 (Pedler 1971 gives the occupation law itself).
        """
        total = self.lambda0 + self.lambda1
        start = np.array([i0 == 0, i0 == 1], dtype=float)
        stat = np.array([self.lambda1, self.lambda0]) / total if total > 0.0 else start
        z = total * T
        decay = T * _phi1(z)
        decay_weighted = decay + T * T * _phi2(z)
        dev = start - stat
        return stat * T + dev * decay, stat * (T + 0.5 * T * T) + dev * decay_weighted

    def mean_jump_count(self, i0, T) -> float:
        """E[N_T | initial state i0]: the chain's mean event count on [0, T]."""
        occ, _ = self.occupation(i0, T)
        return float(self.lambda0 * occ[0] + self.lambda1 * occ[1])


def _phi1(z):
    """(1 - e^{-z}) / z elementwise, 1 at z = 0."""
    z = np.asarray(z, dtype=float)
    return np.divide(-np.expm1(-z), z, out=np.ones_like(z), where=z > 0.0)


def _phi2(z):
    """(e^{-z} - 1 + z) / z^2, by its alternating series sum_k (-z)^k/(k+2)!
    below z = 1, where the closed form cancels."""
    if z >= 1.0:
        return (math.expm1(-z) + z) / (z * z)
    term = total = 0.5
    for k in range(3, 21):  # the first term left out is below 1e-19
        term *= -z / k
        total += term
    return total


def exponential_functional(diag, off, T):
    """e^{TM} 1 for a stack of 2x2 matrices M with nonnegative off-diagonals.

    ``diag`` holds (M_00, M_11) and ``off`` (M_01, M_10) in its last axis,
    and so does the result, (e^{TM} 1)_i.  With s and h the half sum and
    half difference of the diagonal, and delta = sqrt(h^2 + M_01 M_10) half
    the eigenvalue gap, Sylvester's formula (Moler & Van Loan 2003) gives

        (e^{TM} 1)_0 = e^{(s+delta)T} [e^{-2 delta T} + g (delta + h + M_01)]

    and entry 1 with -h and M_10, where g = (1 - e^{-2 delta T}) / (2 delta)
    (T at delta = 0).  Factoring out e^{(s+delta)T} keeps a large rate
    times T from overflowing, and every term is nonnegative once the
    smaller of delta +- h is written as M_01 M_10 / (delta + |h|).
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    s = 0.5 * (diag[..., 0] + diag[..., 1])
    h = 0.5 * (diag[..., 0] - diag[..., 1])
    bc = off[..., 0] * off[..., 1]
    delta = np.sqrt(h * h + bc)
    big = delta + np.abs(h)
    small = np.divide(bc, big, out=np.zeros_like(bc), where=big > 0.0)
    plus_minus = np.stack((np.where(h >= 0.0, big, small), np.where(h >= 0.0, small, big)), -1)
    g = T * _phi1(2.0 * delta * T)
    fade = np.exp(-2.0 * delta * T)
    scale = np.exp((s + delta) * T)
    return scale[..., None] * (fade[..., None] + g[..., None] * (plus_minus + off))


@dataclass(frozen=True)
class ColumnStream:
    """The jump columns of a sample of ``n_paths`` paths, in time order,
    each passed on once.  Column j is (times, live, marks) over the paths:
    ``live`` marks the paths with a j-th jump in [0, T], and the others
    hold time +inf and mark 0.  The pre-jump state of column j is
    ``(initial_state + j) % 2``.  ``capacity`` is how many columns a store
    of the stream reserves at first.
    """

    initial_state: int
    horizon: float
    n_paths: int
    seed: object
    capacity: int
    columns: Iterator


@dataclass
class PathEnsemble:
    """N marked point paths in padded rectangular arrays.

    ``times[p, j]`` is the j-th jump time of path p (+inf past the last
    jump), ``marks[p, j]`` the matching mark (0 padding), ``counts[p]``
    the number of jumps; there are ``counts.max()`` columns.  Both arrays
    are column-major (Fortran order), so each jump column is contiguous.
    The pre-jump state of column j is ``(initial_state + j) % 2`` for
    every path, because the two-state chain alternates deterministically.
    """

    initial_state: int
    horizon: float
    times: np.ndarray
    marks: np.ndarray
    counts: np.ndarray
    seed: object = None

    @property
    def n_paths(self):
        return self.times.shape[0]

    def rows(self, lo, hi) -> "PathEnsemble":
        """Paths lo .. hi - 1, padded to the longest of them."""
        counts = self.counts[lo:hi]
        width = int(counts.max())
        return PathEnsemble(
            initial_state=self.initial_state,
            horizon=self.horizon,
            times=self.times[lo:hi, :width],
            marks=self.marks[lo:hi, :width],
            counts=counts,
            seed=self.seed,
        )

    def columns(self) -> ColumnStream:
        """The stored jump columns as a stream."""
        T, width = self.horizon, self.times.shape[1]
        return ColumnStream(
            initial_state=self.initial_state,
            horizon=T,
            n_paths=self.n_paths,
            seed=self.seed,
            capacity=width,
            columns=(
                (self.times[:, j], self.times[:, j] <= T, self.marks[:, j]) for j in range(width)
            ),
        )


def _too_wide(gen, T):
    return ConfigError(
        f"ensemble needs more than {_MAX_WIDTH} jump columns at chain "
        f"rates ({gen.lambda0:g}, {gen.lambda1:g}) over horizon T={T:g}"
    )


def jump_columns(gen: GeneratorMatrix, i0: int, T: float, dists, n_paths: int, seed) -> ColumnStream:
    """Draw n_paths marked point paths one jump column at a time.

    Column j adds n_paths exponential holding times from the chain stream,
    at the rate of the alternating state (i0 + j) % 2, to the running jump
    times, and then draws its n_paths marks from the mark stream.  The
    stream ends at the first column with no path left inside [0, T], or
    at once at an absorbing state (rate 0), which draws nothing.  The
    arguments are checked and both random streams made at the call; the
    columns are drawn as they are read, so no column is held longer than
    its reader keeps it.
    """
    if T <= 0:
        raise ConfigError("horizon T must be positive")
    if n_paths < 1:
        raise ConfigError(f"an ensemble needs at least one path, got {n_paths}")
    mean = gen.mean_jump_count(i0, T)
    if mean > _MAX_WIDTH:
        raise _too_wide(gen, T)
    chain_ss, mark_ss = seed_sequence(seed).spawn(2)
    chain_rng = np.random.default_rng(chain_ss)
    mark_rng = np.random.default_rng(mark_ss)
    return ColumnStream(
        initial_state=i0,
        horizon=T,
        n_paths=n_paths,
        seed=seed,
        # N_T seldom strays more than a few sqrt(mean) past its mean
        capacity=min(_MAX_WIDTH, int(mean + 8.0 * math.sqrt(mean)) + 16),
        columns=_draw_columns(gen, i0, T, dists, n_paths, chain_rng, mark_rng),
    )


def _draw_columns(gen, i0, T, dists, n, chain_rng, mark_rng):
    t = np.zeros(n)
    step = np.empty(n)
    rates = gen.rates
    for j in range(_MAX_WIDTH + 1):
        state = (i0 + j) % 2
        rate = rates[state]
        if rate == 0.0:  # an absorbing state: no path jumps again
            return
        chain_rng.standard_exponential(out=step)
        step /= rate
        t += step
        live = t <= T
        if not live.any():
            return
        if j == _MAX_WIDTH:
            raise _too_wide(gen, T)
        marks = np.where(live, dists[state].sample(n, mark_rng), 0.0)
        yield np.where(live, t, np.inf), live, marks


class KeptRows:
    """Rows 0 .. k-1 of a column stream, stored as the stream passes.

    ``stream`` passes on the columns of the given stream and stores those
    rows of each in column-major arrays, sized to the stream's capacity and
    widened by doubling.  Once it is spent, ``ensemble()`` cuts them in
    place to the longest of the rows: they are the rows ``rows(0, k)``
    of the stored sample would give.
    """

    def __init__(self, stream: ColumnStream, k: int):
        self._source = stream
        rows = min(k, stream.n_paths)
        self._times = np.empty((rows, stream.capacity), order="F")
        self._marks = np.empty_like(self._times)
        self._counts = np.zeros(rows, dtype=int)
        self.stream = replace(stream, columns=self._store(stream.columns, rows))

    def _store(self, columns, k):
        for j, (times, live, marks) in enumerate(columns):
            if j == self._times.shape[1]:
                wider = min(_MAX_WIDTH, 2 * j)
                self._times, self._marks = _widened(self._times, wider), _widened(self._marks, wider)
            self._times[:, j] = times[:k]
            self._marks[:, j] = marks[:k]
            self._counts += live[:k]
            yield times, live, marks

    def ensemble(self) -> PathEnsemble:
        shape = (self._counts.size, int(self._counts.max()))
        # a Fortran-ordered resize keeps the leading columns; no view of
        # the arrays is alive here
        self._times.resize(shape, refcheck=False)
        self._marks.resize(shape, refcheck=False)
        src = self._source
        return PathEnsemble(
            initial_state=src.initial_state,
            horizon=src.horizon,
            times=self._times,
            marks=self._marks,
            counts=self._counts,
            seed=src.seed,
        )


def _widened(a, capacity):
    wider = np.empty((a.shape[0], capacity), order="F")
    wider[:, : a.shape[1]] = a
    return wider


def simulate_ensemble(
    gen: GeneratorMatrix, i0: int, T: float, dists, n_paths: int, seed
) -> PathEnsemble:
    """Simulate n_paths marked point paths into padded arrays: every row of
    ``jump_columns``, kept (``KeptRows``) as the columns are drawn.  The
    arrays are sized once from the chain's mean jump count, widened only
    if a path outgrows that, and cut to the longest path in place.
    """
    kept = KeptRows(jump_columns(gen, i0, T, dists, n_paths, seed), n_paths)
    for _ in kept.stream.columns:
        pass
    return kept.ensemble()
