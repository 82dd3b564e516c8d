"""Markov-modulated marked point process.

A two-state continuous-time Markov chain generates the event times; the
mark of each event is drawn from the distribution attached to the
pre-jump state.  The chain alternates, so jump column j of every path
has the rate of state (i0 + j) % 2, and a sample is drawn in forward
passes, column by column, until no path is left inside the horizon.
A sample of n paths is a run of consecutive blocks of ``BLOCK_PATHS``
paths (the last block may be shorter), each drawn and swept in its own
pass, so what a pass holds does not grow with n.
``jump_columns`` makes those passes: it yields each block's columns as
they are drawn (a ``SampleStream`` of ``ColumnStream`` blocks), so a
reader that needs only per-path accumulators, such as the verification
layer's sweep, never holds more than a column of one block.
``simulate_ensemble`` keeps every column of the same passes and lays them
out, once the longest path is known, in a ``PathEnsemble``, the one
stored path type: column-major rectangular arrays padded only to the
longest path; a path is a row of it (a block
of rows is ``PathEnsemble.rows``), and ``PathEnsemble.columns`` streams
the stored columns again, in the same blocks, the one way a stored
sample is swept.

Random-number contract: a sample takes an integer seed and is
bit-reproducible, streamed or stored.  The seed is split with
``numpy.random.SeedSequence(seed).spawn(2 * blocks)``: block b draws its
holding times from child 2b and its marks from child 2b + 1, so chain
and mark draws never interleave, and a one-block sample (at most
``BLOCK_PATHS`` paths) uses the first two children alone.  Within a
block, jump column j draws, in path order, one holding time for each
path still inside [0, T] after column j - 1 (every path of the block at
column 0), and then one mark for each path whose j-th jump lies in
[0, T]; a path that has left the horizon draws nothing more.  So path k
of a sample depends on the seed, on its block (path k lies in block
k // BLOCK_PATHS), on that block's path count and on when the block's
other paths leave.  The first b * BLOCK_PATHS paths of a larger sample
are the sample of b * BLOCK_PATHS paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigError

# the most jump columns an ensemble may take
_MAX_WIDTH = 1 << 20

# the paths of one block: a sample is drawn and swept a block at a time
BLOCK_PATHS = 1 << 14


@dataclass(frozen=True)
class GeneratorMatrix:
    """Intensity matrix of the two-state chain, parameterised by its off-diagonal rates."""

    lambda0: float
    lambda1: float

    def __post_init__(self):
        if not (self.lambda0 >= 0 and self.lambda1 >= 0):
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
    """The jump columns of one block of ``n_paths`` paths, in time order,
    each passed on once.  Column j is (times, marks, keep) over the paths
    with a j-th jump in [0, T], in path order: their j-th jump times and
    marks, and ``keep``, the integer positions of these paths among
    column j - 1's (among all the paths at column 0), or None when every
    one of those has a j-th jump.  A path missing from a column has left
    the horizon and appears in no later column.  The stream ends before
    the first column with no path left.  The pre-jump state of column j
    is ``(initial_state + j) % 2``.
    """

    initial_state: int
    horizon: float
    n_paths: int
    seed: object
    columns: Iterator


@dataclass(frozen=True)
class SampleStream:
    """A sample of ``n_paths`` paths as its consecutive blocks, in path
    order: ``blocks`` holds one ``ColumnStream`` per ``BLOCK_PATHS``
    paths (the last may hold fewer), and block b's paths are the sample's
    paths b * BLOCK_PATHS onwards.  Each block's columns are drawn, or
    read, as they are passed on, and each block is passed on once.
    """

    initial_state: int
    horizon: float
    n_paths: int
    seed: object
    blocks: tuple

    @property
    def columns(self) -> Iterator:
        """The columns of a one-block sample (at most BLOCK_PATHS paths)."""
        (block,) = self.blocks
        return block.columns


def _block_bounds(n_paths):
    """(lo, hi) of each block of a sample of n_paths paths, in path order."""
    return [(lo, min(lo + BLOCK_PATHS, n_paths)) for lo in range(0, n_paths, BLOCK_PATHS)]


def _sample_stream(i0, T, n_paths, seed, block_columns) -> SampleStream:
    """The sample whose block b, paths lo .. hi - 1, has the columns
    block_columns(b, lo, hi); every block is made at the call."""
    blocks = tuple(
        ColumnStream(i0, T, hi - lo, seed, block_columns(b, lo, hi))
        for b, (lo, hi) in enumerate(_block_bounds(n_paths))
    )
    return SampleStream(i0, T, n_paths, seed, blocks)


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

    def columns(self) -> SampleStream:
        """The stored jump columns as a stream, in its compacted layout and
        in the blocks ``jump_columns`` draws."""
        return _sample_stream(
            self.initial_state, self.horizon, self.n_paths, self.seed,
            lambda b, lo, hi: self._compacted_columns(lo, hi),
        )

    def _compacted_columns(self, lo, hi):
        rows = np.arange(lo, hi)  # the paths of the last column
        for j in range(self.times.shape[1]):
            keep = np.flatnonzero(self.counts[rows] > j)
            if keep.size == 0:
                return
            if keep.size < rows.size:
                rows = rows[keep]
            else:
                keep = None
            yield self.times[rows, j], self.marks[rows, j], keep


def _too_wide(gen, T):
    return ConfigError(
        f"ensemble needs more than {_MAX_WIDTH} jump columns at chain "
        f"rates ({gen.lambda0:g}, {gen.lambda1:g}) over horizon T={T:g}"
    )


def jump_columns(gen: GeneratorMatrix, i0: int, T: float, dists, n_paths: int, seed) -> SampleStream:
    """Draw n_paths marked point paths a block at a time, and each block
    one jump column at a time.

    In a block, column j adds an exponential holding time from the
    block's chain stream, at the rate of the alternating state
    (i0 + j) % 2, to the running jump time of each path still inside
    [0, T], and then draws one mark from the block's mark stream for each
    path whose new time is still inside.  The block ends at the first
    column with no path left inside [0, T], or at once at an absorbing
    state (rate 0), which draws nothing.  The arguments are checked and
    every block's two random streams made at the call; the columns are
    drawn as they are read, so no column is held longer than its reader
    keeps it.
    """
    if T <= 0:
        raise ConfigError("horizon T must be positive")
    if n_paths < 1:
        raise ConfigError(f"an ensemble needs at least one path, got {n_paths}")
    if gen.mean_jump_count(i0, T) > _MAX_WIDTH:
        raise _too_wide(gen, T)
    children = np.random.SeedSequence(seed).spawn(2 * len(_block_bounds(n_paths)))
    rngs = [np.random.default_rng(child) for child in children]
    return _sample_stream(
        i0, T, n_paths, seed,
        lambda b, lo, hi: _draw_columns(gen, i0, T, dists, hi - lo, rngs[2 * b], rngs[2 * b + 1]),
    )


def _draw_columns(gen, i0, T, dists, n, chain_rng, mark_rng):
    t = np.zeros(n)  # the jump times of the last column; yielded, so never written
    rates = gen.rates
    for j in range(_MAX_WIDTH + 1):
        state = (i0 + j) % 2
        rate = rates[state]
        if rate == 0.0:  # an absorbing state: no path jumps again
            return
        step = chain_rng.standard_exponential(t.size)
        step /= rate
        step += t
        # an integer gather: on a random mask it is several times faster
        # than a boolean one
        keep = np.flatnonzero(step <= T)
        if keep.size == 0:
            return
        if j == _MAX_WIDTH:
            raise _too_wide(gen, T)
        if keep.size < step.size:
            step = step[keep]
        else:
            keep = None
        t = step
        yield t, dists[state].sample(t.size, mark_rng), keep


def simulate_ensemble(
    gen: GeneratorMatrix, i0: int, T: float, dists, n_paths: int, seed
) -> PathEnsemble:
    """Simulate n_paths marked point paths into padded arrays: every column
    of every block of ``jump_columns``, kept as it is drawn with the
    positions of its paths, and laid out once the width, the longest path
    of any block, is known.
    """
    drawn = []  # (column, sample rows, times, marks)
    lo = 0
    for block in jump_columns(gen, i0, T, dists, n_paths, seed).blocks:
        rows = np.arange(lo, lo + block.n_paths)  # the paths of the last column, in order
        for j, (t, m, keep) in enumerate(block.columns):
            if keep is not None:
                rows = rows[keep]
            drawn.append((j, rows, t, m))
        lo += block.n_paths
    width = max((j + 1 for j, *_ in drawn), default=0)
    times = np.full((n_paths, width), np.inf, order="F")
    marks = np.zeros_like(times)
    counts = np.zeros(n_paths, dtype=int)
    for j, rows, t, m in drawn:
        times[rows, j] = t
        marks[rows, j] = m
        counts[rows] = j + 1
    return PathEnsemble(
        initial_state=i0, horizon=T, times=times, marks=marks, counts=counts, seed=seed
    )
