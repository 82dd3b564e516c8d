"""Markov-modulated marked point process.

A two-state continuous-time Markov chain generates the event times; the
mark of each event is drawn from the distribution attached to the
pre-jump state.  ``simulate_ensemble`` is the one sampler and
``PathEnsemble`` the one path type: it keeps all paths of a sample in
column-major rectangular arrays padded only to its longest path, so the
verification layer can evaluate path functionals with vectorised sweeps
over contiguous jump columns, and a path is a row of it (a block of
rows is ``PathEnsemble.rows``).  An ensemble draws each padding width
in row blocks, the first being a probe of its first rows, gives a width
up at its first unresolved block, and never touches the columns past
its longest path.

Random-number contract: an ensemble takes an integer seed and is
bit-reproducible.  The seed is split with ``numpy.random.SeedSequence``
into one chain stream and one mark stream, so chain and mark draws
never interleave; path k of an ensemble therefore depends on its path
count as well as on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# leading ensemble rows drawn to probe a padding width (an ensemble's
# first row block), cells in each later row block, and the widest
# padding an ensemble may take
_PROBE_ROWS = 64
_BLOCK_CELLS = 1 << 18
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

    @property
    def lambda_bar(self):
        # half the total switching rate; the chain mixes at rate 2*lambda_bar
        return 0.5 * (self.lambda0 + self.lambda1)


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

    def column_state(self, j):
        """Pre-jump state of jump column j (= regime on segment j)."""
        return (self.initial_state + j) % 2

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


def _draw_jump_times(rng, col_rates, out):
    """Fill the rows of out with cumulative holding times, column j at
    rate col_rates[j], continuing rng's stream row by row."""
    rng.standard_exponential(out=out)
    with np.errstate(divide="ignore"):
        out *= np.where(col_rates > 0, 1.0 / col_rates, np.inf)
    out[:, col_rates == 0] = np.inf
    np.cumsum(out, axis=1, out=out)


def _resolved(times, T):
    """Whether every row's last column lies past T (or never comes)."""
    last = times[:, -1]
    return bool(np.all(last > T) or np.all(np.isinf(last)))


def _draw_width(chain_ss, col_rates, T, n_paths):
    """Jump times (column-major) and counts of n_paths chains padded to
    len(col_rates) columns, or None if some chain jumps in every column.

    A fresh chain stream fills the holding-time matrix row by row, in
    blocks: the first ``_PROBE_ROWS`` rows, then about ``_BLOCK_CELLS``
    cells each, giving the width up at the first unresolved block.  A
    block writes only the columns of its own longest path; the caller
    pads the cells past each path's last jump.
    """
    rng = np.random.default_rng(chain_ss)
    width = col_rates.size
    block_rows = max(1, _BLOCK_CELLS // width)
    times = np.empty((n_paths, width), order="F")
    counts = np.empty(n_paths, dtype=int)
    block = np.empty((min(n_paths, max(_PROBE_ROWS, block_rows)), width))
    lo, hi = 0, min(n_paths, _PROBE_ROWS)
    while lo < n_paths:
        rows = block[: hi - lo]
        _draw_jump_times(rng, col_rates, rows)
        if not _resolved(rows, T):
            return None
        counts[lo:hi] = (rows <= T).sum(axis=1)
        longest = counts[lo:hi].max()
        times[lo:hi, :longest] = rows[:, :longest]
        lo, hi = hi, min(n_paths, hi + block_rows)
    return times, counts


def simulate_ensemble(
    gen: GeneratorMatrix, i0: int, T: float, dists, n_paths: int, seed
) -> PathEnsemble:
    """Simulate n_paths marked point paths into padded arrays.

    Column j of the holding-time matrix is Exponential with the rate of
    the alternating state (i0 + j) % 2.  The padding width doubles until
    every path is fully resolved inside [0, T]; the arrays then keep only
    the columns of the longest path.  Each width restarts the chain
    stream and draws it in row blocks, the probe of the first
    ``_PROBE_ROWS`` rows being the first (see ``_draw_width``); as the
    stream fills the matrix row by row, the accepted width and every
    sample are the ones drawing every width in full gives.  Columns past
    the longest path are never touched, and are cut off in place.
    """
    if T <= 0:
        raise ConfigError("horizon T must be positive")
    if n_paths < 1:
        raise ConfigError(f"an ensemble needs at least one path, got {n_paths}")
    root = seed_sequence(seed)
    chain_ss, mark_ss = root.spawn(2)

    width = 16
    while True:
        col_rates = gen.rates[(i0 + np.arange(width)) % 2]
        drawn = _draw_width(chain_ss, col_rates, T, n_paths)
        if drawn is not None:
            break
        width *= 2
        if width > _MAX_WIDTH:
            raise ConfigError(
                f"ensemble needs more than {_MAX_WIDTH} jump columns at chain "
                f"rates ({gen.lambda0:g}, {gen.lambda1:g}) over horizon T={T:g}"
            )
    times, counts = drawn
    # a Fortran-ordered resize keeps the leading columns; no view of
    # times is alive here
    width = int(counts.max())
    times.resize((n_paths, width), refcheck=False)

    # marks are drawn column by column; a path's jumps are the leading
    # columns of its row, so column j is padding where counts <= j
    mark_rng = np.random.default_rng(mark_ss)
    marks = np.empty_like(times)
    for j in range(width):
        pad = counts <= j
        times[pad, j] = np.inf
        col = dists[(i0 + j) % 2].sample(n_paths, mark_rng)
        marks[:, j] = np.where(pad, 0.0, col)

    return PathEnsemble(
        initial_state=i0,
        horizon=T,
        times=times,
        marks=marks,
        counts=counts,
        seed=seed,
    )
