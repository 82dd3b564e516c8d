"""Between the two sample layouts: a stored ensemble's padded arrays as the
jump columns ``mpp.jump_columns`` draws, for tests that sweep a
hand-built ensemble, and drawn columns back as padded arrays, to hold a
drawn sample against the stored one."""

import numpy as np

from jumpfolio.mpp import BLOCK_PATHS, ColumnStream


def stored_blocks(ens):
    """The one ``ColumnStream`` block of a stored ensemble of at most
    ``BLOCK_PATHS`` paths: its columns in the compacted layout that
    ``jump_columns`` draws."""
    assert ens.n_paths <= BLOCK_PATHS
    return (ColumnStream(ens.initial_state, ens.horizon, ens.n_paths, _compacted_columns(ens)),)


def _compacted_columns(ens):
    rows = np.arange(ens.n_paths)  # the paths of the last column
    for j in range(ens.times.shape[1]):
        keep = np.flatnonzero(ens.counts[rows] > j)
        if keep.size == 0:
            return
        if keep.size < rows.size:
            rows = rows[keep]
        else:
            keep = None
        yield ens.times[rows, j], ens.marks[rows, j], keep


def expand(columns, n_paths):
    """The padded (paths x columns) times and marks of compacted columns."""
    times = np.full((n_paths, len(columns)), np.inf)
    marks = np.zeros((n_paths, len(columns)))
    rows = np.arange(n_paths)
    for j, (t, m, keep) in enumerate(columns):
        if keep is not None:
            rows = rows[keep]
        times[rows, j], marks[rows, j] = t, m
    return times, marks
