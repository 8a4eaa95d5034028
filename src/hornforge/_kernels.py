"""Sparse boolean CSR kernels in numpy.

Each matrix is a pair (indptr, cols) of int64 arrays with sorted, unique
column indices per row.  Matrices are square, so an entry (row, col) of
an n x n matrix has the key row * n + col, and sorted unique keys are
exactly the entries in CSR order.

No kernel loops in Python: the rows of a product or a frontier are
gathered at once with `np.repeat` offsets, and duplicates are dropped by
a sort plus a neighbour comparison rather than by `np.unique`, which on
numpy 2.x costs ten to fifty times as much as `np.sort` on the same int64
keys; with it, a vectorized product would lose to a Python row loop.

`sorted_unique` and `take_ranges` are not tied to CSR matrices: the
column join in kg.py and the distinct head counts in kg.py and
metrics.py use them too.
"""

from __future__ import annotations

import numpy as np

_EMPTY = np.empty(0, np.int64)
_EMPTY.flags.writeable = False  # shared by every empty frontier_reach result


def sorted_unique(x):
    """The distinct elements of x, sorted ascending."""
    x = np.sort(x)
    keep = np.empty(x.shape[0], bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def row_ids(indptr):
    """The row of each stored entry of a CSR matrix, in storage order."""
    return np.repeat(np.arange(indptr.shape[0] - 1, dtype=np.int64), np.diff(indptr))


def csr_from_keys(keys, n):
    """(indptr, cols) of the n x n matrix whose entries have the given
    sorted unique row * n + col keys."""
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return indptr, keys % n


def take_ranges(values, starts, lengths):
    """values[starts[i] : starts[i] + lengths[i]] for every i, concatenated
    in order; lengths is an int64 array."""
    ends = lengths.cumsum()
    total = int(ends[-1]) if ends.shape[0] else 0
    # entry k of the output sits at starts[i] + (k - first output slot of i)
    return values[(starts - ends + lengths).repeat(lengths) + np.arange(total)]


def _gather(indptr, cols, rows):
    """The columns of the given rows, concatenated in row order, and the
    length of each row."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    return take_ranges(cols, starts, lengths), lengths


def spgemm_bool(indptr_a, cols_a, indptr_b, cols_b):
    """Boolean product of two square CSR matrices of the same order;
    returns (indptr, cols)."""
    n = indptr_b.shape[0] - 1
    cols, lengths = _gather(indptr_b, cols_b, cols_a)
    keys = np.repeat(row_ids(indptr_a) * n, lengths) + cols
    return csr_from_keys(sorted_unique(keys), n)


def intersect_count(a, b) -> int:
    """Size of the intersection of two sorted unique int64 arrays."""
    return int(np.intersect1d(a, b, assume_unique=True).size)


def frontier_reach(indptr, cols, frontier):
    """Sorted unique columns reachable from the given row set; a shared
    read-only array when there are none."""
    if frontier.size == 0:
        return _EMPTY
    return sorted_unique(_gather(indptr, cols, frontier)[0])
