"""Sparse boolean CSR kernels in numpy.

Each matrix is a pair (indptr, cols) of int64 arrays with sorted, unique
column indices per row.
"""

from __future__ import annotations

import numpy as np

_EMPTY = np.empty(0, np.int64)
_EMPTY.flags.writeable = False  # shared by every empty frontier_reach result


def spgemm_bool(indptr_a, cols_a, indptr_b, cols_b):
    """Boolean sparse product of two CSR matrices; returns (indptr, cols)."""
    n_rows = indptr_a.shape[0] - 1
    indptr_c = np.zeros(n_rows + 1, np.int64)
    rows = []
    for i in range(n_rows):
        rows.append(frontier_reach(indptr_b, cols_b, cols_a[indptr_a[i] : indptr_a[i + 1]]))
        indptr_c[i + 1] = indptr_c[i] + rows[-1].size
    cols_c = np.concatenate(rows) if rows else _EMPTY.copy()
    return indptr_c, cols_c.astype(np.int64, copy=False)


def intersect_count(a, b) -> int:
    """Size of the intersection of two sorted unique int64 arrays."""
    return int(np.intersect1d(a, b, assume_unique=True).size)


def frontier_reach(indptr, cols, frontier):
    """Sorted unique columns reachable from the given row set; a shared
    read-only array when there are none."""
    if frontier.size == 0:
        return _EMPTY
    return np.unique(np.concatenate([cols[indptr[i] : indptr[i + 1]] for i in frontier]))
